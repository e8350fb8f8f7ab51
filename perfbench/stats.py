"""Statistics shared by the benchmark's scripts.

* ``median`` and ``quartiles`` (quartiles as ``statistics.quantiles(n=4)``
  gives them, which is how run-to-run spread is judged);
* ``percentile`` and ``tail``: a timing is reported as its median and the
  highest percentile that still has at least ten samples beyond it, with
  the sample count;
* ``pairing_verdict``: the rule for claiming a gain from alternating
  parent/change runs (at least 9 in 10 pairs won, ties counting for
  neither side, and a median gap larger than the parent's quartile spread).
"""

import math
import statistics

TAIL_SAMPLES = 10


def median(xs):
    """Median of a non-empty sequence."""
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def quartiles(xs):
    """(Q1, median, Q3). A single sample is its own quartiles."""
    if not xs:
        raise ValueError("quartiles of no samples")
    if len(xs) == 1:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q1, q2, q3)


def spread(xs):
    """Quartile spread as a share of the median: (Q3 - Q1) / median."""
    q1, q2, q3 = quartiles(xs)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def percentile(xs, p):
    """The p-th percentile (0..100), linear between closest ranks."""
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside 0..100")
    s = sorted(xs)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def highest_supported_percentile(n, beyond=TAIL_SAMPLES):
    """Highest whole percentile p with at least `beyond` of `n` samples
    above it, or None when there are not enough samples for any."""
    if n <= beyond:
        return None
    return math.floor(100.0 * (n - beyond) / n)


def tail(xs, beyond=TAIL_SAMPLES):
    """(p, value at p, n) for the highest supported percentile, or
    (None, None, n) when fewer than `beyond` + 1 samples exist."""
    p = highest_supported_percentile(len(xs), beyond)
    if p is None:
        return (None, None, len(xs))
    return (p, percentile(xs, p), len(xs))


def pairing_verdict(parent, change, better="lower", share=0.9):
    """Judge alternating parent/change runs, paired in order.

    A gain is claimed only when the change wins at least `share` of all
    pairs (ties count for neither side) and the medians differ, in the
    better direction, by more than the parent's quartile spread Q3 - Q1.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change runs, at least one")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cmed = median(change)
    gap = sign * (pmed - cmed)
    gain = wins >= share * len(parent) and gap > (pq3 - pq1)
    return {
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "parent_median": pmed,
        "parent_quartiles": (pq1, pq3),
        "change_median": cmed,
        "change_quartiles": quartiles(change)[::2],
        "median_gap": gap,
        "gain": gain,
    }
