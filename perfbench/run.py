#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `perfbench/` (its own Cargo
package, release profile), runs one workload in a fresh process, checks
the outputs and prints every metric by name and unit. The last line of
standard output is one JSON object: end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`. Raw samples and spans are written
to `.bench_out/`. Workloads, metrics and the layer map are described in
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# `final_acc_pct` is the mean test accuracy of this many last rounds.
FINAL_ROUNDS = 5


def load_bench():
    """BENCHMARK.json: the workloads and the metrics, with their units."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(bench):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return a


def build():
    """Build the measured program; cargo skips it when up to date."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", manifest]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with code {r.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"built program not found at {exe}")
    return exe


def run_program(exe, a):
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload run exceeded {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"workload run exited with code {r.returncode}")
    lines = r.stdout.decode().strip().splitlines()
    if not lines:
        fail("workload run printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"workload run printed no result: {e}")


def wall_s(run):
    return run["wall_ns"] / 1e9


def round_s(run):
    """Wall seconds of each round: consecutive `begin_round` clock reads,
    the last round ending when the run returns."""
    marks = run["round_marks_ns"]
    return [(b - a) / 1e9 for a, b in zip(marks, marks[1:])]


def records(run):
    return run["log"]["records"]


def updates(raw):
    """(attempted, failed) client updates over all runs, as counted at
    the algorithm boundary."""
    attempted = sum(a["attempted"] for r in raw["runs"] for a in r["accounts"])
    aggregated = sum(a["aggregated"] for r in raw["runs"] for a in r["accounts"])
    return attempted, attempted - aggregated


def own_checks(raw):
    """Checks on the raw result beyond the program's own."""
    out = []
    runs = raw["runs"]
    first = runs[0]
    wire = sum(a["wire_bytes"] for a in first["accounts"])
    sent = sum(a["aggregated"] for a in first["accounts"])
    per_round = [rec["upload_bytes_mean"] for rec in records(first)]
    mean = wire / sent if sent else 0.0
    # Each record floors its own round's mean, so the two may differ by
    # less than one byte.
    ok = sent > 0 and abs(mean - sum(per_round) / len(per_round)) < 1.0
    out.append({"name": "upload_bytes_mean_agrees_with_sum_of_wire_bytes", "ok": ok,
                "detail": "" if ok else f"{mean} vs per-round {per_round}"})
    samples = all(r["samples"] > 0 and r["wall_ns"] > 0 for r in runs)
    out.append({"name": "work_was_measured", "ok": samples,
                "detail": "" if samples else "a run fed no samples or took no time"})
    return out


def final_acc_pct(run):
    """Mean test accuracy (%) of the run's last FINAL_ROUNDS rounds. A
    non-finite accuracy arrives as null, has failed a check and gives 0."""
    accs = [rec["test_acc"] for rec in records(run)[-FINAL_ROUNDS:]]
    return 0.0 if None in accs else sum(accs) / len(accs) * 100.0


def windowed(windows):
    """Median of the per-window medians of a set-up time (with two
    windows, the mean of their medians)."""
    return stats.median([stats.median(w) for w in windows])


def end_to_end(raw, attempted, failed):
    """End-to-end metrics; `failed` already counts every attempted update
    of a run that failed a check."""
    runs = raw["runs"]
    wall = sum(wall_s(r) for r in runs)
    rounds = [t for r in runs for t in round_s(r)]
    first = runs[0]
    wire = sum(a["wire_bytes"] for a in first["accounts"])
    sent = sum(a["aggregated"] for a in first["accounts"])
    m = {
        "setup_s": windowed(raw["setup_s"]),
        "samples_per_s": sum(r["samples"] for r in runs) / wall,
        "round_ms_p50": stats.median(rounds) * 1e3,
        "round_ms_p90": stats.percentile(rounds, 90) * 1e3,
        "peak_rss_mib": raw["peak_rss_bytes"] / 2**20,
        "upload_bytes_mean": wire / sent if sent else 0.0,
        "final_acc_pct": final_acc_pct(first),
        "delivered_frac": (attempted - failed) / attempted,
    }
    p, v, n = stats.tail(rounds)
    notes = {
        "setup_s": "medians of set-up windows before and after the run, of "
                   + " and ".join(str(len(w)) for w in raw["setup_s"]) + " set-ups",
        "samples_per_s": f"{sum(r['samples'] for r in runs)} samples in {wall:.2f} s",
        "round_ms_p50": f"n={n} rounds over {len(runs)} runs",
        "final_acc_pct": f"mean of the last {min(FINAL_ROUNDS, raw['rounds'])} rounds",
        "round_ms_p90": f"n={n}; highest percentile with >=10 beyond: "
                        + (f"p{p} = {v * 1e3:.1f} ms" if p is not None else "none"),
        "delivered_frac": "1 - failed_frac",
    }
    return m, notes


def spans_s(run):
    """A traced run's spans with `start`/`end` in seconds."""
    return [dict(s, start=s["start_ns"] / 1e9, end=s["end_ns"] / 1e9) for s in run["spans"]]


def per_round(traced, n_rounds):
    """Per-round stage times (seconds) from the spans of traced runs."""
    rows = []
    for spans in traced:
        for r in range(n_rounds):
            rs = [s for s in spans if s["round"] == r]
            wall = next(s for s in rs if s["name"] == "round")
            lu = [s for s in rs if s["name"] == "core.local_update"]
            agg = [s for s in rs if s["name"] == "fl.aggregate"]
            ev = [s for s in rs if s["name"] in ("fl.eval_params", "nn.eval")]
            train = max(s["end"] for s in lu) - min(s["start"] for s in lu) if lu else 0.0
            aggregate = sum(s["end"] - s["start"] for s in agg)
            evaluate = max(s["end"] for s in ev) - min(s["start"] for s in ev) if ev else 0.0
            w = wall["end"] - wall["start"]
            covered = union_length(
                [(s["start"], s["end"]) for s in rs if s["name"] != "round"])
            rows.append({
                "wall": w,
                "train": train,
                "busy": sum(s["end"] - s["start"] for s in lu),
                "aggregate": aggregate,
                "agg_bytes": sum(s["bytes"] for s in agg),
                "eval": evaluate,
                "other": w - train - aggregate - evaluate,
                "driver_self": w - covered,
            })
    return rows


def union_length(intervals):
    total, end = 0.0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def layers(raw, attempted, failed):
    runs = raw["runs"]
    traced_runs = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    traced = [spans_s(r) for r in traced_runs]
    n_rounds = raw["rounds"]
    rows = per_round(traced, n_rounds)
    width = raw["width"]

    def durs(name, scale):
        return [(s["end"] - s["start"]) * scale
                for spans in traced for s in spans if s["name"] == name]

    lu_self, lu_total = 0.0, 0.0
    for spans in traced:
        child = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        for k, s in enumerate(spans):
            if s["name"] == "core.local_update":
                lu_total += s["end"] - s["start"]
                lu_self += s["end"] - s["start"] - child[k]

    lu_ms = durs("core.local_update", 1e3)
    lg_us = durs("nn.loss_grad", 1e6)
    comp_us = durs("compress.compress", 1e6)
    direct = raw["direct"]
    all_rounds = n_rounds * len(runs)
    accounts = [a for r in runs for a in r["accounts"]]
    sent = sum(a["aggregated"] for a in accounts)

    def rate(rs):
        return sum(r["samples"] for r in rs) / sum(wall_s(r) for r in rs)

    agg_s = sum(r["aggregate"] for r in rows)
    m = {
        "data.build_s": windowed(raw["build_s"]),
        "data.shard_us_p50": stats.median(direct["shard_us"]),
        "fl.train_ms_p50": stats.median([r["train"] for r in rows]) * 1e3,
        "fl.train_idle_frac": 1.0 - sum(r["busy"] for r in rows)
        / (sum(r["train"] for r in rows) * width),
        "fl.aggregate_ms_p50": stats.median([r["aggregate"] for r in rows]) * 1e3,
        "fl.aggregate_mb_per_s": sum(r["agg_bytes"] for r in rows) / agg_s / 1e6,
        "fl.eval_ms_p50": stats.median([r["eval"] for r in rows]) * 1e3,
        "fl.other_ms_p50": stats.median([r["other"] for r in rows]) * 1e3,
        "fl.updates": attempted / all_rounds,
        "fl.updates_failed": failed / all_rounds,
        "core.local_update_ms_p50": stats.median(lu_ms),
        "core.local_update_ms_p90": stats.percentile(lu_ms, 90),
        "core.self_frac": lu_self / lu_total,
        "core.sample_theta_us": stats.median(direct["sample_theta_us"]),
        "nn.loss_grad_us_p50": stats.median(lg_us),
        "nn.loss_grad_us_p90": stats.percentile(lg_us, 90),
        "nn.loss_grad_calls": len(lg_us) / (n_rounds * len(traced)),
        "nn.eval_us_p50": stats.median(durs("nn.eval", 1e6)),
        "tensor.gemm_gflops": direct["gemm_flops"] / stats.median(direct["gemm_us"]) / 1e3,
        "compress.compress_us_p50": stats.median(comp_us or direct["encode_us"]),
        "compress.ratio": sum(a["wire_bytes"] for a in accounts) / (sent * raw["model_bytes"]),
        "sim.self_ms_p50": stats.median([r["driver_self"] for r in rows]) * 1e3,
        "sim.events": sum(r["sim_events"] for r in runs) / all_rounds,
        "bench.trace_overhead_pct": (rate(untraced) / rate(traced_runs) - 1.0) * 100.0,
        "bench.attributed_frac": sum(r["train"] + r["aggregate"] + r["eval"] for r in rows)
        / sum(r["wall"] for r in rows),
    }
    wall = sum(r["wall"] for r in rows)
    shares = {k: sum(r[k] for r in rows) / wall for k in ("train", "aggregate", "eval", "other")}
    gemm_gb = direct["gemm_bytes"] / stats.median(direct["gemm_us"]) / 1e3
    notes = {
        "fl.train_ms_p50": "round shares: " + ", ".join(
            f"{k} {v * 100:.2f}%" for k, v in shares.items()),
        "fl.train_idle_frac": f"rayon width {width}",
        "core.local_update_ms_p50": f"n={len(lu_ms)} updates",
        "nn.loss_grad_us_p50": f"n={len(lg_us)} calls",
        "tensor.gemm_gflops": f"{direct['gemm_flops']:.3g} flop and {direct['gemm_bytes']:.3g} "
                              f"bytes per pass (computed), {gemm_gb:.2f} GB/s",
        "compress.compress_us_p50": "Compressor::compress (decorated)" if comp_us
        else "codec::encode_weights (direct call; no compressor in this method)",
        "sim.self_ms_p50": "sim::Simulator" if m["sim.events"] > 0
        else "lock-step driver fl::runner::Experiment (no simulator)",
        "bench.trace_overhead_pct": f"{len(untraced)} untraced vs {len(traced)} traced runs",
    }
    return m, notes


def evaluate(raw, trace, bench):
    """Judge a raw result: (checks, result line, notes). A run that fails
    a check counts all of its attempted updates as failed, in `failed`
    and in the metrics."""
    checks = raw["checks"] + own_checks(raw)
    correct = all(c["ok"] for c in checks)
    attempted, failed = updates(raw)
    if not correct:
        failed = attempted
    if trace:
        metrics, notes = layers(raw, attempted, failed)
        specs = bench["per_layer"]
    else:
        metrics, notes = end_to_end(raw, attempted, failed)
        specs = bench["end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs},
    }
    return checks, result, notes


def show(result, notes):
    for name, m in result["metrics"].items():
        note = notes.get(name)
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<8}" + (f"  {note}" if note else ""))


def main():
    bench = load_bench()
    a = parse_args(bench)
    exe = build()
    raw = run_program(exe, a)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(path, "w") as f:
        json.dump(raw, f)

    checks, result, notes = evaluate(raw, a.trace, bench)
    print(f"workload {a.workload}  seed {a.seed}  trace {a.trace}  rayon width {raw['width']}"
          f"  runs {len(raw['runs'])} x {raw['rounds']} rounds  cohort {raw['cohort']}")
    print(f"result digest {', '.join(sorted(set(raw['digests'])))} (information only)")
    for c in checks:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED ' + c['detail']}")
    show(result, notes)
    attempted, failed = result["attempted"], result["failed"]
    if not a.trace:
        print(f"  {'failed_frac':<28} {failed / attempted:>14.6g} {'frac':<8}"
              f"  {failed} of {attempted} updates did not reach aggregation")
    if raw["adversarial_updates"]:
        print(f"  {raw['adversarial_updates']} updates came from adversarial clients;"
              " all were aggregated")
    print(f"raw samples: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
