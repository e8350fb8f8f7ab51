#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and run-to-run spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1,2,...]
                                [--seconds S] [--out results.jsonl]

Spread is (Q3 - Q1) / median over the runs, quartiles as
`statistics.quantiles(n=4)` gives them. A metric is steady when its spread
stays below a third of its bound; every end-to-end metric is judged.
Each run's result line is appended to `--out` when given.
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


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    a = ap.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]
    metrics = bench["end_to_end"]
    steady = True
    for w in a.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if r.returncode != 0:
                print(f"{w} seed {seed}: exit code {r.returncode}", file=sys.stderr)
                return 1
            result = json.loads(r.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: correctness checks failed", file=sys.stderr)
                steady = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            if a.out:
                with open(a.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in values), flush=True)
        print(f"== {w}: {len(seeds)} runs")
        for m in metrics:
            xs = values[m["name"]]
            q1, med, q3 = stats.quartiles(xs)
            sp = stats.spread(xs)
            bound = m["bound"]
            ok = sp < bound / 3
            steady &= ok
            print(f"  {m['name']:<26} median {med:>12.6g} {m['unit']:<8} Q1 {q1:.6g} Q3 {q3:.6g}"
                  f"  spread {sp * 100:6.2f}%  bound {bound * 100:.0f}%  "
                  + ("steady" if ok else "NOT steady"))
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
