#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--seeds 1-10] [--workload NAME ...]

Runs perfbench/run.py once per seed and workload, one run at a time, and
prints for each end-to-end metric the median of its values and the
distance between their first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread above a third of the bound is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed}: run failed "
                         f"(exit {proc.returncode})")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}  ({len(values['setup_s'])} seeds)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            share = (q3 - q1) / med if med else 0.0
            flag = "" if share <= m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            print(f"  {m['name']:18s} median {med:12.4f} {m['unit']:6s} "
                  f"IQR/median {share:7.4f}  bound {m['bound']:.3f}{flag}")
            print("      values " + " ".join(f"{x:.6g}" for x in v))
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
