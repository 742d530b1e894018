#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
`perfbench` executable from perfbench/ and src/ into .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench); later calls rebuild incrementally. The
executable's standard output is passed through; its last line is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is non-zero when a correctness check fails or the result does not name
exactly the metrics BENCHMARK.json lists. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flagship_topk", "table1_topk100", "churn_cached")
RUN_TIMEOUT_S = 170
# Metrics that come from virtual time only: identical for any pool width.
VIRTUAL = ("latency_p50_ms", "latency_p99_ms", "response_p50_ms",
           "recall_at_10", "bytes_per_query", "store_mb", "ok_share")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: run from a full checkout")
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(
        ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Run the executable; returns (exit code, stdout lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        cmd += ["--spans", os.path.join(build_dir(),
                                        f"spans-{workload}-{seed}.tsv")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def valid(result, trace):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result line is not the expected JSON object"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics {sorted(got)} do not match BENCHMARK.json"
    return None


def main_run(args):
    binary = build()
    code, lines, result = run_once(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    problem = valid(result, args.trace)
    if problem is not None:
        print("\n".join(lines[:-1]))
        fail(problem)
    print("\n".join(lines))
    sys.stdout.flush()
    sys.exit(code)


def selftest():
    """Determinism across runs and pool widths at tiny scale, and a
    planted wrong result that the correctness checks must catch."""
    binary = build()
    wide = str(min(4, os.cpu_count() or 1))
    ok = True
    for w in WORKLOADS:
        seen = []
        for width in ("1", "1", wide):
            code, lines, result = run_once(binary, w, 7, 0, 0,
                                           ["--tiny", "--threads", width])
            if code != 0 or valid(result, 0) is not None:
                print(f"FAIL {w}: width {width} run failed (exit {code})")
                ok = False
                break
            seen.append({k: result["metrics"][k]["value"] for k in VIRTUAL})
        if len(seen) == 3:
            same = seen[0] == seen[1] == seen[2]
            ok &= same
            print(f"{'ok  ' if same else 'FAIL'} {w}: virtual-time metrics "
                  f"identical across two width-1 runs and width {wide}")
        code, _, result = run_once(binary, w, 7, 0, 0,
                                   ["--tiny", "--plant-fault"])
        caught = (code != 0 and result is not None and result["failed"] > 0
                  and result["metrics"]["ok_share"]["value"] < 1)
        ok &= caught
        print(f"{'ok  ' if caught else 'FAIL'} {w}: planted wrong result "
              f"{'caught' if caught else 'NOT caught'} (exit {code})")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        p.error("--workload is required")
    main_run(args)


if __name__ == "__main__":
    main()
