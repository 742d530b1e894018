#!/usr/bin/env python3
"""Regression gates for a bench_flagship run (BENCH_flagship.json).

Compares a freshly produced flagship run against its committed baseline
(bench/BENCH_flagship.baseline.json by default). Every gate reads the
*deterministic* section — virtual-time latencies and exact byte counts,
so they are immune to machine noise and any violation is a real
behaviour change, not jitter. Wall-clock throughput is perfbench's job
(perfbench/run.py), not this script's. The run fails when:

  * p99 response latency exceeds the baseline's by more than
    --flagship-latency-threshold (default 10%);
  * the streaming-build arena high-water mark leaves
    --arena-threshold (default 25%) of the baseline's (the batch-sized
    memory budget of the streaming insert path);
  * total bytes on the wire grow by more than --wire-threshold
    (default 10%);
  * recall@10 (deterministic sampled-oracle mean) falls below
    --flagship-recall-floor (default 0.90) — an absolute floor, not a
    ratio, so no change can silently trade recall for speed;
  * scanned entries per subquery grow by more than
    --flagship-scan-threshold (default 50%).

The baseline gates are scale-matched: when the current run's "scale"
section differs from the baseline's (e.g. an LMK_FULL run against the
committed smoke baseline), they are skipped with a note.

Serving-tier gates: when the current flagship run carries a
deterministic "serve" section (produced with LMK_FLAGSHIP_SERVE=1),
four absolute gates run on it — absolute, not baseline-relative,
because the section compares serve-on against serve-off inside one
run:

  * the efficiency rung's result digests must match (the cache and the
    coalescing window must not change any query's result set);
  * the cache hit rate must reach --serve-hit-floor (default 0.30)
    under the Zipf-pooled workload;
  * bytes on the wire with batching must not exceed the serve-off
    bytes: wire_ratio <= --serve-wire-ceiling (default 1.0);
  * at the --serve-overload-mult (default 4x) rung of the arrival-rate
    ladder, p99 with shedding on must be strictly below p99 with the
    serving tier off — load shedding must buy tail latency under
    overload or it is dead weight.

Serve-off runs carry no "serve" section and the gates auto-skip with a
printed note, so the default pipelines are unaffected.

Flagship allocation gate: when the current flagship run carries an
"alloc" section with "guard_enabled": true, the real open-loop query
phase ("open_loop_queries") must stay at or below
FLAGSHIP_ALLOC_CEILING allocations per arrival (scale.arrivals). Not
zero — each query legitimately allocates its outcome, result set,
rank closure and per-reply id lists — but a per-candidate allocation
(a rank memo node, an unpooled reply buffer) multiplies the count by
the ~1.4k candidates of a smoke-scale query and fails the ceiling by
an order of magnitude. This is a HARD failure: it exits nonzero even
under --warn-only, which softens only the other gates. (The engine and
result-cache steady states are held to zero allocations by ctests in
the same alloc-guard build: sim_test and serve_test.)

Malformed input (unreadable file, invalid JSON, a non-numeric value
where a number is required) exits nonzero with a one-line
"bench_diff: <path>: ..." message — never a Python traceback.
"""

import argparse
import json
import sys

# Allocations per arrival allowed in the flagship open-loop query phase.
# Smoke-scale bench_flagship (256 nodes, 20k objects, 200 arrivals)
# measures 382 per arrival with flush-time batch ranking, against 1,760
# when ranking kept a per-query memo with one node per candidate. The
# ceiling leaves ~30% headroom over 382 and still sits ~3.5x below a
# reintroduced per-candidate allocation.
FLAGSHIP_ALLOC_CEILING = 500.0


def section(mapping, key, path):
    """`mapping[key]` as a dict; {} when absent, readable exit when
    present but not an object (a malformed producer, not a bug here)."""
    val = mapping.get(key)
    if val is None:
        return {}
    if not isinstance(val, dict):
        sys.exit(f"bench_diff: {path}: \"{key}\" is not a JSON object")
    return val


def fnum(mapping, key, path, default=0.0):
    val = mapping.get(key, default)
    try:
        return float(val)
    except (TypeError, ValueError):
        sys.exit(f"bench_diff: {path}: \"{key}\" is not a number "
                 f"(got {val!r})")


def inum(mapping, key, path, default=0):
    val = mapping.get(key, default)
    try:
        return int(val)
    except (TypeError, ValueError):
        sys.exit(f"bench_diff: {path}: \"{key}\" is not an integer "
                 f"(got {val!r})")


def load_flagship(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    if not isinstance(doc, dict) or not isinstance(doc.get("deterministic"),
                                                   dict):
        sys.exit(f"bench_diff: {path} has no \"deterministic\" section")
    return doc


def check_flagship(args, base_doc, cur_doc, gate):
    base_scale = base_doc.get("scale", {})
    cur_scale = cur_doc.get("scale", {})
    if base_scale != cur_scale:
        diff = {k for k in set(base_scale) | set(cur_scale)
                if base_scale.get(k) != cur_scale.get(k)}
        print(f"bench_diff: flagship gates skipped — scale mismatch vs "
              f"baseline ({', '.join(sorted(diff))}); deterministic "
              f"numbers are only comparable at identical scale")
        return

    base = base_doc["deterministic"]
    cur = cur_doc["deterministic"]

    # --- p99 latency (virtual time: deterministic, noise-free) ---
    base_p99 = fnum(section(base, "latency_ms", args.flagship_baseline),
                    "p99", args.flagship_baseline)
    cur_p99 = fnum(section(cur, "latency_ms", args.flagship), "p99",
                   args.flagship)
    if base_p99 > 0 and cur_p99 > 0:
        growth = cur_p99 / base_p99
        ceil = 1.0 + args.flagship_latency_threshold
        print(f"bench_diff: flagship p99 {cur_p99:.2f}ms vs baseline "
              f"{base_p99:.2f}ms ({growth:.2f}x)")
        if growth > ceil:
            gate(f"flagship p99 latency grew {growth:.2f}x over baseline "
                 f"(ceiling {ceil:.2f}x) — virtual-time metric, not noise")
    else:
        print("bench_diff: flagship p99 missing on one side (skipped)")

    # --- arena high-water mark (streaming-build memory budget) ---
    base_arena = inum(section(base, "memory", args.flagship_baseline),
                      "arena_high_water", args.flagship_baseline)
    cur_arena = inum(section(cur, "memory", args.flagship),
                     "arena_high_water", args.flagship)
    if base_arena > 0 and cur_arena > 0:
        budget = int(base_arena * (1.0 + args.arena_threshold))
        print(f"bench_diff: flagship arena high-water {cur_arena:,} bytes "
              f"vs baseline {base_arena:,} (budget {budget:,})")
        if cur_arena > budget:
            gate(f"flagship arena high-water {cur_arena:,} bytes exceeds "
                 f"the budget {budget:,} (baseline {base_arena:,} "
                 f"+ {args.arena_threshold:.0%})")
    else:
        print("bench_diff: flagship arena high-water missing on one side "
              "(skipped)")

    # --- bytes on the wire (exact counter, hard ceiling) ---
    base_wire = fnum(section(base, "wire", args.flagship_baseline),
                     "total_bytes", args.flagship_baseline)
    cur_wire = fnum(section(cur, "wire", args.flagship), "total_bytes",
                    args.flagship)
    if base_wire > 0 and cur_wire > 0:
        growth = cur_wire / base_wire
        ceil = 1.0 + args.wire_threshold
        print(f"bench_diff: flagship wire {cur_wire:,.0f} bytes vs "
              f"baseline {base_wire:,.0f} ({growth:.2f}x)")
        if growth > ceil:
            gate(f"flagship bytes-on-wire grew {growth:.2f}x over "
                 f"baseline (ceiling {ceil:.2f}x) — exact counter, "
                 f"not noise")
    else:
        print("bench_diff: flagship wire bytes missing on one side "
              "(skipped)")

    # --- recall floor (deterministic sampled-oracle mean) ---
    cur_recall = fnum(section(cur, "recall", args.flagship), "mean",
                      args.flagship, default=-1.0)
    base_recall = fnum(section(base, "recall", args.flagship_baseline),
                       "mean", args.flagship_baseline, default=-1.0)
    if cur_recall >= 0:
        print(f"bench_diff: flagship recall {cur_recall:.3f} vs baseline "
              f"{base_recall:.3f} (floor {args.flagship_recall_floor:.2f})")
        if cur_recall < args.flagship_recall_floor:
            gate(f"flagship recall {cur_recall:.3f} fell below the "
                 f"{args.flagship_recall_floor:.2f} floor — deterministic "
                 f"metric, usually a local-store or refinement change")
    else:
        print("bench_diff: flagship recall missing (floor skipped)")

    # --- scanned/subquery ceiling (per-node solve work) ---
    base_scan = fnum(base, "scanned_per_subquery", args.flagship_baseline)
    cur_scan = fnum(cur, "scanned_per_subquery", args.flagship)
    if base_scan > 0 and cur_scan > 0:
        growth = cur_scan / base_scan
        ceil = 1.0 + args.flagship_scan_threshold
        print(f"bench_diff: flagship scanned/subquery {cur_scan:.1f} vs "
              f"baseline {base_scan:.1f} ({growth:.2f}x)")
        if growth > ceil:
            gate(f"flagship scanned/subquery grew {growth:.2f}x over "
                 f"baseline (ceiling {ceil:.2f}x) — deterministic work "
                 f"metric, not noise")
    else:
        print("bench_diff: flagship scanned/subquery missing on one side "
              "(skipped)")

    # Informational: queue depth travels with the same file.
    base_q = base.get("queue", {}).get("max_depth")
    cur_q = cur.get("queue", {}).get("max_depth")
    if base_q is not None and cur_q is not None:
        print(f"bench_diff: flagship max queue depth {cur_q} vs baseline "
              f"{base_q} (informational)")


def check_serve(args, cur_doc, gate):
    """Serving-tier gates on the current flagship run's deterministic
    "serve" section. Absolute gates (the section already holds the
    on-vs-off comparison), so no baseline is consulted; serve-off runs
    carry no section and skip."""
    serve = cur_doc["deterministic"].get("serve")
    if not isinstance(serve, dict):
        print(f"bench_diff: serve gates skipped — no \"serve\" section in "
              f"{args.flagship} (produce one with LMK_FLAGSHIP_SERVE=1)")
        return

    eff = section(serve, "efficiency", args.flagship)

    # --- result digests: the serving tier must be invisible to results ---
    if eff.get("digest_match") is not True:
        gate("serve efficiency rung: result digests differ between "
             "serve-on and serve-off — the cache or the coalescing "
             "window changed a query's result set")
    else:
        print("bench_diff: serve digests match (cache + coalescing "
              "result-transparent)")

    # --- cache hit rate floor (Zipf-pooled workload) ---
    hit_rate = fnum(eff, "hit_rate", args.flagship, default=-1.0)
    if hit_rate >= 0:
        print(f"bench_diff: serve hit rate {hit_rate:.3f} "
              f"(floor {args.serve_hit_floor:.2f})")
        if hit_rate < args.serve_hit_floor:
            gate(f"serve cache hit rate {hit_rate:.3f} is below the "
                 f"{args.serve_hit_floor:.2f} floor — the hot-result "
                 f"cache stopped absorbing the Zipf head")
    else:
        print("bench_diff: serve hit rate missing (floor skipped)")

    # --- bytes on the wire with batching (exact counters) ---
    wire_ratio = fnum(eff, "wire_ratio", args.flagship, default=-1.0)
    if wire_ratio >= 0:
        print(f"bench_diff: serve wire ratio {wire_ratio:.4f} "
              f"(ceiling {args.serve_wire_ceiling:.2f})")
        if wire_ratio > args.serve_wire_ceiling:
            gate(f"serve wire ratio {wire_ratio:.4f} exceeds the "
                 f"{args.serve_wire_ceiling:.2f} ceiling — the "
                 f"coalescing window stopped paying for itself in "
                 f"query bytes")
    else:
        print("bench_diff: serve wire ratio missing (ceiling skipped)")

    # --- overload ladder: shedding must buy p99 at the target rung ---
    ladder = serve.get("overload")
    if not isinstance(ladder, list):
        print("bench_diff: serve overload ladder missing (gate skipped)")
        return
    rung = next((r for r in ladder if isinstance(r, dict)
                 and r.get("mult") == args.serve_overload_mult), None)
    if rung is None:
        print(f"bench_diff: serve overload gate skipped — no "
              f"{args.serve_overload_mult}x rung in the ladder")
        return
    p99_off = fnum(rung, "p99_off", args.flagship)
    p99_on = fnum(rung, "p99_on", args.flagship)
    if p99_off > 0 and p99_on > 0:
        print(f"bench_diff: serve overload {args.serve_overload_mult}x "
              f"p99 {p99_on:.1f}ms shedding-on vs {p99_off:.1f}ms off "
              f"(shed {rung.get('shed')}, dropped {rung.get('dropped')})")
        if p99_on >= p99_off:
            gate(f"serve overload {args.serve_overload_mult}x rung: p99 "
                 f"with shedding on ({p99_on:.1f}ms) is not below the "
                 f"serve-off p99 ({p99_off:.1f}ms) — admission control "
                 f"stopped buying tail latency under overload")
    else:
        print("bench_diff: serve overload p99 missing on one side "
              "(gate skipped)")


def check_flagship_alloc(args, cur_doc, hard):
    """Per-arrival allocation ceiling on the flagship's open-loop query
    phase (alloc-guard builds only)."""
    alloc = cur_doc.get("alloc")
    if not isinstance(alloc, dict) or not alloc.get("guard_enabled"):
        print("bench_diff: flagship alloc gate skipped — alloc guard "
              "disabled (build with -DLMK_ALLOC_GUARD=ON)")
        return
    queries = section(alloc, "open_loop_queries", args.flagship)
    allocs = inum(queries, "allocs", args.flagship)
    arrivals = inum(section(cur_doc, "scale", args.flagship), "arrivals",
                    args.flagship)
    if arrivals <= 0:
        sys.exit(f"bench_diff: {args.flagship}: \"arrivals\" must be "
                 f"positive (got {arrivals})")
    per = allocs / arrivals
    ceil = FLAGSHIP_ALLOC_CEILING
    print(f"bench_diff: flagship open-loop queries {allocs:,} allocs over "
          f"{arrivals:,} arrivals = {per:.1f} per arrival "
          f"(ceiling {ceil:.0f})")
    if per > ceil:
        hard(f"flagship open-loop query phase made {per:.1f} allocations "
             f"per arrival (ceiling {ceil:.0f}) — something on the query "
             f"path allocates per candidate")
    else:
        print("bench_diff: flagship alloc gate OK")


def finish(args, failures, hard_failures):
    """Shared exit protocol: soft failures respect --warn-only, hard
    failures (allocation discipline) never do."""
    for msg in failures:
        full = f"bench_diff: REGRESSION — {msg}"
        if args.warn_only and not hard_failures:
            print(f"::warning::{full}")
            print(full)
        else:
            print(full, file=sys.stderr)
    for msg in hard_failures:
        print(f"bench_diff: HARD FAILURE — {msg}", file=sys.stderr)
    if hard_failures:
        print("bench_diff: hard failures exit nonzero even under "
              "--warn-only", file=sys.stderr)
        return 1
    if failures:
        return 0 if args.warn_only else 1
    print("bench_diff: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--flagship-baseline",
                    default="bench/BENCH_flagship.baseline.json")
    ap.add_argument("--flagship", default="BENCH_flagship.json",
                    help="current flagship run")
    ap.add_argument("--flagship-latency-threshold", type=float,
                    default=0.10,
                    help="allowed fractional growth of the flagship p99 "
                         "virtual-time latency")
    ap.add_argument("--arena-threshold", type=float, default=0.25,
                    help="allowed fractional growth of the flagship "
                         "arena high-water mark")
    ap.add_argument("--wire-threshold", type=float, default=0.10,
                    help="allowed fractional growth of flagship bytes "
                         "on the wire")
    ap.add_argument("--flagship-recall-floor", type=float, default=0.90,
                    help="minimum flagship recall@10 (deterministic "
                         "sampled-oracle mean)")
    ap.add_argument("--flagship-scan-threshold", type=float, default=0.50,
                    help="allowed fractional growth of flagship scanned "
                         "entries per subquery")
    ap.add_argument("--serve-hit-floor", type=float, default=0.30,
                    help="minimum serve cache hit rate on the flagship "
                         "efficiency rung (LMK_FLAGSHIP_SERVE runs)")
    ap.add_argument("--serve-wire-ceiling", type=float, default=1.0,
                    help="maximum serve-on/serve-off query-bytes ratio "
                         "with the coalescing window enabled")
    ap.add_argument("--serve-overload-mult", type=int, default=4,
                    help="arrival-rate multiple whose ladder rung must "
                         "show shedding-on p99 below serve-off p99")
    ap.add_argument("--warn-only", action="store_true",
                    help="report soft regressions without failing; the "
                         "allocation gate still fails hard")
    args = ap.parse_args()

    failures = []
    hard_failures = []

    def gate(msg):
        failures.append(msg)

    def hard(msg):
        hard_failures.append(msg)

    base_doc = load_flagship(args.flagship_baseline)
    cur_doc = load_flagship(args.flagship)
    check_flagship(args, base_doc, cur_doc, gate)
    check_serve(args, cur_doc, gate)
    check_flagship_alloc(args, cur_doc, hard)
    return finish(args, failures, hard_failures)


if __name__ == "__main__":
    sys.exit(main())
