#!/usr/bin/env bash
# Correctness gate for the simulator core (see DESIGN.md "Correctness
# tooling").
#
# Usage:
#   scripts/check.sh                    # one build + ctest (RelWithDebInfo)
#   LMK_SANITIZE=address scripts/check.sh
#   LMK_SANITIZE=undefined scripts/check.sh
#   LMK_SANITIZE=thread scripts/check.sh
#   scripts/check.sh --audit            # build + ctest with LMK_AUDIT=1:
#                                       # every experiment run gets the
#                                       # invariant auditor attached
#                                       # (src/audit/, fail-fast)
#   scripts/check.sh --all              # the full gate:
#                                       #   1. lmk-lint over src/ tools/
#                                       #      tests/ bench/
#                                       #   2. clang-tidy (scripts/tidy.sh)
#                                       #   3. plain build (-Werror) + ctest
#                                       #   4. audit leg (LMK_AUDIT=1 ctest)
#                                       #   5. ASan, UBSan, TSan builds + ctest
#                                       #   6. alloc-guard leg (below)
#                                       #   7. sched smoke (below)
#                                       #   8. flagship smoke (below)
#                                       #   9. serve smoke (below)
#                                       #  10. perfbench smoke (below)
#   scripts/check.sh --alloc-guard [--warn-only]
#                                       # allocation-discipline leg: build
#                                       # with -DLMK_ALLOC_GUARD=ON and
#                                       # -DLMK_ARENA_GUARD=ON (operator
#                                       # new/delete interposed, arena
#                                       # lifetime sanitizer armed), ctest
#                                       # (sim_test and serve_test hold the
#                                       # engine and result-cache steady
#                                       # states to zero allocations), then
#                                       # a smoke-scale bench_flagship whose
#                                       # allocation JSON feeds bench_diff.py's
#                                       # allocations-per-arrival ceiling
#                                       # (a HARD gate: it fails even under
#                                       # --warn-only)
#   scripts/check.sh --perfbench-smoke  # the repository benchmark's
#                                       # selftest (perfbench/run.py
#                                       # --selftest): builds perfbench,
#                                       # checks virtual-time metrics are
#                                       # identical across runs and pool
#                                       # widths, and that a planted wrong
#                                       # result is caught
#   scripts/check.sh --flagship-smoke [--warn-only]
#                                       # determinism + flagship gates: a
#                                       # toy-scale fig2 sweep and the
#                                       # reduced-scale bench_flagship run
#                                       # (256 nodes / 20k objects), each at
#                                       # LMK_THREADS=1 and =8, byte-compared
#                                       # (fig2 stdout, flagship deterministic
#                                       # JSON; the cmps fail hard even under
#                                       # --warn-only), then bench_diff.py
#                                       # gates p99 latency, arena high-water,
#                                       # bytes on the wire, recall and
#                                       # scanned/subquery against the
#                                       # committed baseline
#                                       # bench/BENCH_flagship.baseline.json
#                                       # (--warn-only: report those, never
#                                       # fail — what CI uses)
#   scripts/check.sh --serve-smoke [--warn-only]
#                                       # serving-layer gate: bench_flagship
#                                       # with LMK_FLAGSHIP_SERVE=1 and
#                                       # LMK_SERVE_VERIFY=1 (every cache hit
#                                       # oracle-checked in-line) at
#                                       # LMK_THREADS=1 and =8, byte-compares
#                                       # the deterministic sections (serve
#                                       # sweep included; fails hard even
#                                       # under --warn-only), then
#                                       # bench_diff.py runs the serve gates:
#                                       # digest match, hit-rate floor,
#                                       # wire-ratio ceiling, and the
#                                       # 4x-overload p99 win
#   scripts/check.sh --sched-smoke      # schedule & fault exploration gate:
#                                       # a small lmk-sched seed swarm must
#                                       # pass on the clean tree, then a
#                                       # -DLMK_SCHED_MUTATION=ON build must
#                                       # be caught by the same swarm, ddmin-
#                                       # shrunk to <= 5 directives, and the
#                                       # minimized .sched must replay to the
#                                       # same auditor failure
#
# Every build is -Werror for src/ and tools/ (LMK_WERROR=ON). Each
# sanitizer gets its own build directory (build-check-<san>) so
# instrumented and plain builds never mix objects.
set -euo pipefail

cd "$(dirname "$0")/.."

# Exercise the thread pool with a wide pool even on small CI machines.
export LMK_THREADS="${LMK_THREADS:-8}"

run_leg() {
  local san="$1"
  local build_dir cmake_args
  if [ -n "$san" ]; then
    build_dir="build-check-${san}"
    cmake_args=(-DLMK_SANITIZE="${san}")
  else
    build_dir="build-check"
    cmake_args=()
  fi
  echo "== check.sh: leg '${san:-plain}' (${build_dir}) =="
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON "${cmake_args[@]}"
  cmake --build "$build_dir" -j"$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j"$(nproc)"
}

run_lint() {
  echo "== check.sh: lmk-lint =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)" --target lmk-lint >/dev/null
  ./build-check/tools/lint/lmk-lint src tools tests bench
}

run_sched_smoke() {
  echo "== check.sh: sched smoke (schedule & fault exploration gate) =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)" --target lmk-sched >/dev/null
  # Clean tree: every plan in the seed swarm must either keep the
  # invariants or recover by quiescence.
  LMK_SCHED_PLANS=6 ./build-check/tools/sched/lmk-sched explore \
    --out build-check/minimized.sched
  # Mutation tree: -DLMK_SCHED_MUTATION=ON plants a replication-repair
  # bug (src/core/index_platform.cpp). The same swarm must catch it,
  # ddmin must shrink the plan to <= 5 directives, and the minimized
  # reproducer must replay to the same auditor failure.
  cmake -B build-check-schedmutation -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON -DLMK_SCHED_MUTATION=ON >/dev/null
  cmake --build build-check-schedmutation -j"$(nproc)" --target lmk-sched \
    >/dev/null
  local sched=build-check-schedmutation/minimized.sched
  if LMK_SCHED_PLANS=6 ./build-check-schedmutation/tools/sched/lmk-sched \
      explore --out "$sched"; then
    echo "sched smoke: FAIL — planted mutation survived the seed swarm" >&2
    return 1
  fi
  if [ ! -f "$sched" ]; then
    echo "sched smoke: FAIL — no minimized reproducer written" >&2
    return 1
  fi
  local directives
  directives=$(grep -cvE '^(tie |#|$)' "$sched" || true)
  if [ "$directives" -gt 5 ]; then
    echo "sched smoke: FAIL — minimized plan has $directives directives" \
         "(want <= 5)" >&2
    return 1
  fi
  if ./build-check-schedmutation/tools/sched/lmk-sched replay "$sched"; then
    echo "sched smoke: FAIL — minimized reproducer replays clean" >&2
    return 1
  fi
  echo "sched smoke: mutation caught, shrunk to $directives directive(s)," \
       "reproducer replays to the same failure"
}

run_audit() {
  echo "== check.sh: audit leg (LMK_AUDIT=1) =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)"
  LMK_AUDIT=1 ctest --test-dir build-check --output-on-failure -j"$(nproc)"
}

run_flagship_smoke() {
  echo "== check.sh: flagship smoke (reduced open-loop scenario) =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)" \
    --target bench_flagship bench_fig2_synthetic_nolb >/dev/null
  # Sweep-engine determinism: one figure sweep must emit byte-identical
  # tables strictly serial (LMK_THREADS=1) and parallel (LMK_THREADS=8).
  LMK_NODES=64 LMK_OBJECTS=2000 LMK_QUERIES=30 LMK_SAMPLE=200 \
    LMK_THREADS=1 ./build-check/bench/bench_fig2_synthetic_nolb \
    > build-check/fig2_sweep.t1.out
  LMK_NODES=64 LMK_OBJECTS=2000 LMK_QUERIES=30 LMK_SAMPLE=200 \
    LMK_THREADS=8 ./build-check/bench/bench_fig2_synthetic_nolb \
    > build-check/fig2_sweep.t8.out
  cmp build-check/fig2_sweep.t1.out build-check/fig2_sweep.t8.out
  echo "flagship smoke: fig2 sweep byte-identical at 1 and 8 threads"
  # The deterministic section (virtual-time latency, wire bytes, arena
  # marks, recall) must be byte-identical at any thread count.  Run the
  # reduced scenario serial and wide, compare the deterministic JSON,
  # gate on the committed baseline.
  LMK_THREADS=1 \
    LMK_FLAGSHIP_OUT=build-check/BENCH_flagship.smoke.json \
    LMK_FLAGSHIP_DET_OUT=build-check/flagship_det.t1.json \
    ./build-check/bench/bench_flagship
  LMK_THREADS=8 \
    LMK_FLAGSHIP_OUT=build-check/BENCH_flagship.smoke.t8.json \
    LMK_FLAGSHIP_DET_OUT=build-check/flagship_det.t8.json \
    ./build-check/bench/bench_flagship >/dev/null
  cmp build-check/flagship_det.t1.json build-check/flagship_det.t8.json
  echo "flagship smoke: deterministic section byte-identical at 1 and 8 threads"
  scripts/bench_diff.py --flagship build-check/BENCH_flagship.smoke.json "$@"
}

run_serve_smoke() {
  echo "== check.sh: serve smoke (serving-layer gate) =="
  cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON >/dev/null
  cmake --build build-check -j"$(nproc)" --target bench_flagship >/dev/null
  # Serve-on sweep, serial and wide: the whole serving tier (cache fill
  # order, coalescing flushes, shed/retry/drop schedule) runs in virtual
  # time, so the deterministic section — serve sweep included — must be
  # byte-identical at any thread count. LMK_SERVE_VERIFY=1 re-solves
  # every cache hit against the store in-line: a stale hit aborts the
  # bench rather than passing the gate.
  LMK_THREADS=1 LMK_FLAGSHIP_SERVE=1 LMK_SERVE_VERIFY=1 \
    LMK_FLAGSHIP_OUT=build-check/BENCH_flagship.serve.json \
    LMK_FLAGSHIP_DET_OUT=build-check/serve_det.t1.json \
    ./build-check/bench/bench_flagship
  LMK_THREADS=8 LMK_FLAGSHIP_SERVE=1 LMK_SERVE_VERIFY=1 \
    LMK_FLAGSHIP_OUT=build-check/BENCH_flagship.serve.t8.json \
    LMK_FLAGSHIP_DET_OUT=build-check/serve_det.t8.json \
    ./build-check/bench/bench_flagship >/dev/null
  cmp build-check/serve_det.t1.json build-check/serve_det.t8.json
  echo "serve smoke: deterministic section byte-identical at 1 and 8 threads"
  scripts/bench_diff.py --flagship build-check/BENCH_flagship.serve.json "$@"
}

run_alloc_guard() {
  echo "== check.sh: alloc-guard leg (LMK_ALLOC_GUARD + LMK_ARENA_GUARD) =="
  # Own build directory: the interposed allocator and the checked arena
  # handles must never mix objects with the plain build.
  cmake -B build-check-allocguard -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLMK_WERROR=ON -DLMK_ALLOC_GUARD=ON -DLMK_ARENA_GUARD=ON
  cmake --build build-check-allocguard -j"$(nproc)"
  # The zero-allocation steady states of the event engine and the result
  # cache are ctests (sim_test, serve_test) that assert only here, where
  # the counters move.
  ctest --test-dir build-check-allocguard --output-on-failure -j"$(nproc)"
  # The real open-loop query path at smoke scale: its allocations per
  # arrival are held under bench_diff's flagship ceiling.
  LMK_FLAGSHIP_OUT=build-check-allocguard/BENCH_flagship.allocguard.json \
    ./build-check-allocguard/bench/bench_flagship
  scripts/bench_diff.py \
    --flagship build-check-allocguard/BENCH_flagship.allocguard.json "$@"
}

run_perfbench_smoke() {
  echo "== check.sh: perfbench smoke (benchmark selftest) =="
  python3 perfbench/run.py --selftest
}

if [ "${1:-}" = "--alloc-guard" ]; then
  shift
  run_alloc_guard "$@"
  echo "check.sh: OK (alloc-guard leg)"
  exit 0
fi

if [ "${1:-}" = "--perfbench-smoke" ]; then
  run_perfbench_smoke
  echo "check.sh: OK (perfbench smoke)"
  exit 0
fi

if [ "${1:-}" = "--flagship-smoke" ]; then
  shift
  run_flagship_smoke "$@"
  echo "check.sh: OK (flagship smoke)"
  exit 0
fi

if [ "${1:-}" = "--sched-smoke" ]; then
  run_sched_smoke
  echo "check.sh: OK (sched smoke)"
  exit 0
fi

if [ "${1:-}" = "--serve-smoke" ]; then
  shift
  run_serve_smoke "$@"
  echo "check.sh: OK (serve smoke)"
  exit 0
fi

if [ "${1:-}" = "--audit" ]; then
  run_audit
  echo "check.sh: OK (audit leg, LMK_THREADS=$LMK_THREADS)"
  exit 0
fi

if [ "${1:-}" = "--all" ]; then
  run_lint
  BUILD_DIR=build-check scripts/tidy.sh
  run_leg ""
  run_audit
  for san in address undefined thread; do
    run_leg "$san"
  done
  run_alloc_guard
  run_sched_smoke
  run_flagship_smoke
  run_serve_smoke
  run_perfbench_smoke
  echo "check.sh: OK (--all: lint + tidy + plain + audit + asan/ubsan/tsan" \
       "+ alloc-guard + sched-smoke + flagship-smoke + serve-smoke" \
       "+ perfbench-smoke, LMK_THREADS=$LMK_THREADS)"
  exit 0
fi

run_leg "${LMK_SANITIZE:-}"
echo "check.sh: OK (${LMK_SANITIZE:-no sanitizer}, LMK_THREADS=$LMK_THREADS)"
