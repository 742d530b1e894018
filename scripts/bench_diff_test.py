#!/usr/bin/env python3
"""Tests for scripts/bench_diff.py: the flagship gates, their error
handling and --warn-only.

Runs bench_diff.py as a subprocess (the way CI and check.sh invoke it)
and asserts on exit codes and messages: malformed input must produce a
one-line readable error (never a traceback), --warn-only softens the
deterministic gates, and the flagship per-arrival allocation ceiling
fails even under --warn-only.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")


def flagship_doc(recall=0.95, scanned=70.0, serve=None):
    """A minimal well-formed BENCH_flagship.json document."""
    doc = {
        "scale": {"nodes": 256, "objects": 20000},
        "deterministic": {
            "latency_ms": {"p99": 800.0},
            "memory": {"arena_high_water": 1000000},
            "wire": {"total_bytes": 5000000.0},
            "recall": {"sampled": 25, "mean": recall},
            "scanned_per_subquery": scanned,
        },
    }
    if serve is not None:
        doc["deterministic"]["serve"] = serve
    return doc


def serve_section(digest_match=True, hit_rate=0.75, wire_ratio=0.98,
                  p99_off=7000.0, p99_on=3300.0):
    """A deterministic "serve" section as bench_flagship emits it."""
    return {
        "qpool": 4, "arrivals": 200,
        "efficiency": {"digest_match": digest_match, "hit_rate": hit_rate,
                       "wire_ratio": wire_ratio},
        "overload": [
            {"mult": 1, "shed": 10, "dropped": 0,
             "p99_off": 1700.0, "p99_on": 1800.0},
            {"mult": 4, "shed": 900, "dropped": 110,
             "p99_off": p99_off, "p99_on": p99_on},
        ],
    }


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, content):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(content, str):
                f.write(content)
            else:
                json.dump(content, f)
        return path

    def assert_readable_failure(self, proc, needle):
        combined = proc.stdout + proc.stderr
        self.assertNotEqual(proc.returncode, 0, combined)
        self.assertNotIn("Traceback", combined)
        self.assertIn(needle, combined)

    def run_flagship(self, baseline, current, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, "--flagship-baseline", baseline,
             "--flagship", current, *extra],
            capture_output=True, text=True, check=False)

    def test_flagship_matching_runs_pass(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", flagship_doc())
        proc = self.run_flagship(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("bench_diff: OK", proc.stdout)

    def test_missing_file_is_readable(self):
        base = self.write("fbase.json", flagship_doc())
        missing = os.path.join(self.tmp.name, "nope.json")
        proc = self.run_flagship(base, missing)
        self.assert_readable_failure(proc, "cannot read")
        proc = self.run_flagship(missing, base)
        self.assert_readable_failure(proc, "cannot read")

    def test_invalid_json_is_readable(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", "{not json")
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "cannot read")

    def test_missing_deterministic_section_is_readable(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", {"scale": {}})
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc,
                                     "no \"deterministic\" section")

    def test_non_numeric_metric_is_readable(self):
        base = self.write("fbase.json", flagship_doc())
        doc = flagship_doc()
        doc["deterministic"]["latency_ms"]["p99"] = "fast"
        cur = self.write("fcur.json", doc)
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "is not a number")

    def test_flagship_recall_floor_fails(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", flagship_doc(recall=0.62))
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "recall 0.620 fell below")

    def test_flagship_recall_floor_is_tunable(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", flagship_doc(recall=0.62))
        proc = self.run_flagship(base, cur, "--flagship-recall-floor",
                                 "0.5")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_flagship_scan_ceiling_fails(self):
        base = self.write("fbase.json", flagship_doc(scanned=70.0))
        cur = self.write("fcur.json", flagship_doc(scanned=700.0))
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "scanned/subquery grew")

    def test_flagship_gates_skip_on_scale_mismatch(self):
        base = self.write("fbase.json", flagship_doc())
        doc = flagship_doc(recall=0.1, scanned=9999.0)
        doc["scale"]["nodes"] = 10000
        cur = self.write("fcur.json", doc)
        proc = self.run_flagship(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("scale mismatch", proc.stdout)

    def test_serve_gates_skip_without_section(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", flagship_doc())
        proc = self.run_flagship(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("serve gates skipped", proc.stdout)

    def test_serve_gates_pass_on_healthy_section(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json",
                         flagship_doc(serve=serve_section()))
        proc = self.run_flagship(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("serve digests match", proc.stdout)
        self.assertIn("serve hit rate", proc.stdout)

    def test_serve_digest_mismatch_fails(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write(
            "fcur.json",
            flagship_doc(serve=serve_section(digest_match=False)))
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "result digests differ")

    def test_serve_hit_rate_floor_fails_and_is_tunable(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json",
                         flagship_doc(serve=serve_section(hit_rate=0.05)))
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "hit rate 0.050 is below")
        proc = self.run_flagship(base, cur, "--serve-hit-floor", "0.01")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_serve_wire_ceiling_fails(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write(
            "fcur.json",
            flagship_doc(serve=serve_section(wire_ratio=1.07)))
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "wire ratio 1.0700 exceeds")

    def test_serve_overload_gate_fails_when_shedding_stops_paying(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write(
            "fcur.json",
            flagship_doc(serve=serve_section(p99_off=3000.0,
                                             p99_on=3200.0)))
        proc = self.run_flagship(base, cur)
        self.assert_readable_failure(proc, "is not below the serve-off")

    def test_serve_overload_gate_targets_chosen_rung(self):
        # The 1x rung in serve_section() has p99_on > p99_off (shedding
        # costs a little at mild load, by design); pointing the gate at
        # it must fail while the default 4x rung passes.
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json",
                         flagship_doc(serve=serve_section()))
        self.assertEqual(
            self.run_flagship(base, cur).returncode, 0)
        proc = self.run_flagship(base, cur, "--serve-overload-mult", "1")
        self.assert_readable_failure(proc, "is not below the serve-off")

    def flagship_alloc_doc(self, allocs, guard=True):
        doc = flagship_doc()
        doc["scale"]["arrivals"] = 200
        doc["alloc"] = {
            "guard_enabled": guard,
            "stream_build": {"allocs": 7829, "frees": 13787,
                             "alloc_bytes": 9392944,
                             "free_bytes": 5764416},
            "open_loop_queries": {"allocs": allocs, "frees": allocs,
                                  "alloc_bytes": 64 * allocs,
                                  "free_bytes": 64 * allocs},
        }
        return doc

    def test_flagship_alloc_gate_passes_under_ceiling(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", self.flagship_alloc_doc(76475))
        proc = self.run_flagship(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("382.4 per arrival", proc.stdout)
        self.assertIn("flagship alloc gate OK", proc.stdout)

    def test_flagship_alloc_gate_fails_hard_even_with_warn_only(self):
        # A per-candidate allocation (the old rank memo: ~1,760 per
        # arrival at smoke scale) must trip the ceiling.
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json", self.flagship_alloc_doc(351911))
        proc = self.run_flagship(base, cur, "--warn-only")
        self.assert_readable_failure(proc, "HARD FAILURE")
        self.assertIn("allocates per candidate", proc.stderr)

    def test_flagship_alloc_gate_skipped_when_guard_disabled(self):
        base = self.write("fbase.json", flagship_doc())
        cur = self.write("fcur.json",
                         self.flagship_alloc_doc(0, guard=False))
        proc = self.run_flagship(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("flagship alloc gate skipped", proc.stdout)

    def test_soft_regression_respects_warn_only(self):
        base = self.write("fbase.json", flagship_doc())
        doc = flagship_doc()
        doc["deterministic"]["latency_ms"]["p99"] = 8000.0  # 10x slower
        cur = self.write("fcur.json", doc)
        self.assertNotEqual(self.run_flagship(base, cur).returncode, 0)
        proc = self.run_flagship(base, cur, "--warn-only")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)

    def test_warn_only_never_softens_a_hard_gate(self):
        # A soft p99 regression next to a hard allocation failure: the
        # run fails under --warn-only and reports both.
        base = self.write("fbase.json", self.flagship_alloc_doc(76475))
        doc = self.flagship_alloc_doc(351911)
        doc["deterministic"]["latency_ms"]["p99"] = 8000.0
        cur = self.write("fcur.json", doc)
        proc = self.run_flagship(base, cur, "--warn-only")
        self.assert_readable_failure(proc, "HARD FAILURE")
        self.assertIn("p99 latency grew", proc.stderr)


if __name__ == "__main__":
    unittest.main()
