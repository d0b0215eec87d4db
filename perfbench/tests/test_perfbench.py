"""Tests of the benchmark itself: contract, smoke runs, the gate, compare.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root. The smoke runs build the harness on first use
(.bench_build/), which takes a couple of minutes.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run as perfrun  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, seconds="2"):
    records = os.path.join(tempfile.mkdtemp(), "records.jsonl")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--smoke", "--records", records, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        names = [w["name"] for w in s["workloads"]] + [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))

    def test_wire_mixed_runs_against_the_server_as_it_is(self):
        # The harness sets no server-side (or any) socket option, so the
        # server's own behaviour, Nagle stall included, stays in the baseline.
        for name in os.listdir(os.path.join(BENCH, "harness")):
            with open(os.path.join(BENCH, "harness", name)) as f:
                text = f.read()
            self.assertNotIn("setsockopt", text, name)
            self.assertNotIn("TCP_NODELAY", text, name)


class SmokeTest(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        s = spec()
        for workload in [w["name"] for w in s["workloads"]]:
            for trace, wanted in ((0, s["end_to_end"]), (1, s["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
                    result = last_json(proc.stdout)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
                    for m in wanted:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                    if trace == 0:
                        for m in wanted:
                            self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
                    if workload == "wire_mixed" and trace == 1:
                        # Multi-chunk responses stay in the mix.
                        self.assertGreater(result["metrics"]["server.chunks_per_req"]["value"], 1.0)
                    if workload == "wire_mixed" and trace == 0:
                        for line in ("write_p50_ms", "write_p99_ms", "slo_qps", "failed_ratio"):
                            self.assertRegex(proc.stdout, rf"(?m)^{line} ")

    def test_gate_trips_on_injected_mismatch(self):
        for workload in [w["name"] for w in spec()["workloads"]]:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--inject-mismatch")
                self.assertNotEqual(proc.returncode, 0)
                self.assertIn("GATE FAILED", proc.stdout)
                self.assertNotIn('"metrics"', proc.stdout)


class ReductionTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond_it(self):
        self.assertAlmostEqual(perfrun.tail_pct(100), 0.9)
        self.assertAlmostEqual(perfrun.tail_pct(5000), 0.99)
        self.assertAlmostEqual(perfrun.tail_pct(12), 0.5)
        for n in (50, 101, 400):
            t = perfrun.tail(list(range(n)))
            self.assertEqual(sum(x > t for x in range(n)), 10)

    def test_slo_qps_is_the_highest_rung_that_meets_the_limit(self):
        fast = [1.0] * 30
        slow = [1.0] * 15 + [2 * perfrun.SLO_LIMIT_MS] * 15
        rung = lambda rate, reads, backlog=0: {"rate": rate, "read_ms": reads, "backlog": backlog, "failed": 0}
        self.assertEqual(perfrun.slo_qps([rung(20, fast), rung(40, fast), rung(80, slow)]), 40)
        self.assertEqual(perfrun.slo_qps([rung(20, fast), rung(40, fast, backlog=1)]), 20)
        self.assertEqual(perfrun.slo_qps([rung(20, slow)]), 0)


class CompareTest(unittest.TestCase):
    def write(self, path, values):
        with open(path, "w") as f:
            for v in values:
                f.write(json.dumps({"workload": "join_heavy", "metrics": {
                    "throughput_qps": {"value": v, "unit": "1/s"}}}) + "\n")

    def test_unresolved_when_spread_exceeds_bound(self):
        d = tempfile.mkdtemp()
        base, steady, noisy = (os.path.join(d, n) for n in ("a", "b", "c"))
        self.write(base, [100, 101, 99, 100, 100])
        self.write(steady, [70, 71, 69, 70, 70])
        self.write(noisy, [50, 150, 80, 120, 100])
        out = subprocess.run([sys.executable, os.path.join(BENCH, "compare.py"), base, steady],
                             capture_output=True, text=True, cwd=ROOT).stdout
        self.assertIn("worse", out)
        out = subprocess.run([sys.executable, os.path.join(BENCH, "compare.py"), base, noisy],
                             capture_output=True, text=True, cwd=ROOT).stdout
        self.assertIn("unresolved", out)


if __name__ == "__main__":
    unittest.main()
