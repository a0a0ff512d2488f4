#!/usr/bin/env python3
"""Tests of the wmrace benchmark.

    python3 perfbench/test_smoke.py

Runs `run.py --smoke` (every workload at small size, timed and traced,
correctness gate included) and checks that the gate itself rejects
disagreeing reports.  Needs the toolchain run.py builds with.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

CHECK = (b"=== wmrace post-mortem data race report ===\n"
         b"events: 8 (2 sync), operations: 20\n"
         b"races: 3 (3 data races) in 1 partitions\n")
SHB = (b"=== wmrace detector family report ===\n"
       b"events: 8 (2 sync), operations: 20\nengines: shb\n\n"
       b"--- engine shb ---\nsemantics: hb1-order vector clocks\n"
       b"races: 3 (3 data races)\n")


class GateTest(unittest.TestCase):
    def outputs(self, check, stream, shb):
        d = Path(self.enterContext(tempfile.TemporaryDirectory()))
        paths = []
        for name, text in (("check", check), ("stream", stream),
                           ("shb", shb)):
            paths.append(d / name)
            paths[-1].write_bytes(text)
        return paths

    def test_agreeing_reports_pass(self):
        self.assertTrue(run.reports_agree(*self.outputs(CHECK, CHECK, SHB)))

    def test_stream_byte_difference_fails(self):
        self.assertFalse(run.reports_agree(
            *self.outputs(CHECK, CHECK + b" ", SHB)))

    def test_shb_race_count_difference_fails(self):
        self.assertFalse(run.reports_agree(
            *self.outputs(CHECK, CHECK, SHB.replace(b"races: 3", b"races: 4"))))

    def test_percentile_is_nearest_rank(self):
        xs = list(range(1, 201))
        self.assertEqual(run.percentile(xs, 99), 198)
        self.assertEqual(run.percentile(xs, 50), 100)


def request(i, status, latency_ms=40, late_ms=0, rate=25):
    due = int(i * 1e9 / rate)
    sent = due + int(late_ms * 1e6)
    return {"due": due, "sent": sent, "done": sent + int(latency_ms * 1e6),
            "status": status}


class ServeTest(unittest.TestCase):
    def test_refused_requests_count_as_slow_and_fail_the_step(self):
        served = [request(i, run.RESP_OK) for i in range(100)]
        refused = [request(i, run.RESP_OVERLOADED if i % 2 else run.RESP_OK,
                           latency_ms=2) for i in range(100)]
        ok, bad = run.phase_summary(25, served), run.phase_summary(25, refused)
        self.assertTrue(ok["passed"])
        self.assertFalse(bad["passed"])
        self.assertGreater(bad["p95"], ok["p95"])

    def test_growing_backlog_fails_the_step(self):
        growing = [request(i, run.RESP_OK, late_ms=2 * i) for i in range(100)]
        self.assertFalse(run.phase_summary(25, growing)["passed"])

    def test_max_rps_is_the_highest_passing_rate(self):
        steps = [{"rate": r, "passed": p, "throughput": r - 1}
                 for r, p in ((10, True), (25, True), (50, True),
                              (56, False), (63, True), (70, False))]
        self.assertEqual(run.max_rps(steps), 62)

    def test_ladder_climbs_from_start_to_top(self):
        rates = run.ladder_rates()
        self.assertEqual(rates[0], run.LADDER_START)
        self.assertLessEqual(rates[-1], run.LADDER_TOP)
        self.assertEqual(rates, sorted(set(rates)))

    def test_capacity_search_lands_within_three_percent(self):
        for capacity in (30, 55, 87, 140, 333):
            tried = []

            def try_rate(rate):
                tried.append(rate)
                return rate <= capacity

            found = run.find_capacity(try_rate, run.REF_RATE)
            self.assertLessEqual(found, capacity)
            self.assertGreater(found, capacity / 1.03, tried)
            self.assertLessEqual(len(tried), 13, tried)

    def test_capacity_search_without_a_passing_rate(self):
        self.assertIsNone(run.find_capacity(lambda rate: False, None))
        self.assertEqual(run.find_capacity(lambda rate: True, None),
                         run.ladder_rates()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_and_passes_the_gate(self):
        p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                           capture_output=True, text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stderr[-4000:])
        verdict = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertTrue(verdict["correct"], verdict)
        self.assertEqual(len(verdict["runs"]), 6, verdict)


if __name__ == "__main__":
    unittest.main()
