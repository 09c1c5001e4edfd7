#!/usr/bin/env python3
"""Tests for bench_compare.py: every gate trips on its own, every FAIL line
of a run that trips several is printed, and a missing section leaves the
other gates evaluated.

Each case copies bench/baseline.json, edits the copy into a current report
in a temporary directory and runs the script on the pair.

Run with: python3 .github/scripts/test_bench_compare.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "bench_compare.py")
BASELINE = os.path.join(HERE, "..", "..", "bench", "baseline.json")

with open(BASELINE) as f:
    BASE = json.load(f)


def row(report, section, key, value):
    return next(r for r in report[section] if r[key] == value)


def set_ratio(section, ratio):
    def edit(report):
        report[section]["ratio"] = ratio
    return edit


def set_speedup(jobs, speedup, domains=None):
    def edit(report):
        row(report, "parallel_speedup", "jobs", jobs)["speedup_vs_1"] = speedup
        if domains is not None:
            report["domains_available"] = domains
    return edit


def scale(section, config, key, factor):
    def edit(report):
        row(report, section, "config", config)[key] *= factor
    return edit


def set_row(section, config, key, value):
    def edit(report):
        row(report, section, "config", config)[key] = value
    return edit


def set_a2_seconds(seconds):
    def edit(report):
        row(report, "sections", "name",
            "Ablation A2: key entropy under SO (probe-level)")["seconds"] = seconds
    return edit


def set_key(section, key, value):
    def edit(report):
        if section is None:
            report[key] = value
        else:
            report[section][key] = value
    return edit


def delete(section):
    def edit(report):
        del report[section]
    return edit


# each single-gate edit and the start of the FAIL line it must print
GATES = {
    "adaptive": (set_ratio("adaptive_overhead", 1.06), "adaptive_overhead ratio"),
    "defender": (set_ratio("defender_overhead", 1.11), "defender_overhead ratio"),
    "timeline": (set_ratio("timeline_overhead", 1.11), "timeline_overhead ratio"),
    "causal": (set_ratio("causal_overhead", 1.06), "causal_overhead ratio"),
    "jobs2 floor": (set_speedup(2, 1.2), "parallel_speedup/jobs=2:"),
    "jobs4 floor": (set_speedup(4, 1.9, domains=4), "parallel_speedup/jobs=4:"),
    "A2 ceiling": (set_a2_seconds(10.5), "A2 section"),
    "events_per_sec": (set_key(None, "events_per_sec", BASE["events_per_sec"] * 0.7),
                       "events_per_sec"),
    "interceptor timing": (scale("interceptor_overhead", "no-plan", "ns_per_message", 1.3),
                           "interceptor_overhead/no-plan ns_per_message"),
    "interceptor allocation": (scale("interceptor_overhead", "lossy-link",
                                     "minor_words_per_message", 1.15),
                               "interceptor_overhead/lossy-link minor_words_per_message"),
    "profiler timing": (scale("profiler_overhead", "enabled", "ns_per_call", 1.3),
                        "profiler_overhead/enabled ns_per_call"),
    "profiler allocation": (scale("profiler_overhead", "enabled", "minor_words_per_call", 1.15),
                            "profiler_overhead/enabled minor_words_per_call"),
    "crypto timing": (scale("crypto_cost", "sign", "ns_per_call", 1.3),
                      "crypto_cost/sign ns_per_call"),
    "crypto allocation": (scale("crypto_cost", "verify", "minor_words_per_call", 1.15),
                          "crypto_cost/verify minor_words_per_call"),
    "digest timing": (scale("trace_digest", "lossy-trial", "ns_per_event", 1.3),
                      "trace_digest/lossy-trial ns_per_event"),
    "digest allocation": (scale("trace_digest", "lossy-trial", "minor_words_per_event", 1.15),
                          "trace_digest/lossy-trial minor_words_per_event"),
    "prng timing": (scale("prng_cost", "int", "ns_per_draw", 1.3),
                    "prng_cost/int ns_per_draw"),
    "prng allocation": (scale("prng_cost", "float", "minor_words_per_draw", 1.15),
                        "prng_cost/float minor_words_per_draw"),
    # int and bernoulli allocate nothing: any word at all fails
    "prng zero allocation": (set_row("prng_cost", "bernoulli", "minor_words_per_draw", 1),
                             "prng_cost/bernoulli minor_words_per_draw"),
    "requests_per_sec": (set_key("workload_throughput", "requests_per_sec",
                                 BASE["workload_throughput"]["requests_per_sec"] * 0.7),
                         "workload_throughput requests_per_sec"),
}
for pin in ("logical_requests", "answered", "p50_vt", "p99_vt", "availability"):
    GATES[pin] = (set_key("workload_throughput", pin,
                          BASE["workload_throughput"][pin] + 1),
                  f"workload_throughput {pin}")


class BenchCompare(unittest.TestCase):
    def compare(self, *edits, current=None, only=None):
        """Run the script on (baseline, edited copy); returns (exit, FAIL
        lines, MISSING lines, stdout)."""
        if current is None:
            current = copy.deepcopy(BASE)
        for edit in edits:
            edit(current)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_fortress.json")
            with open(path, "w") as f:
                json.dump(current, f)
            argv = [sys.executable, SCRIPT, BASELINE, path]
            if only:
                argv += ["--only", only]
            proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        fails = [l[len("FAIL"):].strip() for l in lines if l.startswith("FAIL ")]
        missing = [l[len("MISSING"):].strip() for l in lines if l.startswith("MISSING ")]
        return proc.returncode, fails, missing, proc.stdout

    def assert_fails_exactly(self, names, *edits):
        code, fails, missing, out = self.compare(*edits)
        self.assertEqual(code, 1, out)
        self.assertEqual(missing, [], out)
        self.assertEqual(len(fails), len(names), out)
        for name in names:
            self.assertTrue(any(f.startswith(GATES[name][1]) for f in fails),
                            f"no FAIL line for {name}:\n{out}")

    def test_baseline_against_itself_passes(self):
        code, fails, missing, out = self.compare()
        self.assertEqual((code, fails, missing), (0, [], []), out)

    def test_each_gate_trips_alone(self):
        for name, (edit, _) in GATES.items():
            with self.subTest(gate=name):
                self.assert_fails_exactly([name], edit)

    def test_several_gates_print_every_fail(self):
        for names in (["adaptive", "defender"],
                      ["jobs2 floor", "causal", "answered"],
                      ["events_per_sec", "timeline"]):
            with self.subTest(gates=names):
                self.assert_fails_exactly(names, *(GATES[n][0] for n in names))

    def test_missing_section_leaves_other_gates_evaluated(self):
        code, fails, missing, out = self.compare(delete("defender_overhead"),
                                                 GATES["timeline"][0])
        self.assertEqual(code, 1, out)
        self.assertEqual(missing, ["defender_overhead: not in current report"], out)
        self.assertEqual(len(fails), 1, out)
        self.assertTrue(fails[0].startswith("timeline_overhead ratio"), out)
        self.assertIn("ok       causal_overhead ratio", out)
        self.assertIn("ok       workload_throughput requests_per_sec", out)

    def test_report_without_crypto_rows_misses_each(self):
        code, fails, missing, out = self.compare(delete("crypto_cost"))
        self.assertEqual(code, 1, out)
        self.assertEqual(fails, [], out)
        self.assertEqual(missing, [f"crypto_cost/{config}: not in current report"
                                   for config in ("sign", "verify", "signature_to_hex")], out)

    def test_context_per_digest_fails_the_signature_rows(self):
        # a one-shot digest that builds a context again (schedule, block,
        # chaining value) costs each sign and verify 194 minor words
        for config in ("sign", "verify"):
            with self.subTest(config=config):
                code, fails, missing, out = self.compare(
                    set_row("crypto_cost", config, "minor_words_per_call", 194))
                self.assertEqual(code, 1, out)
                self.assertEqual(missing, [], out)
                self.assertEqual(len(fails), 1, out)
                self.assertTrue(
                    fails[0].startswith(f"crypto_cost/{config} minor_words_per_call"), out)

    def test_report_without_digest_row_misses_it(self):
        code, fails, missing, out = self.compare(delete("trace_digest"))
        self.assertEqual(code, 1, out)
        self.assertEqual(fails, [], out)
        self.assertEqual(missing, ["trace_digest/lossy-trial: not in current report"], out)

    def test_report_without_prng_rows_misses_each(self):
        code, fails, missing, out = self.compare(delete("prng_cost"))
        self.assertEqual(code, 1, out)
        self.assertEqual(fails, [], out)
        self.assertEqual(missing, [f"prng_cost/{config}: not in current report"
                                   for config in ("int", "float", "bernoulli")], out)

    def test_only_parallel_speedup_on_a_speedup_report(self):
        report = {key: copy.deepcopy(BASE[key])
                  for key in ("wall_seconds", "domains_available", "parallel_speedup")}
        report["benchmark"] = "fortress-speedup"
        code, fails, missing, out = self.compare(current=report, only="parallel-speedup")
        self.assertEqual((code, fails, missing), (0, [], []), out)


if __name__ == "__main__":
    unittest.main()
