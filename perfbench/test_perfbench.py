#!/usr/bin/env python3
"""Unit tests of the benchmark's own helpers.

    python3 perfbench/test_perfbench.py

Builds perfbench (as run.py does), runs the C++ helper checks in
perfbench_selftest (percentile rule, span self time, histogram, result
formatting), and round-trips a result line: the C++ writer's output is read
back by run.py's parser with every value intact.
"""
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

# What perfbench_selftest --emit prints (selftest.cpp: sample_result()).
EMITTED = {
    "setup_s": (0.81273645192837465, "s"),
    "throughput_per_s": (212345.67891234567, "op/s"),
    "latency_p99_us": (1.0 / 3.0, "us"),
    "core.alloc_hit_ratio": (0.98612, "ratio"),
    "tiny": (5e-324, "s"),
    "big": (1.7976931348623157e308, "count"),
    'quote"name': (1.0, "u\\nit"),
}


class Built(unittest.TestCase):
    out = None

    @classmethod
    def setUpClass(cls):
        env, _ = run.clean_env(os.environ)
        Built.out = Built.out or run.build(env)
        if Built.out is None:
            raise unittest.SkipTest("perfbench did not build")

    def selftest(self, *args):
        return subprocess.run([os.path.join(self.out, "perfbench_selftest"), *args],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


class HelperChecks(Built):
    def test_cpp_helpers(self):
        proc = self.selftest()
        self.assertEqual(proc.returncode, 0, proc.stderr)


class ResultRoundTrip(Built):
    def test_values_survive(self):
        proc = self.selftest("--emit")
        self.assertEqual(proc.returncode, 0)
        obj = run.parse_result(proc.stdout.strip())
        self.assertIs(obj["correct"], True)
        self.assertEqual(obj["attempted"], 123456789012)
        self.assertEqual(obj["failed"], 0)
        self.assertEqual(set(obj["metrics"]), set(EMITTED))
        for name, (value, unit) in EMITTED.items():
            self.assertEqual(obj["metrics"][name]["value"], value, name)
            self.assertEqual(obj["metrics"][name]["unit"], unit, name)

    def test_expected_names_enforced(self):
        line = self.selftest("--emit").stdout.strip()
        expected = {name: unit for name, (_, unit) in EMITTED.items()}
        run.parse_result(line, expected)
        with self.assertRaises(ValueError):
            run.parse_result(line, dict(expected, missing="s"))
        with self.assertRaises(ValueError):
            run.parse_result(line, dict(expected, setup_s="ms"))


class Parser(unittest.TestCase):
    GOOD = ('{"correct": true, "attempted": 3, "failed": 0, '
            '"metrics": {"x": {"value": 1.5, "unit": "s"}}}')

    def test_good(self):
        self.assertEqual(run.parse_result(self.GOOD)["metrics"]["x"]["value"], 1.5)

    def test_rejects(self):
        bad = [
            '{"correct": true, "attempted": 3, "failed": 0}',
            '{"attempted": 3, "correct": true, "failed": 0, "metrics": {}}',
            '{"correct": 1, "attempted": 3, "failed": 0, "metrics": {}}',
            '{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}',
            '{"correct": true, "attempted": 2.5, "failed": 0, "metrics": {}}',
            '{"correct": true, "attempted": 3, "failed": 0, "metrics": {"x": {"value": "1"'
            ', "unit": "s"}}}',
            '{"correct": true, "attempted": 3, "failed": 0, "metrics": {"x": {"value": 1}}}',
            'not json',
        ]
        for line in bad:
            with self.assertRaises(ValueError, msg=line):
                run.parse_result(line)


class Environment(unittest.TestCase):
    def test_runtime_knobs_are_stripped(self):
        env, gone = run.clean_env({"LWT_JOIN": "poll", "GLT_BACKEND": "abt",
                                   "LWTBENCH_REPS": "3", "PATH": "/bin"})
        self.assertEqual(gone, ["GLT_BACKEND", "LWT_JOIN"])
        self.assertEqual(env, {"LWTBENCH_REPS": "3", "PATH": "/bin"})

    def test_program_refuses_knobs(self):
        out = run.build(run.clean_env(os.environ)[0])
        if out is None:
            self.skipTest("perfbench did not build")
        env = dict(run.clean_env(os.environ)[0], LWT_JOIN="poll")
        proc = subprocess.run([os.path.join(out, "lwt_perfbench"), "--workload", "fork_join",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
