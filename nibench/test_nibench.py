#!/usr/bin/env python3
"""The benchmark's own tests, on smoke-sized instances of every workload.

    python3 nibench/test_nibench.py

Checks that BENCHMARK.json is well formed, that every metric it names is
printed with its unit, that sim-clock outputs repeat exactly on one seed and
change with another, and that traced and untraced runs agree on them.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

# Every workload nibench runs, as BENCHMARK.json lists them.
WORKLOADS = ["setup_storm", "steady_play", "dwcs_shards"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def nibench(workload, seed, trace):
    """One smoke run of the binary; returns its RESULT object."""
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.05", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    line = [l for l in out.splitlines() if l.startswith("RESULT ")][-1]
    return json.loads(line[len("RESULT "):])


def sim_outputs(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["clock"] == "sim"}


def run_py(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "nibench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


class BenchmarkSpec(unittest.TestCase):
    def test_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        names = [w["name"] for w in s["workloads"]]
        self.assertEqual(set(names), set(WORKLOADS))
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(max(m["bound"] for m in s["end_to_end"]),
                         setup[0]["bound"])


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_every_named_metric_is_printed_with_its_unit(self):
        s = spec()
        for w in WORKLOADS:
            for trace, wanted in (("0", s["end_to_end"]),
                                  ("1", s["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    p = run_py("--workload", w, "--seed", "7", "--seconds",
                               "0.05", "--trace", trace, "--smoke")
                    self.assertEqual(p.returncode, 0, p.stderr)
                    last = json.loads(p.stdout.splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted",
                                                 "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(last["failed"], 0)
                    self.assertEqual(set(last["metrics"]),
                                     {m["name"] for m in wanted})
                    for m in wanted:
                        got = last["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertRegex(
                            p.stdout, rf"(?m)^\s+{re.escape(m['name'])}\s+"
                                      rf"\S+ {re.escape(m['unit'])}\s")
                    if trace == "0":
                        for m in wanted:
                            self.assertGreater(last["metrics"][m["name"]]
                                               ["value"], 0, m["name"])

    def test_sim_outputs_repeat_on_a_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = nibench(w, 5, 0), nibench(w, 5, 0)
                self.assertEqual(a["fingerprint"], b["fingerprint"])
                self.assertEqual(sim_outputs(a), sim_outputs(b))

    def test_another_seed_changes_the_fingerprint(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(nibench(w, 5, 0)["fingerprint"],
                                    nibench(w, 6, 0)["fingerprint"])

    def test_traced_and_untraced_agree(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain, traced = nibench(w, 5, 0), nibench(w, 5, 1)
                self.assertEqual(plain["fingerprint"], traced["fingerprint"])
                shared = sim_outputs(plain).keys() & sim_outputs(traced).keys()
                self.assertTrue(shared)
                for k in shared:
                    self.assertEqual(plain["metrics"][k]["value"],
                                     traced["metrics"][k]["value"], k)

    def test_fails_without_the_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "nibench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            p = run_py("--workload", WORKLOADS[0], "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
