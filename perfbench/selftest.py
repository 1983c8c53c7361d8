#!/usr/bin/env python3
"""Self-test of the IOCov benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Every workload in perfbench/workloads.json, benchmarked or not, runs end to
end at its tiny size, untraced (all from one command) and traced, and must
pass its correctness checks and print exactly the metrics BENCHMARK.json
names. Exact allocation counts must
repeat between two traced runs of one seed, and the benchmark must fail
without printing a result in a directory that holds only BENCHMARK.json
and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH = json.load(open("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in json.load(open("perfbench/workloads.json"))["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# The VFS keeps inodes and open files in std HashMaps, whose per-process
# random hash seed decides when a removal leaves a tombstone and so when a
# table rehashes: the kernel layer's allocation count may move by a few
# per million calls between processes. Every other count repeats exactly.
HASH_ORDER_DEPENDENT = ("syscalls.kernel.",)


def run(workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600)


def result(out):
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkFile(unittest.TestCase):
    def test_schema(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        names = [w["name"] for w in BENCH["workloads"]]
        self.assertLessEqual(set(names), set(WORKLOADS), "benchmarked workloads are defined")
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "names are used once")
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCH["end_to_end"]))

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(".bench_work", "selftest_bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(path, os.path.join(bare, path))
        try:
            out = subprocess.run(BENCH["command"] + ["--workload", BENCH["workloads"][0]["name"],
                                                     "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


class Workloads(unittest.TestCase):
    def check(self, res, kind):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], res)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        expected = {m["name"]: m["unit"] for m in BENCH[kind]}
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, expected)
        for name, metric in res["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if kind == "end_to_end":
                self.assertNotEqual(metric["value"], 0, name)
        return res["metrics"]

    def test_one_command_runs_every_workload_and_passes_its_checks(self):
        out = run("all", 0)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
        self.assertEqual([line["record"]["workload"] for line in lines[0::2]], WORKLOADS)
        for record, res in zip(lines[0::2], lines[1::2]):
            with self.subTest(workload=record["record"]["workload"]):
                metrics = self.check(res, "end_to_end")
                self.assertEqual(metrics["success_ratio"]["value"], 1.0)

    def test_traced_runs_emit_the_ledger_with_repeatable_allocation_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.check(result(run(workload, 1)), "per_layer")
                second = self.check(result(run(workload, 1)), "per_layer")
                for name in first:
                    if not name.endswith(".allocs"):
                        continue
                    a, b = first[name]["value"], second[name]["value"]
                    if name.startswith(HASH_ORDER_DEPENDENT):
                        self.assertLess(abs(a - b), 1e-4 * a, name)
                    else:
                        self.assertEqual(a, b, name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
