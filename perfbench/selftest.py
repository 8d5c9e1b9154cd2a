"""Tests of the benchmark itself (several minutes; not part of the unit tests).

    python3 perfbench/selftest.py [-k PATTERN]

Run from the repository root.  Each test runs ``run.py`` as the
harness that compares commits would, and reads its result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.getcwd()


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def counts(res: dict) -> dict:
    """The work counters: every per-layer metric that is not a time."""
    return {k: v["value"] for k, v in res["metrics"].items()
            if v["unit"] != "s"}


class TracedRuns(unittest.TestCase):

    def test_search_scores_every_class_and_counts_repeat(self):
        # a fresh cache per run: a leftover checkpoint would make the
        # second run resume and score nothing
        first, _ = result(bench("search-n7", 1, 1))
        second, _ = result(bench("search-n7", 1, 1))
        for res in (first, second):
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertEqual(res["metrics"]["search.scored"]["value"],
                             workloads.SEARCH_CLASSES_N7)
        self.assertEqual(counts(first), counts(second))

    def test_compile_cold_is_cold_and_seed_invariant(self):
        a, _ = result(bench("compile-cold", 1, 1))
        b, _ = result(bench("compile-cold", 2, 1))
        for res in (a, b):
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertEqual(res["metrics"]["losstree.disk_hits"]["value"], 0)
            self.assertGreater(res["metrics"]["losstree.disk_misses"]["value"], 0)
        self.assertEqual(counts(a), counts(b))

    def test_evaluate_warm_fails_only_known_jobs_and_is_seed_invariant(self):
        a, lines_a = result(bench("evaluate-warm", 1, 1))
        b, _ = result(bench("evaluate-warm", 2, 1))
        self.assertTrue(a["correct"])
        failing = {line.split(": ")[1] for line in lines_a
                   if line.startswith("failed op: ")}
        self.assertEqual(failing, set(workloads.KNOWN_FAILING))
        self.assertEqual(a["metrics"]["losstree.disk_misses"]["value"], 0)
        self.assertEqual(counts(a), counts(b))


class Environment(unittest.TestCase):

    def test_refuses_to_run_without_the_program(self):
        scratch = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("compile-cold", 1, 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
