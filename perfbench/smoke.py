#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that every catalogued metric appears with its unit, that a wrong
reference digest is counted as a failure, that a traced and an untraced
run of one seed produce the same output bytes, and that a checkout without
the package sources fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS, config_for

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"
SEED = 5


def bench(*args, run_py=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--tiny", "--seconds", "0.5", "--seed", str(SEED), *args],
        capture_output=True, text=True, timeout=300,
    )


def results(proc):
    """(detail line, result line) of a run that exited cleanly."""
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def test_every_metric_appears_and_tracing_keeps_bytes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload.name):
                plain, untraced = results(bench("--workload", workload.name, "--trace", "0"))
                detail, traced = results(bench("--workload", workload.name, "--trace", "1"))
                for result, catalogue in ((untraced, END_TO_END), (traced, PER_LAYER)):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                                     {m.name: m.unit for m in catalogue})
                self.assertEqual(plain["digests"], detail["digests"])

    def test_wrong_reference_digest_is_a_failure(self):
        workload = WORKLOADS[0]
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            ref = Path(tmp) / "reference.json"
            ref.write_text(json.dumps({workload.name: {
                "seed": SEED, "config": config_for(workload, True),
                "outputs": "0" * 64, "solve": "0" * 64,
            }}))
            detail, result = results(bench("--workload", workload.name, "--trace", "0",
                                           "--reference", str(ref)))
        self.assertEqual(detail["meta"]["digests_pinned_by"], "reference")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.0)

    def test_checkout_without_sources_fails_without_a_result(self):
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", WORKLOADS[0].name, "--trace", "0",
                         run_py=Path(tmp) / HERE.name / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
