#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print every metric by name.

    python3 perfbench/report.py

Each run is a fresh ``run.py`` process on seed 0, the seed of the committed
reference digests, for ``RUN_SECONDS`` seconds. The report lists each
workload's config and the reason it was chosen, then every end-to-end and
per-layer metric with its unit. It rewrites ``BENCHMARK.json`` from the catalogue in
``workloads.py`` and exits non-zero when any run fails its output checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import RUN_SECONDS, WORKLOADS, manifest

HERE = Path(__file__).resolve().parent
SEED = 0


def main() -> int:
    (HERE.parent / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    all_correct = True
    for workload in WORKLOADS:
        print(f"== {workload.name}: {workload.why}")
        print(f"   config {json.dumps(workload.config, sort_keys=True)}")
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
                   "--seed", str(SEED), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"   trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                all_correct = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            all_correct &= result["correct"]
            print(f"   trace {trace}: correct {result['correct']}, "
                  f"{result['failed']} of {result['attempted']} calls failed")
            for name, metric in result["metrics"].items():
                print(f"   {name:56s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
