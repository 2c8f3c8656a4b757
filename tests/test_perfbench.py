"""Smoke run of the traced decode benchmark.

The traced benchmark patches module attributes of dlmprune by name and checks
every decode; a short run guards those names and checks against refactors.
Its reports go to the gitignored perfbench/out/.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_traced(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["failed"] == 0, proc.stderr
    assert summary["attempted"] > 0


def test_traced_copy_benchmark_runs_clean():
    run_traced("copy8x8")


def test_traced_tiny_benchmark_runs_clean():
    # the stochastic policy and every-step scoring (the ``scored`` variant)
    run_traced("tiny16")
