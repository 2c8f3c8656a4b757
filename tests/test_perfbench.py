"""Smoke run of the traced decode benchmark, and the layer runs of its models.

The traced benchmark patches module attributes of dlmprune by name and checks
every decode; a short run guards those names and checks against refactors.
Its reports go to the gitignored perfbench/out/.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from dlmprune.model import layer_runs

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


@pytest.mark.parametrize("name,runs", [
    ("vit1024", [1, 1, 1, 1]), ("tiny16", [1]), ("copy8x8", [1, 11])])
def test_workload_models_take_only_the_layer_runs_the_docs_name(name, runs, monkeypatch):
    # the random models run layer by layer, and the copy model's 11 fetch
    # positions run as one tied run; perfbench/workloads.py is imported
    # without writing its bytecode
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench/workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    assert [k for _, k in layer_runs(workloads.WORKLOADS[name].build_model())] == runs
