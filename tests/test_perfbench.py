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


def build_workload_model(name, monkeypatch):
    """The model of perfbench workload ``name``, with perfbench/workloads.py
    imported without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench/workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS[name].build_model()


@pytest.mark.parametrize("name,runs", [
    ("vit1024", [1, 1, 1, 1]), ("tiny16", [1]), ("copy8x8", [1, 11])])
def test_workload_models_take_only_the_layer_runs_the_docs_name(name, runs, monkeypatch):
    # the random models run layer by layer, and the copy model's 11 fetch
    # positions run as one tied run
    assert [k for _, k in layer_runs(build_workload_model(name, monkeypatch))] == runs


@pytest.mark.parametrize("name", ["vit1024", "tiny16"])
def test_random_workload_layers_span_every_channel_and_never_tie(name, monkeypatch):
    # their traffic takes forward's one residual add over all d channels
    w = build_workload_model(name, monkeypatch)
    full = slice(0, w.config.embed_dim)
    for lw in w.layers:
        assert (*lw.reads, lw.writes) == (full,) * 4
        assert not lw.ties
        assert lw.identity == (False,) * 4  # no projection runs as its span


def test_copy_workload_layers_span_the_channels_they_route(monkeypatch):
    # channel plan of model.build_copy_model; the broadcast layer ties too,
    # but a different layer object follows it
    w = build_workload_model("copy8x8", monkeypatch)
    n, d = w.config.num_patches, w.config.embed_dim
    a = (d - 2 * n - 4) // 2
    broadcast, fetch = w.layers[:2]
    assert broadcast.reads == (slice(0, n), slice(n, 2 * n), slice(2 * n + 1, 2 * n + 2))
    assert broadcast.writes == slice(2 * n, 2 * n + 1)
    assert fetch.reads == (slice(2 * n + 2, 2 * n + 3), slice(2 * n, 2 * n + 1),
                           slice(2 * n + 4, 2 * n + 4 + a))
    assert fetch.writes == slice(2 * n + 4 + a, d)
    assert broadcast.ties and fetch.ties
    assert all(lw is fetch for lw in w.layers[1:])
    # forward runs these as their spans: all but broadcast v and fetch q,
    # whose gains are 20
    assert broadcast.identity == (True, True, False, True)
    assert fetch.identity == (False, True, True, True)
