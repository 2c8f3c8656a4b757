"""Smoke runs of tools/ab_forward.py and tools/ab_decode.py: each against its
own checkout, and against a copy whose forward rounds differently or whose
keep sets differ; ab_decode's CPU time and fault columns; and its bootstrap
interval."""

import functools
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from ab_decode import bootstrap_interval  # noqa: E402
from ab_forward import step_call  # noqa: E402
from checkout import load_side  # noqa: E402


def ab_forward(base):
    return subprocess.run(
        [sys.executable, "tools/ab_forward.py", str(base), "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def ab_decode(base):
    return subprocess.run(
        [sys.executable, "tools/ab_decode.py", str(base), "--workload", "copy8x8",
         "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def copy_checkout(dest):
    """A copy of this checkout's sources and perfbench under ``dest``."""
    shutil.copytree(ROOT / "src" / "dlmprune", dest / "src" / "dlmprune",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))


def edit(path, old, new):
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))


def test_ab_forward_times_every_workload_against_its_own_checkout():
    proc = ab_forward(ROOT)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["vit1024", "copy8x8", "tiny16"]
    assert all(row[6] in ("0/1", "1/1") for row in rows)  # rounds won


def test_ab_forward_fails_when_the_logits_differ(tmp_path):
    copy_checkout(tmp_path)
    head = "logits = h @ weights.output_w + weights.output_b"
    edit(tmp_path / "src" / "dlmprune" / "model.py", head, head + " + 1e-12")
    proc = ab_forward(tmp_path)
    assert proc.returncode == 1
    assert "logits differ on workload vit1024" in proc.stderr


@pytest.fixture(scope="module")
def this_side():
    """(package, workloads) of this checkout, as ab_forward loads a side."""
    return load_side("dlmprune_tools_test", ROOT)


@pytest.mark.parametrize("name,tiles", [("copy8x8", 2), ("tiny16", 1)])
def test_ab_forward_times_full_forwards_on_kept_buffers(this_side, name, tiles, monkeypatch):
    # each call runs every tile of a decode-step forward (softmax_rows calls)
    # on one kept buffer set, and no call sees the input of the call before it
    package, workloads = this_side
    model, seen = package.model, []

    @functools.wraps(model.forward)
    def recording_forward(x, weights, **kwargs):
        seen.append((x, kwargs.get("buffers")))
        return forward(x, weights, **kwargs)

    forward = model.forward
    monkeypatch.setattr(model, "forward", recording_forward)
    call = step_call(package, workloads, name)
    calls = 6
    with mock.patch.object(model, "softmax_rows", wraps=model.softmax_rows) as spy:
        logits = [call() for _ in range(calls)]
    assert spy.call_count == tiles * calls
    assert all(isinstance(buffers, model.ForwardBuffers) for _, buffers in seen)
    assert len({id(buffers) for _, buffers in seen}) == 1
    assert all(a.tobytes() != b.tobytes() for (a, _), (b, _) in zip(seen, seen[1:]))
    assert logits[0].tobytes() == logits[2].tobytes() != logits[1].tobytes()


def test_ab_forward_passes_no_buffers_to_a_forward_without_them(this_side):
    package, workloads = this_side
    seen = []

    def forward(x, weights, capture=False, first_row=0):
        seen.append(first_row)
        return package.model.forward(x, weights, capture=capture, first_row=first_row)

    side = SimpleNamespace(model=SimpleNamespace(forward=forward,
                                                 embed_response=package.model.embed_response))
    call = step_call(side, workloads, "copy8x8")
    call(), call()
    assert seen == [65, 65]


def test_ab_decode_times_every_variant_against_its_own_checkout():
    proc = ab_decode(ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("copy8x8: ")
    rows = [line.split() for line in lines[2:7]]
    assert [row[0] for row in rows] == ["baseline", "once", "random", "progressive", "scored"]
    for row in rows:
        assert row[4:6] == row[6:8]  # one round: the interval is its quartiles, its ratio
        assert row[8] in ("0/1", "1/1")  # rounds won
        assert len(row) == 13
        assert all(float(cpu) > 0 for cpu in row[9:11])  # thread CPU seconds per decode
        assert all(faults.isdigit() for faults in row[11:13])  # minor faults per decode
    per_step = {row[0]: row[1] for row in (line.split() for line in lines[8:])}
    assert per_step == {"once": "1.00", "random": "1.00", "progressive": "7.00",
                        "scored": "7.00"}


def test_ab_decode_fails_when_the_keep_sets_differ(tmp_path):
    copy_checkout(tmp_path)
    # keep the lowest-scoring tokens instead of the highest
    edit(tmp_path / "src" / "dlmprune" / "pruning.py",
         'np.argsort(-values, kind="stable")', 'np.argsort(values, kind="stable")')
    proc = ab_decode(tmp_path)
    assert proc.returncode == 1
    assert "decodes differ on workload copy8x8 variant once" in proc.stderr
    assert "keep sets" in proc.stderr
    assert proc.stdout == ""  # nothing is timed


class TestBootstrapInterval:
    def test_a_seed_gives_one_interval(self):
        ratios = np.random.default_rng(3).lognormal(0.0, 0.1, size=40)
        assert bootstrap_interval(ratios, seed=7) == bootstrap_interval(ratios, seed=7)
        assert bootstrap_interval(ratios, seed=7) != bootstrap_interval(ratios, seed=8)

    def test_a_constant_ratio_has_a_zero_width_interval_at_it(self):
        assert bootstrap_interval(np.full(40, 0.85)) == (0.85, 0.85)

    @pytest.mark.parametrize("rounds", [1, 2, 5, 40])
    @pytest.mark.parametrize("seed", range(5))
    def test_the_interval_holds_the_median(self, rounds, seed):
        ratios = np.random.default_rng(seed).lognormal(0.0, 0.2, size=rounds)
        lo, hi = bootstrap_interval(ratios)
        assert lo <= np.median(ratios) <= hi
