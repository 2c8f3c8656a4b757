"""Smoke runs of tools/ab_forward.py and tools/ab_decode.py: each against its
own checkout, and against a copy whose forward rounds differently or whose
keep sets differ."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def test_ab_decode_times_every_variant_against_its_own_checkout():
    proc = ab_decode(ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("copy8x8: ")
    rows = [line.split() for line in lines[2:7]]
    assert [row[0] for row in rows] == ["baseline", "once", "random", "progressive", "scored"]
    assert all(row[6] in ("0/1", "1/1") for row in rows)  # rounds won
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
