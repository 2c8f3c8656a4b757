"""Smoke runs of tools/ab_forward.py: against its own checkout, and against
a copy whose forward rounds differently."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def ab_forward(base):
    return subprocess.run(
        [sys.executable, "tools/ab_forward.py", str(base), "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_ab_forward_times_every_workload_against_its_own_checkout():
    proc = ab_forward(ROOT)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["vit1024", "copy8x8", "tiny16"]
    assert all(row[6] in ("0/1", "1/1") for row in rows)  # rounds won


def test_ab_forward_fails_when_the_logits_differ(tmp_path):
    shutil.copytree(ROOT / "src" / "dlmprune", tmp_path / "src" / "dlmprune",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    model = tmp_path / "src" / "dlmprune" / "model.py"
    source = model.read_text()
    head = "logits = h @ weights.output_w + weights.output_b"
    assert source.count(head) == 1
    model.write_text(source.replace(head, head + " + 1e-12"))
    proc = ab_forward(tmp_path)
    assert proc.returncode == 1
    assert "logits differ on workload vit1024" in proc.stderr
