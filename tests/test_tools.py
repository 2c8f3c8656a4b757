"""Runs of tools/ab_decode.py against its own checkout and against a copy
whose keep sets or logits differ, its CPU time, fault and per-step columns, its JSON
record and its bootstrap interval; record_decode's check that a forward leaves its input
unchanged; and the tools' argument errors."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from ab_decode import bootstrap_interval  # noqa: E402
from checkout import load_side, record_decode  # noqa: E402


def tool(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def ab_decode(base):
    return tool("tools/ab_decode.py", str(base), "--workload", "copy8x8", "--rounds", "1")


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
    per_step = [line.split() for line in lines[8:]]
    assert {row[0]: row[1] for row in per_step} == {"once": "1.00", "random": "1.00",
                                                   "progressive": "7.00", "scored": "7.00"}
    for row in per_step:
        assert len(row) == 7
        assert row[5:7] == [f"[{row[4]},", f"{row[4]}]"]  # one round: the interval is the diff


def test_ab_decode_writes_what_it_prints_as_json(tmp_path):
    path = tmp_path / "ab.json"
    proc = tool("tools/ab_decode.py", str(ROOT), "--workload", "tiny16", "--rounds", "1",
                "--json", str(path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(path.read_text())
    assert report["base"] == report["head"] == str(ROOT)
    assert list(report["workloads"]) == ["tiny16"]
    record = report["workloads"]["tiny16"]
    assert record["rounds"] == 1 and record["decodes_per_batch"] >= 1
    lines = proc.stdout.splitlines()
    assert lines[0] == f"tiny16: {record['decodes_per_batch']} decodes per batch, 1 rounds"
    variants = record["variants"]
    assert list(variants) == ["baseline", "once", "random", "progressive", "scored"]
    for line, (variant, row) in zip(lines[2:7], variants.items()):
        assert set(row) == {"base_s", "head_s", "ratio", "ratio_q1", "ratio_q3", "interval_95",
                            "won", "base_cpu_s", "head_cpu_s", "base_faults", "head_faults"}
        lo, hi = row["interval_95"]
        assert line.split()[:6] == [variant, f"{row['base_s']:.3e}", f"{row['head_s']:.3e}",
                                    f"{row['ratio']:.3f}", f"[{row['ratio_q1']:.3f},",
                                    f"{row['ratio_q3']:.3f}]"]
        assert lo == hi == row["ratio"]  # one round
        assert row["won"] in (0, 1)
        assert isinstance(row["base_faults"], int) and isinstance(row["head_faults"], int)
    per_step = record["per_step"]
    assert list(per_step) == [line.split()[0] for line in lines[8:]]
    assert "scored" in per_step  # tiny16's other variants prune no step before the last
    for line, (variant, row) in zip(lines[8:], per_step.items()):
        assert set(row) == {"steps", "base_us", "head_us", "diff_us", "diff_interval_95"}
        assert line.split()[:5] == [variant, f"{row['steps']:.2f}", f"{row['base_us']:.1f}",
                                    f"{row['head_us']:.1f}", f"{row['diff_us']:.1f}"]
        assert tuple(row["diff_interval_95"]) == (row["diff_us"], row["diff_us"])  # one round


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


def test_ab_decode_fails_when_the_logits_differ(tmp_path):
    copy_checkout(tmp_path)
    head = "logits = h @ weights.output_w + weights.output_b"
    edit(tmp_path / "src" / "dlmprune" / "model.py", head, head + " + 1e-12")
    proc = ab_decode(tmp_path)
    assert proc.returncode == 1
    assert "decodes differ on workload copy8x8 variant baseline" in proc.stderr
    assert proc.stderr.rstrip().endswith(": logits and captures")  # the only field
    assert proc.stdout == ""


def test_record_decode_fails_when_a_forward_writes_its_input(monkeypatch):
    package, workloads = load_side("dlmprune_tools_test", ROOT)
    decoder, pruning = package.decoder, package.pruning
    forward = decoder.forward

    def writing_forward(x, *args, **kwargs):
        x[0, 0] += 1.0
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(decoder, "forward", writing_forward)
    apply_prune = pruning.apply_prune
    wl = workloads.WORKLOADS["copy8x8"]
    weights = wl.build_model()
    inp = wl.make_inputs(np.random.default_rng(1), weights)[0]
    with pytest.raises(ValueError, match="a forward wrote its input"):
        record_decode(package, workloads, wl, weights, "once", inp)
    assert decoder.forward is writing_forward
    assert pruning.apply_prune is apply_prune


@pytest.mark.parametrize("args,problem", [
    (["tools/ab_decode.py", "{empty}"], "no dlmprune sources"),
    (["tools/ab_decode.py", ".", "--rounds", "0"], "--rounds must be >= 1"),
    (["tools/ab_decode.py", ".", "--workload", "nosuch"], "unknown workload 'nosuch'"),
    (["tools/ab_decode.py", ".", "--json", "{empty}/no/such/dir/ab.json"],
     "ab.json cannot be written: No such file or directory"),
    (["tools/ab_decode.py", ".", "--json", "{empty}"], "cannot be written: Is a directory"),
    (["tools/decode_digest.py"], "usage: decode_digest.py <checkout>"),
    (["tools/decode_digest.py", "{empty}"], "no dlmprune sources"),
])
def test_a_tool_given_bad_arguments_exits_2_and_names_the_problem(tmp_path, args, problem):
    proc = tool(*(arg.format(empty=tmp_path) for arg in args))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert problem in proc.stderr


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
