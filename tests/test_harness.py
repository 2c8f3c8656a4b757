import json
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from dlmprune import analysis, harness
from dlmprune.cli import main
from dlmprune.decoder import PolicyKind, SchedulePolicy, run_inference
from dlmprune.harness import (BenchReport, ConfigError, config_from_dict, emit_report,
                              gen_pointer_task, run_accuracy, run_bench, run_similarity)
from dlmprune.model import CopyTaskVocab, embed_prompt, encode_image
from dlmprune.pruning import PrunePlan, ScorerKind, StrategyKind


class TestGenPointerTask:
    def test_single_patch_target(self):
        t = gen_pointer_task((1, 1), ("a", "b"), seed=1)
        vocab = CopyTaskVocab(("a", "b"), 1)
        assert t.prompt == (vocab.index_id(0),)

    def test_seed_determinism(self):
        a = gen_pointer_task((3, 3), ("a", "b", "c"), seed=5)
        b = gen_pointer_task((3, 3), ("a", "b", "c"), seed=5)
        assert a == b
        c = gen_pointer_task((3, 3), ("a", "b", "c"), seed=6)
        assert a != c

    def test_expected_matches_grid(self):
        alphabet = ("a", "b", "c", "d")
        vocab = CopyTaskVocab(alphabet, 6)
        for seed in range(1000):
            t = gen_pointer_task((2, 3), alphabet, seed)
            target = t.prompt[0] - vocab.index_id(0)
            flat = [s for row in t.image for s in row]
            assert t.expected == vocab.symbol_id(flat[target])

    def test_empty_alphabet(self):
        with pytest.raises(ValueError):
            gen_pointer_task((2, 2), (), seed=1)


def accuracy_config(count=10, grid=(3, 3), alphabet=4, **prune):
    data = {
        "decode": {"K": 2, "tau": 2, "policy": "confidence", "seed": 7},
        "tasks": {"count": count, "grid": list(grid), "alphabet": alphabet, "seed": 0},
        "prune": {"strategy": "once", "scorer": "masked", "r": 0.5, "seed": 1, **prune},
    }
    return config_from_dict(data)


class TestRunAccuracy:
    def test_masked_scorer_is_exact(self):
        reports = run_accuracy(accuracy_config(r=0.25))
        by_name = {r.variant: r for r in reports}
        assert by_name["baseline"].accuracy == 1.0
        assert by_name["once/masked/r=0.25"].accuracy == 1.0

    def test_keep_all_matches_baseline(self):
        reports = run_accuracy(accuracy_config(r=1.0))
        assert reports[0].accuracy == reports[1].accuracy == 1.0

    def test_masked_beats_random_at_every_ratio(self):
        cfg = accuracy_config(count=40, grid=(4, 4))
        for ratio in (0.25, 0.5, 0.75):
            reports = run_accuracy(cfg, plans=[
                PrunePlan.once(ratio), PrunePlan.random_once(ratio, seed=3)],
                include_baseline=False)
            masked, rand = reports
            assert masked.accuracy == 1.0
            assert rand.accuracy < masked.accuracy

    def test_end_to_end_seed_determinism(self):
        cfg = accuracy_config(count=6, r=0.5)
        a = run_accuracy(cfg)
        b = run_accuracy(accuracy_config(count=6, r=0.5))
        assert [r.accuracy for r in a] == [r.accuracy for r in b]

    def test_matches_per_variant_reference_loop(self):
        # decoding the variants in turn per input gives what decoding one
        # whole variant after another gives
        cfg = accuracy_config(count=6, grid=(3, 3))
        plans = [PrunePlan.once(0.25), PrunePlan.random_once(0.5, seed=3),
                 PrunePlan.progressive(0.25)]
        reports = run_accuracy(cfg, plans=plans)
        model_cfg, weights = harness.copy_setup(cfg.tasks)
        tasks = [gen_pointer_task(cfg.tasks.grid, cfg.tasks.alphabet, cfg.tasks.seed + i)
                 for i in range(cfg.tasks.count)]
        expected, base_lengths = [], None
        for plan in [None] + plans:
            correct, lengths = 0, []
            for task in tasks:
                ids, _, stats = run_inference(
                    encode_image(task.image, weights), embed_prompt(task.prompt, weights),
                    cfg.response_len, cfg.steps, weights, cfg.policy, plan)
                correct += int(ids[0] == task.expected)
                lengths += stats.per_step_lengths
            base_lengths = base_lengths or lengths
            flops = analysis.flops_report(model_cfg.layers, model_cfg.embed_dim,
                                          model_cfg.ffn_dim, base_lengths, lengths,
                                          steps=cfg.steps)
            expected.append((harness.variant_label(plan), correct / len(tasks), flops))
        assert [(r.variant, r.accuracy, r.flops) for r in reports] == expected

    def test_flops_ratio_below_one_when_pruning(self):
        reports = run_accuracy(accuracy_config(r=0.5))
        pruned = reports[1]
        assert pruned.flops is not None
        assert 0.0 < pruned.flops.ratio < 1.0

    def test_progressive_flops_exceed_once_summed_over_tasks(self):
        cfg = config_from_dict({
            "decode": {"K": 4, "tau": 4, "policy": "confidence", "seed": 7},
            "tasks": {"count": 3, "grid": [4, 4], "alphabet": 4, "seed": 0},
        })
        base, once, prog = run_accuracy(cfg, plans=[PrunePlan.once(0.25),
                                                    PrunePlan.progressive(0.25)])
        m = harness.copy_setup(cfg.tasks)[0]
        n = 16 + 1 + 4  # visual + prompt + response
        per_task = analysis.flops_for_lengths(m.layers, m.embed_dim, m.ffn_dim, [n] * 4)
        assert base.flops.pruned == base.flops.baseline == 3 * per_task
        assert once.flops.ratio < prog.flops.ratio < 1.0


def record_decodes(monkeypatch):
    """Each run_inference call of the harness: its policy seed and per-step commits."""
    calls = []

    def recording_run_inference(visual, prompt, tau, steps, weights, policy, *args, **kwargs):
        ids, trace, stats = run_inference(visual, prompt, tau, steps, weights, policy,
                                          *args, **kwargs)
        calls.append((policy.rng_seed, [out.newly_decoded.tolist() for out in trace]))
        return ids, trace, stats

    monkeypatch.setattr(harness, "run_inference", recording_run_inference)
    return calls


class TestDecode:
    def test_stochastic_inputs_unmask_in_their_own_orders(self, monkeypatch):
        # one stream shared by every input gave all five tasks the commits
        # [[7], [], [1, 5, 6], [2], [], [0, 4], [3]]
        calls = record_decodes(monkeypatch)
        cfg = config_from_dict({"decode": {"policy": "stochastic"}, "tasks": {"count": 5}})
        _, weights = harness.copy_setup(cfg.tasks)
        inputs, _ = harness.pointer_inputs(cfg.tasks, weights)
        harness.decode(weights, cfg, inputs, [None])
        assert len(calls) == 5
        assert len({json.dumps(commits) for _, commits in calls}) > 1

    def test_input_j_decodes_under_seed_plus_j(self, monkeypatch):
        # every plan sees the same stream on one input
        calls = record_decodes(monkeypatch)
        cfg = config_from_dict({"decode": {"policy": "stochastic", "seed": 40},
                                "tasks": {"count": 3}})
        _, weights = harness.copy_setup(cfg.tasks)
        inputs, _ = harness.pointer_inputs(cfg.tasks, weights)
        harness.decode(weights, cfg, inputs, [None, PrunePlan.random_once(0.5, seed=1)])
        assert [seed for seed, _ in calls] == [40, 40, 41, 41, 42, 42]
        assert calls[0][1] == calls[1][1] and calls[0][1] != calls[2][1]

    def test_a_policy_without_a_seed_decodes_as_the_seeded_one(self, monkeypatch):
        # the seed was shifted for every policy, so an unseeded one raised
        # TypeError; the confidence policy never reads it
        cfg = config_from_dict({"tasks": {"count": 2}})
        _, weights = harness.copy_setup(cfg.tasks)
        inputs, _ = harness.pointer_inputs(cfg.tasks, weights)
        plans = [None, PrunePlan.once(0.5)]
        want = harness.decode(weights, cfg, inputs, plans)
        calls = record_decodes(monkeypatch)
        got = harness.decode(weights, replace(cfg, policy=SchedulePolicy.confidence()), inputs,
                             plans)
        assert [seed for seed, _ in calls] == [None] * 4

        def decoded(runs):
            return [[(ids.tolist(), stats.per_step_lengths) for ids, stats in r] for r in runs]

        assert decoded(got) == decoded(want)


class TestRunSimilarity:
    def test_stochastic_curve_covers_the_steps_every_input_scored(self, tmp_path):
        data = {"decode": {"K": 8, "tau": 8, "policy": "stochastic"},
                "tasks": {"count": 3, "grid": [2, 2], "alphabet": 4, "seed": 2}}
        cfg = config_from_dict(data)
        _, weights = harness.copy_setup(cfg.tasks)
        inputs, _ = harness.pointer_inputs(cfg.tasks, weights)
        [runs] = harness.decode(weights, cfg, inputs, [None], score_with=ScorerKind.MASKED)
        scored = [len(stats.score_trace) for _, stats in runs]
        assert len(set(scored)) > 1  # the inputs leave masked rows after unequal step counts
        assert len(run_similarity(cfg).sims) == min(scored) - 1
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert main(["similarity", "--config", str(path)]) == 0

    def test_copy_model_curve_is_flat(self):
        cfg = config_from_dict({
            "decode": {"K": 4, "tau": 4},
            "tasks": {"count": 3, "grid": [2, 2], "alphabet": 4, "seed": 2},
        })
        curve = run_similarity(cfg)
        assert len(curve.sims) == 2  # steps 2..K-1
        assert curve.min() >= 0.99
        assert curve.sample_count == 3

    def test_three_steps_single_point(self):
        cfg = config_from_dict({
            "decode": {"K": 3, "tau": 3},
            "tasks": {"count": 1, "grid": [2, 2], "alphabet": 4, "seed": 2},
        })
        assert len(run_similarity(cfg).sims) == 1

    def test_too_few_steps_rejected(self):
        cfg = config_from_dict({"decode": {"K": 2, "tau": 2}})
        with pytest.raises(ConfigError):
            run_similarity(cfg)


class TestRunBench:
    def bench_config(self):
        return config_from_dict({
            "model": {"L": 1, "H": 1, "d": 16, "d_v": 4, "mu": 16, "vocab": 16,
                      "grid": [4, 4]},
            "decode": {"K": 4, "tau": 8},
            "tasks": {"count": 1, "grid": [4, 4], "alphabet": 4, "seed": 1},
            "prune": {"strategy": "once", "scorer": "masked", "r": 0.5, "seed": 1},
            "bench": {"warmup": 1, "reps": 3, "prompt_len": 4},
        })

    def test_throughput_latency_consistency(self):
        reports = run_bench(self.bench_config())
        for r in reports:
            assert r.throughput_tok_per_s == pytest.approx(8.0 / r.latency_s_per_sample,
                                                           rel=1e-6)

    def test_variants_and_flops(self):
        reports = run_bench(self.bench_config())
        assert [r.variant for r in reports] == ["baseline", "once/masked/r=0.5"]
        assert reports[0].flops.ratio == 1.0
        assert reports[1].flops.ratio < 1.0

    def test_progressive_flops_exceed_once(self):
        cfg = self.bench_config()
        base, once, prog = run_bench(cfg, plans=[PrunePlan.once(0.5),
                                                 PrunePlan.progressive(0.5)])
        n = 16 + 4 + 8  # visual + prompt + response
        assert base.flops.baseline == 3 * analysis.flops_for_lengths(1, 16, 16, [n] * 4)
        # once keeps 8 of 16 from step 2 on; progressive removes 3, 3, 2 over steps 1..3
        assert once.flops.pruned == 3 * analysis.flops_for_lengths(
            1, 16, 16, [n, n - 8, n - 8, n - 8])
        assert prog.flops.pruned == 3 * analysis.flops_for_lengths(
            1, 16, 16, [n, n - 3, n - 6, n - 8])
        assert once.flops.ratio < prog.flops.ratio < 1.0

    def test_warmup_required(self):
        cfg = self.bench_config()
        cfg.bench.warmup = 0
        with pytest.raises(ConfigError):
            run_bench(cfg)

    def test_timer_resolution_signaled(self, monkeypatch):
        import time as time_module

        class FakeClockInfo:
            resolution = 10.0  # coarser than any real run

        monkeypatch.setattr(time_module, "get_clock_info", lambda name: FakeClockInfo())
        with pytest.raises(harness.TimerResolutionError):
            run_bench(self.bench_config())

    def test_keep_all_throughput_close_to_baseline(self):
        cfg = config_from_dict({
            "model": {"L": 2, "H": 2, "d": 64, "d_v": 8, "mu": 128, "vocab": 32,
                      "grid": [8, 8]},
            "decode": {"K": 8, "tau": 16},
            "tasks": {"count": 1, "grid": [8, 8], "alphabet": 4, "seed": 1},
            "prune": {"strategy": "once", "scorer": "masked", "r": 1.0, "seed": 1},
            "bench": {"warmup": 2, "reps": 5, "prompt_len": 8},
        })
        # one run_bench call times 5 short decodes per variant, so a single
        # stall skews its ratio; the median of three calls does not follow it
        ratios = []
        for _ in range(3):
            baseline, pruned = run_bench(cfg)
            ratios.append(pruned.throughput_tok_per_s / baseline.throughput_tok_per_s)
        assert 0.9 <= statistics.median(ratios) <= 1.1


# floats with more than six decimals, so that rounding them shows
long_floats = hst.floats(-1e6, 1e6, allow_nan=False).filter(lambda x: round(x, 6) != x)
bench_reports = hst.builds(
    BenchReport,
    variant=hst.text(max_size=12),
    latency_s_per_sample=hst.none() | long_floats,
    throughput_tok_per_s=hst.none() | long_floats,
    accuracy=hst.none() | long_floats,
    flops=hst.none() | hst.builds(
        analysis.FlopsReport, baseline=hst.integers(0, 10**15), pruned=hst.integers(0, 10**15),
        ratio=long_floats, params=hst.dictionaries(hst.text(max_size=6), hst.integers())),
    skipped=hst.none() | hst.text(max_size=20),
    similarity=hst.none() | hst.builds(
        analysis.SimilarityCurve, sims=hst.lists(long_floats, min_size=1, max_size=6),
        first_step=hst.integers(2, 9), sample_count=hst.integers(1, 9)),
    config=hst.dictionaries(hst.sampled_from(["decode", "prune", "tasks"]),
                            hst.dictionaries(hst.sampled_from(["K", "r", "seed"]),
                                             hst.integers() | long_floats), max_size=3),
)


class TestReports:
    def sample_report(self):
        return BenchReport(
            variant="once/masked/r=0.5",
            latency_s_per_sample=0.123456789,
            throughput_tok_per_s=64.5,
            accuracy=0.975,
            flops=analysis.FlopsReport(baseline=1000, pruned=625, ratio=0.625,
                                       params={"n": 10}),
            similarity=analysis.SimilarityCurve(sims=[0.999, 0.998], first_step=2,
                                                sample_count=4),
            config={"decode": {"K": 8}},
        )

    def test_json_round_trip(self, tmp_path):
        path = emit_report(self.sample_report(), tmp_path / "r.json", format="json")
        assert json.loads(path.read_text()) == {
            "variant": "once/masked/r=0.5",
            "latency_s_per_sample": 0.123457,
            "throughput_tok_per_s": 64.5,
            "accuracy": 0.975,
            "flops": {"baseline": 1000, "pruned": 625, "ratio": 0.625, "params": {"n": 10}},
            "similarity": {"sims": [0.999, 0.998], "first_step": 2, "sample_count": 4},
            "config": {"decode": {"K": 8}},
        }

    def test_json_omits_empty_sections(self, tmp_path):
        report = BenchReport(variant="baseline", latency_s_per_sample=1.0)
        path = emit_report(report, tmp_path / "r.json", format="json")
        data = json.loads(path.read_text())
        assert "similarity" not in data and "flops" not in data

    def test_csv_row_count_and_empty_columns(self, tmp_path):
        reports = [self.sample_report(), BenchReport(variant="baseline"),
                   BenchReport(variant="once/decoded/r=0.5",
                               skipped="guidance set 'decoded' is empty at step 1")]
        path = emit_report(reports, tmp_path / "r.csv", format="csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per variant
        assert lines[0].split(",")[-1] == "skipped"
        assert lines[1].split(",")[-1] == ""
        assert lines[2].split(",")[4] == ""  # baseline has no flops column values
        assert lines[3] == "once/decoded/r=0.5,,,,,,,,guidance set 'decoded' is empty at step 1"

    def test_floats_have_six_decimals(self, tmp_path):
        path = emit_report(self.sample_report(), tmp_path / "r.json", format="json")
        data = json.loads(path.read_text())
        assert data["latency_s_per_sample"] == 0.123457

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report(self.sample_report(), tmp_path / "r.xml", format="xml")

    @settings(max_examples=300, deadline=None)
    @given(report=bench_reports)
    @example(report=BenchReport(variant="once/masked/r=0.1234567", latency_s_per_sample=0.1234567,
                                config={"prune": {"r": 0.1234567}}))
    def test_serialiser_matches_the_hand_written_one(self, report):
        got = harness.report_to_dict(report)
        want = reference_report_to_dict(report)
        assert got == want
        assert json.dumps(got, indent=2) == json.dumps(want, indent=2)
        if report.config:
            assert got["config"] == report.config  # echoed as given, not rounded


def _round6(x: Optional[float]) -> Optional[float]:
    return None if x is None else round(float(x), 6)


def reference_report_to_dict(report: BenchReport) -> dict:
    """The serialiser as it listed every field by hand, kept as a reference."""
    out: dict = {"variant": report.variant}
    out["latency_s_per_sample"] = _round6(report.latency_s_per_sample)
    out["throughput_tok_per_s"] = _round6(report.throughput_tok_per_s)
    out["accuracy"] = _round6(report.accuracy)
    if report.flops is not None:
        out["flops"] = {
            "baseline": report.flops.baseline,
            "pruned": report.flops.pruned,
            "ratio": _round6(report.flops.ratio),
            "params": report.flops.params,
        }
    if report.skipped is not None:
        out["skipped"] = report.skipped
    if report.similarity is not None:
        out["similarity"] = {
            "sims": [_round6(s) for s in report.similarity.sims],
            "first_step": report.similarity.first_step,
            "sample_count": report.similarity.sample_count,
        }
    if report.config:
        out["config"] = report.config
    return out


class TestConfig:
    def test_defaults_load(self):
        cfg = config_from_dict(None)
        assert cfg.steps == 8 and cfg.response_len == 8
        assert cfg.prune is not None and cfg.prune.ratio == 0.5

    def test_task_defaults_are_the_config_defaults(self):
        # DEFAULT_CONFIG["tasks"] is the one copy; TaskParams reads its defaults from it
        assert harness.TaskParams() == config_from_dict(None).tasks

    def test_alphabet_from_int_and_list(self):
        cfg = config_from_dict({"tasks": {"alphabet": 3}})
        assert cfg.tasks.alphabet == ("a", "b", "c")
        cfg = config_from_dict({"tasks": {"alphabet": ["x", "y"]}})
        assert cfg.tasks.alphabet == ("x", "y")

    def test_prune_section_can_be_disabled(self):
        cfg = config_from_dict({"prune": None})
        assert cfg.prune is None

    @pytest.mark.parametrize("data", [[1], {"prune": 5}, {"decode": [8]}])
    def test_non_object_config_rejected(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    @pytest.mark.parametrize("decode", [{"K": 0}, {"tau": 0}])
    def test_empty_decode_rejected(self, decode):
        with pytest.raises(ConfigError):
            config_from_dict({"decode": decode})

    def test_invalid_section_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"nonsense": {}})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"prune": {"r": 2.0}})
        with pytest.raises(ConfigError):
            config_from_dict({"decode": {"policy": "greedy"}})
        with pytest.raises(ConfigError):
            config_from_dict({"model": {"d": 30, "H": 4}})


ONCE_PRUNE = {"strategy": "once", "scorer": "masked", "r": 0.5, "seed": 1}
COMMANDS = ["run", "ablate", "similarity", "flops", "bench"]
FUZZ_VALUES = [-1, 0, 1.5, True, "x", None, [], [1.5, 2], [2], {}]
INTEGER_KEYS = [("model", k) for k in ("L", "H", "d", "d_v", "mu", "vocab")] + [
    ("decode", "K"), ("decode", "tau"), ("decode", "seed"), ("prune", "seed"),
    ("tasks", "count"), ("tasks", "alphabet"), ("tasks", "seed"),
    ("bench", "warmup"), ("bench", "reps"), ("bench", "prompt_len")]


class TestCli:
    def base_args(self):
        return ["--seed", "5"]

    def test_flops_command(self, capsys):
        assert main(["flops", "--r", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "baseline flops" in out

    def test_flops_command_progressive_exceeds_once(self, tmp_path):
        got = {}
        for strategy in ("once", "progressive"):
            path = tmp_path / f"{strategy}.json"
            assert main(["flops", "--r", "0.25", "--strategy", strategy,
                         "--out", str(path)]) == 0
            got[strategy] = json.loads(path.read_text())["flops"]
        # default config: N=16 patches + 16 prompt + 8 response, K=8, L=2, d=32, mu=64
        base = analysis.flops_for_lengths(2, 32, 64, [40] * 8)
        once = analysis.flops_for_lengths(2, 32, 64, [40] + [28] * 7)
        prog = analysis.flops_for_lengths(2, 32, 64, [40, 38, 36, 34, 32, 30, 29, 28])
        assert got["once"]["baseline"] == got["progressive"]["baseline"] == base
        assert got["once"]["pruned"] == once
        assert got["progressive"]["pruned"] == prog > once

    def test_seed_with_disabled_prune_decodes_unpruned(self, tmp_path, capsys):
        out_path = tmp_path / "run.json"
        code = main(["run", "--config", self.write_config(tmp_path, prune=None),
                     "--seed", "3", "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["variant"] == "baseline"
        assert "seq lengths : [7, 7]" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--r", "0.5"], ["--strategy", "progressive"],
                                      ["--scorer", "prompt"]])
    def test_prune_flag_with_disabled_prune_is_config_error(self, tmp_path, flag):
        assert main(["run", "--config", self.write_config(tmp_path, prune=None)] + flag) == 2

    def test_run_command_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "run.json"
        code = main(["run", "--out", str(out_path),
                     "--config", self.write_config(tmp_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["accuracy"] == 1.0

    def test_run_report_matches_single_task_accuracy(self, tmp_path):
        out_path = tmp_path / "run.json"
        config = self.write_config(tmp_path)
        assert main(["run", "--config", config, "--out", str(out_path)]) == 0
        cfg = harness.load_config(config)
        cfg.tasks.count = 1
        [ref] = run_accuracy(cfg, include_baseline=False)
        timings = ("latency_s_per_sample", "throughput_tok_per_s")
        got = json.loads(out_path.read_text())
        want = json.loads(json.dumps(harness.report_to_dict(ref)))
        for key in timings:
            assert got.pop(key) > 0 and want.pop(key) > 0
        assert got == want

    def test_similarity_command(self, tmp_path):
        code = main(["similarity", "--config", self.write_config(tmp_path, K=4, tau=4)])
        assert code == 0

    def test_similarity_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["similarity", "--config", self.write_config(tmp_path, K=4, tau=4),
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,cosine_vs_step1"
        assert len(lines) == 3  # steps 2 and 3

    def test_ablate_command(self, tmp_path, capsys):
        code = main(["ablate", "--config", self.write_config(tmp_path, count=4)])
        assert code == 0
        out = capsys.readouterr().out
        assert "once/masked" in out and "random" in out and "progressive" in out

    def test_ablate_skips_a_scorer_with_no_guidance_rows(self, tmp_path, capsys):
        # tau=1 over K=8 steps commits nothing at step 1, so no row is decoded
        # when the one-shot plans prune
        out_path = tmp_path / "ablate.json"
        code = main(["ablate", "--config", self.write_config(tmp_path, K=8, tau=1),
                     "--out", str(out_path)])
        assert code == 0
        reports = {r["variant"]: r for r in json.loads(out_path.read_text())}
        skipped = reports.pop("once/decoded/r=0.5")
        assert skipped["accuracy"] is None
        assert skipped["skipped"] == "guidance set 'decoded' is empty at step 1"
        assert len(reports) == 9
        assert all(r["accuracy"] is not None and "skipped" not in r for r in reports.values())
        assert "once/decoded/r=0.5" in capsys.readouterr().out

    def test_stochastic_ablation_skips_decoded_when_a_task_commits_nothing_at_step_1(
            self, tmp_path, capsys):
        # each task unmasks in its own order, and with the default K and tau
        # some task commits no position at step 1: one-shot decoded-row
        # scoring has no rows there and is reported as skipped
        out_path = tmp_path / "ablate.json"
        assert main(["ablate", "--policy", "stochastic", "--out", str(out_path)]) == 0
        reports = {r["variant"]: r for r in json.loads(out_path.read_text())}
        assert reports["once/decoded/r=0.5"]["skipped"] == (
            "guidance set 'decoded' is empty at step 1")
        assert sum("skipped" in r for r in reports.values()) == 1

    @pytest.mark.parametrize("command,prune,count", [
        ("bench", None, 1), ("bench", ONCE_PRUNE, 2), ("ablate", ONCE_PRUNE, 10),
        ("run", ONCE_PRUNE, None), ("similarity", ONCE_PRUNE, None), ("flops", None, None)])
    def test_out_json_shape_is_fixed_per_command(self, tmp_path, command, prune, count):
        # ablate and bench write an array whatever its length (bench with the
        # prune section null has one report), the others one object
        cfg, out_path = tmp_path / "c.json", tmp_path / "out.json"
        cfg.write_text(json.dumps({
            "decode": {"K": 4, "tau": 4}, "prune": prune, "model": {"L": 1},
            "tasks": {"count": 2, "grid": [2, 2], "alphabet": 4},
            "bench": {"warmup": 1, "reps": 1}}))
        assert main([command, "--config", str(cfg), "--out", str(out_path)]) == 0
        reports = json.loads(out_path.read_text())
        if count is None:
            assert isinstance(reports, dict)
        else:
            assert isinstance(reports, list) and len(reports) == count

    @pytest.mark.parametrize("value", ["sometimes", 3, []])
    @pytest.mark.parametrize("section,key,kind", [
        ("prune", "strategy", StrategyKind), ("prune", "scorer", ScorerKind),
        ("decode", "policy", PolicyKind)])
    def test_enum_value_error_names_key_and_choices(self, tmp_path, capsys, section, key,
                                                    kind, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        assert main(["flops", "--config", str(cfg)]) == 2
        allowed = ", ".join(m.value for m in kind)
        assert capsys.readouterr().err == (
            f"configuration error: {section}.{key} must be one of {allowed}, got {value!r}\n")

    @pytest.mark.parametrize("args", [
        ["flops", "--out", "{tmp}"],
        ["ablate", "--out", "{tmp}/nonexistent/r.json"],
        ["similarity", "--format", "csv", "--out", "{tmp}/nonexistent/x.csv"]])
    def test_unwritable_out_exit_2_before_any_work(self, tmp_path, capsys, args):
        args = [a.format(tmp=tmp_path) for a in args]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert args[-1] in captured.err

    @pytest.mark.parametrize("args", [
        ["flops", "--r", "0.25", "--out", "/dev/full"],  # ENOSPC
        ["flops", "--format", "csv", "--out", "/dev/full"],
        ["run", "--out", "/proc/x.json"],  # ENOENT
        ["similarity", "--format", "csv", "--out", "/dev/full"]])
    def test_out_that_fails_to_write_exit_2(self, capsys, args):
        # these pass the up-front --out check, and fail only when written
        if not Path(args[-1]).parent.is_dir() or not Path("/dev/full").exists():
            pytest.skip("needs Linux's /dev/full and /proc")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: --out {args[-1]} cannot be written: ")

    def test_invalid_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"prune": {"r": 9}}')
        assert main(["run", "--config", str(bad)]) == 2

    def test_missing_config_file_exit_2(self):
        assert main(["run", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("command", ["run", "flops"])
    def test_progressive_single_step_exit_2(self, tmp_path, command):
        # progressive pruning has no step after step 1 to spread its removals over
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"decode": {"K": 1},
                                   "prune": {"strategy": "progressive", "r": 0.5}}))
        assert main([command, "--config", str(cfg)]) == 2

    def test_single_step_ablation_exit_2(self, tmp_path):
        # the ablation's progressive plan cannot serve K=1 whatever the config's strategy
        assert main(["ablate", "--config", self.write_config(tmp_path, K=1)]) == 2

    @pytest.mark.parametrize("command,data", [
        ("run", {"tasks": {"grid": [0, 4]}}),
        ("ablate", {"tasks": {"grid": [0, 4]}}),
        ("run", {"tasks": {"alphabet": []}}),
        ("bench", {"tasks": {"alphabet": []}}),
        ("ablate", {"tasks": {"count": 0}}),
        ("similarity", {"tasks": {"count": 0}}),
        ("run", {"decode": {"tau": 5000}}),
        ("bench", {"bench": {"prompt_len": 5000}}),
        ("bench", {"bench": {"prompt_len": -3}}),
        ("flops", {"bench": {"prompt_len": -30}, "decode": {"tau": 1}}),
        *[(c, {"tasks": {"grid": [1.5, 2]}}) for c in COMMANDS],
        ("bench", {"model": {"grid": [1.5, 2]}}),
        ("flops", {"model": {"grid": [1.5, 2]}}),
        ("flops", {"model": {"grid": [True, 2]}}),
        *[(c, {"tasks": {"grid": grid}}) for c in COMMANDS for grid in ["x", [], [2], {}]],
        ("bench", {"model": {"vocab": 1}}),
        ("run", {"tasks": {"alphabet": ["a", "a", "b"]}}),
        ("bench", {"tasks": {"alphabet": ["a", "a", "b"]}}),
        ("run", {"decode": {"Kk": 3}}),
        ("flops", {"model": {"mask_id": 5}}),
        ("flops", {"decode": {"K": 8.9}, "model": {"L": True}}),
        *[("flops", {section: {key: value}}) for section, key in INTEGER_KEYS
          for value in (8.9, 2.0, True, "8")],
        ("flops", {"prune": {"r": "0.5"}}),
        ("flops", {"prune": {"r": True}}),
        ("run", {"tasks": {"alphabet": [1, 2]}}),
        ("ablate", {"prune": None}),
        ("run", {"prune": {"seed": None}}),
    ])
    def test_unservable_tasks_or_lengths_exit_2(self, tmp_path, command, data):
        # tasks the copy model cannot host, no tasks at all, a prompt or
        # response the positional table cannot hold, a grid that is not two
        # positive integers, a vocabulary with no id beside the mask token,
        # repeated symbols or symbols that are not strings, unknown keys, an
        # integer key set to anything but an integer, a ratio that is not a
        # number and an ablation with no prune section to read r and the
        # random seed from are configuration errors
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(data))
        assert main([command, "--config", str(cfg)]) == 2

    def test_run_reports_an_empty_guidance_set_as_skipped(self, tmp_path, capsys):
        # decoded-rows scorer is undefined at step 1 when the quota rounds to zero
        cfg, out_path = tmp_path / "c.json", tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "decode": {"K": 8, "tau": 2},
            "tasks": {"count": 1, "grid": [2, 2], "alphabet": 4, "seed": 0},
            "prune": {"strategy": "once", "scorer": "decoded", "r": 0.5, "seed": 1},
        }))
        assert main(["run", "--config", str(cfg), "--out", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["variant"] == "once/decoded/r=0.5"
        assert data["skipped"] == "guidance set 'decoded' is empty at step 1"
        assert data["accuracy"] is None and data["latency_s_per_sample"] is None
        assert "skipped: guidance set 'decoded' is empty" in capsys.readouterr().out

    def test_runtime_error_exit_3(self, tmp_path, monkeypatch, capsys):
        # a clock too coarse to time the decodes is a runtime error, not a
        # configuration error
        import time as time_module

        class FakeClockInfo:
            resolution = 10.0

        monkeypatch.setattr(time_module, "get_clock_info", lambda name: FakeClockInfo())
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"L": 1}, "bench": {"warmup": 1, "reps": 1}}))
        assert main(["bench", "--config", str(cfg)]) == 3
        assert "clock ticks" in capsys.readouterr().err

    @staticmethod
    def write_config(tmp_path, K=2, tau=2, count=2, prune=ONCE_PRUNE):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "decode": {"K": K, "tau": tau, "policy": "confidence", "seed": 7},
            "tasks": {"count": count, "grid": [2, 2], "alphabet": 4, "seed": 0},
            "prune": prune,
        }))
        return str(path)


class TestEntryPoints:
    """``python -m dlmprune`` as a separate process, importing the package from src/."""

    @staticmethod
    def run_module(*args):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        return subprocess.run([sys.executable, "-m", "dlmprune", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_flops_exits_0(self):
        done = self.run_module("flops", "--r", "0.25")
        assert done.returncode == 0, done.stderr
        assert "ratio" in done.stdout

    def test_missing_config_exits_2(self, tmp_path):
        done = self.run_module("flops", "--config", str(tmp_path / "missing.json"))
        assert done.returncode == 2
        assert "cannot read config" in done.stderr


@pytest.mark.parametrize("section,key,value", [
    (section, key, value) for section, keys in harness.DEFAULT_CONFIG.items()
    for key in keys for value in FUZZ_VALUES])
@pytest.mark.parametrize("command", ["run", "flops", "bench"])
def test_config_sweep_exits_0_or_2(tmp_path, command, section, key, value):
    # one malformed value at a time: every input is either served or rejected
    # as a configuration error, never an untyped crash
    data = {"bench": {"warmup": 1, "reps": 1}}
    data.setdefault(section, {})[key] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data))
    assert main([command, "--config", str(cfg)]) in (0, 2)


@pytest.mark.parametrize("policy", ["confidence", "stochastic"])
@pytest.mark.parametrize("tau", [1, 8])
@pytest.mark.parametrize("prompt_len", [0, 4])
@pytest.mark.parametrize("strategy", [s.value for s in StrategyKind])
@pytest.mark.parametrize("scorer", [s.value for s in ScorerKind])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_config_combination_sweep(tmp_path, command, scorer, strategy, prompt_len, tau, policy):
    # combinations of valid keys: a guidance set with no rows at a step that
    # prunes (decoded rows before anything is decoded, prompt rows with no
    # prompt) skips that variant, it does not end the run
    data = {"model": {"L": 1}, "decode": {"tau": tau, "policy": policy},
            "prune": {"strategy": strategy, "scorer": scorer},
            "tasks": {"count": 2}, "bench": {"warmup": 1, "reps": 1, "prompt_len": prompt_len}}
    cfg, out = tmp_path / "c.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(data))
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2)
    if code == 0:
        reports = json.loads(out.read_text())
        for r in reports if command == "bench" else [reports]:
            if "skipped" in r:
                assert r["skipped"].startswith(f"guidance set {scorer!r} is empty")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("policy", ["confidence", "stochastic"])
@pytest.mark.parametrize("tau", [1, 2, 3, 8])
@pytest.mark.parametrize("K", [2, 3, 4, 8])
@pytest.mark.parametrize("command", ["similarity", "ablate"])
def test_analysis_combination_sweep(tmp_path, capsys, command, K, tau, policy, seed):
    # similarity needs masked rows after two steps, which K, tau and (for
    # the stochastic policy) the seed decide: a config that leaves fewer is a
    # configuration error naming K and tau; ablate serves every combination
    data = {"decode": {"K": K, "tau": tau, "policy": policy},
            "tasks": {"count": 2, "grid": [2, 2], "alphabet": 4}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data))
    code = main([command, "--config", str(cfg), "--seed", str(seed)])
    if command == "ablate":
        assert code == 0
    else:
        assert code in (0, 2)
        if code == 2:
            assert f"K={K} and tau={tau}" in capsys.readouterr().err


@pytest.mark.parametrize("vocab", [2, 40])
@pytest.mark.parametrize("L,H,d", [(1, 1, 4), (2, 2, 8), (1, 3, 8)])
@pytest.mark.parametrize("alphabet", [1, ["x", "y", "z"]])
@pytest.mark.parametrize("tasks_grid", [[1, 1], [3, 2]])
@pytest.mark.parametrize("model_grid", [[1, 1], [2, 3]])
@pytest.mark.parametrize("command", ["run", "bench", "flops"])
def test_model_and_tasks_combination_sweep(tmp_path, command, model_grid, tasks_grid,
                                           alphabet, L, H, d, vocab):
    # the model and tasks sections together: a shape whose heads do not
    # divide d is a configuration error, every other combination is served
    data = {"model": {"grid": model_grid, "L": L, "H": H, "d": d, "vocab": vocab},
            "tasks": {"grid": tasks_grid, "alphabet": alphabet, "count": 2},
            "bench": {"warmup": 1, "reps": 1}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data))
    assert main([command, "--config", str(cfg)]) == (2 if d % H else 0)
