"""Command-line entry points.

Subcommands: run (single inference), similarity (score-stability curve),
ablate (scorer x strategy grid), bench (latency/throughput), flops (analytic
cost only). Exit codes: 0 success, 2 invalid configuration, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import analysis, harness
from .decoder import PolicyKind
from .pruning import ScorerKind, StrategyKind, keep_schedule


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dlmprune",
                                     description="masked-diffusion visual token pruning lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("run", "decode one pointer task and print ids plus stats"),
        ("similarity", "per-step importance-score similarity curve"),
        ("ablate", "accuracy grid over scorers and strategies"),
        ("bench", "wall-clock latency/throughput sweep"),
        ("flops", "analytic cost report only"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--r", type=float, help="retaining ratio override")
        p.add_argument("--scorer", choices=[s.value for s in ScorerKind])
        p.add_argument("--strategy", choices=[s.value for s in StrategyKind])
        p.add_argument("--policy", choices=[s.value for s in PolicyKind])
        p.add_argument("--out", help="write the report here")
        p.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def _check_out(path: Optional[str]) -> None:
    """Reject an --out that no report could be written to, before any work."""
    if path and Path(path).is_dir():
        raise harness.ConfigError(f"--out {path} is a directory")
    if path and not Path(path).parent.is_dir():
        raise harness.ConfigError(f"--out {path} is in no existing directory")


def _write_out(path: str, write) -> None:
    """Run ``write``, which writes a report to ``path``; an ``OSError`` there
    (a full disk, a path that cannot be created) is a configuration error."""
    try:
        write()
    except OSError as exc:
        raise harness.ConfigError(f"--out {path} cannot be written: {exc.strerror or exc}") \
            from exc


def _apply_overrides(args) -> harness.RunConfig:
    cfg = harness.load_config(args.config)
    override: dict = {}
    if args.seed is not None:
        override.setdefault("decode", {})["seed"] = args.seed
        override.setdefault("tasks", {})["seed"] = args.seed + 1000003
        if cfg.raw["prune"] is not None:
            override["prune"] = {"seed": args.seed + 2000003}
    if args.policy is not None:
        override.setdefault("decode", {})["policy"] = args.policy
    for key, value in [("r", args.r), ("scorer", args.scorer), ("strategy", args.strategy)]:
        if value is not None:
            override.setdefault("prune", {})[key] = value
    if override:
        cfg = harness.config_from_dict(harness._merge(cfg.raw, override))
    return cfg


def _printed(reports: list[harness.BenchReport]) -> list[harness.BenchReport]:
    """Print one line per report: why it was skipped, or the figures it has."""
    for r in reports:
        figures = [("accuracy", r.accuracy, "{:.4f}"),
                   ("latency", r.latency_s_per_sample, "{:.4f}s"),
                   ("throughput", r.throughput_tok_per_s, "{:.2f} tok/s"),
                   ("flops ratio", r.flops.ratio if r.flops else None, "{:.4f}")]
        line = (f"skipped: {r.skipped}" if r.skipped is not None else
                "  ".join(f"{name} {fmt.format(v)}" for name, v, fmt in figures if v is not None))
        print(f"{r.variant:32s} {line}")
    return reports


def _cmd_run(cfg: harness.RunConfig, args) -> harness.BenchReport:
    model_cfg, weights = harness.copy_setup(cfg.tasks)
    inputs, expected = harness.pointer_inputs(replace(cfg.tasks, count=1), weights)
    [runs] = harness.decode(weights, cfg, inputs, [cfg.prune])
    report = harness.report(cfg, cfg.prune, runs, model_cfg, expected=expected)
    if report.skipped is None:
        [(ids, stats)] = runs
        print(f"decoded ids : {ids.tolist()}")
        print(f"expected    : {expected[0]} ({'ok' if report.accuracy == 1 else 'MISS'})")
        print(f"wall time   : {stats.seconds_total:.6f}s over {len(stats.per_step_lengths)} steps")
        print(f"seq lengths : {stats.per_step_lengths}")
    return _printed([report])[0]


def _cmd_similarity(cfg: harness.RunConfig, args) -> Optional[harness.BenchReport]:
    curve = harness.run_similarity(cfg)
    for i, sim in enumerate(curve.sims):
        print(f"step {curve.first_step + i:3d} vs 1: cosine {sim:.6f}")
    print(f"min similarity: {curve.min():.6f} over {curve.sample_count} samples")
    if args.out and args.format == "csv":
        _write_out(args.out, lambda: harness.emit_similarity_csv(curve, args.out))
        print(f"curve written to {args.out}")
        return None
    return harness.BenchReport(variant="similarity", similarity=curve, config=cfg.raw)


def _cmd_flops(cfg: harness.RunConfig, args) -> harness.BenchReport:
    n_vis, rest = cfg.model.num_patches, cfg.bench.prompt_len + cfg.response_len
    base = [v + rest for v in keep_schedule(None, n_vis, cfg.steps)]
    pruned = [v + rest for v in keep_schedule(cfg.prune, n_vis, cfg.steps)]
    report = analysis.flops_report(cfg.model.layers, cfg.model.embed_dim, cfg.model.ffn_dim,
                                   base, pruned, steps=cfg.steps)
    print(f"baseline flops: {report.baseline}")
    print(f"pruned flops  : {report.pruned}")
    print(f"ratio         : {report.ratio:.6f}")
    return harness.BenchReport(variant=f"flops/{harness.variant_label(cfg.prune)}",
                               flops=report, config=cfg.raw)


_COMMANDS = {
    "run": _cmd_run,
    "similarity": _cmd_similarity,
    "ablate": lambda cfg, args: _printed(harness.run_ablation(cfg)),
    "bench": lambda cfg, args: _printed(harness.run_bench(cfg)),
    "flops": _cmd_flops,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        cfg = _apply_overrides(args)
        # run, similarity and flops write a JSON object, ablate and bench an array
        reports = _COMMANDS[args.command](cfg, args)
        if args.out and reports is not None:
            _write_out(args.out, lambda: harness.emit_report(reports, args.out,
                                                             format=args.format))
            print(f"report written to {args.out}")
    except harness.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
