"""Synthetic pointer tasks, experiment drivers, and report serialization.

A pointer task plants one symbol per image patch and asks, via a single
prompt token, for the symbol at one patch. The copy model answers it exactly,
so accuracy under any pruning variant reduces to whether the pointed-at
visual token survived.
"""

from __future__ import annotations

import csv
import json
import string
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from . import analysis
from .decoder import PolicyKind, SchedulePolicy, run_inference
from .model import (DEFAULT_MAX_PROMPT, DEFAULT_MAX_RESPONSE, CopyTaskVocab, ModelConfig,
                    ModelWeights, build_copy_model, copy_model_config, embed_prompt,
                    encode_image, init_random_model)
from .numerics import SeededRng
from .pruning import EmptyGuidanceSet, PrunePlan, ScorerKind, StrategyKind, keep_schedule


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


class TimerResolutionError(RuntimeError):
    """Measured interval too short for the wall clock to resolve."""


@dataclass(frozen=True)
class TaskInstance:
    image: tuple[tuple[str, ...], ...]
    prompt: tuple[int, ...]
    expected: int


DEFAULT_CONFIG: dict = {
    "model": {"L": 2, "H": 2, "d": 32, "d_v": 8, "mu": 64, "vocab": 64, "grid": [4, 4]},
    "decode": {"K": 8, "tau": 8, "policy": "confidence", "seed": 7},
    "prune": {"strategy": "once", "scorer": "masked", "r": 0.5, "seed": 11},
    "tasks": {"count": 20, "grid": [4, 4], "alphabet": 8, "seed": 3},
    "bench": {"warmup": 3, "reps": 5, "prompt_len": 16},
}


def _default_alphabet(n: int) -> tuple[str, ...]:
    if n < 1:
        raise ConfigError("alphabet size must be >= 1")
    letters = string.ascii_lowercase
    if n <= len(letters):
        return tuple(letters[:n])
    return tuple(f"s{i}" for i in range(n))


@dataclass
class TaskParams:
    count: int = DEFAULT_CONFIG["tasks"]["count"]
    grid: tuple[int, int] = tuple(DEFAULT_CONFIG["tasks"]["grid"])
    alphabet: tuple[str, ...] = _default_alphabet(DEFAULT_CONFIG["tasks"]["alphabet"])
    seed: int = DEFAULT_CONFIG["tasks"]["seed"]


@dataclass
class BenchParams:
    warmup: int
    reps: int
    prompt_len: int


@dataclass
class RunConfig:
    model: ModelConfig
    steps: int
    response_len: int
    policy: SchedulePolicy
    prune: Optional[PrunePlan]
    tasks: TaskParams
    bench: BenchParams
    raw: dict = field(default_factory=dict)


@dataclass
class BenchReport:
    variant: str
    latency_s_per_sample: Optional[float] = None
    throughput_tok_per_s: Optional[float] = None
    accuracy: Optional[float] = None
    flops: Optional[analysis.FlopsReport] = None
    similarity: Optional[analysis.SimilarityCurve] = None
    skipped: Optional[str] = None  # why the variant could not run; no figures then
    config: dict = field(default_factory=dict)


def gen_pointer_task(grid_dims: tuple[int, int], symbol_alphabet: Sequence[str],
                     seed: int) -> TaskInstance:
    """Uniform random symbol grid plus a prompt naming one target patch."""
    rows, cols = grid_dims
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be at least 1x1, got {grid_dims}")
    if not symbol_alphabet:
        raise ValueError("symbol alphabet is empty")
    alphabet = tuple(symbol_alphabet)
    rng = SeededRng(seed)
    image = _symbol_grid(rng, grid_dims, alphabet)
    vocab = CopyTaskVocab(alphabet, rows * cols)
    target = int(rng.integers(0, vocab.num_patches))
    return TaskInstance(image=image, prompt=(vocab.index_id(target),),
                        expected=vocab.symbol_id(image[target // cols][target % cols]))


def _symbol_grid(rng: SeededRng, grid_dims: tuple[int, int], alphabet: Sequence[str]
                 ) -> tuple[tuple[str, ...], ...]:
    """Rows of symbols drawn uniformly from the alphabet, one draw in row-major order."""
    rows, cols = grid_dims
    flat = [alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=rows * cols)]
    return tuple(tuple(flat[r * cols : (r + 1) * cols]) for r in range(rows))


def copy_setup(tasks: TaskParams) -> tuple[ModelConfig, ModelWeights]:
    weights = build_copy_model(tasks.grid, tasks.alphabet)
    return weights.config, weights


def pointer_inputs(tasks: TaskParams, weights: ModelWeights) -> tuple[list[tuple], list[int]]:
    """Embedded (visual, prompt) inputs of tasks.count pointer tasks, and their answers."""
    insts = [gen_pointer_task(tasks.grid, tasks.alphabet, tasks.seed + i)
             for i in range(tasks.count)]
    return ([(encode_image(t.image, weights), embed_prompt(t.prompt, weights)) for t in insts],
            [t.expected for t in insts])


def decode(weights: ModelWeights, cfg: RunConfig, inputs: Sequence[tuple],
           plans: Sequence[Optional[PrunePlan]], score_with: Optional[ScorerKind] = None
           ) -> list[Union[list[tuple], EmptyGuidanceSet]]:
    """Decode every (visual, prompt) input under every plan (None: unpruned).

    The plans take turns on each input, so a drift in machine speed reaches
    all of them alike instead of whichever ran during it. Input j unmasks under
    its own stream, seeded ``cfg.policy.rng_seed + j``. Returns, per plan, the
    (ids, stats) of each input, or the EmptyGuidanceSet that stopped the plan:
    a plan whose guidance set (or ``score_with``'s) has no rows when it prunes
    (or scores) is not run on later inputs; the other plans still run.
    """
    runs: list = [[] for _ in plans]
    for j, (visual, prompt) in enumerate(inputs):
        policy = replace(cfg.policy, rng_seed=cfg.policy.rng_seed + j)
        for i, plan in enumerate(plans):
            if isinstance(runs[i], EmptyGuidanceSet):
                continue
            try:
                ids, _, stats = run_inference(visual, prompt, cfg.response_len, cfg.steps,
                                              weights, policy, plan, score_with=score_with)
            except EmptyGuidanceSet as exc:
                runs[i] = exc
            else:
                runs[i].append((ids, stats))
    return runs


def variant_label(plan: Optional[PrunePlan]) -> str:
    if plan is None:
        return "baseline"
    if plan.strategy == StrategyKind.RANDOM_ONCE:
        return f"{plan.strategy.value}/r={plan.ratio:g}"
    return f"{plan.strategy.value}/{plan.scorer.value}/r={plan.ratio:g}"


def report(cfg: RunConfig, plan: Optional[PrunePlan],
           runs: Union[Sequence[tuple], EmptyGuidanceSet], model_cfg: ModelConfig,
           baseline_runs: Optional[Sequence[tuple]] = None,
           expected: Optional[Sequence[int]] = None) -> BenchReport:
    """One variant's report from its (ids, stats) runs, or its skip reason.

    Latency and throughput come from the summed decode time; first-token
    accuracy needs the expected ids, and FLOPs the unpruned runs of the same
    inputs. A plan that ``decode`` stopped is reported as skipped, with no
    figures.
    """
    if isinstance(runs, EmptyGuidanceSet):
        return BenchReport(variant_label(plan), skipped=str(runs), config=cfg.raw)
    seconds = sum(stats.seconds_total for _, stats in runs)
    accuracy = flops = None
    if expected is not None:
        accuracy = sum(int(ids[0] == e) for (ids, _), e in zip(runs, expected)) / len(runs)
    if baseline_runs is not None:
        flops = analysis.flops_report(model_cfg.layers, model_cfg.embed_dim, model_cfg.ffn_dim,
                                      _lengths(baseline_runs), _lengths(runs), steps=cfg.steps)
    return BenchReport(
        variant=variant_label(plan),
        latency_s_per_sample=seconds / len(runs),
        throughput_tok_per_s=cfg.response_len * len(runs) / seconds if seconds > 0 else None,
        accuracy=accuracy,
        flops=flops,
        config=cfg.raw,
    )


def _lengths(runs: Sequence[tuple]) -> list[int]:
    return [n for _, stats in runs for n in stats.per_step_lengths]


def run_accuracy(cfg: RunConfig, *, include_baseline: bool = True,
                 plans: Optional[list[PrunePlan]] = None) -> list[BenchReport]:
    """Exact-match accuracy of the first response token over generated tasks."""
    model_cfg, weights = copy_setup(cfg.tasks)
    inputs, expected = pointer_inputs(cfg.tasks, weights)
    if plans is None:
        plans = [cfg.prune] if cfg.prune is not None else []
    variants = ([None] if include_baseline else []) + list(plans)
    runs = decode(weights, cfg, inputs, variants)
    baseline_runs = runs[0] if include_baseline else None
    return [report(cfg, plan, plan_runs, model_cfg, baseline_runs, expected)
            for plan, plan_runs in zip(variants, runs)]


def run_ablation(cfg: RunConfig) -> list[BenchReport]:
    """Baseline plus every scorer (one-shot pruning) and every strategy at one ratio."""
    if cfg.steps < 2:
        raise ConfigError("ablation needs at least 2 steps: pruning follows step 1")
    if cfg.prune is None:
        raise ConfigError("ablation reads r and seed from the prune section, which is null")
    ratio = cfg.prune.ratio
    plans = [PrunePlan.once(ratio, scorer) for scorer in ScorerKind]
    plans.append(PrunePlan.random_once(ratio, cfg.prune.rng_seed))
    plans.append(PrunePlan.progressive(ratio))
    return run_accuracy(cfg, plans=plans)


def run_similarity(cfg: RunConfig) -> analysis.SimilarityCurve:
    """Per-step masked-row importance scores from unpruned runs, compared to step 1,
    over the steps that every input scored (each input unmasks in its own order)."""
    _, weights = copy_setup(cfg.tasks)
    inputs, _ = pointer_inputs(cfg.tasks, weights)
    [runs] = decode(weights, cfg, inputs, [None], score_with=ScorerKind.MASKED)
    scored = min(len(stats.score_trace) for _, stats in runs)
    if scored < 2:
        raise ConfigError(f"similarity needs masked rows after at least two steps; K={cfg.steps} "
                          f"and tau={cfg.response_len} leave them after {scored} step(s)")
    return analysis.similarity_curve([stats.score_trace[:scored] for _, stats in runs])


def _bench_inputs(cfg: RunConfig, weights: ModelWeights) -> list[tuple]:
    rng = SeededRng(cfg.tasks.seed)
    inputs = []
    for _ in range(cfg.bench.reps):
        image = _symbol_grid(rng, cfg.model.patch_grid, cfg.tasks.alphabet)
        ids = rng.integers(0, cfg.model.vocab_size - 1, size=cfg.bench.prompt_len)
        inputs.append((encode_image(image, weights), embed_prompt(ids, weights)))
    return inputs


def run_bench(cfg: RunConfig, *, plans: Optional[list[PrunePlan]] = None) -> list[BenchReport]:
    """Wall-clock latency and throughput on a random model, baseline vs pruned.

    Timing covers the inference loop only (all forward passes plus pruning
    overhead); model construction, input embedding, and warmup are excluded.
    FLOPs come from the per-step lengths every timed decode recorded.
    """
    if cfg.bench.warmup < 1:
        raise ConfigError("bench needs warmup >= 1")
    if cfg.bench.reps < 1:
        raise ConfigError("bench needs reps >= 1")
    weights = init_random_model(cfg.model, cfg.tasks.seed)
    inputs = _bench_inputs(cfg, weights)
    if plans is None:
        plans = [cfg.prune] if cfg.prune is not None else []
    variants = [None] + list(plans)
    for _ in range(cfg.bench.warmup):
        decode(weights, cfg, inputs[:1], variants)
    runs = decode(weights, cfg, inputs, variants)
    fastest = min(sum(stats.seconds_total for _, stats in plan_runs) for plan_runs in runs
                  if not isinstance(plan_runs, EmptyGuidanceSet))
    resolution = time.get_clock_info("perf_counter").resolution
    if fastest < 100.0 * resolution:
        raise TimerResolutionError(
            f"measured {fastest:.3e}s is under 100 clock ticks ({resolution:.1e}s); "
            "increase reps or problem size")
    return [report(cfg, plan, plan_runs, cfg.model, baseline_runs=runs[0])
            for plan, plan_runs in zip(variants, runs)]


# --- serialization -----------------------------------------------------------

def _round6(x: Optional[float]) -> Optional[float]:
    return None if x is None else round(float(x), 6)


def report_to_dict(report: BenchReport) -> dict:
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


_CSV_COLUMNS = ["variant", "latency_s_per_sample", "throughput_tok_per_s", "accuracy",
                "flops_baseline", "flops_pruned", "flops_ratio", "similarity_min", "skipped"]


def emit_report(reports: Union[BenchReport, Sequence[BenchReport]], path,
                format: str = "json") -> Path:
    """Write one report (JSON object) or several (JSON array / CSV rows)."""
    path = Path(path)
    single = isinstance(reports, BenchReport)
    items = [reports] if single else list(reports)
    if format == "json":
        payload = report_to_dict(items[0]) if single else [report_to_dict(r) for r in items]
        path.write_text(json.dumps(payload, indent=2) + "\n")
    elif format == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for r in items:
                writer.writerow([
                    r.variant,
                    _fmt6(r.latency_s_per_sample),
                    _fmt6(r.throughput_tok_per_s),
                    _fmt6(r.accuracy),
                    r.flops.baseline if r.flops else "",
                    r.flops.pruned if r.flops else "",
                    _fmt6(r.flops.ratio) if r.flops else "",
                    _fmt6(min(r.similarity.sims)) if r.similarity else "",
                    r.skipped or "",
                ])
    else:
        raise ConfigError(f"unknown report format: {format}")
    return path


def _fmt6(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.6f}"


def emit_similarity_csv(curve: analysis.SimilarityCurve, path) -> Path:
    """One row per analyzed step: (step, cosine against step 1)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "cosine_vs_step1"])
        for i, sim in enumerate(curve.sims):
            writer.writerow([curve.first_step + i, f"{sim:.6f}"])
    return path


# --- configuration -----------------------------------------------------------

def _merge(base: dict, override: Optional[dict]) -> dict:
    if not isinstance(override, (dict, type(None))):
        raise ConfigError("a configuration must be a JSON object")
    out = {k: None if v is None else dict(v) for k, v in base.items()}
    for section, values in (override or {}).items():
        if section not in out:
            raise ConfigError(f"unknown config section: {section}")
        if values is None:
            out[section] = None
            continue
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section} must be an object or null")
        if out[section] is None:
            raise ConfigError(f"cannot set {', '.join(values)} in disabled section {section}")
        unknown = set(values) - set(out[section])
        if unknown:
            raise ConfigError(f"unknown keys in config section {section}: "
                              f"{', '.join(sorted(unknown))}")
        out[section].update(values)
    return out


def _typed(raw: dict, section: str, key: str, types=int, what="an integer"):
    """A JSON value of ``types`` (an integer by default); a bool, a string, or
    for an integer a fraction or a whole float, is an error, never truncated
    or parsed."""
    value = raw[section][key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{section}.{key} must be {what}, got {value!r}")
    return value


def _member(raw: dict, section: str, key: str, kind):
    """The member of enum ``kind`` whose value the JSON value names exactly."""
    value, allowed = raw[section][key], [m.value for m in kind]
    if value not in allowed:
        raise ConfigError(f"{section}.{key} must be one of {', '.join(allowed)}, got {value!r}")
    return kind(value)


def config_from_dict(data: Optional[dict]) -> RunConfig:
    """Build a validated RunConfig from (partial) JSON data merged over defaults."""
    raw = _merge(DEFAULT_CONFIG, data)
    try:
        m = raw["model"]
        grid = tuple(m["grid"])
        layers, heads, d, d_v, mu, vocab = (_typed(raw, "model", k)
                                            for k in ("L", "H", "d", "d_v", "mu", "vocab"))
        model = ModelConfig(
            layers=layers, heads=heads, embed_dim=d, vision_dim=d_v, ffn_dim=mu,
            vocab_size=vocab, patch_grid=grid, mask_token_id=vocab - 1,
        )
        steps, tau, seed = (_typed(raw, "decode", k) for k in ("K", "tau", "seed"))
        if steps < 1 or not 1 <= tau <= DEFAULT_MAX_RESPONSE:
            raise ConfigError(f"decode needs K >= 1 and 1 <= tau <= {DEFAULT_MAX_RESPONSE}")
        policy = SchedulePolicy(_member(raw, "decode", "policy", PolicyKind), rng_seed=seed)
        prune = None
        if raw["prune"] is not None:
            prune = PrunePlan(
                strategy=_member(raw, "prune", "strategy", StrategyKind),
                ratio=float(_typed(raw, "prune", "r", (int, float), "a number")),
                scorer=_member(raw, "prune", "scorer", ScorerKind),
                rng_seed=_typed(raw, "prune", "seed"),
            )
        t = raw["tasks"]
        alphabet = t["alphabet"]
        if not isinstance(alphabet, (list, tuple)):
            alphabet = _default_alphabet(_typed(raw, "tasks", "alphabet"))
        elif not all(isinstance(s, str) for s in alphabet):
            raise ConfigError(f"tasks.alphabet entries must be strings, got {alphabet!r}")
        tasks = TaskParams(count=_typed(raw, "tasks", "count"), grid=tuple(t["grid"]),
                           alphabet=tuple(alphabet), seed=_typed(raw, "tasks", "seed"))
        if tasks.count < 1:
            raise ConfigError("tasks needs count >= 1")
        # Tasks the copy model cannot host, or a plan that cannot serve the
        # model's or the tasks' grid, fail here, not mid-run.
        copy_cfg = copy_model_config(tasks.grid, tasks.alphabet)
        for num_visual in (model.num_patches, copy_cfg.num_patches):
            keep_schedule(prune, num_visual, steps)
        bench = BenchParams(*(_typed(raw, "bench", k) for k in ("warmup", "reps", "prompt_len")))
        if not 0 <= bench.prompt_len <= DEFAULT_MAX_PROMPT:
            raise ConfigError(f"bench needs 0 <= prompt_len <= {DEFAULT_MAX_PROMPT}")
        return RunConfig(
            model=model, steps=steps, response_len=tau,
            policy=policy, prune=prune, tasks=tasks, bench=bench, raw=raw,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_config(path: Optional[str]) -> RunConfig:
    data = None
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)
