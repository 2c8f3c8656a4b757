"""The benchmark's workloads: how each builds its model and generates inputs.

Every workload runs the same five decode variants on each input (see
``VARIANTS``); they differ in model shape, input shape and schedule policy.
The model is part of the workload: the random models use the fixed
``MODEL_SEED``, as the copy model has fixed weights, because how much a
random model's answers depend on its visual tokens varies far more from one
weight draw to the next than from one input to the next. Inputs come from
``numpy.random.default_rng(seed)`` only, so a seed fixes them; the program
sees just the embedded rows and the plans.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from dlmprune import decoder, harness, model, pruning

RATIO = 0.25
MODEL_SEED = 0
VARIANTS = ("baseline", "once", "random", "progressive", "scored")
ALPHABET = tuple(string.ascii_lowercase[:16])


@dataclass
class Input:
    visual: np.ndarray
    prompt: np.ndarray
    policy: decoder.SchedulePolicy
    prune_seed: int                     # seed of the ``random`` variant's keep set
    expected: Optional[np.ndarray]      # exact answer when the task has one


@dataclass(frozen=True)
class Workload:
    tau: int
    steps: int
    build_model: Callable[[], model.ModelWeights]
    make_inputs: Callable[[np.random.Generator, model.ModelWeights], list]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _grid(rng: np.random.Generator, rows: int, cols: int) -> list:
    return [[ALPHABET[i] for i in row] for row in rng.integers(0, len(ALPHABET), (rows, cols))]


# vit1024: the ROADMAP's criterion-8 shape, n = 1024 + 16 + 32 = 1072.
VIT_CONFIG = model.ModelConfig(layers=4, heads=4, embed_dim=128, vision_dim=16, ffn_dim=256,
                               vocab_size=64, patch_grid=(32, 32), mask_token_id=63)


def _vit_inputs(rng, weights, count=4):
    cfg = weights.config
    out = []
    for _ in range(count):
        image = _grid(rng, *cfg.patch_grid)
        ids = rng.integers(0, cfg.vocab_size - 1, size=16)  # never the mask id
        out.append(Input(model.encode_image(image, weights), model.embed_prompt(ids, weights),
                         decoder.SchedulePolicy.confidence(), _seed(rng), None))
    return out


# copy8x8: analytic pointer-copy model, exact ground truth.
COPY_TASKS = harness.TaskParams(grid=(8, 8), alphabet=ALPHABET)


def _copy_inputs(rng, weights, count=64, tau=8):
    out = []
    for _ in range(count):
        task = harness.gen_pointer_task(COPY_TASKS.grid, COPY_TASKS.alphabet, _seed(rng))
        out.append(Input(model.encode_image(task.image, weights),
                         model.embed_prompt(task.prompt, weights),
                         decoder.SchedulePolicy.confidence(), _seed(rng),
                         np.full(tau, task.expected, dtype=np.int64)))
    return out


# tiny16: the acceptance criterion-3 shape, where per-call overhead dominates.
TINY_CONFIG = model.ModelConfig(layers=1, heads=1, embed_dim=4, vision_dim=2, ffn_dim=4,
                                vocab_size=4, patch_grid=(1, 1), mask_token_id=3)


def _tiny_inputs(rng, weights, count=1024):
    empty = model.embed_prompt([], weights)
    out = []
    for _ in range(count):
        out.append(Input(model.encode_image(_grid(rng, 1, 1), weights), empty,
                         decoder.SchedulePolicy.stochastic(_seed(rng)), _seed(rng), None))
    return out


WORKLOADS = {
    "vit1024": Workload(
        tau=32, steps=8,
        build_model=lambda: model.init_random_model(VIT_CONFIG, MODEL_SEED),
        make_inputs=_vit_inputs),
    "copy8x8": Workload(
        tau=8, steps=8,
        build_model=lambda: harness.copy_setup(COPY_TASKS)[1],
        make_inputs=_copy_inputs),
    "tiny16": Workload(
        tau=64, steps=16,
        build_model=lambda: model.init_random_model(TINY_CONFIG, MODEL_SEED),
        make_inputs=_tiny_inputs),
}


def plan_for(variant: str, inp: Input) -> Optional[pruning.PrunePlan]:
    """A fresh plan per decode: ``validate`` fills in progressive counts in place."""
    if variant == "once":
        return pruning.PrunePlan.once(RATIO)
    if variant == "random":
        return pruning.PrunePlan.random_once(RATIO, inp.prune_seed)
    if variant == "progressive":
        return pruning.PrunePlan.progressive(RATIO)
    return None


def expected_lengths(variant: str, n_vis: int, rest: int, steps: int) -> list:
    """Per-step sequence lengths the plan prescribes, derived here from the
    paper's rules (keep max(1, floor(N*r)); progressive spreads the removals
    over steps 1..K-1, remainders first) rather than from dlmprune's code."""
    keep = max(1, math.floor(n_vis * RATIO))
    if variant in ("baseline", "scored"):
        vis = [n_vis] * steps
    elif variant in ("once", "random"):
        vis = [n_vis] + [keep] * (steps - 1)
    else:
        base, rem = divmod(n_vis - keep, steps - 1)
        vis = [n_vis]
        for k in range(steps - 1):
            vis.append(vis[-1] - base - (k < rem))
    return [v + rest for v in vis]
