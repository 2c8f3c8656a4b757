"""Masked-diffusion inference over a visual/prompt/response token sequence.

Each step runs one bidirectional forward pass over the concatenated segments,
commits some still-masked response positions (greedy argmax), and leaves every
already-committed position untouched. Two unmasking schedules are provided:

* ``stochastic`` — each masked position independently stays masked with
  probability (1 - k/K) / (1 - (k-1)/K), so the marginal masked fraction after
  step k is exactly 1 - k/K.
* ``confidence`` — commits a fixed per-step quota of the highest-confidence
  positions (max softmax probability, ties to the lower position index).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import pruning
from .model import (AttentionCapture, ForwardBuffers, ModelWeights, embed_response, forward,
                    response_rows)
# step reads its confidence with softmax_row_max; softmax_rows is imported only so that
# perfbench's tracer can patch the name in this module
from .numerics import Matrix, SeededRng, softmax_row_max, softmax_rows  # noqa: F401


# numpy's ufunc buffer, in elements, while a decode runs. At the default 8,192,
# numpy 2.4 copies the (rows, 1) operand of a row-broadcast op (softmax's and
# layer_norm's subtract and divide) into the buffer whenever it spans more
# than a few rows, which costs a vit1024 forward, whose score rows are 1,072
# wide, about 7% (README). Elementwise results are the same at any size.
_UFUNC_BUFSIZE = 512
# The largest ``model.ForwardBuffers`` a finished decode leaves to the next
# decode of its model. Setting buffers up costs a decode 30 to 45 us: 3 to 10%
# of a copy8x8 or tiny16 decode (320 and 48 KiB), nothing to speak of in a
# vit1024 one, whose 7.3 MiB, kept, raise perfbench's peak_rss_mb by 9%.
_SPARE_BYTES = 1 << 20


class PolicyKind(str, Enum):
    STOCHASTIC = "stochastic"
    CONFIDENCE = "confidence"


@dataclass(frozen=True)
class SchedulePolicy:
    kind: PolicyKind
    rng_seed: Optional[int] = None

    def __post_init__(self):
        if self.kind == PolicyKind.STOCHASTIC and self.rng_seed is None:
            raise ValueError("stochastic policy needs rng_seed")

    @classmethod
    def stochastic(cls, seed: int) -> "SchedulePolicy":
        return cls(PolicyKind.STOCHASTIC, rng_seed=seed)

    @classmethod
    def confidence(cls) -> "SchedulePolicy":
        return cls(PolicyKind.CONFIDENCE)


@dataclass
class SequenceState:
    """Live decoding state; owned by exactly one run.

    ``step_input`` is the (n, d) forward input of the next step:
    ``np.vstack([visual, prompt, embed_response(response_ids)])``, or None
    until the first ``step`` builds it. Each commit writes the committed
    response rows into it in place (``model.response_rows``), and
    ``pruning.apply_prune`` gathers its kept rows. Code that changes
    ``visual``, ``prompt`` or ``response_ids`` in any other way sets it to None.
    ``buffers`` are the arrays its forwards write into (``model.ForwardBuffers``).
    """

    visual: Matrix                 # current visual rows (original or pruned)
    prompt: Matrix                 # (m, d)
    response_ids: np.ndarray       # (tau,) int64; masked positions hold mask_token_id
    masked: np.ndarray             # (tau,) bool
    visual_index_map: np.ndarray   # original indices of surviving visual rows, ascending
    step: int                      # next step to run, 1-based
    total_steps: int
    step_input: Optional[Matrix] = None  # (n, d), kept between steps; see above
    buffers: ForwardBuffers = field(default_factory=ForwardBuffers, repr=False)

    @property
    def num_visual(self) -> int:
        return self.visual.shape[0]

    @property
    def prompt_len(self) -> int:
        return self.prompt.shape[0]

    @property
    def response_len(self) -> int:
        return self.response_ids.shape[0]

    @property
    def seq_len(self) -> int:
        return self.num_visual + self.prompt_len + self.response_len

    def masked_positions(self) -> np.ndarray:
        return self.masked.nonzero()[0]


@dataclass
class StepOutcome:
    newly_decoded: np.ndarray
    attention: Optional[AttentionCapture] = None


@dataclass
class RunStats:
    seconds_total: float = 0.0
    per_step_lengths: list = field(default_factory=list)
    score_trace: list = field(default_factory=list)  # score_with vectors, one per scored step


def init_state(visual: Matrix, prompt: Matrix, tau: int, total_steps: int,
               *, mask_token_id: int) -> SequenceState:
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    visual = np.asarray(visual, dtype=np.float64)
    prompt = np.asarray(prompt, dtype=np.float64)
    return SequenceState(
        visual=visual,
        prompt=prompt,
        response_ids=np.full(tau, mask_token_id, dtype=np.int64),
        masked=np.ones(tau, dtype=bool),
        visual_index_map=np.arange(visual.shape[0], dtype=np.int64),
        step=1,
        total_steps=total_steps,
    )


def remask_prob(k: int, total_steps: int) -> float:
    """Probability that a masked position stays masked through step k of K."""
    if not 1 <= k <= total_steps:
        raise ValueError(f"step {k} outside 1..{total_steps}")
    return (1.0 - k / total_steps) / (1.0 - (k - 1) / total_steps)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def decode_quota(k: int, tau: int, total_steps: int) -> int:
    """Positions the confidence schedule commits at step k; quotas sum to tau."""
    return _round_half_up(tau * k / total_steps) - _round_half_up(tau * (k - 1) / total_steps)


def step(state: SequenceState, weights: ModelWeights, policy: SchedulePolicy,
         rng: Optional[SeededRng] = None, *, capture: bool = True, first_row: int = 0
         ) -> tuple[SequenceState, StepOutcome]:
    """Run one inference step in place and report what it committed.

    Already-decoded positions are never altered. ``first_row`` is the first
    sequence row whose forward outputs the caller reads; it must be at most
    the response start, since the step reads the response rows' logits. The
    outcome's attention is the layer/head mean of rows ``first_row..n-1`` of
    this step's maps, one (n - first_row, n) map; by default the whole (n, n)
    map. ``capture=False`` skips it (logits are unaffected).

    The forward reads ``state.step_input``, built when it is None, and
    writes into ``state.buffers`` (``SequenceState``).
    """
    k = state.step
    if k > state.total_steps:
        raise ValueError(f"step {k} exceeds configured total {state.total_steps}")
    resp_start = state.num_visual + state.prompt_len
    if first_row > resp_start:
        raise ValueError(f"first_row {first_row} is past the response start {resp_start}")
    x = state.step_input
    if x is None:
        x = state.step_input = np.vstack([state.visual, state.prompt,
                                          embed_response(state.response_ids, weights)])
    logits, cap = forward(x, weights, capture=capture, first_row=first_row,
                          buffers=state.buffers)
    resp_logits = logits[resp_start - first_row:]

    entry_masked = state.masked_positions()
    if policy.kind == PolicyKind.STOCHASTIC:
        if rng is None:
            raise ValueError("stochastic policy needs an rng")
        q = remask_prob(k, state.total_steps)
        # One uniform draw per masked position, in ascending position order;
        # a batched draw consumes the stream identically to scalar draws.
        stay = rng.random(size=entry_masked.size) < q
        commit = entry_masked[~stay]
    else:
        quota = min(decode_quota(k, state.response_len, state.total_steps), entry_masked.size)
        conf = softmax_row_max(resp_logits[entry_masked])
        order = (-conf).argsort(kind="stable")  # ties -> lower position index
        commit = entry_masked[order[:quota]]

    state.response_ids[commit] = resp_logits[commit].argmax(axis=1)
    state.masked[commit] = False
    x[resp_start + commit] = response_rows(state.response_ids, commit, weights)
    state.step = k + 1
    commit.sort()  # a new array in either branch: both index entry_masked
    return state, StepOutcome(newly_decoded=commit, attention=cap)


def run_inference(visual: Matrix, prompt: Matrix, tau: int, total_steps: int,
                  weights: ModelWeights, policy: SchedulePolicy,
                  prune_plan: Optional[pruning.PrunePlan] = None, *,
                  score_with: Optional[pruning.ScorerKind] = None
                  ) -> tuple[np.ndarray, list[StepOutcome], RunStats]:
    """Decode a full response, optionally pruning visual tokens along the way.

    The plan's keep schedule alone decides the pruning: after step k the
    state is cut to the count scheduled for step k+1 when that count is
    smaller, and attention is captured only for a step whose prune is scored.
    A cut gathers the kept rows of the step input (``pruning.apply_prune``),
    so a decode embeds its response rows in full once, at step 1.
    Each step's forward computes outputs only for the rows it reads: the
    response rows' logits and, at a scored step, the attention rows of every
    scorer in use (``pruning.first_guidance_row``). That capture lives only
    long enough to score that step; the returned trace holds none.
    ``score_with`` records that guidance set's importance vector after every
    step that leaves masked rows, without pruning anything (used for
    score-stability analysis); an empty guidance set raises, as when pruning.

    The steps run with numpy's ufunc buffer at ``_UFUNC_BUFSIZE`` elements;
    the caller's size is restored when the decode returns or raises. The
    decode takes and leaves forward buffers in ``weights.spare_buffers``
    (``model.ForwardBuffers``).
    """
    schedule = pruning.keep_schedule(prune_plan, np.asarray(visual).shape[0], total_steps)
    rng = SeededRng(policy.rng_seed) if policy.kind == PolicyKind.STOCHASTIC else None

    state = init_state(visual, prompt, tau, total_steps,
                       mask_token_id=weights.config.mask_token_id)
    spare = weights.spare_buffers
    if spare:
        state.buffers = spare.pop()
    trace: list[StepOutcome] = []

    t_start = time.perf_counter()
    stats = RunStats()
    bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        for k in range(1, total_steps + 1):
            prune_next = k < total_steps and schedule[k] < state.num_visual
            scored = prune_next and prune_plan.scored
            # the first row this step reads: the response logits' or a scorer's
            first_row = state.num_visual + state.prompt_len
            if score_with is not None:
                first_row = min(first_row, pruning.first_guidance_row(state, score_with))
            if scored:
                first_row = min(first_row, pruning.first_guidance_row(state, prune_plan.scorer))
            stats.per_step_lengths.append(state.seq_len)
            state, outcome = step(state, weights, policy, rng,
                                  capture=scored or score_with is not None, first_row=first_row)
            # No forward pass follows once decoding completes, so late scores and
            # prunes would be dead work (and masked-row guidance is gone).
            masked_left = state.masked.any()
            if masked_left:
                if score_with is not None:
                    stats.score_trace.append(pruning.step_scores(state, outcome.attention,
                                                                 score_with))
                if prune_next:
                    pruning.prune_to(state, prune_plan, schedule[k], outcome.attention)
            outcome.attention = None
            trace.append(outcome)
            if not masked_left:
                break
    finally:
        np.setbufsize(bufsize)
        if state.buffers.nbytes <= _SPARE_BYTES:
            spare.append(state.buffers)
    stats.seconds_total = time.perf_counter() - t_start
    return state.response_ids.copy(), trace, stats
