"""Visual-token importance scoring and keep-set selection.

Importance of a visual token is the attention it receives, averaged first over
all layers and heads of one forward pass and then over a chosen set of
guidance rows. The default guidance set is the still-masked response rows;
the alternatives exist for ablation comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .model import AttentionCapture
from .numerics import Matrix, SeededRng

if TYPE_CHECKING:  # avoids a runtime import cycle with decoder
    from .decoder import SequenceState


class EmptyGuidanceSet(ValueError):
    """The chosen guidance set has no rows at this step; scores are undefined."""

    def __init__(self, scorer: "ScorerKind", step: int):
        super().__init__(f"guidance set {scorer.value!r} is empty at step {step}")


class ScorerKind(str, Enum):
    MASKED = "masked"                    # still-masked response rows (default)
    PROMPT = "prompt"                    # prompt rows
    DECODED = "decoded"                  # already-decoded response rows
    ALL_RESPONSE = "response"            # masked + decoded response rows
    PROMPT_RESPONSE = "prompt+response"  # prompt + all response rows
    VISUAL = "visual"                    # visual rows themselves
    PROMPT_MASKED = "prompt+masked"      # prompt + still-masked response rows


# Which segments each guidance set reads: (visual, prompt, masked, decoded).
_GUIDANCE = {
    ScorerKind.MASKED: (False, False, True, False),
    ScorerKind.PROMPT: (False, True, False, False),
    ScorerKind.DECODED: (False, False, False, True),
    ScorerKind.ALL_RESPONSE: (False, False, True, True),
    ScorerKind.PROMPT_RESPONSE: (False, True, True, True),
    ScorerKind.VISUAL: (True, False, False, False),
    ScorerKind.PROMPT_MASKED: (False, True, True, False),
}


class StrategyKind(str, Enum):
    ONCE = "once"              # score once after step 1, prune to the keep set
    RANDOM_ONCE = "random"     # keep a uniformly random subset after step 1
    PROGRESSIVE = "progressive"  # spread prunes over steps 1..K-1, rescoring each step


@dataclass(frozen=True)
class KeepSet:
    indices: np.ndarray  # original visual indices, strictly ascending

    @property
    def n_kept(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class PrunePlan:
    """How to prune, independent of run shape: one plan serves any N and K."""

    strategy: StrategyKind
    ratio: float
    scorer: ScorerKind = ScorerKind.MASKED
    rng_seed: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        if self.strategy == StrategyKind.RANDOM_ONCE and self.rng_seed is None:
            raise ValueError("random pruning needs rng_seed")

    @property
    def scored(self) -> bool:
        """Whether the keep set comes from importance scores rather than a random draw."""
        return self.strategy != StrategyKind.RANDOM_ONCE

    @classmethod
    def once(cls, ratio: float, scorer: ScorerKind = ScorerKind.MASKED) -> "PrunePlan":
        return cls(StrategyKind.ONCE, ratio, scorer=scorer)

    @classmethod
    def random_once(cls, ratio: float, seed: int) -> "PrunePlan":
        return cls(StrategyKind.RANDOM_ONCE, ratio, rng_seed=seed)

    @classmethod
    def progressive(cls, ratio: float, scorer: ScorerKind = ScorerKind.MASKED) -> "PrunePlan":
        return cls(StrategyKind.PROGRESSIVE, ratio, scorer=scorer)


def keep_count(n: int, r: float) -> int:
    """Retained-token count: max(1, floor(n * r))."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {r}")
    return max(1, math.floor(n * r))


def mean_attention(capture: AttentionCapture) -> Matrix:
    """Mean of all layer/head maps; rows stay stochastic. A capture from
    ``forward`` holds only the mean, which comes back as is, not copied.
    Row i of the mean is sequence row ``capture.first_row + i``."""
    maps = [m for layer_maps in capture.maps for m in layer_maps]
    if not maps:
        raise ValueError("capture holds no attention maps")
    total = maps[0]
    if len(maps) == 1:
        return total
    for m in maps[1:]:
        if m.shape != total.shape:
            raise ValueError(f"inconsistent map shape {m.shape} vs {total.shape}")
        total = total + m
    return total / len(maps)


def importance_scores(abar: Matrix, guidance_rows: Sequence[int], visual_cols: Sequence[int]
                      ) -> np.ndarray:
    """Per-visual-column mean of the guidance rows of an averaged attention map.

    Rows and columns index ``abar`` itself; a negative one is an error, not a
    count from the end, and so is an empty set of rows."""
    rows = np.asarray(guidance_rows, dtype=np.int64).reshape(-1)
    cols = np.asarray(visual_cols, dtype=np.int64).reshape(-1)
    if rows.size == 0:
        raise ValueError("no guidance rows to score with")
    # Viewed as uint64 a negative index exceeds any size, so one max checks both ends.
    if rows.view(np.uint64).max() >= abar.shape[0] \
            or cols.size and cols.view(np.uint64).max() >= abar.shape[1]:
        raise ValueError("guidance rows / visual cols outside map dimensions")
    return abar[np.ix_(rows, cols)].mean(axis=0)


def keep_top_n(visual_indices: np.ndarray, scores: np.ndarray, n_keep: int) -> KeepSet:
    """Keep the n highest-scoring tokens; ties favor the lower original index."""
    values = np.asarray(scores)
    indices = np.asarray(visual_indices, dtype=np.int64)
    if values.shape[0] != indices.shape[0]:
        raise ValueError(f"{values.shape[0]} scores for {indices.shape[0]} tokens")
    if not 1 <= n_keep <= indices.size:
        raise ValueError(f"cannot keep {n_keep} of {indices.size}")
    order = np.argsort(-values, kind="stable")  # stable: equal scores keep ascending index
    return KeepSet(indices=np.sort(indices[order[:n_keep]]))


def select_top(visual_indices: np.ndarray, scores: np.ndarray, r: float) -> KeepSet:
    """Top-r keep set over the surviving visual tokens, in original order."""
    n = np.asarray(visual_indices).shape[0]
    return keep_top_n(visual_indices, scores, keep_count(n, r))


def random_keep(visual_indices: np.ndarray, n_keep: int, rng: SeededRng) -> KeepSet:
    """Uniformly random keep set of n_keep tokens, in original order."""
    indices = np.asarray(visual_indices, dtype=np.int64)
    return KeepSet(indices=indices[rng.subset(indices.size, n_keep)])


def plan_progressive(num_visual: int, r: float, total_steps: int) -> list[int]:
    """Spread the total prune budget over steps 1..K-1, front-loading remainders."""
    budget = num_visual - keep_count(num_visual, r)
    if total_steps < 2:
        if budget > 0:
            raise ValueError("progressive pruning needs at least 2 steps when r < 1")
        return []
    slots = total_steps - 1
    base, rem = divmod(budget, slots)
    return [base + 1 if i < rem else base for i in range(slots)]


def keep_schedule(plan: Optional[PrunePlan], num_visual: int, total_steps: int) -> list[int]:
    """Visual tokens present at each step 1..K under the plan: all N without a
    plan; N, then keep_count(N, r) for once and random; N minus the running sum
    of plan_progressive(N, r, K) for progressive. Raises ValueError for a shape
    the plan cannot serve."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if plan is None:
        return [num_visual] * total_steps
    if plan.strategy == StrategyKind.PROGRESSIVE:
        counts = plan_progressive(num_visual, plan.ratio, total_steps)
        return [num_visual - sum(counts[:k]) for k in range(total_steps)]
    return [num_visual] + [keep_count(num_visual, plan.ratio)] * (total_steps - 1)


def step_scores(state: "SequenceState", capture: AttentionCapture,
                scorer: ScorerKind) -> np.ndarray:
    """Importance of the surviving visual tokens from the step just run."""
    rows = guidance_rows(state, scorer)
    if rows.size == 0:
        raise EmptyGuidanceSet(scorer, state.step - 1)
    abar = mean_attention(capture)  # row i is sequence row capture.first_row + i
    return importance_scores(abar, rows - capture.first_row, np.arange(state.num_visual))


def prune_to(state: "SequenceState", plan: PrunePlan, n_keep: int,
             capture: Optional[AttentionCapture]) -> None:
    """Cut the state's visual tokens to the plan's keep set of size n_keep."""
    if plan.scored:
        keep = keep_top_n(state.visual_index_map, step_scores(state, capture, plan.scorer),
                          n_keep)
    else:
        # Random pruning happens once per run, so its draw is the first of the plan's stream.
        keep = random_keep(state.visual_index_map, n_keep, SeededRng(plan.rng_seed))
    apply_prune(state, keep)


def apply_prune(state: "SequenceState", keep: KeepSet) -> "SequenceState":
    """Restrict the state's visual rows to the keep set, preserving original order."""
    current = state.visual_index_map
    local = np.searchsorted(current, keep.indices)
    bad = (local >= current.size) | (current[np.minimum(local, current.size - 1)] != keep.indices)
    if bad.any():
        missing = keep.indices[bad].tolist()
        raise ValueError(f"keep indices not currently present: {missing}")
    state.visual = state.visual[local]
    state.visual_index_map = keep.indices.copy()
    return state


def first_guidance_row(state: "SequenceState", scorer: ScorerKind) -> int:
    """First sequence row the scorer reads: the start of the first segment it
    reads (visual 0, prompt N_vis, response N_vis + m)."""
    visual, prompt, _, _ = _GUIDANCE[scorer]
    return 0 if visual else state.num_visual + (0 if prompt else state.prompt_len)


def guidance_rows(state: "SequenceState", scorer: ScorerKind) -> np.ndarray:
    """Ascending sequence-coordinate rows of the chosen guidance set for the current layout."""
    if state.step < 2:
        raise ValueError("guidance sets are defined only after at least one step")
    visual, prompt, masked, decoded = _GUIDANCE[scorer]
    rows = np.concatenate([np.full(state.num_visual, visual), np.full(state.prompt_len, prompt),
                           np.where(state.masked, masked, decoded)])
    return np.flatnonzero(rows)
