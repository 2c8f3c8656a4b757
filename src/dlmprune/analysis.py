"""Analytic cost model and score-stability analysis.

Per layer and step, a forward pass over n tokens of width d with FFN width mu
costs 4*n*d^2 + 2*n^2*d + 2*n*d*mu floating-point operations (QKV/output
projections, attention products, FFN), one per multiply-add. Counts are exact
integers. The copy model is priced at its full width d, FFN width 1 and 12
layers too, though its heads are narrower, each of its projections is c
times the identity on one block of channels and runs no product
(``model.LayerWeights.scaled``), its layers have no FFN and a forward runs
its 11 tied fetch layers as one (``model.layer_runs``); ``executed_macs``
counts the multiply-adds ``model.forward`` actually runs, from the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import layer_runs


@dataclass
class FlopsReport:
    baseline: int
    pruned: int
    ratio: float
    params: dict = field(default_factory=dict)


@dataclass
class SimilarityCurve:
    """Cosine similarity of each later step's importance scores against step 1's.

    ``sims[i]`` compares step ``first_step + i`` with step 1.
    """

    sims: list[float]
    first_step: int = 2
    sample_count: int = 1

    def min(self) -> float:
        return min(self.sims)


def flops_per_pass(n: int, d: int, mu: int) -> int:
    """One layer, one step, sequence length n."""
    return 4 * n * d * d + 2 * n * n * d + 2 * n * d * mu


def flops_baseline(layers: int, steps: int, n: int, d: int, mu: int) -> int:
    return flops_pruned(layers, steps, n, n, d, mu).baseline


def flops_for_lengths(layers: int, d: int, mu: int, lengths: Sequence[int]) -> int:
    """Total cost of a run whose per-step sequence lengths are given."""
    return layers * sum(flops_per_pass(n, d, mu) for n in lengths)


def flops_report(layers: int, d: int, mu: int, baseline_lengths: Sequence[int],
                 lengths: Sequence[int], **params) -> FlopsReport:
    """Cost of a run with the given per-step lengths against a baseline run."""
    baseline = flops_for_lengths(layers, d, mu, baseline_lengths)
    pruned = flops_for_lengths(layers, d, mu, lengths)
    return FlopsReport(baseline=baseline, pruned=pruned,
                       ratio=pruned / baseline if baseline else 1.0,
                       params={"layers": layers, "d": d, "mu": mu, **params})


def flops_pruned(layers: int, steps: int, n: int, n_r: int, d: int, mu: int) -> FlopsReport:
    """Cost with one full-length step followed by steps at the pruned length n_r,
    against K full-length steps."""
    if n_r > n:
        raise ValueError(f"pruned length {n_r} exceeds full length {n}")
    for name, v in {"layers": layers, "steps": steps, "n": n, "d": d, "mu": mu}.items():
        if v < 0:
            raise ValueError(f"{name} must be nonnegative")
    return flops_report(layers, d, mu, [n] * steps, [n] + [n_r] * (steps - 1),
                        steps=steps, n=n, n_r=n_r)


def executed_macs(weights, n: int, first_row: int = 0) -> tuple[int, int, int]:
    """(proj, attn, ffn) multiply-adds of one ``model.forward`` over n rows.

    Widths are read from each layer's weights: q/k width ``wq.shape[2]``, v
    width ``wv.shape[2]``, d channels in and out of a dense projection, and
    FFN width ``w1.shape[1]``, 0 for a layer with no FFN. A projection that
    is c times the identity on one block (``LayerWeights.scaled``) runs no
    product and counts 0. A run of tied layers
    (``model.layer_runs``) counts once. Every run computes all n rows except
    the one ending at the last layer, which computes rows ``first_row..n-1``;
    K and V always run over all n rows. For a random model at ``first_row``
    0 the sum is ``layers * flops_per_pass(n, d, mu)``. It prices a
    forward that computes every run: a first run that ``model.forward``
    reuses from an earlier forward executes none of its products.
    """
    if not 0 <= first_row < n:
        raise ValueError(f"first_row {first_row} outside 0..{n - 1}")
    proj = attn = ffn = 0
    end = 0
    for lw, k in layer_runs(weights):
        end += k
        heads, d, w = lw.wq.shape
        w_v = lw.wv.shape[2]
        lo = first_row if end == len(weights.layers) else 0
        rows = n - lo
        # Q and the out-projection over the rows computed, K and V over all n
        macs = (rows * w, n * w, n * w_v, rows * w_v)
        proj += heads * d * sum(m for m, s in zip(macs, lw.scaled) if s is None)
        attn += heads * rows * n * (w + w_v)
        if lw.w1 is not None:
            ffn += 2 * rows * lw.w1.size
    return proj, attn, ffn


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for a zero vector")
    return float(u @ v / (nu * nv))


def similarity_curve(traces: Sequence[Sequence[np.ndarray]]) -> SimilarityCurve:
    """Average step-k-vs-step-1 cosine across sample traces.

    Each trace is the per-step score vectors of one unpruned run (so vector
    lengths agree across steps); all traces must cover the same steps.
    """
    if not traces:
        raise ValueError("need at least one trace")
    length = len(traces[0])
    if length < 2:
        raise ValueError("a trace needs scores for at least two steps")
    sims = []
    for t in traces:
        if len(t) != length:
            raise ValueError(f"trace lengths differ: {len(t)} vs {length}")
        sims.append([cosine(t[k], t[0]) for k in range(1, length)])
    mean = np.mean(np.asarray(sims), axis=0)
    return SimilarityCurve(sims=[float(s) for s in mean], first_step=2, sample_count=len(traces))
