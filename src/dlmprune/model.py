"""Toy vision-language transformer with inspectable bidirectional attention.

Two weight constructions share one forward path:

* ``init_random_model`` — seeded random weights with pre-norm residual layers
  and bias-free FFNs, for schedule, bookkeeping, and wall-clock experiments.
* ``build_copy_model`` — analytic weights realizing a pointer task: the prompt
  names a patch index, and masked response positions concentrate their
  attention on that visual token and decode the symbol stored there. This
  gives every attention-guided pruning experiment a known ground truth.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .numerics import Matrix, SeededRng, layer_norm, softmax_rows


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    heads: int
    embed_dim: int
    vision_dim: int
    ffn_dim: int
    vocab_size: int
    patch_grid: tuple[int, int]
    mask_token_id: int

    def __post_init__(self):
        counts = {
            "layers": self.layers,
            "heads": self.heads,
            "embed_dim": self.embed_dim,
            "vision_dim": self.vision_dim,
            "ffn_dim": self.ffn_dim,
            "vocab_size": self.vocab_size,
        }
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2: one id is the mask token")
        if len(self.patch_grid) != 2 or not all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 1
                for s in self.patch_grid):
            raise ValueError(f"patch_grid must be two positive ints, got {self.patch_grid}")
        if self.embed_dim % self.heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if not 0 <= self.mask_token_id < self.vocab_size:
            raise ValueError(f"mask_token_id {self.mask_token_id} outside vocab {self.vocab_size}")

    @property
    def num_patches(self) -> int:
        return self.patch_grid[0] * self.patch_grid[1]

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads


@dataclass
class AttentionCapture:
    """Row-stochastic attention maps, maps[layer][head], each holding rows
    ``first_row..n-1`` of an (n, n) map: map row i is sequence row
    ``first_row + i``. ``forward`` captures only their layer/head mean, as the
    one map maps[0][0]."""

    maps: list[list[np.ndarray]]
    first_row: int = 0


def _scaled_identity(m: np.ndarray) -> Optional[tuple[slice, slice, float]]:
    """``(rows, cols, c)`` where ``m``, a (heads, d, w) q, k or v stack or an
    (h·w_v, d) out-projection, is c times the identity on one square block
    in every head, ``m[..., rows, cols] == c·I``, and zero elsewhere. The
    block holds all w columns of a stack and all h·w_v rows of an
    out-projection; it is a span of channels on the d side. None for any
    other projection: ``forward`` runs it dense."""
    stack = m.T[None] if m.ndim == 2 else m  # (heads, d, w) either way
    w = stack.shape[2]
    used = np.flatnonzero(stack.any(axis=(0, 2)))
    if not w or used.size != w or used[-1] - used[0] != w - 1:
        return None
    span, whole = slice(int(used[0]), int(used[0]) + w), slice(0, w)
    c = float(stack[0, span.start, 0])
    if not (stack[:, span] == c * np.eye(w)).all():
        return None
    return (whole, span, c) if m.ndim == 2 else (span, whole, c)


@dataclass
class LayerWeights:
    """One layer's weights. Its head widths are those of its arrays: q/k width
    ``w = wq.shape[2]`` and v width ``w_v = wv.shape[2]``, which need not equal
    ``config.head_dim`` (the copy model stores only the columns it routes);
    ``forward`` scales scores by ``1/sqrt(config.head_dim)`` whatever they
    are. An FFN is ``w1`` and ``w2`` together; an attention-only layer has
    neither, and ``forward`` skips its FFN sublayer.

    Shapes are checked once, here, and so is what the nonzero weights
    imply. ``scaled`` holds, for q, k, v and ``wo``, ``_scaled_identity``:
    ``(rows, cols, c)`` where the projection is c times the identity on one
    block, None where it is dense. ``reads`` (q, k, v) are the channels each
    reads, ``rows``, and ``writes`` those ``wo`` writes, ``cols``; a dense
    projection reads or writes all d. ``ties`` says whether consecutive
    positions holding this layer can run as one (``layer_runs``): the layer
    has no FFN and one head, and its ``writes`` span is disjoint from each
    of its ``reads`` spans. Weights are not to be changed in place after
    that."""

    wq: np.ndarray  # (heads, d, w)
    wk: np.ndarray  # (heads, d, w)
    wv: np.ndarray  # (heads, d, w_v)
    wo: np.ndarray  # (heads·w_v, d), applied to the concatenated head outputs
    w1: Optional[np.ndarray] = None  # (d, mu), or None with w2: no FFN
    w2: Optional[np.ndarray] = None  # (mu, d)
    scaled: tuple[Optional[tuple[slice, slice, float]], ...] = field(
        init=False, repr=False)  # q, k, v, wo
    reads: tuple[slice, ...] = field(init=False, repr=False)  # q, k, v
    writes: slice = field(init=False, repr=False)
    ties: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.wq.ndim != 3:
            raise ValueError(f"wq must be (heads, d, w), got {self.wq.shape}")
        heads, d, _ = self.wq.shape
        w_v = self.wv.shape[-1]
        wanted = {
            "wk": (self.wk, self.wq.shape),
            "wv": (self.wv, (heads, d, w_v)),
            "wo": (self.wo, (heads * w_v, d)),
        }
        if (self.w1 is None) != (self.w2 is None):
            given = "w1" if self.w2 is None else "w2"
            raise ValueError(f"an FFN needs both w1 and w2 or neither, got only {given}")
        if self.w1 is not None:
            mu = self.w1.shape[-1]
            wanted.update(w1=(self.w1, (d, mu)), w2=(self.w2, (mu, d)))
        for name, (array, shape) in wanted.items():
            if np.shape(array) != shape:
                raise ValueError(f"{name} must be {shape}, got {np.shape(array)}")
        self.scaled = tuple(_scaled_identity(m) for m in (self.wq, self.wk, self.wv, self.wo))
        full = slice(0, d)
        self.reads = tuple(s[0] if s else full for s in self.scaled[:3])
        self.writes = w = self.scaled[3][1] if self.scaled[3] else full
        self.ties = self.w1 is None and heads == 1 and all(
            w.stop <= r.start or r.stop <= w.start for r in self.reads)


class HashedPatchTable:
    """Per-symbol embedding derived from (seed, sha256(symbol)); no fixed
    alphabet. Each symbol's vector is drawn once per table: later calls
    return the same read-only array."""

    def __init__(self, seed: int, dim: int):
        self.dim = int(dim)
        self._parent = SeededRng(int(seed))  # split() draws nothing, so one parent serves all
        self._vectors: dict[str, np.ndarray] = {}

    def vector(self, symbol: str) -> np.ndarray:
        v = self._vectors.get(symbol)
        if v is None:
            digest = hashlib.sha256(symbol.encode("utf-8")).digest()
            key = int.from_bytes(digest[:8], "little")
            v = self._vectors[symbol] = self._parent.split(key).normal(size=self.dim)
            v.setflags(write=False)
        return v


class FixedPatchTable:
    """Explicit symbol -> vector lookup; unknown symbols are an error."""

    def __init__(self, table: dict[str, np.ndarray]):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}

    def vector(self, symbol: str) -> np.ndarray:
        if symbol not in self.table:
            raise ValueError(f"unknown patch symbol: {symbol!r}")
        return self.table[symbol]


@dataclass
class ModelWeights:
    """A whole model. With ``norm``, ``forward`` applies ``layer_norm`` (no
    gain or bias) before each sublayer and before the output head.
    ``spare_buffers`` holds the ``ForwardBuffers`` finished decodes left for
    later ones. Their views are cut for the layers they first saw, so weights
    are not to be changed in place once a decode has run."""

    config: ModelConfig
    patch_embed: object  # anything with .vector(symbol) -> (vision_dim,)
    projector: np.ndarray  # (vision_dim, d)
    token_embed: np.ndarray  # (vocab, d)
    positional: np.ndarray  # (positions, d); segments use disjoint base offsets
    layers: list[LayerWeights]
    output_w: np.ndarray  # (d, vocab)
    output_b: np.ndarray  # (vocab,)
    norm: bool = False

    def __post_init__(self):
        self.spare_buffers: list[ForwardBuffers] = []  # not a field: no part of eq or repr


def sinusoidal_table(length: int, dim: int) -> np.ndarray:
    """Classic fixed sin/cos position table, values in [-1, 1]."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def encode_image(image: Sequence[Sequence[str]], weights: ModelWeights) -> Matrix:
    """Embed a patch-symbol grid into visual token rows (row-major patch order).

    Each row is its symbol's projected embedding, computed once per distinct
    symbol, plus that patch's position vector, so a visual token keeps its
    identity even after rows are sliced out by pruning.
    """
    cfg = weights.config
    rows, cols = cfg.patch_grid
    if len(image) != rows or any(len(r) != cols for r in image):
        raise ValueError(f"image grid does not match patch_grid {cfg.patch_grid}")
    flat = [s for row in image for s in row]
    projected = {s: weights.patch_embed.vector(s) @ weights.projector for s in dict.fromkeys(flat)}
    return np.stack([projected[s] for s in flat]) + weights.positional[:cfg.num_patches]


def _embed_tokens(ids: Sequence[int], weights: ModelWeights, base: int, capacity: int,
                  what: str) -> Matrix:
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if ids.size and (ids.min() < 0 or ids.max() >= weights.config.vocab_size):
        raise ValueError(f"{what} token id outside vocab of {weights.config.vocab_size}")
    if ids.size > capacity:
        raise ValueError(f"{what} of length {ids.size} exceeds the {what} segment's "
                         f"{capacity} positions")
    return weights.token_embed[ids] + weights.positional[base : base + ids.size]


def embed_prompt(tokens: Sequence[int], weights: ModelWeights) -> Matrix:
    """Token embeddings plus prompt-segment position offsets; empty prompts are legal."""
    return _embed_tokens(tokens, weights, weights.config.num_patches, DEFAULT_MAX_PROMPT,
                         "prompt")


def _response_base(cfg: ModelConfig) -> int:
    """The positional-table row of response position 0."""
    return cfg.num_patches + DEFAULT_MAX_PROMPT


def embed_response(ids: Sequence[int], weights: ModelWeights) -> Matrix:
    """Response-row embeddings; masked positions carry the mask token id."""
    return _embed_tokens(ids, weights, _response_base(weights.config), DEFAULT_MAX_RESPONSE,
                         "response")


def response_rows(ids: np.ndarray, positions: np.ndarray, weights: ModelWeights) -> Matrix:
    """Rows ``positions`` of ``embed_response(ids, weights)``, computed for
    those rows only: elementwise the same sums, so bitwise the same rows.
    ``ids`` must already be a valid response (as ``embed_response`` checks)."""
    base = _response_base(weights.config)
    return weights.token_embed[ids[positions]] + weights.positional[base + positions]


def gelu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Tanh-approximate GELU, ``0.5x(1 + tanh(c(x + 0.044715x^3)))``.

    The cube is ``x*x*x`` (``x**3`` calls libm ``pow``, ~40x slower), so the
    result differs from the ``x**3`` form by a few ulp; the chain runs in
    place on one array, ``out`` if given (it must not be ``x``) or a fresh
    one, and ``x`` is left unchanged.
    """
    t = np.multiply(x, x, out=out)
    t *= x
    t *= 0.044715
    t += x
    t *= 0.7978845608028654
    np.tanh(t, out=t)
    t += 1.0
    t *= x
    t *= 0.5
    return t


def layer_runs(weights: ModelWeights) -> list[tuple[LayerWeights, int]]:
    """The model's layers as (layer, k) runs, each of which ``forward``
    computes once. A run of k > 1 is k consecutive positions that hold the
    same layer object whose ``ties`` is set, in a model without ``norm``:
    each position's input then differs from the previous one's only in
    channels outside the spans q, k and v read, so all k compute the same
    attention and the same residual increment. Every other position is a
    run of 1."""
    runs: list[tuple[LayerWeights, int]] = []
    for lw in weights.layers:
        if runs and runs[-1][0] is lw and lw.ties and not weights.norm:
            runs[-1] = (lw, runs[-1][1] + 1)
        else:
            runs.append((lw, 1))
    return runs


# Budget of one head's score tile in bytes, sized to a 4 MiB L2 cache. A
# forward whose (n, n) float64 scores would exceed it splits its rows evenly
# into ceil(8·n² / _TILE_BYTES) tiles, so no (n, n) array is allocated.
_TILE_BYTES = 1 << 20


def row_tiles(n: int, lo: int) -> int:
    """How many tiles ``forward`` cuts rows ``lo..n-1`` of an n-row layer
    into: ceil(8·n² / _TILE_BYTES) for all n rows, proportionally fewer for
    fewer rows."""
    return -(-(n - lo) * -(-8 * n * n // _TILE_BYTES) // n)


# The most (n, first_row) plans one ``ForwardBuffers`` keeps: a progressive
# copy8x8 decode cuts 8, at a few microseconds each.
_PLANS = 64


class _Plan:
    """The views an n-row forward from ``first_row`` writes into, cut from
    ``ForwardBuffers.segments``: ``resid``, ``norm`` (None without norm) and
    ``work`` of n rows, the score tile ``scores``, and per layer run of
    ``layer_runs`` (``runs``) the layer, k, the first row ``lo`` whose
    output it computes, its tile count (``row_tiles``), which of q, k, v and
    ``wo`` run as a view (``forward``), and its views of q (n - lo rows), k,
    v, ``heads`` (n rows), the increment, the FFN hidden layer and GELU, and
    ``norm`` and ``work`` (n - lo rows), None for what the model lacks.
    ``hull``: the input channels the first run's outputs depend on, if only
    those; else None."""

    def __init__(self, buffers: "ForwardBuffers", n: int, first_row: int):
        weights, d = buffers.weights, buffers.weights.config.embed_dim

        def cut(role: str, rows: int, cols: int) -> np.ndarray:
            return buffers.segments[role][:rows * cols].reshape(rows, cols)

        tile_rows = -(-n // row_tiles(n, 0))
        self.scores = cut("tiles", tile_rows, n)
        self.resid, self.work = cut("resid", n, d), cut("work", n, d)
        self.norm = cut("norm", n, d) if weights.norm else None
        self.runs, end = [], 0
        for lw, k in layer_runs(weights):
            end += k
            lo = first_row if end == len(weights.layers) else 0
            m = n - lo
            views = [s is not None and s[2] == 1.0 for s in lw.scaled]
            views[1] &= not (views[0] and lw.reads[0] == lw.reads[1])  # a @ a.T runs as syrk
            views[2] &= m // row_tiles(n, lo) > 1  # a one-row tile's attn·v is a gemv
            mu = 0 if lw.w1 is None else lw.w1.shape[1]
            self.runs.append((
                lw, k, lo, row_tiles(n, lo), tuple(views), cut("q", m, lw.wq.shape[2]),
                cut("k", n, lw.wk.shape[2]), cut("v", n, lw.wv.shape[2]),
                cut("heads", n, lw.wo.shape[0]), cut("work", m, lw.writes.stop - lw.writes.start),
                cut("hidden", m, mu) if mu else None, cut("act", m, mu) if mu else None,
                None if self.norm is None else self.norm[:m], self.work[:m]))
        first = self.runs[0][0]
        self.hull = None
        if not weights.norm and first.w1 is None:
            self.hull = slice(min(s.start for s in first.reads), max(s.stop for s in first.reads))


class ForwardBuffers:
    """The arrays ``forward`` writes its intermediates into, and the one
    first-run result it may reuse.

    A decode keeps one set between its steps (``SequenceState.buffers``) and
    leaves one of at most ``decoder._SPARE_BYTES`` to the next decode of its
    model (``ModelWeights.spare_buffers``); decodes running at once never
    share one. Freed after each forward, the arrays were trimmed from the
    heap and faulted back by the next: 2,628 minor page faults per vit1024
    decode-step forward. ``forward(buffers=None)`` allocates a fresh set.

    They are one float64 array of ``nbytes`` bytes, allocated only for new
    weights or more rows than ``rows``, so after a prune a decode writes
    into prefixes of its step-1 arrays. ``segments`` cuts it, each segment
    on a 64-byte line, into ``resid`` (the residual stream, a copy of the
    input), ``norm`` (the ``layer_norm`` output, empty without
    ``weights.norm``), ``work`` (the ``layer_norm`` temporary, the increment
    and the FFN output in turn, rows·d wide), q, k, v and ``heads`` (each as
    wide as the widest layer's), the score ``tiles``, and the FFN's
    ``hidden`` and GELU ``act``, which share one span with q to ``tiles``:
    no forward needs both sets at once. ``tiles`` holds min(rows², B/8 +
    rows) elements for ``_TILE_BYTES`` B, the most a forward of n <= rows
    rows needs: in t tiles it has ceil(n/t)·n <= B/8 + n scores, since t >=
    8n²/B, and one tile only where n² <= B/8. No array holds a forward's
    input or output, nor the stacks a tied run reduces (``_add_times``).
    ``plan(weights, n, first_row)`` cuts the views a forward writes into
    (``_Plan``) once per (n, first_row) and keeps up to ``_PLANS`` of them.

    ``last`` is the plan of the last forward, and ``kept`` the one kept
    first-run result, ``(plan, key, increment, captured rows or None)``, its
    key the bytes of the input columns that run read: at most (n, d) + (n,
    d) + (n, n) elements. ``forward`` says when it is reused. New weights or
    more rows clear both, so no old plan keeps an outgrown array alive.
    """

    def __init__(self):
        self.weights: Optional[ModelWeights] = None
        self.rows = self.nbytes = 0
        self.kept: Optional[tuple] = None
        self.last: Optional[_Plan] = None

    def plan(self, weights: ModelWeights, n: int, first_row: int) -> _Plan:
        if weights is not self.weights or n > self.rows:
            self._allocate(weights, n)
        p = self._plans.get((n, first_row))
        if p is None:
            if len(self._plans) >= _PLANS:
                self._plans.clear()
            p = self._plans[n, first_row] = _Plan(self, n, first_row)
        return p

    def _allocate(self, weights: ModelWeights, rows: int) -> None:
        d, layers = weights.config.embed_dim, weights.layers
        mu = max((lw.w1.shape[1] for lw in layers if lw.w1 is not None), default=0)
        size = dict(resid=rows * d, norm=rows * d if weights.norm else 0, work=rows * d,
                    q=rows * max(lw.wq.shape[2] for lw in layers),
                    k=rows * max(lw.wk.shape[2] for lw in layers),
                    v=rows * max(lw.wv.shape[2] for lw in layers),
                    heads=rows * max(lw.wo.shape[0] for lw in layers),
                    tiles=min(rows * rows, _TILE_BYTES // 8 + rows), hidden=rows * mu,
                    act=rows * mu)
        start, at = {}, 0
        for role in size:
            if role == "hidden":  # never live with the attention's arrays: share their span
                end, at = at, start["q"]
            start[role], at = at, at + -(-size[role] // 8) * 8  # on a 64-byte line
        flat = np.empty(max(end, at))
        self.weights, self.rows, self.nbytes = weights, rows, flat.nbytes
        self.segments = {role: flat[s:s + size[role]] for role, s in start.items()}
        self._plans: dict[tuple[int, int], _Plan] = {}
        self.kept = self.last = None


def _add_times(target: np.ndarray, addend: np.ndarray, k: int) -> None:
    """``target += addend`` k times in a row, bitwise. For k > 1 it is one
    ``np.add.reduce`` over axis 0 of a new (k + 1, ...) stack of ``target``
    and k copies of ``addend``, which numpy adds slice by slice in order, one
    call where the loop makes k. It starts from -0.0, which any x adds to
    as x (numpy's default start, 0.0, turns a -0.0 sum into 0.0). A
    one-element target keeps the loop: numpy sums its reduction pairwise."""
    if k == 1 or target.size == 1:
        for _ in range(k):
            target += addend
        return
    stack = np.empty((k + 1, *target.shape))
    stack[0] = target
    stack[1:] = addend
    np.add.reduce(stack, axis=0, out=target, initial=-0.0)


def _project(a: np.ndarray, w: np.ndarray, scaled: Optional[tuple[slice, slice, float]],
             out: np.ndarray) -> np.ndarray:
    """``a @ w`` into ``out``, or for a scaled identity ``(rows, cols, c)``,
    ``a[:, rows]`` times c into ``out``."""
    if scaled is None:
        return np.matmul(a, w, out=out)
    return np.multiply(a[:, scaled[0]], scaled[2], out=out)


def forward(x: Matrix, weights: ModelWeights, capture: bool = False,
            first_row: int = 0, buffers: Optional[ForwardBuffers] = None
            ) -> tuple[Matrix, Optional[AttentionCapture]]:
    """Bidirectional self-attention over all n rows, returning the outputs of
    rows ``first_row..n-1``: their logits, (n - first_row, vocab), and with
    ``capture`` the layer/head mean of their attention maps, one (n -
    first_row, n) map. Intermediates go by ``out=`` into ``buffers``
    (``ForwardBuffers``), fresh or kept alike; ``x`` is never written.

    Layers run in the runs of ``layer_runs``. Each run computes all n rows
    but one ending at the last layer, which computes its keys and values
    over all n rows and all else over rows ``first_row..n-1``, the only rows
    the output head reads. A run of k positions computes its attention and
    increment once, then adds the increment and each captured tile k times
    in a row (``_add_times``). With one head that is the order of k
    layer-by-layer positions, and q, k and v read none of the channels the
    run writes, so for finite activations it is bitwise the layer-by-layer
    forward, up to the sign of a zero (the copy model's are all >= 0).

    A projection that is c times the identity on one block
    (``LayerWeights.scaled``) runs no product: it is the view ``a[:, rows]``
    where c is 1, else ``a[:, rows]`` times c, and the increment is added
    into only the channels ``wo`` writes. Each output of the dense product
    holds one nonzero term, so for finite inputs without -0.0 that is
    bitwise. c = 1 runs as the multiply where a view would change numpy's
    rounding: k where q is the view of the same channels (``q @ k.T`` would
    be syrk), and v in a layer with a one-row tile (``attn·v`` a gemv).
    Scores are scaled by ``1/sqrt(cfg.head_dim)`` at any head width. Each
    head works through its rows in tiles of at most ``_TILE_BYTES`` of
    scores; BLAS can round a product over a row slice differently, so a
    tiled forward agrees with a one-tile one, and a ``first_row`` forward
    with the tail of a full one, to about 1e-15. Captured rows are summed in
    (layer, head) order as ``pruning.mean_attention`` sums maps. Capture is
    observation-only: the logits are identical with it on or off.

    The first run takes the increment and captured rows of ``buffers.kept``
    instead of computing them when: the model has no ``norm`` and the run no
    FFN (``_Plan.hull``), so they depend on the columns of ``x`` it reads
    alone; ``buffers.last`` is this plan; the entry is this plan's; those
    columns are bitwise its key; and it holds a capture if this forward
    captures. Where the first two hold and the others do not, the run is
    computed and kept. Either way the logits and capture are bitwise equal.
    """
    cfg = weights.config
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.embed_dim:
        raise ValueError(f"input must be (n, {cfg.embed_dim}), got {x.shape}")
    n = x.shape[0]
    if n < 1:
        raise ValueError("need at least one input row")
    if not 0 <= first_row < n:
        raise ValueError(f"first_row {first_row} outside 0..{n - 1}")
    buffers = buffers or ForwardBuffers()
    plan = buffers.plan(weights, n, first_row)
    key = kept = None
    if buffers.last is plan and plan.hull is not None:  # compare with the kept first run
        key = x[:, plan.hull].tobytes()
        entry = buffers.kept
        if entry and entry[0] is plan and entry[1] == key and (entry[3] is not None or not capture):
            kept = entry
    buffers.last = plan
    scale = 1.0 / math.sqrt(cfg.head_dim)
    scores = plan.scores
    total = np.zeros((n - first_row, n)) if capture else None
    h = plan.resid
    h[...] = x  # layer 1's views alias this copy: its run adds into it after its attention
    for (lw, k, lo, layer_tiles, (view_q, view_k, view_v, view_o), q_out, k_out, v_out, heads,
         inc_out, hidden, act, norm_out, work_out) in plan.runs:
        if kept:  # the first run's outputs, as an earlier forward computed them
            inc = kept[2]
            if capture:
                total[...] = kept[3]
        else:
            a_in = layer_norm(h, out=plan.norm, work=plan.work) if weights.norm else h
            sq, sk, sv, so = lw.scaled
            dv = lw.wv.shape[2]
            for hd in range(cfg.heads):
                q = a_in[lo:, sq[0]] if view_q else _project(a_in[lo:], lw.wq[hd], sq, q_out)
                kt = (a_in[:, sk[0]] if view_k else _project(a_in, lw.wk[hd], sk, k_out)).T
                v = a_in[:, sv[0]] if view_v else _project(a_in, lw.wv[hd], sv, v_out)
                c0 = hd * dv
                r1 = lo
                for t in range(1, layer_tiles + 1):
                    r0, r1 = r1, lo + t * (n - lo) // layer_tiles
                    tile = scores[:r1 - r0]
                    np.matmul(q[r0 - lo:r1 - lo], kt, out=tile)
                    tile *= scale
                    attn = softmax_rows(tile, out=tile)
                    if capture and r1 > first_row:
                        c = max(r0, first_row)  # on a view: no copy back into total
                        _add_times(total[c - first_row:r1 - first_row], attn[c - r0:], k)
                    np.matmul(attn, v, out=heads[r0:r1, c0:c0 + dv])
            # a scaled wo reads every head output: its view is heads[lo:] itself
            inc = heads[lo:] if view_o else _project(heads[lo:], lw.wo, so, inc_out)
            if key is not None:
                buffers.kept = (plan, key, inc.copy(), total.copy() if capture else None)
        key = kept = None  # the later runs read what the first one wrote
        h = h[lo:]
        _add_times(h[:, lw.writes], inc, k)  # only these channels change
        if lw.w1 is not None:
            f_in = layer_norm(h, out=norm_out, work=work_out) if weights.norm else h
            f = gelu(np.matmul(f_in, lw.w1, out=hidden), out=act)
            h += np.matmul(f, lw.w2, out=work_out)
    if weights.norm:
        h = layer_norm(h, out=norm_out, work=work_out)
    logits = h @ weights.output_w + weights.output_b
    if not capture:
        return logits, None
    total /= len(weights.layers) * cfg.heads
    return logits, AttentionCapture([[total]], first_row=first_row)


DEFAULT_MAX_PROMPT = 256
DEFAULT_MAX_RESPONSE = 512


def init_random_model(cfg: ModelConfig, seed: int) -> ModelWeights:
    """Seeded random weights with ``norm`` set and bias-free FFNs, scaled so
    pre-norm residual activations stay O(1)."""
    rng = SeededRng(seed)
    d, dv, mu, h, dh = cfg.embed_dim, cfg.vision_dim, cfg.ffn_dim, cfg.heads, cfg.head_dim
    n_pos = cfg.num_patches + DEFAULT_MAX_PROMPT + DEFAULT_MAX_RESPONSE
    resid_scale = 1.0 / np.sqrt(2.0 * cfg.layers)
    layers = []
    for _ in range(cfg.layers):
        layers.append(LayerWeights(
            wq=rng.normal(size=(h, d, dh), scale=1.0 / np.sqrt(d)),
            wk=rng.normal(size=(h, d, dh), scale=1.0 / np.sqrt(d)),
            wv=rng.normal(size=(h, d, dh), scale=1.0 / np.sqrt(d)),
            wo=rng.normal(size=(d, d), scale=resid_scale / np.sqrt(d)),
            w1=rng.normal(size=(d, mu), scale=1.0 / np.sqrt(d)),
            w2=rng.normal(size=(mu, d), scale=resid_scale / np.sqrt(mu)),
        ))
    return ModelWeights(
        config=cfg,
        patch_embed=HashedPatchTable(seed=rng.split(1).integers(0, 2**63), dim=dv),
        projector=rng.normal(size=(dv, d), scale=1.0 / np.sqrt(dv)),
        token_embed=rng.normal(size=(cfg.vocab_size, d)),
        positional=sinusoidal_table(n_pos, d),
        layers=layers,
        output_w=rng.normal(size=(d, cfg.vocab_size), scale=1.0 / np.sqrt(d)),
        output_b=np.zeros(cfg.vocab_size),
        norm=True,
    )


@dataclass(frozen=True)
class CopyTaskVocab:
    """Token id layout shared by the copy model and the pointer-task generator.

    ids: [0, A) answer symbols, [A, A+N) patch-index tokens, A+N the abstain
    token the model emits when the pointed-at patch is gone, then the mask.
    """

    symbols: tuple[str, ...]
    num_patches: int

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"symbols must be distinct, got {self.symbols}")

    @property
    def num_symbols(self) -> int:
        return len(self.symbols)

    def symbol_id(self, symbol: str) -> int:
        return self.symbols.index(symbol)

    def index_id(self, patch: int) -> int:
        if not 0 <= patch < self.num_patches:
            raise ValueError(f"patch index {patch} out of range")
        return self.num_symbols + patch

    @property
    def null_id(self) -> int:
        return self.num_symbols + self.num_patches

    @property
    def mask_id(self) -> int:
        return self.null_id + 1

    @property
    def required_vocab(self) -> int:
        return self.mask_id + 1


# Magnitudes for the analytic construction. Code/flag/fetch gains are large
# enough that every routing softmax saturates (logit gaps > 25 after the
# 1/sqrt(head_dim) scale at desk-scale widths); the abstain margin separates
# a fetched payload (~layers-1) from uniform-attention smear (<2).
_CODE = 20.0
_FLAG_GAIN = 20.0
_FETCH_GAIN = 20.0
_PAYLOAD = 1.0
_ABSTAIN = 4.0
_RAMP_STEP = 0.1


def copy_model_config(patch_grid: tuple[int, int], symbols: Sequence[str]) -> ModelConfig:
    """Smallest ModelConfig that hosts the copy construction for this task family."""
    rows, cols = patch_grid
    n = rows * cols
    a = len(symbols)
    vocab = CopyTaskVocab(tuple(symbols), n).required_vocab
    return ModelConfig(
        layers=12, heads=1, embed_dim=2 * n + 4 + 2 * a, vision_dim=a, ffn_dim=1,
        vocab_size=vocab, patch_grid=(rows, cols), mask_token_id=vocab - 1,
    )


def build_copy_model(patch_grid: tuple[int, int], patch_symbols: Sequence[str]) -> ModelWeights:
    """Analytic one-head weights for the pointer task, sized by ``copy_model_config``.

    Channel plan (d channels): per-patch position codes, pointer codes carried
    by index tokens, a target flag, marker channels for index/mask tokens, a
    response-position ramp, and two payload blocks (visual-side and fetched).

    Each layer is attention-only and stores only the head columns it routes
    through: layer 1 has q/k width n and v width 1, the others q/k width 1
    and v width a; ``norm`` is unset. Every projection is c times the
    identity on one block of channels (``LayerWeights.scaled``), with c = 20
    for layer 1's v and a fetch layer's q and c = 1 for the other six.
    Layers 2..L are one ``LayerWeights`` object, which ``forward`` runs as
    one tied run (``layer_runs``). The config keeps ``ffn_dim = 1``, which
    ``analysis`` prices; the weights carry none. Scores are still scaled by
    ``1/sqrt(d)``, the config's head width. The logits are bitwise those of
    the same weights zero-padded to width d with an all-zero FFN in every
    layer.

    Layer 1 routes each visual token's position code against the prompt's
    pointer code and writes the flag onto the matching visual token. Layers
    2..L route every still-masked row onto the flagged token and accumulate its
    symbol payload, which the output head reads. With L layers the layer/head-
    averaged attention from masked rows onto the target is at least (L-1)/L,
    above 0.9 at the config's L = 12. If no flagged token survives pruning, the
    constant abstain logit wins and the model emits the abstain token. A small
    per-position ramp on the abstain logit makes confidence-ordered decoding
    commit later response positions first, so position 0 resolves last.
    """
    cfg = copy_model_config(patch_grid, patch_symbols)
    vocab = CopyTaskVocab(tuple(patch_symbols), cfg.num_patches)
    n, a, d = cfg.num_patches, vocab.num_symbols, cfg.embed_dim

    # Channel offsets.
    a1 = 0          # [a1, a1+n): position code of each visual token
    a2 = n          # [a2, a2+n): pointer code carried by index tokens
    flag_ch = 2 * n
    idx_mark = 2 * n + 1
    mask_mark = 2 * n + 2
    ramp_ch = 2 * n + 3
    pv = 2 * n + 4          # [pv, pv+a): visual symbol payload
    pr = 2 * n + 4 + a      # [pr, pr+a): fetched payload read by the head

    patch_table = {sym: np.eye(a)[j] for j, sym in enumerate(vocab.symbols)}
    projector = np.zeros((cfg.vision_dim, d))
    for j in range(a):
        projector[j, pv + j] = _PAYLOAD

    token_embed = np.zeros((cfg.vocab_size, d))
    for i in range(n):
        token_embed[vocab.index_id(i), a2 + i] = _CODE
        token_embed[vocab.index_id(i), idx_mark] = 1.0
    token_embed[cfg.mask_token_id, mask_mark] = 1.0

    positional = np.zeros((n + DEFAULT_MAX_PROMPT + DEFAULT_MAX_RESPONSE, d))
    for i in range(n):
        positional[i, a1 + i] = _CODE
    resp_base = _response_base(cfg)
    for p in range(DEFAULT_MAX_RESPONSE):
        positional[resp_base + p, ramp_ch] = _RAMP_STEP * p

    def broadcast_layer() -> LayerWeights:
        wq, wk = np.zeros((1, d, n)), np.zeros((1, d, n))
        wv, wo = np.zeros((1, d, 1)), np.zeros((1, d))
        for i in range(n):
            wq[0, a1 + i, i] = 1.0
            wk[0, a2 + i, i] = 1.0
        wv[0, idx_mark, 0] = _FLAG_GAIN
        wo[0, flag_ch] = 1.0
        return LayerWeights(wq=wq, wk=wk, wv=wv, wo=wo)

    def fetch_layer() -> LayerWeights:
        wq, wk = np.zeros((1, d, 1)), np.zeros((1, d, 1))
        wv, wo = np.zeros((1, d, a)), np.zeros((a, d))
        wq[0, mask_mark, 0] = _FETCH_GAIN
        wk[0, flag_ch, 0] = 1.0
        for j in range(a):
            wv[0, pv + j, j] = 1.0
            wo[j, pr + j] = 1.0
        return LayerWeights(wq=wq, wk=wk, wv=wv, wo=wo)

    output_w = np.zeros((d, cfg.vocab_size))
    for j in range(a):
        output_w[pr + j, j] = 1.0
    output_w[ramp_ch, vocab.null_id] = -1.0
    output_b = np.zeros(cfg.vocab_size)
    output_b[vocab.null_id] = _ABSTAIN

    return ModelWeights(
        config=cfg,
        patch_embed=FixedPatchTable(patch_table),
        projector=projector,
        token_embed=token_embed,
        positional=positional,
        layers=[broadcast_layer()] + [fetch_layer()] * (cfg.layers - 1),
        output_w=output_w,
        output_b=output_b,
    )
