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
    ``spare_buffers`` holds the ``ForwardBuffers`` that finished decodes of
    this model released (``decoder.run_inference``), for later decodes to
    take instead of allocating their own. Their views are cut for the layers
    they first saw, so weights are not to be changed in place once a decode
    has run."""

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


# The per-run arrays of ``ForwardBuffers``, in the order of its run tuples.
_ROLES = ("q", "k", "v", "heads", "work", "hidden", "act")
# The most (n, first_row) plans one ``ForwardBuffers`` keeps: a progressive
# copy8x8 decode cuts 8, at a few microseconds each.
_PLANS = 64


def _rows(view: Optional[np.ndarray], stop: int) -> Optional[np.ndarray]:
    return None if view is None else view[:stop]


class _Plan:
    """What an n-row forward from ``first_row`` writes into, cut from
    ``ForwardBuffers`` once per (n, first_row): ``norm`` (None without
    ``weights.norm``) and ``work`` of n rows, ``resid`` (the rows the first
    run computes), the (rows, n) score tile ``scores``, and ``runs``, one
    tuple per layer run of ``layer_runs``: the layer, k, the first row
    ``lo`` whose output the run computes, its tile count (``row_tiles``),
    which of q, k, v and ``wo`` run as a view (``forward``), its views of q
    (n - lo rows), k, v, ``heads`` (n rows), the increment, the FFN hidden
    layer and GELU, and ``norm`` and ``work`` (n - lo rows), None where the
    buffers hold none. ``hull``, ``kept`` and ``repeat`` serve ``forward``'s
    reuse of the first run."""

    def __init__(self, buffers: "ForwardBuffers", n: int, first_row: int):
        tile_rows = -(-n // row_tiles(n, 0))
        self.scores = buffers.tiles[:tile_rows * n].reshape(tile_rows, n)
        norm = buffers.norm
        self.norm, self.work = _rows(norm, n), buffers.work[:n]
        self.runs, end = [], 0
        for lw, k, q, kk, v, heads, inc, hidden, act in buffers.runs:
            end += k
            lo = first_row if end == len(buffers.weights.layers) else 0
            m = n - lo
            views = [s is not None and s[2] == 1.0 for s in lw.scaled]
            views[1] &= not (views[0] and lw.reads[0] == lw.reads[1])  # a @ a.T runs as syrk
            views[2] &= m // row_tiles(n, lo) > 1  # a one-row tile's attn·v is a gemv
            self.runs.append((lw, k, lo, row_tiles(n, lo), tuple(views), q[:m], kk[:n], v[:n],
                              heads[:n], inc[:m], _rows(hidden, m), _rows(act, m),
                              _rows(norm, m), buffers.work[:m]))
        self.resid = buffers.resid[:n - self.runs[0][2]]  # the rows of the first write
        first = self.runs[0][0]
        self.hull = None  # the channels of x the first run's outputs depend on, if only those
        if not buffers.weights.norm and first.w1 is None:
            self.hull = slice(min(s.start for s in first.reads), max(s.stop for s in first.reads))
        self.kept = None  # (x[:, hull] as bytes, the run's increment, its captured rows or None)
        self.repeat = False  # whether the buffers' last forward ran on this plan too


class ForwardBuffers:
    """Arrays ``forward`` writes its intermediates into, kept by a decode
    between its steps (``SequenceState.buffers``) and, when small, passed
    to the next decode of its model (``ModelWeights.spare_buffers``). Freed
    after each forward, they were trimmed from the heap and faulted back by
    the next: 2,628 minor page faults per vit1024 decode-step forward.

    ``plan(weights, n, first_row)`` returns the views a forward of n rows
    from ``first_row`` writes into (``_Plan``), cut once per (n, first_row)
    and kept, up to ``_PLANS`` of them. Arrays are allocated only for new
    weights or more rows than they hold, so after a prune a decode writes
    into prefixes of its step-1 arrays. They are (rows, d) ``resid`` (the
    residual stream), ``norm`` (the ``layer_norm`` output, None without
    ``weights.norm``) and ``work``, the flat score array ``tiles``, and per
    layer run of ``layer_runs`` the layer, k and its (rows, ·) views of q,
    k, v, ``heads``, the increment, the FFN hidden layer and GELU; None for
    an FFN the layer lacks. ``work`` holds the ``layer_norm`` temporary,
    the increment and the FFN output in turn. All lie in one array of
    ``nbytes`` bytes, in which the FFN's arrays share one span with q, k, v,
    ``heads`` and ``tiles``, as no forward needs both at once. ``tiles`` holds min(rows², B/8 + rows)
    elements for ``_TILE_BYTES`` B, the most a forward of n <= rows rows
    needs: in t tiles it has ceil(n/t)·n <= B/8 + n scores, since t >=
    8n²/B, and one tile only where n² <= B/8. No array holds a forward's
    input or is returned by it, nor the stacks a tied run reduces
    (``_add_times``), which ``forward`` allocates per call. The plan of the
    last forward also keeps that forward's first layer run, where
    ``forward`` may reuse it: the copied columns of ``x`` it depends on, its
    increment and its captured rows, at most (n, d) + (n, d) + (n, n)
    elements. A forward on another plan drops them.
    """

    def __init__(self):
        self.weights: Optional[ModelWeights] = None
        self.rows = self.nbytes = 0
        self._last: Optional[_Plan] = None

    def plan(self, weights: ModelWeights, n: int, first_row: int) -> _Plan:
        if weights is not self.weights or n > self.rows:
            self._allocate(weights, n)
        p = self._plans.get((n, first_row))
        if p is None:
            if len(self._plans) >= _PLANS:
                self._plans.clear()
            p = self._plans[n, first_row] = _Plan(self, n, first_row)
        last, self._last = self._last, p
        p.repeat = p is last
        if last is not None and not p.repeat:  # only the plan in use keeps what forward reuses
            last.kept = None
        return p

    def _allocate(self, weights: ModelWeights, rows: int) -> None:
        d = weights.config.embed_dim
        runs = layer_runs(weights)
        # per run: the widths of q, k, v, heads, the increment, the FFN hidden layer
        # and GELU; None for an FFN the layer lacks
        widths = [(lw.wq.shape[2], lw.wk.shape[2], lw.wv.shape[2], lw.wo.shape[0],
                   lw.writes.stop - lw.writes.start, mu, mu)
                  for lw, _ in runs for mu in [None if lw.w1 is None else lw.w1.shape[1]]]
        size = dict(zip(_ROLES, (rows * max(c or 0 for c in role) for role in zip(*widths))),
                    resid=rows * d, norm=rows * d if weights.norm else 0,
                    tiles=min(rows * rows, _TILE_BYTES // 8 + rows))
        size["work"] = max(size["work"], rows * d)  # the increment's segment is work's
        start, at = {}, 0
        for role in ("resid", "norm", "work", "q", "k", "v", "heads", "tiles", "hidden", "act"):
            if role == "hidden":  # never live with the attention's arrays: share their span
                end, at = at, start["q"]
            start[role], at = at, at + -(-size[role] // 8) * 8  # on a 64-byte line
        flat = np.empty(max(end, at))
        segment = {role: flat[s:s + size[role]] for role, s in start.items()}
        self.weights, self.rows, self.tiles = weights, rows, segment["tiles"]
        self.nbytes = flat.nbytes
        self._plans: dict[tuple[int, int], _Plan] = {}
        self.resid = segment["resid"].reshape(rows, d)
        self.norm = segment["norm"].reshape(rows, d) if weights.norm else None
        self.work = segment["work"][:rows * d].reshape(rows, d)
        self.runs = [(lw, k, *[None if c is None else segment[role][:rows * c].reshape(rows, c)
                               for role, c in zip(_ROLES, run_cols)])
                     for (lw, k), run_cols in zip(runs, widths)]


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
    rows ``first_row..n-1``, the rows the caller reads: their logits as an
    (n - first_row, vocab) array and, with ``capture``, the layer/head mean
    of their attention maps as one (n - first_row, n) map.

    Layers are walked in the runs of ``layer_runs``. Every run computes all
    n rows but the one ending at the last layer, which computes its queries,
    attention, out-projection, FFN, final norm and output head over rows
    ``first_row..n-1`` only, and its keys and values over all n rows; with
    ``first_row = 0`` that is the full forward. A run of k positions
    computes its attention and its increment ``heads @ wo`` once, then adds
    the increment k times in a row into the channels ``wo`` writes and, with
    ``capture``, each captured tile k times in a row, for k > 1 each as one
    reduction (``_add_times``): it has one head, so that is the order of k
    layer-by-layer positions. Its q, k and v read
    none of those channels and the output head reads only rows
    ``first_row..n-1``, so no row above ``first_row`` that a last run would
    write is ever read. For finite activations a run is bitwise
    the layer-by-layer forward whose positions from the run's start on
    compute the run's rows, up to the sign of a zero (the copy model's
    activations are all >= 0). The residual stream is copied into
    ``buffers`` at its first write and updated in place from then on, so
    ``x`` itself is never written.

    A dense projection is a product over all d channels. One that is c
    times the identity on one block (``LayerWeights.scaled``) runs no
    product: it is the view ``a[:, rows]`` where c is 1, and otherwise
    ``a[:, rows]`` times c; the run adds the increment into only the
    channels ``wo`` writes. For finite inputs without -0.0 that is bitwise
    the product, whose every output holds one nonzero term and whose other
    channels add zeros. A view is of ``x`` itself in layer 1 without norm;
    nothing writes it. c = 1 runs as the multiply where a view would change
    numpy's rounding of what follows: k where q is the view of the same
    channels (``q @ k.T`` would run as syrk), and v in a layer with a
    one-row tile (whose ``attn·v`` is a vector product).

    Each layer's head widths are its arrays' (``LayerWeights``); scores are
    scaled by ``1/sqrt(cfg.head_dim)`` at any width. A layer with no FFN
    (``w1`` None) runs attention only: its FFN sublayer, norm included, is
    skipped, not run on zero weights. Each head works through its rows in tiles
    (``_TILE_BYTES``): the tile's ``q·kᵀ`` rows are scaled
    and normalised in place in one reused score buffer, and the tile's
    ``attn·v`` goes into that head's columns of the layer's (n, heads·w_v)
    buffer. At n ≤ 362 there is one tile; the last layer's rows are
    cut into proportionally fewer tiles of the same bound. Tiles differ in
    size by at most one row. BLAS can round a product over a row slice
    differently from the product over all rows, so a tiled forward agrees
    with a one-tile one, and a ``first_row`` forward with the tail of a full
    one, to about 1e-15, and bitwise only at some shapes. Captured rows are
    summed in (layer, head) order as ``pruning.mean_attention`` sums maps,
    and are not kept. Capture is observation-only: logits are identical with
    it on or off.

    Every intermediate of n rows or more (the norm output and its
    temporary, q, k, v, the score tile, ``heads``, the increment, the FFN
    hidden layer, its GELU and its output, the residual stream) goes by
    ``out=`` into the views of ``buffers.plan(weights, n, first_row)``
    (``ForwardBuffers``); ``buffers=None`` allocates a fresh set for this
    call. Either way the arithmetic is the same, so the logits and the
    capture are bitwise equal. Only the logits, the capture and, in a run
    of k > 1, the stacks ``_add_times`` reduces are new arrays: (k + 1)
    copies of the rows added, 56 KiB for a copy8x8 tile whose 8 response
    rows are captured.

    A forward on the plan of the same ``buffers``' last forward
    (``_Plan.repeat``), in a model without ``norm`` whose first run has no
    FFN, compares the columns of ``x`` that run's q, k and v read (the hull
    of ``lw.reads``, ``_Plan.hull``), as bytes, with those a forward on
    this plan kept. The run's increment and captured rows depend on those
    columns alone, so where they are bitwise equal the run takes the kept
    increment and rows and skips its products, score tiles, softmax and
    ``attn·v``; it still copies ``x`` into the residual stream, adds the
    increment k times and writes the rows into the capture, so the logits
    and the capture are bitwise those of the full run. Otherwise, or where
    the kept entry holds no capture and this forward captures, the run is
    computed and kept: its columns, increment and captured rows. A new plan
    keeps nothing, and a forward whose buffers ran another plan last keeps
    nothing and drops what that plan kept: a progressive decode, whose n
    changes every step, never compares or copies, and neither does a
    forward with ``norm``, whose first run reads ``layer_norm(x)``. A
    copy-model commit writes only ``mask_mark``, a channel the broadcast
    layer does not read, so a baseline decode reuses that layer from its
    third step on, or its second on buffers an earlier decode of its shape
    left. ``buffers=None`` keeps nothing.
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
    plan = (buffers or ForwardBuffers()).plan(weights, n, first_row)
    scale = 1.0 / math.sqrt(cfg.head_dim)
    h = x
    scores = plan.scores
    total = np.zeros((n - first_row, n)) if capture else None
    key = kept = None
    if plan.repeat and plan.hull is not None:  # the first run's inputs against the kept ones
        key = x[:, plan.hull].tobytes()
        if plan.kept and plan.kept[0] == key and (plan.kept[2] is not None or not capture):
            kept = plan.kept
    # lo: the first row whose output the run computes
    for (lw, k, lo, layer_tiles, (view_q, view_k, view_v, view_o), q_out, k_out, v_out, heads,
         inc_out, hidden, act, norm_out, work_out) in plan.runs:
        if kept:  # the first run's outputs, as an earlier forward computed them
            inc = kept[1]
            if capture:
                total[...] = kept[2]
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
                plan.kept = (key, inc.copy(), total.copy() if capture else None)
        key = kept = None  # the later runs read what the first one wrote
        if h is x:  # the first write copies x, which is never written
            h = plan.resid
            h[...] = x[lo:]
        else:
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
    and v width a, no layer has an FFN, and ``norm`` is unset. Every
    projection is c times the identity on one block of channels
    (``LayerWeights.scaled``), so ``forward`` runs no product for it: layer
    1's q and k read n channels each, its v one (c = 20) and its ``wo``
    writes one (the flag); a fetch layer's q (c = 20) and k read one each,
    its v the a visual payload channels and its ``wo`` writes the a fetched
    ones. The other six have c = 1 and run as views. The activations are
    all >= 0, so that is bitwise the product. Layers 2..L are one
    ``LayerWeights`` object whose one head writes a span none of its reads
    meet (``ties``), so ``forward`` runs them as one run (``layer_runs``): a
    forward is the broadcast layer over all n rows, then one fetch layer
    over rows ``first_row..n-1`` and L - 2 more adds of its increment into
    those rows. The config keeps ``ffn_dim = 1``, which ``analysis``
    prices; the weights carry none. Scores are still scaled by
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
