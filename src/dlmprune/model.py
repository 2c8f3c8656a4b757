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


def _span(used: np.ndarray, per_column: np.ndarray) -> slice:
    """The channel span a projection runs over. For a routing projection,
    whose every column holds at most one nonzero weight (``per_column``
    counts them), that is the smallest span holding its ``used`` channels,
    ``slice(0, 0)`` if it uses none; for any other, all d channels,
    ``slice(0, d)``."""
    if (per_column > 1).any():
        return slice(0, used.size)
    channels = np.flatnonzero(used)
    return slice(int(channels[0]), int(channels[-1]) + 1) if channels.size else slice(0, 0)


@dataclass
class LayerWeights:
    """One layer's weights. Its head widths are those of its arrays: q/k width
    ``w = wq.shape[2]`` and v width ``w_v = wv.shape[2]``, which need not equal
    ``config.head_dim`` (the copy model stores only the columns it routes);
    ``forward`` scales scores by ``1/sqrt(config.head_dim)`` whatever they
    are. An FFN is ``w1`` and ``w2`` together; an attention-only layer has
    neither, and ``forward`` skips its FFN sublayer.

    Shapes are checked once, here, and so is what the nonzero weights
    imply. A channel is read where a row of ``wq``, ``wk`` or ``wv`` is
    nonzero and written where a column of ``wo`` is. ``reads`` (q, k, v)
    and ``writes`` (``wo``) are each projection's channel span (``_span``):
    for a routing projection, whose every column holds at most one nonzero
    weight, the smallest span holding the channels it reads or writes; all
    d channels for any other. ``spanned`` holds ``wq``, ``wk``, ``wv`` and
    ``wo`` cut to their spans, as views. ``ties`` says whether consecutive
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
    reads: tuple[slice, ...] = field(init=False, repr=False)  # q, k, v
    writes: slice = field(init=False, repr=False)
    spanned: tuple[np.ndarray, ...] = field(init=False, repr=False)  # wq, wk, wv, wo
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
        read = [m != 0 for m in (self.wq, self.wk, self.wv)]
        written = self.wo != 0
        self.reads = tuple(_span(nonzero.any(axis=(0, 2)), nonzero.sum(axis=1))
                           for nonzero in read)
        self.writes = w = _span(written.any(axis=0), written.sum(axis=0))
        self.spanned = tuple(m[:, s] for m, s in zip(
            (self.wq, self.wk, self.wv, self.wo), (*self.reads, w)))
        self.ties = self.w1 is None and heads == 1 and all(
            w.stop <= r.start or r.stop <= w.start for r in self.reads)


class HashedPatchTable:
    """Per-symbol embedding derived from (seed, sha256(symbol)); no fixed alphabet."""

    def __init__(self, seed: int, dim: int):
        self.dim = int(dim)
        self._parent = SeededRng(int(seed))  # split() draws nothing, so one parent serves all

    def vector(self, symbol: str) -> np.ndarray:
        digest = hashlib.sha256(symbol.encode("utf-8")).digest()
        key = int.from_bytes(digest[:8], "little")
        return self._parent.split(key).normal(size=self.dim)


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
    gain or bias) before each sublayer and before the output head."""

    config: ModelConfig
    patch_embed: object  # anything with .vector(symbol) -> (vision_dim,)
    projector: np.ndarray  # (vision_dim, d)
    token_embed: np.ndarray  # (vocab, d)
    positional: np.ndarray  # (positions, d); segments use disjoint base offsets
    layers: list[LayerWeights]
    output_w: np.ndarray  # (d, vocab)
    output_b: np.ndarray  # (vocab,)
    norm: bool = False


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


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximate GELU, ``0.5x(1 + tanh(c(x + 0.044715x^3)))``.

    The cube is ``x*x*x`` (``x**3`` calls libm ``pow``, ~40x slower), so the
    result differs from the ``x**3`` form by a few ulp; the chain runs in
    place on one fresh array and ``x`` is left unchanged.
    """
    t = x * x
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


def forward(x: Matrix, weights: ModelWeights, capture: bool = False,
            first_row: int = 0) -> tuple[Matrix, Optional[AttentionCapture]]:
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
    the increment k times into the channels ``wo`` writes and, with
    ``capture``, each captured tile k times in a row: it has one head, so
    that is the order of k layer-by-layer positions. Its q, k and v read
    none of those channels and the output head reads only rows
    ``first_row..n-1``, so no row above ``first_row`` that a last run would
    write is ever read. For finite activations a run is bitwise
    the layer-by-layer forward whose positions from the run's start on
    compute the run's rows, up to the sign of a zero (the copy model's
    activations are all >= 0). The residual stream is a new array from its
    first write on, so ``x`` itself is never written.

    Each projection runs over its channel span (``LayerWeights.spanned``),
    all d channels unless it routes: q, k and v are ``a_in[:, span] @
    w[span]``, and the out-projection computes only its written columns,
    which every run adds k times into the same channels of a new copy of
    ``h``. Every output of a routing projection holds at most one nonzero
    term, so this is bitwise the full-width product, and the other channels
    keep ``h`` itself where the full form adds zeros: bitwise the same
    unless ``h`` holds -0.0.

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
    scale = 1.0 / math.sqrt(cfg.head_dim)
    tiles = -(-8 * n * n // _TILE_BYTES)
    h = x
    scores = np.empty((-(-n // tiles), n))
    total = np.zeros((n - first_row, n)) if capture else None
    end = 0
    for lw, k in layer_runs(weights):
        end += k
        lo = first_row if end == len(weights.layers) else 0  # first row whose output it computes
        layer_tiles = -(-(n - lo) * tiles // n)
        a_in = layer_norm(h) if weights.norm else h
        a_q, a_k, a_v = [a_in[:, s] for s in lw.reads]
        wq, wk, wv, wo = lw.spanned
        dv = wv.shape[2]
        heads = np.empty((n, cfg.heads * dv))  # every head's attn·v, side by side
        for hd in range(cfg.heads):
            q = a_q[lo:] @ wq[hd]
            kt = (a_k @ wk[hd]).T
            v = a_v @ wv[hd]
            c0 = hd * dv
            r1 = lo
            for t in range(1, layer_tiles + 1):
                r0, r1 = r1, lo + t * (n - lo) // layer_tiles
                tile = scores[:r1 - r0]
                np.matmul(q[r0 - lo:r1 - lo], kt, out=tile)
                tile *= scale
                attn = softmax_rows(tile, out=tile)
                if capture and r1 > first_row:
                    c = max(r0, first_row)
                    rows = total[c - first_row:r1 - first_row]
                    for _ in range(k):
                        rows += attn[c - r0:]  # on a view: no copy back into total
                np.matmul(attn, v, out=heads[r0:r1, c0:c0 + dv])
        inc = heads[lo:] @ wo
        h = h[lo:].copy()  # only the written channels change, in a new array
        written = h[:, lw.writes]
        for _ in range(k):
            written += inc
        if lw.w1 is not None:
            f_in = layer_norm(h) if weights.norm else h
            h = h + gelu(f_in @ lw.w1) @ lw.w2
    if weights.norm:
        h = layer_norm(h)
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
    projection column holds at most one nonzero weight, so every projection
    routes and ``forward`` runs it over only its channel span
    (``LayerWeights.reads`` and ``writes``): layer 1's q and k read n
    channels each, its v one and its ``wo`` writes one (the flag); a fetch
    layer's q and k read one each, its v the a visual payload channels and
    its ``wo`` writes the a fetched ones. Layers 2..L are one
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
