"""Toy vision-language transformer with inspectable bidirectional attention.

Two weight constructions share one forward path:

* ``init_random_model`` — seeded random weights with pre-norm residual layers,
  used for schedule, bookkeeping, and wall-clock experiments.
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


@dataclass
class LayerWeights:
    wq: np.ndarray  # (heads, d, head_dim)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray  # (d, d), applied to the concatenated head outputs
    w1: np.ndarray  # (d, ffn_dim)
    b1: np.ndarray
    w2: np.ndarray  # (ffn_dim, d)
    b2: np.ndarray
    norm1: Optional[tuple[np.ndarray, np.ndarray]] = None  # (gain, bias) or identity skip
    norm2: Optional[tuple[np.ndarray, np.ndarray]] = None


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
    config: ModelConfig
    patch_embed: object  # anything with .vector(symbol) -> (vision_dim,)
    projector: np.ndarray  # (vision_dim, d)
    token_embed: np.ndarray  # (vocab, d)
    positional: np.ndarray  # (positions, d); segments use disjoint base offsets
    layers: list[LayerWeights] = field(default_factory=list)
    final_norm: Optional[tuple[np.ndarray, np.ndarray]] = None
    output_w: np.ndarray = None
    output_b: np.ndarray = None


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


def _embed_tokens(ids: Sequence[int], weights: ModelWeights, base: int, what: str) -> Matrix:
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if ids.size and (ids.min() < 0 or ids.max() >= weights.config.vocab_size):
        raise ValueError(f"{what} token id outside vocab of {weights.config.vocab_size}")
    if base + ids.size > weights.positional.shape[0]:
        raise ValueError(f"{what} of length {ids.size} exceeds positional capacity")
    return weights.token_embed[ids] + weights.positional[base : base + ids.size]


def embed_prompt(tokens: Sequence[int], weights: ModelWeights) -> Matrix:
    """Token embeddings plus prompt-segment position offsets; empty prompts are legal."""
    return _embed_tokens(tokens, weights, weights.config.num_patches, "prompt")


def embed_response(ids: Sequence[int], weights: ModelWeights) -> Matrix:
    """Response-row embeddings; masked positions carry the mask token id."""
    return _embed_tokens(ids, weights, weights.config.num_patches + DEFAULT_MAX_PROMPT,
                         "response")


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

    Layers 1..L-1 run over every row, and so do the last layer's keys and
    values. The last layer's queries, attention, out-projection, FFN, final
    norm and output head run over rows ``first_row..n-1`` only; with
    ``first_row = 0`` that is the full forward.

    Each head works through its rows in tiles (``_TILE_BYTES``): the tile's
    ``q·kᵀ`` rows are scaled and normalised in place in one reused score
    buffer, and the tile's ``attn·v`` goes into that head's columns of one
    (n, d) buffer. At n ≤ 362 there is one tile; the last layer's rows are
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
    dh = cfg.head_dim
    scale = 1.0 / math.sqrt(dh)
    tiles = -(-8 * n * n // _TILE_BYTES)
    h = x
    scores = np.empty((-(-n // tiles), n))
    heads = np.empty((n, cfg.embed_dim))  # every head's attn·v, side by side
    total = np.zeros((n - first_row, n)) if capture else None
    last = len(weights.layers) - 1
    for li, lw in enumerate(weights.layers):
        lo = first_row if li == last else 0  # first row whose output this layer computes
        layer_tiles = -(-(n - lo) * tiles // n)
        a_in = layer_norm(h, *lw.norm1) if lw.norm1 is not None else h
        for hd in range(cfg.heads):
            q = a_in[lo:] @ lw.wq[hd]
            kt = (a_in @ lw.wk[hd]).T
            v = a_in @ lw.wv[hd]
            c0 = hd * dh
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
                    rows += attn[c - r0:]  # on a view: no copy back into total
                np.matmul(attn, v, out=heads[r0:r1, c0:c0 + dh])
        h = h[lo:] + heads[lo:] @ lw.wo
        f_in = layer_norm(h, *lw.norm2) if lw.norm2 is not None else h
        h = h + gelu(f_in @ lw.w1 + lw.b1) @ lw.w2 + lw.b2
    if weights.final_norm is not None:
        h = layer_norm(h, *weights.final_norm)
    logits = h @ weights.output_w + weights.output_b
    if not capture:
        return logits, None
    total /= len(weights.layers) * cfg.heads
    return logits, AttentionCapture([[total]], first_row=first_row)


DEFAULT_MAX_PROMPT = 256
DEFAULT_MAX_RESPONSE = 512


def init_random_model(cfg: ModelConfig, seed: int) -> ModelWeights:
    """Seeded random weights, scaled so pre-norm residual activations stay O(1)."""
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
            b1=np.zeros(mu),
            w2=rng.normal(size=(mu, d), scale=resid_scale / np.sqrt(mu)),
            b2=np.zeros(d),
            norm1=(np.ones(d), np.zeros(d)),
            norm2=(np.ones(d), np.zeros(d)),
        ))
    return ModelWeights(
        config=cfg,
        patch_embed=HashedPatchTable(seed=rng.split(1).integers(0, 2**63), dim=dv),
        projector=rng.normal(size=(dv, d), scale=1.0 / np.sqrt(dv)),
        token_embed=rng.normal(size=(cfg.vocab_size, d)),
        positional=sinusoidal_table(n_pos, d),
        layers=layers,
        final_norm=(np.ones(d), np.zeros(d)),
        output_w=rng.normal(size=(d, cfg.vocab_size), scale=1.0 / np.sqrt(d)),
        output_b=np.zeros(cfg.vocab_size),
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
    resp_base = n + DEFAULT_MAX_PROMPT
    for p in range(DEFAULT_MAX_RESPONSE):
        positional[resp_base + p, ramp_ch] = _RAMP_STEP * p

    def attention_only_layer(wq, wk, wv, wo) -> LayerWeights:
        return LayerWeights(
            wq=wq, wk=wk, wv=wv, wo=wo,
            w1=np.zeros((d, cfg.ffn_dim)), b1=np.zeros(cfg.ffn_dim),
            w2=np.zeros((cfg.ffn_dim, d)), b2=np.zeros(d),
            norm1=None, norm2=None,
        )

    def broadcast_layer() -> LayerWeights:
        wq, wk, wv = (np.zeros((1, d, d)) for _ in range(3))
        wo = np.zeros((d, d))
        for i in range(n):
            wq[0, a1 + i, i] = 1.0
            wk[0, a2 + i, i] = 1.0
        wv[0, idx_mark, 0] = _FLAG_GAIN
        wo[0, flag_ch] = 1.0
        return attention_only_layer(wq, wk, wv, wo)

    def fetch_layer() -> LayerWeights:
        wq, wk, wv = (np.zeros((1, d, d)) for _ in range(3))
        wo = np.zeros((d, d))
        wq[0, mask_mark, 0] = _FETCH_GAIN
        wk[0, flag_ch, 0] = 1.0
        for j in range(a):
            wv[0, pv + j, 1 + j] = 1.0
            wo[1 + j, pr + j] = 1.0
        return attention_only_layer(wq, wk, wv, wo)

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
        layers=[broadcast_layer()] + [fetch_layer() for _ in range(cfg.layers - 1)],
        final_norm=None,
        output_w=output_w,
        output_b=output_b,
    )
