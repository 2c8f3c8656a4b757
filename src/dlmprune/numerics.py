"""Dense float64 kernels and a reproducible counter-based RNG.

Matrices are plain 2-D ``numpy.float64`` arrays in row-major order. All
functions are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import numpy as np

# 2-D float64 array; kept as an alias so signatures document intent.
Matrix = np.ndarray


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax with max-subtraction, so huge logits never overflow."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(v: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance, then apply gain and bias.

    Accepts a single vector or a stack of row vectors.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = np.asarray(v, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if gain.shape != (v.shape[-1],) or bias.shape != (v.shape[-1],):
        raise ValueError("gain/bias length must match the normalized axis")
    mean = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    return (v - mean) / np.sqrt(var + eps) * gain + bias


class SeededRng:
    """Deterministic stream of draws backed by the Philox counter-based generator.

    Philox is keyed from a ``SeedSequence``, which makes streams bit-reproducible
    across platforms and cheap to split: ``split(key)`` derives an independent
    child stream without consuming draws from the parent. One instance must not
    be shared between concurrent consumers.
    """

    def __init__(self, seed: int):
        self._seq = np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    @classmethod
    def _from_sequence(cls, seq: np.random.SeedSequence) -> "SeededRng":
        rng = cls.__new__(cls)
        rng._seq = seq
        rng._gen = np.random.Generator(np.random.Philox(seq))
        return rng

    def split(self, key: int) -> "SeededRng":
        """Independent child stream; the same (seed, key) always yields the same child."""
        child = np.random.SeedSequence(
            entropy=self._seq.entropy, spawn_key=tuple(self._seq.spawn_key) + (int(key),)
        )
        return SeededRng._from_sequence(child)

    def random(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._gen.random(size=size)

    def normal(self, size=None, scale: float = 1.0):
        return self._gen.normal(0.0, scale, size=size)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def subset(self, n: int, k: int) -> np.ndarray:
        """Uniform k-subset of range(n), returned in ascending order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} of {n}")
        picked = self._gen.choice(n, size=k, replace=False)
        return np.sort(picked)
