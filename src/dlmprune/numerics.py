"""Dense float64 kernels and a reproducible counter-based RNG.

Matrices are plain 2-D ``numpy.float64`` arrays in row-major order. All
functions are pure unless given ``out=`` (or ``work=``); without it nothing
here mutates its inputs. The kernels work in place on the array they return,
so they allocate few temporaries of their input's size, and given ``out=``
and ``work=`` none: only per-row reductions of one column.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# 2-D float64 array; kept as an alias so signatures document intent.
Matrix = np.ndarray


def softmax_rows(m: Matrix, out: Optional[Matrix] = None) -> Matrix:
    """Row-wise softmax with max-subtraction, so huge logits never overflow.

    ``out`` receives the result, following numpy's ``out=`` convention:
    ``softmax_rows(m, out=m)`` normalises a float64 array in place.
    """
    m = np.asarray(m, dtype=np.float64)
    e = np.subtract(m, m.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_row_max(m: Matrix) -> np.ndarray:
    """The largest entry of each row of ``softmax_rows(m)``, bitwise, without
    dividing every entry: that entry is ``exp(0) / s = 1 / s`` for the row's
    sum ``s``, since division by ``s`` is monotone."""
    m = np.asarray(m, dtype=np.float64)
    e = np.subtract(m, m.max(axis=-1, keepdims=True))
    np.exp(e, out=e)
    return 1.0 / e.sum(axis=-1)


def layer_norm(v: np.ndarray, out: Optional[np.ndarray] = None,
               work: Optional[np.ndarray] = None) -> np.ndarray:
    """Standardise the last axis to zero mean / unit variance, with eps 1e-5.

    Accepts a single vector or a stack of row vectors. Bitwise equal to
    ``(v - v.mean(-1)) / sqrt(v.var(-1) + 1e-5)`` (keepdims), without the
    Python-level wrappers of ``np.mean`` and ``np.var``. The result goes
    into ``out`` and the squared deviations into ``work``, both of ``v``'s
    shape, when given (``work`` must not be ``out``); else into new arrays.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[-1]
    c = np.subtract(v, v.sum(axis=-1, keepdims=True) / n, out=out)
    var = np.multiply(c, c, out=work).sum(axis=-1, keepdims=True) / n
    var += 1e-5
    c /= np.sqrt(var, out=var)
    return c


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
