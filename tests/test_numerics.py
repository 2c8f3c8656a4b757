import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlmprune.model import gelu
from dlmprune.numerics import SeededRng, layer_norm, softmax_row_max, softmax_rows


# Textbook forms of the kernels: the references the in-place kernels are held to.
def ref_softmax(m):
    e = np.exp(m - m.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def ref_layer_norm(v):
    return (v - v.mean(-1, keepdims=True)) / np.sqrt(v.var(-1, keepdims=True) + 1e-5)


def ref_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))


class TestKernelsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.one_of(st.none(), st.integers(1, 8)), cols=st.integers(1, 300),
           exponent=st.floats(-3, 6), seed=st.integers(0, 2**32 - 1))
    def test_random_inputs(self, rows, cols, exponent, seed):
        rng = SeededRng(seed)
        shape = (cols,) if rows is None else (rows, cols)
        m = rng.normal(size=shape, scale=10.0 ** exponent)
        before = m.copy()

        np.testing.assert_array_equal(softmax_rows(m), ref_softmax(before))
        np.testing.assert_array_equal(layer_norm(m), ref_layer_norm(before))
        np.testing.assert_allclose(gelu(m), ref_gelu(before), rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(m, before)  # default calls are pure

        buf = m.copy()
        out = softmax_rows(buf, out=buf)
        assert out is buf
        np.testing.assert_array_equal(buf, ref_softmax(before))
        np.testing.assert_array_equal(softmax_rows(m, out=np.empty(shape)), ref_softmax(before))


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_closed_form(self):
        out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_shift_invariance_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_rows_sum_to_one(self):
        rng = SeededRng(2)
        for _ in range(50):
            m = rng.normal(size=(5, 7), scale=200.0)
            sums = softmax_rows(m).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)
            assert np.all(softmax_rows(m) >= 0.0)

    def test_extreme_magnitudes(self):
        m = np.array([[1e8, -1e8, 0.0], [-745.0, 710.0, 0.0]])
        out = softmax_rows(m)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


class TestSoftmaxRowMax:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 8), cols=st.integers(1, 40), exponent=st.floats(-5, 300),
           ties=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_is_the_largest_softmax_entry_bitwise(self, rows, cols, exponent, ties, seed):
        # magnitudes from 1e-5 to 1e300; `ties` columns take their row's maximum
        rng = SeededRng(seed)
        m = rng.normal(size=(rows, cols), scale=10.0 ** exponent)
        for col in rng.integers(0, cols, size=ties):
            m[:, col] = m.max(axis=1)
        before = m.tobytes()
        assert softmax_row_max(m).tobytes() == softmax_rows(m).max(axis=1).tobytes()
        assert m.tobytes() == before

    def test_equal_rows_and_extreme_gaps(self):
        m = np.array([[3.0, 3.0, 3.0], [1e300, -1e300, 0.0], [1e-5, 0.0, -1e-5]])
        assert softmax_row_max(m).tobytes() == softmax_rows(m).max(axis=1).tobytes()
        assert softmax_row_max(m)[:2].tolist() == [1.0 / 3.0, 1.0]


class TestLayerNorm:
    def test_constant_vector(self):
        out = layer_norm(np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-6)

    def test_hand_computation(self):
        out = layer_norm(np.array([0.0, 2.0]))
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-5)

    def test_row_stack(self):
        rng = SeededRng(3)
        m = rng.normal(size=(4, 6))
        stacked = layer_norm(m)
        for i in range(4):
            np.testing.assert_allclose(stacked[i], layer_norm(m[i]))

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1.0, 1e3])
    def test_eps_is_fixed_at_1e_5(self, scale):
        # each row comes out with mean 0 and variance var / (var + 1e-5)
        m = SeededRng(4).normal(size=(3, 64), scale=scale)
        var = m.var(-1)
        out = layer_norm(m)
        np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(-1), var / (var + 1e-5), rtol=1e-9)

    @pytest.mark.parametrize("shape", [(1,), (2,), (7,), (3, 5), (4, 164), (2, 3, 8)])
    def test_bitwise_the_unit_gain_zero_bias_form(self, shape):
        # dropping a gain of ones and a bias of zeros changes no bit
        m = SeededRng(5).normal(size=shape, scale=3.0)
        d = shape[-1]
        want = ref_layer_norm(m) * np.ones(d) + np.zeros(d)
        np.testing.assert_array_equal(layer_norm(m), want)


class TestUfuncBufferSize:
    """A decode runs with numpy's ufunc buffer at 512 elements
    (``decoder._UFUNC_BUFSIZE``); the kernels give the same bits at that
    size as at numpy's default 8,192, with rows shorter and longer than the
    buffer, and with ``out=``/``work=`` as without."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 24), cols=st.integers(1, 1100), seed=st.integers(0, 2**16),
           scale=st.sampled_from([1e-3, 1.0, 30.0]))
    def test_softmax_and_layer_norm_are_bitwise_at_512_and_8192(self, rows, cols, seed, scale):
        m = SeededRng(seed).normal(size=(rows, cols), scale=scale)
        seen = {}
        for size in (512, 8192):
            old = np.setbufsize(size)
            try:
                seen[size] = [softmax_rows(m), softmax_rows(m, out=np.empty_like(m)),
                              layer_norm(m), layer_norm(m, out=np.empty_like(m),
                                                         work=np.empty_like(m))]
            finally:
                np.setbufsize(old)
        softmax = {a.tobytes() for kernels in seen.values() for a in kernels[:2]}
        norm = {a.tobytes() for kernels in seen.values() for a in kernels[2:]}
        assert len(softmax) == len(norm) == 1


class TestSeededRng:
    def test_reproducible_stream(self):
        a, b = SeededRng(123), SeededRng(123)
        np.testing.assert_array_equal(a.random(size=10000), b.random(size=10000))

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).random(size=100), SeededRng(2).random(size=100))

    def test_split_is_deterministic_and_independent(self):
        a, b = SeededRng(7), SeededRng(7)
        np.testing.assert_array_equal(a.split(3).random(size=100), b.split(3).random(size=100))
        assert not np.array_equal(a.split(1).random(size=100), a.split(2).random(size=100))
        # splitting does not consume parent draws
        np.testing.assert_array_equal(a.random(size=10), b.random(size=10))

    def test_subset(self):
        rng = SeededRng(8)
        s = rng.subset(10, 4)
        assert len(s) == 4 and len(set(s.tolist())) == 4
        assert np.all(np.diff(s) > 0)
        with pytest.raises(ValueError):
            rng.subset(3, 5)
