import numpy as np
import pytest

from dlmprune.analysis import (cosine, executed_macs, flops_baseline, flops_for_lengths,
                               flops_per_pass, flops_pruned, similarity_curve)
from dlmprune.model import ModelConfig, build_copy_model, init_random_model
from dlmprune.numerics import SeededRng


class TestFlopsBaseline:
    def test_hand_value(self):
        assert flops_baseline(2, 4, 16, 8, 16) == 98304

    def test_empty_sequence(self):
        assert flops_baseline(3, 2, 0, 8, 16) == 0

    def test_all_ones(self):
        assert flops_baseline(1, 1, 1, 1, 1) == 8

    def test_step_additivity(self):
        rng = SeededRng(1)
        for _ in range(100):
            layers, steps, n, d, mu = (int(rng.integers(1, 9)) for _ in range(5))
            assert flops_baseline(layers, steps, n, d, mu) == \
                steps * flops_baseline(layers, 1, n, d, mu)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            flops_baseline(1, 1, -1, 1, 1)


class TestFlopsPruned:
    def test_no_prune_equals_baseline(self):
        rep = flops_pruned(2, 4, 16, 16, 8, 16)
        assert rep.pruned == rep.baseline
        assert rep.ratio == 1.0

    def test_hand_value(self):
        rep = flops_pruned(2, 4, 16, 8, 8, 16)
        assert rep.pruned == 55296
        assert rep.ratio == pytest.approx(0.5625)

    def test_single_step_ignores_pruned_length(self):
        rep = flops_pruned(3, 1, 20, 5, 8, 16)
        assert rep.pruned == rep.baseline

    def test_monotone_in_pruned_length(self):
        rng = SeededRng(2)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            layers, steps, d, mu = (int(rng.integers(1, 9)) for _ in range(4))
            a, b = sorted(rng.integers(1, n + 1, size=2).tolist())
            assert flops_pruned(layers, steps, n, a, d, mu).pruned <= \
                flops_pruned(layers, steps, n, b, d, mu).pruned

    def test_rejects_growth(self):
        with pytest.raises(ValueError):
            flops_pruned(1, 2, 8, 9, 4, 4)

    def test_matches_length_sum(self):
        rep = flops_pruned(2, 5, 12, 7, 8, 16)
        assert rep.pruned == flops_for_lengths(2, 8, 16, [12, 7, 7, 7, 7])


def random_model(layers=2, heads=2, d=16, mu=8):
    return init_random_model(ModelConfig(layers=layers, heads=heads, embed_dim=d, vision_dim=4,
                                         ffn_dim=mu, vocab_size=12, patch_grid=(2, 2),
                                         mask_token_id=11), 0)


class TestExecutedMacs:
    @pytest.mark.parametrize("layers,heads,d,mu,n", [
        (1, 1, 4, 4, 1), (2, 2, 16, 8, 10), (4, 4, 128, 256, 1072), (3, 2, 6, 1, 7)])
    def test_random_model_at_first_row_0_is_the_paper_count(self, layers, heads, d, mu, n):
        proj, attn, ffn = executed_macs(random_model(layers, heads, d, mu), n)
        assert (proj, attn, ffn) == (layers * 4 * n * d * d, layers * 2 * n * n * d,
                                     layers * 2 * n * d * mu)
        assert proj + attn + ffn == layers * flops_per_pass(n, d, mu)

    def test_random_model_past_first_row_0(self):
        # layer 1 runs all 10 rows; layer 2 runs rows 7..9 (3 rows) for Q,
        # attention, out-projection and FFN, and all 10 for K and V
        proj, attn, ffn = executed_macs(random_model(layers=2, heads=2, d=16, mu=8), 10, 7)
        assert proj == 4 * 10 * 16 * 16 + (3 + 10 + 10 + 3) * 16 * 16
        assert attn == 2 * 10 * 10 * 16 + 2 * 3 * 10 * 16
        assert ffn == 2 * 10 * 16 * 8 + 2 * 3 * 16 * 8

    @pytest.mark.parametrize("first_row", [0, 65, 72])
    def test_copy8x8(self, first_row):
        # n = 64 patches + 1 prompt + 8 response rows, d = 2·64 + 4 + 2·16 =
        # 164; the broadcast layer has q/k width 64 and v width 1, the 11
        # fetch positions hold one layer object with q/k width 1 and v width
        # 16, and no layer has an FFN. Every projection routes, so it runs
        # over the channels it reads or writes: broadcast q and k read 64
        # each, v reads 1 and wo writes 1; fetch q and k read 1 each, v reads
        # 16 and wo writes 16. All but broadcast v (a gain of 20) and fetch q
        # (20) are the identity on their span and run no product, but for
        # fetch v where its one-row tile at first_row 72 keeps the product.
        # model.layer_runs gives [broadcast ×1, fetch ×11] at any first_row,
        # and the fetch run ends at the last layer, so the count is
        # broadcast + one fetch over rows first_row..72
        w = build_copy_model((8, 8), tuple(f"s{j}" for j in range(16)))
        n, r = 73, 73 - first_row
        broadcast = (n * 1 * 1, n * n * (64 + 1))
        fetch = (r * 1 * 1 + (n * 16 * 16 if r == 1 else 0), r * n * (1 + 16))
        assert executed_macs(w, n, first_row) == (broadcast[0] + fetch[0],
                                                   broadcast[1] + fetch[1], 0)

    @pytest.mark.parametrize("first_row", [-1, 10])
    def test_first_row_outside_the_rows_rejected(self, first_row):
        with pytest.raises(ValueError, match="first_row"):
            executed_macs(random_model(), 10, first_row)


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, 0.1, 0.6])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_closed_form(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 2.0])


class TestSimilarityCurve:
    def test_stationary_scores(self):
        s = np.array([0.2, 0.5, 0.3])
        curve = similarity_curve([[s, s.copy(), s.copy(), s.copy()]])
        assert curve.sims == pytest.approx([1.0, 1.0, 1.0])
        assert curve.first_step == 2

    def test_three_step_trace_has_two_points(self):
        rng = SeededRng(3)
        trace = [np.abs(rng.random(size=5)) + 0.01 for _ in range(3)]
        curve = similarity_curve([trace])
        assert len(curve.sims) == 2

    def test_two_sample_average_is_mean_of_curves(self):
        rng = SeededRng(4)
        t1 = [np.abs(rng.random(size=4)) + 0.01 for _ in range(4)]
        t2 = [np.abs(rng.random(size=4)) + 0.01 for _ in range(4)]
        avg = similarity_curve([t1, t2])
        c1 = similarity_curve([t1])
        c2 = similarity_curve([t2])
        for a, x, y in zip(avg.sims, c1.sims, c2.sims):
            assert a == pytest.approx((x + y) / 2.0)
        assert avg.sample_count == 2

    def test_bounded_for_nonnegative_scores(self):
        rng = SeededRng(5)
        trace = [np.abs(rng.random(size=6)) for _ in range(5)]
        curve = similarity_curve([trace])
        assert all(0.0 <= s <= 1.0 + 1e-12 for s in curve.sims)

    def test_vector_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            similarity_curve([[np.ones(3), np.ones(4)]])

    def test_needs_two_steps(self):
        with pytest.raises(ValueError):
            similarity_curve([[np.ones(3)]])
