import numpy as np
import pytest

from dlmprune.decoder import SchedulePolicy, init_state, step
from dlmprune.model import (CopyTaskVocab, ModelConfig, build_copy_model, copy_model_config,
                            embed_prompt, embed_response, encode_image, forward,
                            init_random_model)
from dlmprune.numerics import SeededRng
from dlmprune.pruning import mean_attention


def small_config(**overrides):
    base = dict(layers=2, heads=2, embed_dim=16, vision_dim=4, ffn_dim=8,
                vocab_size=12, patch_grid=(2, 2), mask_token_id=11)
    base.update(overrides)
    return ModelConfig(**base)


class TestModelConfig:
    def test_valid(self):
        cfg = small_config()
        assert cfg.num_patches == 4
        assert cfg.head_dim == 8

    @pytest.mark.parametrize("bad", [
        dict(layers=0), dict(embed_dim=15), dict(mask_token_id=12),
        dict(patch_grid=(0, 2)), dict(vocab_size=0),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)


class TestEncodeImage:
    def test_patch_count(self):
        w = init_random_model(small_config(), 1)
        v = encode_image([["a", "b"], ["c", "d"]], w)
        assert v.shape == (4, 16)

    def test_identical_patches_identical_modulo_position(self):
        w = init_random_model(small_config(), 1)
        v = encode_image([["a", "a"], ["a", "a"]], w)
        stripped = v - w.positional[:4]
        for i in range(1, 4):
            np.testing.assert_allclose(stripped[i], stripped[0], atol=1e-12)

    def test_grid_mismatch(self):
        w = init_random_model(small_config(), 1)
        with pytest.raises(ValueError):
            encode_image([["a", "b", "c"]], w)

    def test_unknown_symbol_in_copy_table(self):
        cfg = copy_model_config((2, 2), ("a", "b"))
        w = build_copy_model(cfg, ("a", "b"))
        with pytest.raises(ValueError, match="unknown patch symbol"):
            encode_image([["a", "z"], ["a", "b"]], w)

    def test_copy_patch_vectors_orthogonal(self):
        cfg = copy_model_config((2, 2), ("a", "b", "c"))
        w = build_copy_model(cfg, ("a", "b", "c"))
        va = w.patch_embed.vector("a")
        vb = w.patch_embed.vector("b")
        assert va @ vb == 0.0 and va @ va > 0.0


class TestEmbedTokens:
    def test_empty_prompt(self):
        w = init_random_model(small_config(), 1)
        assert embed_prompt([], w).shape == (0, 16)

    def test_single_token(self):
        w = init_random_model(small_config(), 1)
        e = embed_prompt([3], w)
        np.testing.assert_allclose(e[0], w.token_embed[3] + w.positional[w.prompt_pos_base])

    def test_repeated_token_differs_by_positional(self):
        w = init_random_model(small_config(), 1)
        e = embed_prompt([5, 5], w)
        base = w.prompt_pos_base
        np.testing.assert_allclose(e[0] - e[1],
                                   w.positional[base] - w.positional[base + 1], atol=1e-12)

    def test_id_out_of_range(self):
        w = init_random_model(small_config(), 1)
        with pytest.raises(ValueError):
            embed_prompt([99], w)
        with pytest.raises(ValueError):
            embed_response([-1, 2], w)


class TestForward:
    def test_single_row_attention(self):
        w = init_random_model(small_config(), 1)
        x = SeededRng(0).normal(size=(1, 16))
        _, cap = forward(x, w, capture=True)
        for layer_maps in cap.maps:
            for m in layer_maps:
                np.testing.assert_array_equal(m, [[1.0]])

    def test_permutation_equivariance(self):
        w = init_random_model(small_config(), 2)
        x = SeededRng(1).normal(size=(4, 16))
        perm = np.array([2, 0, 3, 1])
        logits, _ = forward(x, w)
        permuted, _ = forward(x[perm], w)
        np.testing.assert_allclose(permuted, logits[perm], atol=1e-12)

    def test_capture_is_observation_only(self):
        w = init_random_model(small_config(), 3)
        x = SeededRng(2).normal(size=(5, 16))
        with_cap, cap = forward(x, w, capture=True)
        without, none = forward(x, w, capture=False)
        np.testing.assert_array_equal(with_cap, without)
        assert none is None and cap is not None

    def test_deterministic(self):
        w = init_random_model(small_config(), 4)
        x = SeededRng(3).normal(size=(6, 16))
        a, _ = forward(x, w)
        b, _ = forward(x, w)
        np.testing.assert_array_equal(a, b)

    def test_rows_stochastic(self):
        w = init_random_model(small_config(), 5)
        x = SeededRng(4).normal(size=(7, 16))
        _, cap = forward(x, w, capture=True)
        for layer_maps in cap.maps:
            for m in layer_maps:
                np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-6)
                assert np.all(m >= 0.0)

    def test_shape_mismatch(self):
        w = init_random_model(small_config(), 6)
        with pytest.raises(ValueError):
            forward(np.zeros((3, 7)), w)


class TestInitRandomModel:
    def test_same_seed_bitwise_equal(self):
        a = init_random_model(small_config(), 42)
        b = init_random_model(small_config(), 42)
        np.testing.assert_array_equal(a.token_embed, b.token_embed)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.wq, lb.wq)
            np.testing.assert_array_equal(la.w2, lb.w2)
        np.testing.assert_array_equal(a.patch_embed.vector("x"), b.patch_embed.vector("x"))

    def test_different_seeds_differ(self):
        a = init_random_model(small_config(), 1)
        b = init_random_model(small_config(), 2)
        assert not np.array_equal(a.token_embed, b.token_embed)

    def test_outputs_finite_and_o1(self):
        w = init_random_model(small_config(layers=4), 7)
        x = SeededRng(5).normal(size=(10, 16))
        logits, _ = forward(x, w)
        assert np.all(np.isfinite(logits))
        assert np.abs(logits).max() < 50.0


def decode_pointer(weights, vocab, image, target, tau=2, steps=2):
    """Decode step by step, so each step's outcome keeps its attention maps."""
    visual = encode_image(image, weights)
    prompt = embed_prompt([vocab.index_id(target)], weights)
    state = init_state(visual, prompt, tau, steps, mask_token_id=weights.config.mask_token_id)
    trace = [step(state, weights, SchedulePolicy.confidence())[1] for _ in range(steps)]
    return state.response_ids, trace


class TestCopyModel:
    def test_exhaustive_2x2(self):
        symbols = ("a", "b", "c", "d")
        cfg = copy_model_config((2, 2), symbols)
        w = build_copy_model(cfg, symbols)
        vocab = CopyTaskVocab(symbols, 4)
        image = [["c", "a"], ["d", "b"]]
        flat = [s for row in image for s in row]
        for target in range(4):
            ids, _ = decode_pointer(w, vocab, image, target)
            assert ids[0] == vocab.symbol_id(flat[target]), f"target {target}"

    def test_attention_mass_on_target(self):
        symbols = ("a", "b", "c", "d")
        cfg = copy_model_config((2, 2), symbols)
        w = build_copy_model(cfg, symbols)
        vocab = CopyTaskVocab(symbols, 4)
        target = 2
        _, trace = decode_pointer(w, vocab, [["a", "b"], ["c", "d"]], target)
        abar = mean_attention(trace[0].attention)
        masked_row = 4 + 1 + 0  # position 0 is still masked after step 1
        assert abar[masked_row, target] >= 0.9
        assert np.argmax(abar[masked_row, :4]) == target

    def test_prompt_index_controls_answer(self):
        symbols = ("p", "q", "r", "s", "t", "u")
        cfg = copy_model_config((2, 3), symbols)
        w = build_copy_model(cfg, symbols)
        vocab = CopyTaskVocab(symbols, 6)
        image = [["p", "q", "r"], ["s", "t", "u"]]
        ids5, _ = decode_pointer(w, vocab, image, 5)
        ids2, _ = decode_pointer(w, vocab, image, 2)
        assert ids5[0] == vocab.symbol_id("u")
        assert ids2[0] == vocab.symbol_id("r")

    @pytest.mark.parametrize("grid", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_soundness_up_to_3x3(self, grid):
        symbols = ("a", "b", "c", "d")
        cfg = copy_model_config(grid, symbols)
        w = build_copy_model(cfg, symbols)
        n = grid[0] * grid[1]
        vocab = CopyTaskVocab(symbols, n)
        rng = SeededRng(10)
        for trial in range(3):
            flat = [symbols[int(i)] for i in rng.integers(0, len(symbols), size=n)]
            image = [flat[r * grid[1] : (r + 1) * grid[1]] for r in range(grid[0])]
            for target in range(n):
                ids, _ = decode_pointer(w, vocab, image, target)
                assert ids[0] == vocab.symbol_id(flat[target])

    def test_multi_head_construction(self):
        symbols = ("a", "b")
        cfg = copy_model_config((2, 2), symbols, heads=2)
        w = build_copy_model(cfg, symbols)
        vocab = CopyTaskVocab(symbols, 4)
        ids, trace = decode_pointer(w, vocab, [["a", "b"], ["b", "a"]], 3)
        assert ids[0] == vocab.symbol_id("a")
        abar = mean_attention(trace[0].attention)
        assert abar[4 + 1 + 0, 3] >= 0.9

    def test_too_small_config_rejected(self):
        symbols = ("a", "b", "c", "d")
        with pytest.raises(ValueError):
            build_copy_model(small_config(layers=12), symbols)  # embed_dim too small
        cfg = copy_model_config((2, 2), symbols)
        too_shallow = ModelConfig(layers=2, heads=cfg.heads, embed_dim=cfg.embed_dim,
                                  vision_dim=cfg.vision_dim, ffn_dim=cfg.ffn_dim,
                                  vocab_size=cfg.vocab_size, patch_grid=cfg.patch_grid,
                                  mask_token_id=cfg.mask_token_id)
        with pytest.raises(ValueError):
            build_copy_model(too_shallow, symbols)
