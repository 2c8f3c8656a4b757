import copy
import dataclasses
import hashlib
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlmprune import model
from dlmprune.decoder import SchedulePolicy, init_state, run_inference, step
from dlmprune.harness import TaskParams, gen_pointer_task
from dlmprune.model import (DEFAULT_MAX_PROMPT, DEFAULT_MAX_RESPONSE, CopyTaskVocab,
                            HashedPatchTable, LayerWeights, ModelConfig, ModelWeights,
                            build_copy_model, copy_model_config, embed_prompt, embed_response,
                            ForwardBuffers, encode_image, forward, gelu, init_random_model,
                            layer_runs)
from dlmprune.numerics import SeededRng, layer_norm, softmax_rows
from dlmprune.pruning import mean_attention
from test_numerics import ref_gelu, ref_layer_norm, ref_softmax


def buffer_arrays(buffers):
    """The one flat array every segment of a ``ForwardBuffers`` is cut from."""
    (flat,) = {id(s.base): s.base for s in buffers.segments.values()}.values()
    return [flat]


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
        dict(patch_grid=(1.5, 2)), dict(patch_grid=(True, 2)), dict(patch_grid=(2,)),
        dict(vocab_size=1, mask_token_id=0),
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
        w = build_copy_model((2, 2), ("a", "b"))
        with pytest.raises(ValueError, match="unknown patch symbol"):
            encode_image([["a", "z"], ["a", "b"]], w)

    def test_first_unknown_symbol_in_row_major_order_is_named(self):
        w = build_copy_model((2, 2), ("a", "b"))
        with pytest.raises(ValueError, match="unknown patch symbol: 'y'"):
            encode_image([["a", "y"], ["z", "b"]], w)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6),
           num_symbols=st.integers(1, 4), copy=st.booleans())
    def test_equals_per_patch_reference(self, data, rows, cols, num_symbols, copy):
        symbols = ("a", "b", "s2", "s3")[:num_symbols]
        image = data.draw(st.lists(st.lists(st.sampled_from(symbols), min_size=cols,
                                            max_size=cols), min_size=rows, max_size=rows))
        w = (build_copy_model((rows, cols), symbols) if copy
             else init_random_model(small_config(patch_grid=(rows, cols)), rows * 7 + cols))
        flat = [s for row in image for s in row]
        want = [w.patch_embed.vector(s) @ w.projector + w.positional[i] for i, s in enumerate(flat)]
        np.testing.assert_array_equal(encode_image(image, w), np.array(want))

    def test_projects_each_distinct_symbol_once(self):
        w = init_random_model(small_config(patch_grid=(32, 32)), 1)
        table, calls = w.patch_embed, []

        class CountingTable:
            def vector(self, symbol):
                calls.append(symbol)
                return table.vector(symbol)

        w.patch_embed = CountingTable()
        symbols = [f"s{i}" for i in range(16)]
        image = [[symbols[(r * 32 + c) * 7 % 16] for c in range(32)] for r in range(32)]
        assert encode_image(image, w).shape == (1024, 16)
        assert sorted(calls) == sorted(symbols)

    def test_copy_patch_vectors_orthogonal(self):
        w = build_copy_model((2, 2), ("a", "b", "c"))
        va = w.patch_embed.vector("a")
        vb = w.patch_embed.vector("b")
        assert va @ vb == 0.0 and va @ va > 0.0

    def test_hashed_vector_is_a_child_stream_of_the_seed(self):
        table = HashedPatchTable(seed=123, dim=5)
        for symbol in ("a", "b", "s17", "a"):
            digest = hashlib.sha256(symbol.encode("utf-8")).digest()
            key = int.from_bytes(digest[:8], "little")
            want = SeededRng(123).split(key).normal(size=5)
            np.testing.assert_array_equal(table.vector(symbol), want)

    def test_hashed_vector_is_drawn_once_and_read_only(self):
        table = HashedPatchTable(seed=123, dim=5)
        first = table.vector("s17")
        assert table.vector("s17") is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert first.tobytes() == HashedPatchTable(seed=123, dim=5).vector("s17").tobytes()


class TestEmbedTokens:
    def test_empty_prompt(self):
        w = init_random_model(small_config(), 1)
        e = embed_prompt([], w)
        assert e.shape == (0, 16) and e.dtype == np.float64

    def test_single_token(self):
        w = init_random_model(small_config(), 1)
        e = embed_prompt([3], w)
        np.testing.assert_allclose(e[0], w.token_embed[3] + w.positional[w.config.num_patches])

    def test_repeated_token_differs_by_positional(self):
        w = init_random_model(small_config(), 1)
        e = embed_prompt([5, 5], w)
        base = w.config.num_patches
        np.testing.assert_allclose(e[0] - e[1],
                                   w.positional[base] - w.positional[base + 1], atol=1e-12)

    def test_id_out_of_range(self):
        w = init_random_model(small_config(), 1)
        with pytest.raises(ValueError):
            embed_prompt([99], w)
        with pytest.raises(ValueError):
            embed_response([-1, 2], w)

    @pytest.mark.parametrize("embed,capacity,what", [
        (embed_prompt, DEFAULT_MAX_PROMPT, "prompt"),
        (embed_response, DEFAULT_MAX_RESPONSE, "response"),
    ])
    def test_a_segment_holds_its_own_positions_and_no_more(self, embed, capacity, what):
        # a prompt past its 256 positions used to take the response's: with a
        # zeroed token table, rows 256..259 of a 300-token prompt were bitwise
        # the rows of a 4-token response
        w = init_random_model(small_config(), 1)
        assert embed([0] * capacity, w).shape == (capacity, 16)
        with pytest.raises(ValueError, match=f"^{what} of length {capacity + 1} exceeds the "
                                             f"{what} segment's {capacity} positions"):
            embed([0] * (capacity + 1), w)


def layer_arrays(heads=2, d=8, w=3, w_v=5, mu=4):
    """Zero arrays of one well-shaped layer whose head widths differ from d / heads;
    with ``mu`` None, an attention-only one."""
    ffn = dict(w1=None, w2=None) if mu is None else dict(w1=np.zeros((d, mu)),
                                                          w2=np.zeros((mu, d)))
    return dict(wq=np.zeros((heads, d, w)), wk=np.zeros((heads, d, w)),
                wv=np.zeros((heads, d, w_v)), wo=np.zeros((heads * w_v, d)), **ffn)


def eye_layer(d, starts, gains=(1.0,) * 4, heads=1, w=1, w_v=1):
    """An attention-only layer whose q, k and v are, in every head, gain
    times the identity from channels ``starts[i]..`` to their w or w_v
    columns, and whose ``wo`` is gain times it from the h·w_v head outputs
    to channels ``starts[3]..``."""
    arrays = layer_arrays(heads, d, w, w_v, mu=None)
    for name, start, gain in zip(("wq", "wk", "wv", "wo"), starts, gains):
        m = arrays[name] if name != "wo" else arrays[name].T[None]  # (heads, d, width)
        m[:, start:start + m.shape[2]] = gain * np.eye(m.shape[2])
    return LayerWeights(**arrays)


class TestLayerWeights:
    @pytest.mark.parametrize("name,shape", [
        ("wq", (2, 8)), ("wk", (2, 8, 4)), ("wk", (1, 8, 3)), ("wv", (2, 7, 5)),
        ("wv", (3, 8, 5)), ("wv", (2, 8)), ("wo", (10, 7)), ("wo", (5, 8)), ("w1", (7, 4)),
        ("w2", (4, 7)), ("w2", (3, 8)),
    ])
    def test_mismatch_names_the_field(self, name, shape):
        arrays = layer_arrays()
        arrays[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            LayerWeights(**arrays)

    def test_attention_only_layer_has_no_ffn(self):
        arrays = layer_arrays()
        for name in ("w1", "w2"):
            arrays[name] = None
        lw = LayerWeights(**arrays)
        assert lw.w1 is None and lw.w2 is None

    @pytest.mark.parametrize("starts,ties", [
        ((0, 1, 2, 3), True), ((0, 1, 2, 7), True), ((0, 1, 2, 2), False), ((5, 0, 1, 5), False),
        ((0, 4, 2, 3), True), ((0, 4, 2, 4), False)])
    def test_ties_compares_the_span_wo_writes_with_those_qkv_read(self, starts, ties):
        # one-head attention-only layer of width 1: q, k and v read channels
        # starts[:3] and wo writes channel starts[3]
        lw = eye_layer(8, starts, gains=(0.5, 1.0, -2.0, 3.0))
        assert lw.reads == tuple(slice(c, c + 1) for c in starts[:3])
        assert lw.writes == slice(starts[3], starts[3] + 1)
        assert lw.ties == ties

    @pytest.mark.parametrize("case,ties", [
        ("ffn", False), ("two_heads", False), ("dense_wo", False), ("dense_q", False),
        ("none", True)])
    def test_ties_needs_no_ffn_one_head_and_a_write_span_no_read_span_meets(self, case, ties):
        # q, k and v read channels 0..1 and wo writes channels 6.. (which
        # ties on its own), but for the case named
        rng = SeededRng(1)
        heads = 2 if case == "two_heads" else 1
        lw = eye_layer(8, (0, 0, 0, 6), heads=heads, w=2, w_v=1)
        if case == "ffn":
            lw = dataclasses.replace(lw, w1=rng.normal(size=(8, 4)), w2=rng.normal(size=(4, 8)))
        if case == "dense_wo":  # every wo column takes the head row: all 8 channels
            lw = dataclasses.replace(lw, wo=rng.normal(size=lw.wo.shape))
        if case == "dense_q":
            lw = dataclasses.replace(lw, wq=rng.normal(size=lw.wq.shape))
        assert lw.writes == (slice(0, 8) if case == "dense_wo" else slice(6, 6 + heads))
        assert lw.reads[0] == (slice(0, 8) if case == "dense_q" else slice(0, 2))
        assert lw.ties == ties

    @pytest.mark.parametrize("grid,num_symbols", [((2, 3), 3), ((8, 8), 16)])
    def test_copy_layers_span_the_channels_they_read_and_write(self, grid, num_symbols):
        # channel plan of build_copy_model: position codes [0, n), pointer
        # codes [n, 2n), flag 2n, index mark 2n+1, mask mark 2n+2, ramp
        # 2n+3, visual payload [2n+4, 2n+4+a), fetched payload after it;
        # broadcast v and fetch q have gain 20, the other six gain 1
        w = build_copy_model(grid, tuple(f"s{j}" for j in range(num_symbols)))
        n, a = w.config.num_patches, num_symbols
        broadcast, fetch = w.layers[:2]
        assert broadcast.reads == (slice(0, n), slice(n, 2 * n), slice(2 * n + 1, 2 * n + 2))
        assert broadcast.writes == slice(2 * n, 2 * n + 1)
        assert fetch.reads == (slice(2 * n + 2, 2 * n + 3), slice(2 * n, 2 * n + 1),
                               slice(2 * n + 4, 2 * n + 4 + a))
        assert fetch.writes == slice(2 * n + 4 + a, 2 * n + 4 + 2 * a)
        for lw, gains in ((broadcast, (1.0, 1.0, 20.0, 1.0)), (fetch, (20.0, 1.0, 1.0, 1.0))):
            assert [c for _, _, c in lw.scaled] == list(gains)
            for m, (rows, cols, c) in zip((lw.wq, lw.wk, lw.wv, lw.wo), lw.scaled):
                assert rows.stop - rows.start == cols.stop - cols.start
                np.testing.assert_array_equal(m[..., rows, cols],
                                              np.broadcast_to(c * np.eye(rows.stop - rows.start),
                                                              m[..., rows, cols].shape))

    def test_a_dense_layer_spans_every_channel(self):
        lw = init_random_model(small_config(), 1).layers[0]
        assert (*lw.reads, lw.writes) == (slice(0, 16),) * 4
        assert lw.scaled == (None,) * 4

    @pytest.mark.parametrize("name", ["wq", "wk", "wv", "wo"])
    def test_a_column_with_two_nonzeros_spans_every_channel(self, name):
        # q, k and v read channels 0..1, 2..3 and 4, and wo writes channel 6;
        # a second nonzero in column 0 of the named projection, at channel 5,
        # makes it dense and leaves the other three as they were
        names = ["wq", "wk", "wv", "wo"]
        lw = eye_layer(8, (0, 2, 4, 6), w=2, w_v=1)
        m = getattr(lw, name).copy()
        (m.T[None] if name == "wo" else m)[0, 5, 0] = 0.5
        dense = dataclasses.replace(lw, **{name: m})
        i = names.index(name)
        spans = [*dense.reads, dense.writes]
        assert spans.pop(i) == slice(0, 8)
        assert spans == [s for j, s in enumerate((*lw.reads, lw.writes)) if j != i]
        assert dense.scaled[i] is None
        assert dense.scaled[:i] + dense.scaled[i + 1:] == lw.scaled[:i] + lw.scaled[i + 1:]
        assert lw.ties and not dense.ties

    @pytest.mark.parametrize("name", ["wq", "wk", "wv", "wo"])
    @pytest.mark.parametrize("block,gain", [
        ([[1.0]], 1.0), (np.eye(3), 1.0), ([[20.0]], 20.0), (-2.5 * np.eye(3), -2.5),
        (np.eye(3)[[1, 2, 0]], None)])  # a permutation
    def test_each_projection_keeps_its_own_rule(self, name, block, gain):
        # one head, d 8: the named projection holds `block` at channels 2..,
        # the other three are all zero, so dense, and read or write all 8
        names = ["wq", "wk", "wv", "wo"]
        block = np.asarray(block)
        rows, width = block.shape
        arrays = layer_arrays(heads=1, w=width, w_v=width, mu=None)
        if name == "wo":
            arrays["wo"][:, 2:2 + rows] = block.T
        else:
            arrays[name][0, 2:2 + rows] = block
        lw = LayerWeights(**arrays)
        span, whole = slice(2, 2 + width), slice(0, width)
        want = (whole, span, gain) if name == "wo" else (span, whole, gain)
        scaled = gain is not None
        assert lw.scaled == tuple(want if m == name and scaled else None for m in names)
        assert (*lw.reads, lw.writes) == tuple(span if m == name and scaled else slice(0, 8)
                                               for m in names)

    @pytest.mark.parametrize("block,gain", [
        (np.eye(3), 1.0), (-2.5 * np.eye(3), -2.5), ([[20.0]], 20.0),
        (np.eye(3)[[1, 2, 0]], None),  # a permutation
        ([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], None),  # column 0 reads two
        (np.zeros((3, 3)), None),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], None),  # 4 x 3
        (np.eye(2, 3), None),  # column 2 reads nothing
        (np.zeros((3, 0)), None)])  # no column at all
    def test_a_projection_is_scaled_where_its_block_is_c_times_eye(self, block, gain):
        # d 8: two equal heads of a q stack hold `block` at channels 2..,
        # and an out-projection holds its transpose at those channels
        block = np.asarray(block)
        rows, width = block.shape
        stack, wo = np.zeros((2, 8, width)), np.zeros((width, 8))
        stack[:, 2:2 + rows] = block
        wo[:, 2:2 + rows] = block.T
        span, whole = slice(2, 2 + width), slice(0, width)
        assert model._scaled_identity(stack) == (None if gain is None else (span, whole, gain))
        assert model._scaled_identity(wo) == (None if gain is None else (whole, span, gain))

    @pytest.mark.parametrize("second,scaled", [
        (np.eye(2), True), ([[0.0, 1.0], [1.0, 0.0]], False), (2.0 * np.eye(2), False),
        (np.zeros((2, 2)), False)])
    def test_every_head_must_be_the_same_c_times_eye(self, second, scaled):
        # two heads of width 2 reading channels 2..3: head 0 is the identity
        stack = np.zeros((2, 8, 2))
        stack[0, 2:4] = np.eye(2)
        stack[1, 2:4] = second
        want = (slice(2, 4), slice(0, 2), 1.0) if scaled else None
        assert model._scaled_identity(stack) == want

    @pytest.mark.parametrize("missing,given", [("w1", "w2"), ("w2", "w1")])
    def test_ffn_given_in_part_rejected(self, missing, given):
        arrays = layer_arrays()
        arrays[missing] = None
        with pytest.raises(ValueError,
                           match=f"^an FFN needs both w1 and w2 or neither, got only {given}$"):
            LayerWeights(**arrays)


class TestModelWeights:
    def test_output_head_is_required(self):
        # a model without its output head fails when built, not at its first forward
        w = init_random_model(small_config(), 1)
        fields = {f.name: getattr(w, f.name) for f in dataclasses.fields(w)}
        del fields["output_w"]
        with pytest.raises(TypeError, match="output_w"):
            ModelWeights(**fields)

    @pytest.mark.parametrize("name", ["layers", "output_b"])
    def test_layers_and_output_bias_are_required(self, name):
        w = init_random_model(small_config(), 1)
        fields = {f.name: getattr(w, f.name) for f in dataclasses.fields(w)}
        del fields[name]
        with pytest.raises(TypeError, match=name):
            ModelWeights(**fields)

    def test_norm_is_off_unless_set(self):
        w = init_random_model(small_config(), 1)
        fields = {f.name: getattr(w, f.name) for f in dataclasses.fields(w)}
        del fields["norm"]
        assert w.norm and not ModelWeights(**fields).norm


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

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("copy", [False, True])
    def test_input_left_unchanged(self, copy, capture):
        w = build_copy_model((2, 2), ("a", "b")) if copy else init_random_model(small_config(), 7)
        x = SeededRng(8).normal(size=(6, w.config.embed_dim))
        before = x.copy()
        forward(x, w, capture=capture)
        np.testing.assert_array_equal(x, before)

    def test_shape_mismatch(self):
        w = init_random_model(small_config(), 6)
        with pytest.raises(ValueError):
            forward(np.zeros((3, 7)), w)


def reference_forward(x, w, softmax=softmax_rows, norm=layer_norm, act=gelu, first_row=0,
                      tail_from=None):
    """Forward pass that keeps every per-head map, in (layer, head) order.
    Layers from index ``tail_from`` (by default the last) on run their
    queries, out-projection and FFN on rows ``first_row:`` only and add into
    those rows, whose rows above keep their values, so their maps and the
    logits hold just rows ``first_row:``."""
    cfg = w.config
    scale = 1.0 / np.sqrt(cfg.head_dim)
    tail_from = len(w.layers) - 1 if tail_from is None else tail_from
    h = x.copy()
    maps = []
    for li, lw in enumerate(w.layers):
        lo = first_row if li >= tail_from else 0
        a_in = norm(h) if w.norm else h
        outs = []
        for hd in range(cfg.heads):
            attn = softmax(((a_in[lo:] @ lw.wq[hd]) @ (a_in @ lw.wk[hd]).T) * scale)
            maps.append(attn)
            outs.append(attn @ (a_in @ lw.wv[hd]))
        rows = h[lo:] + np.concatenate(outs, axis=1) @ lw.wo
        if lw.w1 is not None:
            f_in = norm(rows) if w.norm else rows
            rows = rows + act(f_in @ lw.w1) @ lw.w2
        h = np.vstack([h[:lo], rows])
    h = h[first_row:]
    if w.norm:
        h = norm(h)
    return h @ w.output_w + w.output_b, maps


def head_mean(maps):
    total = np.zeros(maps[0].shape)
    for m in maps:
        total += m
    return total / len(maps)


def assert_capture_is_head_mean(w, x):
    logits, cap = forward(x, w, capture=True)
    ref_logits, maps = reference_forward(x, w)
    assert len(maps) == w.config.layers * w.config.heads
    assert len(cap.maps) == 1 and len(cap.maps[0]) == 1
    assert cap.maps[0][0].shape == (x.shape[0], x.shape[0])
    np.testing.assert_array_equal(cap.maps[0][0], head_mean(maps))
    np.testing.assert_array_equal(logits, ref_logits)
    np.testing.assert_array_equal(logits, forward(x, w)[0])


class TestForwardIsTheUnitGainZeroBiasForm:
    @pytest.mark.parametrize("layers,heads,n,first_row", [(1, 1, 1, 0), (1, 2, 5, 3),
                                                          (2, 2, 9, 0), (3, 1, 6, 5)])
    def test_random_model(self, layers, heads, n, first_row):
        # norm gains of ones, norm biases of zeros and a zero FFN input bias change no bit
        cfg = small_config(layers=layers, heads=heads, embed_dim=4 * heads)
        w = init_random_model(cfg, 3)
        d, mu = cfg.embed_dim, cfg.ffn_dim
        x = SeededRng(4).normal(size=(n, d))
        want, _ = reference_forward(x, w, norm=lambda v: layer_norm(v) * np.ones(d) + np.zeros(d),
                                    act=lambda z: gelu(z + np.zeros(mu)), first_row=first_row)
        np.testing.assert_array_equal(forward(x, w, first_row=first_row)[0], want)


class TestCaptureIsHeadMean:
    @settings(max_examples=25, deadline=None)
    @given(layers=st.integers(1, 3), heads=st.integers(1, 3), n=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_random_model(self, layers, heads, n, seed):
        cfg = small_config(layers=layers, heads=heads, embed_dim=4 * heads)
        w = init_random_model(cfg, seed)
        assert_capture_is_head_mean(w, SeededRng(seed).normal(size=(n, cfg.embed_dim)))


class TestHeadWidthsComeFromTheWeights:
    @settings(max_examples=25, deadline=None)
    @given(heads=st.integers(1, 3), width=st.integers(1, 7), v_width=st.integers(1, 7),
           n=st.integers(1, 12), first_row=st.integers(0, 11), seed=st.integers(0, 2**32 - 1))
    def test_narrow_and_wide_heads(self, heads, width, v_width, n, first_row, seed):
        # every layer gets heads of its own widths; the scale stays 1/sqrt(head_dim)
        cfg = small_config(heads=heads, embed_dim=4 * heads)
        w = init_random_model(cfg, seed)
        rng, d = SeededRng(seed), cfg.embed_dim
        w.layers = [dataclasses.replace(
            lw, wq=rng.normal(size=(heads, d, width)), wk=rng.normal(size=(heads, d, width)),
            wv=rng.normal(size=(heads, d, v_width)),
            wo=rng.normal(size=(heads * v_width, d))) for lw in w.layers]
        x = rng.normal(size=(n, d))
        first_row = min(first_row, n - 1)
        logits, cap = forward(x, w, capture=True, first_row=first_row)
        ref_logits, maps = reference_forward(x, w, first_row=first_row)
        np.testing.assert_array_equal(logits, ref_logits)
        np.testing.assert_array_equal(cap.maps[0][0],
                                      head_mean([m[len(m) - (n - first_row):] for m in maps]))


class TestForwardMatchesTextbookKernels:
    """``forward`` against a forward built from the textbook kernels. Only
    gelu's cube differs by an ulp, and it first acts after layer 1's maps."""

    @settings(max_examples=25, deadline=None)
    @given(layers=st.integers(1, 3), heads=st.integers(1, 3), n=st.integers(1, 32),
           seed=st.integers(0, 2**32 - 1))
    def test_random_model(self, layers, heads, n, seed):
        cfg = small_config(layers=layers, heads=heads, embed_dim=4 * heads)
        w = init_random_model(cfg, seed)
        x = SeededRng(seed).normal(size=(n, cfg.embed_dim))
        logits, cap = forward(x, w, capture=True)
        ref_logits, maps = reference_forward(x, w, ref_softmax, ref_layer_norm, ref_gelu)
        if layers == 1:
            np.testing.assert_array_equal(cap.maps[0][0], head_mean(maps))
        else:
            np.testing.assert_allclose(cap.maps[0][0], head_mean(maps), rtol=0, atol=1e-12)
        np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-12)


def tile_bytes_for(n, rows):
    """A ``_TILE_BYTES`` under which ``forward`` splits n rows into tiles of at most ``rows``."""
    return 8 * n * rows


class TestTiledForward:
    """Tiles change only which rows one BLAS call covers, so a tiled forward
    agrees with a one-tile forward to rounding, not always bitwise."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8, 13, 20, 39, 40])
    def test_tiles_of_1_to_n_rows_agree_with_one_tile(self, rows):
        n = 40
        cfg = small_config(layers=2, heads=2, embed_dim=16)
        w = init_random_model(cfg, 11)
        x = SeededRng(12).normal(size=(n, cfg.embed_dim))
        with mock.patch.object(model, "_TILE_BYTES", tile_bytes_for(n, n)):
            want, want_cap = forward(x, w, capture=True)
        with mock.patch.object(model, "_TILE_BYTES", tile_bytes_for(n, rows)):
            got, cap = forward(x, w, capture=True)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cap.maps[0][0], want_cap.maps[0][0], rtol=0, atol=1e-12)
        assert cap.first_row == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), layers=st.integers(1, 3), heads=st.integers(1, 3),
           n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_first_row_capture_is_the_tail_of_the_full_capture(self, data, layers, heads, n,
                                                               seed):
        first_row = data.draw(st.integers(0, n - 1), label="first_row")
        rows = data.draw(st.integers(1, n), label="rows per tile")
        cfg = small_config(layers=layers, heads=heads, embed_dim=4 * heads)
        w = init_random_model(cfg, seed)
        x = SeededRng(seed).normal(size=(n, cfg.embed_dim))
        # bitwise against a reference whose last layer runs on the same rows
        logits, cap = forward(x, w, capture=True, first_row=first_row)
        ref_logits, maps = reference_forward(x, w, first_row=first_row)
        assert cap.first_row == first_row and cap.maps[0][0].shape == (n - first_row, n)
        np.testing.assert_array_equal(cap.maps[0][0],
                                      head_mean([m[len(m) - (n - first_row):] for m in maps]))
        np.testing.assert_array_equal(logits, ref_logits)
        # tiled, against the tail of the full forward: the last layer's
        # products cover fewer rows, and BLAS may round those differently
        with mock.patch.object(model, "_TILE_BYTES", tile_bytes_for(n, rows)):
            full_logits, full = forward(x, w, capture=True)
            logits, cap = forward(x, w, capture=True, first_row=first_row)
        assert cap.first_row == first_row and logits.shape == (n - first_row, cfg.vocab_size)
        np.testing.assert_allclose(cap.maps[0][0], full.maps[0][0][first_row:], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(logits, full_logits[first_row:], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("first_row", [-1, 6])
    def test_first_row_outside_the_rows_rejected(self, first_row, capture):
        w = init_random_model(small_config(), 3)
        with pytest.raises(ValueError, match="first_row"):
            forward(SeededRng(2).normal(size=(6, 16)), w, capture=capture, first_row=first_row)

    @staticmethod
    def recorded_work(n, first_row=0, **config):
        """(softmax_rows row counts, gelu shapes) of one forward, in call order."""
        cfg = small_config(embed_dim=4 * config.get("heads", 2), **config)
        w = init_random_model(cfg, 0)
        softmax_rows_seen, gelu_seen = [], []

        def recording_softmax(m, out=None):
            softmax_rows_seen.append(m.shape[0])
            return softmax_rows(m, out=out)

        def recording_gelu(z, out=None):
            gelu_seen.append(z.shape)
            return gelu(z, out=out)

        with mock.patch.object(model, "softmax_rows", recording_softmax), \
                mock.patch.object(model, "gelu", recording_gelu):
            forward(SeededRng(0).normal(size=(n, cfg.embed_dim)), w, first_row=first_row)
        return softmax_rows_seen, gelu_seen

    @pytest.mark.parametrize("n,sizes", [(362, [362]), (363, [181, 182]),
                                         (1072, [119] * 8 + [120])])
    def test_tiles_split_the_rows_evenly_within_the_byte_budget(self, n, sizes):
        # ceil(8·n² / 2²⁰) tiles: one up to n = 362, nine at vit1024's n = 1072
        seen, _ = self.recorded_work(n, layers=1, heads=1)
        assert sorted(seen) == sizes

    @pytest.mark.parametrize("n,first_row,first_tiles,last_tiles", [
        (1072, 1040, [119] * 8 + [120], [32]), (1072, 1024, [119] * 8 + [120], [48]),
        (1072, 500, [119] * 8 + [120], [114, 114, 115, 114, 115]),
        (1072, 0, [119] * 8 + [120], [119] * 8 + [120]), (363, 300, [181, 182], [63]),
        (24, 23, [24], [1]), (24, 0, [24], [24])])
    def test_last_layer_runs_only_the_rows_the_caller_reads(self, n, first_row, first_tiles,
                                                            last_tiles):
        # layer 1 tiles all n rows; the last layer tiles rows first_row..n-1
        # only, in proportionally fewer tiles of the same bound, and its FFN
        # runs on those rows alone
        mu = 8
        seen, gelu_shapes = self.recorded_work(n, first_row, layers=2, heads=2, ffn_dim=mu)
        assert seen == first_tiles * 2 + last_tiles * 2
        assert gelu_shapes == [(n, mu), (n - first_row, mu)]


def disjoint_layer(rng, heads, d, read, w=3, w_v=2):
    """A random attention-only layer whose q, k and v read channels [0, read)
    and whose dense out-projection writes channels [read, d) only."""
    wq, wk, wv = (rng.normal(size=(heads, d, width)) for width in (w, w, w_v))
    for m in (wq, wk, wv):
        m[:, read:] = 0.0
    wo = rng.normal(size=(heads * w_v, d))
    wo[:, :read] = 0.0
    return LayerWeights(wq=wq, wk=wk, wv=wv, wo=wo)


def eye_block_layer(data, rng, heads, d, read, written, w, w_v):
    """An attention-only layer whose q, k and v blocks sit at drawn offsets
    in channels ``read`` and whose ``wo`` block sits in ``written``
    (``eye_layer``): each the identity in every head, or, where drawn so, a
    random gain times it. k may be drawn onto q's channels."""
    starts = [data.draw(st.integers(span.start, span.stop - width), label=f"{what} offset")
              for span, width, what in ((read, w, "q"), (read, w, "k"), (read, w_v, "v"),
                                        (written, heads * w_v, "wo"))]
    if data.draw(st.booleans(), label="k on q's channels"):
        starts[1] = starts[0]
    gains = [1.0 if data.draw(st.booleans(), label=f"{what} is the identity") else rng.normal()
             for what in ("q", "k", "v", "wo")]
    return eye_layer(d, starts, gains, heads, w, w_v)


def copy_model_input(w, grid, symbols):
    """(x, patch symbols) of a copy-model input whose prompt points at the last
    patch and whose response has masked, decoded and abstaining rows."""
    n = w.config.num_patches
    vocab = CopyTaskVocab(symbols, n)
    rng = SeededRng(n)
    flat = [symbols[int(i)] for i in rng.integers(0, len(symbols), size=n)]
    image = [flat[r * grid[1]:(r + 1) * grid[1]] for r in range(grid[0])]
    response = [vocab.mask_id, vocab.symbol_id(flat[1 % n]), vocab.mask_id, vocab.null_id]
    return np.concatenate([encode_image(image, w), embed_prompt([vocab.index_id(n - 1)], w),
                           embed_response(response, w)]), flat


def softmax_calls(w, x, **kwargs):
    with mock.patch.object(model, "softmax_rows", wraps=softmax_rows) as spy:
        forward(x, w, **kwargs)
    return spy.call_count


class TestTiedRuns:
    """A run of positions holding one one-head attention-only layer object
    whose out-projection writes a span none of its reads meet
    (``LayerWeights.ties``), in a model without norm, runs once per
    forward."""

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("grid,num_symbols", [((2, 2), 4), ((2, 3), 6), ((8, 8), 16)])
    def test_tied_copy_model_is_bitwise_its_untied_copy(self, grid, num_symbols, capture):
        symbols = tuple(f"s{j}" for j in range(num_symbols))
        w = build_copy_model(grid, symbols)
        untied = dataclasses.replace(w, layers=[w.layers[0]] + [
            copy.deepcopy(w.layers[1]) for _ in range(w.config.layers - 1)])
        assert [k for _, k in layer_runs(untied)] == [1] * w.config.layers
        x, _ = copy_model_input(w, grid, symbols)
        for first_row in (0, w.config.num_patches + 1):
            logits, cap = forward(x, w, capture=capture, first_row=first_row)
            want_logits, want = forward(x, untied, capture=capture, first_row=first_row)
            np.testing.assert_array_equal(logits, want_logits)
            if capture:
                np.testing.assert_array_equal(cap.maps[0][0], want.maps[0][0])

    @pytest.mark.parametrize("capture", [False, True])
    def test_copy_forward_runs_the_fetch_layer_once(self, capture):
        # broadcast + the 11 fetch positions as one run, at any first_row
        grid, symbols = (2, 3), ("a", "b", "c")
        w = build_copy_model(grid, symbols)
        x, _ = copy_model_input(w, grid, symbols)
        assert [k for _, k in layer_runs(w)] == [1, 11]
        assert softmax_calls(w, x, capture=capture) == 2
        assert softmax_calls(w, x, capture=capture, first_row=w.config.num_patches + 1) == 2
        untied = dataclasses.replace(w, layers=[copy.deepcopy(lw) for lw in w.layers])
        assert softmax_calls(untied, x, capture=capture) == 12

    @pytest.mark.parametrize("case,runs_once", [
        ("routing", True), ("dense", False), ("norm", False), ("ffn", False),
        ("reads_writes", False), ("two_heads", False)])
    @pytest.mark.parametrize("first_row", [0, 7])
    def test_only_a_routing_write_disjoint_attention_only_run_without_norm_runs_once(
            self, case, runs_once, first_row):
        # 4 positions, 1 head (2 in case two_heads), 2 tiles of 5 rows:
        # every run of 1 tiles its rows
        n, layers = 10, 4
        heads = 2 if case == "two_heads" else 1
        cfg = small_config(layers=layers, heads=heads, embed_dim=8)
        rng = SeededRng(3)
        if case == "dense":  # writes no channel it reads, but densely
            lw = disjoint_layer(rng, heads, 8, read=4)
        else:  # q, k and v read channels 0..3 (4..7 in case reads_writes), wo writes 4..
            starts = (4, 5, 6, 4) if case == "reads_writes" else (0, 1, 2, 4)
            lw = eye_layer(8, starts, (1.5, 1.0, -2.0, 1.0), heads, w=3, w_v=2)
        if case == "ffn":
            lw = dataclasses.replace(lw, w1=rng.normal(size=(8, 5)), w2=rng.normal(size=(5, 8)))
        assert lw.ties == (case in ("routing", "norm"))
        assert (lw.writes == slice(0, 8)) == (case == "dense")
        w = dataclasses.replace(init_random_model(cfg, 3), layers=[lw] * layers,
                                norm=case == "norm")
        x = np.abs(rng.normal(size=(n, 8)))
        runs = [layers] if runs_once else [1] * layers
        assert [k for _, k in layer_runs(w)] == runs
        with mock.patch.object(model, "_TILE_BYTES", tile_bytes_for(n, 5)):
            tiles = [-(-(n - (first_row if i == len(runs) - 1 else 0)) * 2 // n)
                     for i in range(len(runs))]
            assert softmax_calls(w, x, first_row=first_row) == heads * sum(tiles)
            logits, cap = forward(x, w, capture=True, first_row=first_row)
        # bitwise against a reference whose positions from the last run's
        # start on compute the rows the run computes
        ref_logits, maps = reference_forward(x, w, first_row=first_row,
                                             tail_from=layers - runs[-1])
        np.testing.assert_array_equal(logits, ref_logits)
        np.testing.assert_array_equal(cap.maps[0][0],
                                      head_mean([m[len(m) - (n - first_row):] for m in maps]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), layers=st.integers(2, 6), d=st.integers(2, 12),
           n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_write_disjoint_tied_run_is_the_layer_by_layer_forward(self, data, layers, d,
                                                                    n, seed):
        start = data.draw(st.integers(0, layers - 2), label="run start")
        k = data.draw(st.integers(2, layers - start), label="run length")
        first_row = data.draw(st.integers(0, n - 1), label="first_row")
        read = data.draw(st.integers(1, d - 1), label="channels read")
        width = data.draw(st.integers(1, read), label="q/k width")
        v_width = data.draw(st.integers(1, min(read, d - read)), label="v width")
        cfg = small_config(layers=layers, heads=1, embed_dim=d)
        rng = SeededRng(seed)
        tied = eye_block_layer(data, rng, 1, d, range(read), range(read, d), width, v_width)
        w = init_random_model(cfg, seed)
        positions = [dataclasses.replace(lw, w1=None, w2=None) for lw in w.layers]
        positions[start:start + k] = [tied] * k
        w = dataclasses.replace(w, layers=positions, norm=False)
        runs = [1] * start + [k] + [1] * (layers - start - k)
        assert [kk for _, kk in layer_runs(w)] == runs
        x = np.abs(rng.normal(size=(n, d)))  # no -0.0 whose sign a skipped add would flip
        logits, cap = forward(x, w, capture=True, first_row=first_row)
        assert_matches_the_layer_by_layer_forward(x, w, first_row, runs[-1], logits, cap)


def edge_values(rng, shape):
    """Normal draws at magnitudes from 1e-8 to 1e8, about a tenth of them
    0.0, -0.0, inf or -inf."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    pick = rng.random(size=shape)
    for i, special in enumerate((0.0, -0.0, np.inf, -np.inf)):
        v[(pick >= 0.025 * i) & (pick < 0.025 * (i + 1))] = special
    return v


class TestTiedRunAdds:
    """A tied run of k positions adds its increment into the residual stream
    and each captured tile into the capture k times in a row, as one
    ``np.add.reduce`` over a stack (``model._add_times``). These tests pin
    numpy's order for that reduction: a numpy that stops adding a leading
    axis slice by slice fails here before it moves a digest."""

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(2, 12), rows=st.integers(1, 12), cols=st.integers(1, 80),
           start=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_one_reduction_is_bitwise_k_adds_on_a_strided_view(self, k, rows, cols, start,
                                                                 seed):
        rng = np.random.default_rng(seed)
        stream = edge_values(rng, (rows, cols + 5))  # the target is a span of its columns
        addend = edge_values(rng, (rows, cols + 3))[:, 1:cols + 1]
        seen = set()
        with np.errstate(invalid="ignore"):  # inf + -inf
            for size in (512, 8192):
                old = np.setbufsize(size)
                try:
                    want = stream.copy()
                    for _ in range(k):
                        want[:, start:start + cols] += addend
                    got = stream.copy()
                    model._add_times(got[:, start:start + cols], addend, k)
                finally:
                    np.setbufsize(old)
                seen |= {want.tobytes(), got.tobytes()}
        assert len(seen) == 1

    @pytest.mark.parametrize("k", range(2, 13))
    def test_a_one_element_target_adds_in_order(self, k):
        # 1 + 1e-16 rounds to 1 every time; from k = 7 on, numpy's pairwise sum of
        # a one-element reduction would add 1e-16 to itself first and round up
        target = np.ones((1, 1))
        model._add_times(target, np.full((1, 1), 1e-16), k)
        assert target[0, 0] == 1.0


def assert_matches_the_layer_by_layer_forward(x, w, first_row, last_run, logits, cap):
    """``forward``'s outputs, ``logits`` and the map ``cap``, against the
    reference forward: bitwise against the one whose positions from the last
    run's start on compute rows ``first_row:`` as that run does, and to
    rounding (a product over fewer rows, as in ``TestTiledForward``) against
    the one in which only the last layer does."""
    n = x.shape[0]
    for tail_from, exact in ((len(w.layers) - last_run, True), (None, False)):
        ref_logits, maps = reference_forward(x, w, first_row=first_row, tail_from=tail_from)
        check = np.testing.assert_array_equal if exact else (
            lambda got, ref: np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12))
        check(logits, ref_logits)
        if cap is not None:
            check(cap.maps[0][0], head_mean([m[len(m) - (n - first_row):] for m in maps]))


def with_every_product(lw):
    """A copy of ``lw`` whose ``scaled`` is cleared and whose ``writes`` are
    all d channels, so ``forward`` runs every projection as a dense product.
    (Zero-padding a block to make it non-square would also widen
    ``attn·v``, and BLAS rounds an (n, n)·(n, w) product differently from
    the first w columns of an (n, n)·(n, w+1) one at some shapes.)"""
    lw = copy.copy(lw)
    lw.scaled = (None,) * 4
    lw.writes = slice(0, lw.wq.shape[1])
    return lw


class TestScaledIdentities:
    """A projection that is c times the identity on one block
    (``LayerWeights.scaled``) runs no product: a view of its input where c
    is 1, a multiply by c otherwise. For finite inputs without -0.0 that is
    bitwise the dense product, at any tiling and ``first_row``."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), layers=st.integers(1, 4), heads=st.integers(1, 3),
           n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_scaled_identities_are_bitwise_the_products(self, data, layers, heads, n, seed):
        # with `disjoint` q, k and v read channels below `read_to` and wo
        # writes those above, so one-head attention-only positions repeating
        # one object tie; otherwise every block may sit anywhere
        rng = SeededRng(seed)
        w = data.draw(st.integers(1, 4), label="q/k width")
        w_v = data.draw(st.integers(1, 3), label="v width")
        read_to = max(w, w_v) + data.draw(st.integers(0, 3), label="read slack")
        d = read_to + heads * w_v + data.draw(st.integers(0, 3), label="write slack")
        d += -d % heads  # embed_dim is a multiple of heads
        disjoint = data.draw(st.booleans(), label="reads and writes disjoint")
        norm = data.draw(st.booleans(), label="norm")
        positions = []
        for _ in range(layers):
            if positions and data.draw(st.booleans(), label="repeat the layer before"):
                positions.append(positions[-1])
                continue
            lw = eye_block_layer(data, rng, heads, d, range(read_to if disjoint else d),
                                 range(read_to if disjoint else 0, d), w, w_v)
            if data.draw(st.booleans(), label="ffn"):
                lw = dataclasses.replace(lw, w1=rng.normal(size=(d, 3)),
                                         w2=rng.normal(size=(3, d), scale=0.1))
            positions.append(lw)
        products = {id(lw): with_every_product(lw) for lw in positions}
        cfg = small_config(layers=layers, heads=heads, embed_dim=d)
        wts = dataclasses.replace(init_random_model(cfg, seed), layers=positions, norm=norm)
        ref = dataclasses.replace(wts, layers=[products[id(lw)] for lw in positions])
        assert [k for _, k in layer_runs(wts)] == [k for _, k in layer_runs(ref)]
        x = rng.normal(size=(n, d))  # no -0.0
        before = x.tobytes()
        tile_rows = data.draw(st.integers(1, n), label="rows per tile")
        for first_row in (0, n - 1):
            with mock.patch.object(model, "_TILE_BYTES", tile_bytes_for(n, tile_rows)):
                logits, cap = forward(x, wts, capture=True, first_row=first_row)
                want, want_cap = forward(x, ref, capture=True, first_row=first_row)
            assert logits.tobytes() == want.tobytes()
            assert cap.maps[0][0].tobytes() == want_cap.maps[0][0].tobytes()
            assert x.tobytes() == before


class TestForwardNeverWritesItsInput:
    """The residual stream is copied out of ``x`` at its first write, into
    the forward's buffers, which never hold ``x``: neither ``forward``'s
    input nor the segments a step builds it from are written."""

    @staticmethod
    def model_input(kind):
        """(weights, x, response start) of a visual + prompt + response input."""
        if kind == "copy":
            grid, symbols = (2, 3), ("a", "b", "c")
            w = build_copy_model(grid, symbols)
            x, _ = copy_model_input(w, grid, symbols)
            return w, x, w.config.num_patches + 1
        w = init_random_model(small_config(layers=4, embed_dim=8), 5)
        if kind == "tied_first":
            # one one-head write-disjoint attention-only layer at
            # every position: the run starts at layer 1, so it adds into x's rows
            w = init_random_model(small_config(layers=4, heads=1, embed_dim=8), 5)
            lw = eye_layer(8, (0, 1, 2, 4), (1.5, 1.0, -2.0, 1.0), w=3, w_v=2)
            w = dataclasses.replace(w, layers=[lw] * 4, norm=False)
        x = np.vstack([encode_image([["a", "b"], ["c", "d"]], w), embed_prompt([1, 2], w),
                       embed_response([11, 3, 11], w)])
        return w, x, w.config.num_patches + 2

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("kind", ["tied_first", "copy", "random"])
    def test_forward_leaves_x_bitwise_unchanged(self, kind, capture):
        w, x, response_start = self.model_input(kind)
        if kind == "tied_first":
            assert [k for _, k in layer_runs(w)] == [4]
        before = x.tobytes()
        buffers = ForwardBuffers()
        for first_row in (0, response_start, 0):
            for kept in (None, buffers):
                forward(x, w, capture=capture, first_row=first_row, buffers=kept)
                assert x.tobytes() == before
        assert not any(np.shares_memory(a, x) for a in buffer_arrays(buffers))

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("kind", ["tied_first", "copy", "random"])
    def test_step_leaves_visual_and_prompt_bitwise_unchanged(self, kind, capture):
        w, x, response_start = self.model_input(kind)
        n = w.config.num_patches
        state = init_state(x[:n].copy(), x[n:response_start].copy(), 3, 2,
                           mask_token_id=w.config.mask_token_id)
        visual, prompt = state.visual.tobytes(), state.prompt.tobytes()
        for first_row in (0, response_start):
            step(state, w, SchedulePolicy.confidence(), capture=capture, first_row=first_row)
            assert state.visual.tobytes() == visual
            assert state.prompt.tobytes() == prompt
            assert not any(np.shares_memory(a, state.step_input)
                           for a in buffer_arrays(state.buffers))


class TestForwardBuffers:
    """``ForwardBuffers`` allocates only for new weights or more rows, and
    cuts one plan of views per (weights, n, first_row); a forward of fewer
    rows writes into prefixes of the same arrays."""

    @pytest.mark.parametrize("kind", ["random", "copy"])
    def test_arrays_are_allocated_only_for_new_weights_or_more_rows(self, kind):
        if kind == "copy":
            w = build_copy_model((4, 4), ("a", "b", "c"))
        else:
            w = init_random_model(small_config(), 0)
        buffers = ForwardBuffers()
        plan = buffers.plan(w, 24, 0)
        arrays = buffer_arrays(buffers)  # held, so no id is reused
        assert plan.resid.shape == (24, w.config.embed_dim)
        assert [run[0] for run in plan.runs] == [lw for lw, _ in layer_runs(w)]
        assert all(view is None or view.shape[0] == 24
                   for run in plan.runs for view in run[5:])
        for n, first_row in ((17, 0), (24, 20), (3, 2)):
            plan = buffers.plan(w, n, first_row)
            assert [id(a) for a in buffer_arrays(buffers)] == [id(a) for a in arrays]
            assert plan.resid.ctypes.data == arrays[0].ctypes.data  # a prefix
            assert all(view is None or np.shares_memory(view, arrays[0])
                       for run in plan.runs for view in run[5:])
        buffers.plan(w, 25, 0)
        grown = buffer_arrays(buffers)
        assert {id(a) for a in grown}.isdisjoint(id(a) for a in arrays)
        buffers.plan(init_random_model(small_config(), 1), 3, 0)
        assert {id(a) for a in buffer_arrays(buffers)}.isdisjoint(id(a) for a in grown)

    def test_one_plan_is_cut_per_n_and_first_row(self):
        w = init_random_model(small_config(), 0)
        buffers = ForwardBuffers()
        plan = buffers.plan(w, 12, 4)
        assert buffers.plan(w, 12, 5) is not plan
        assert buffers.plan(w, 11, 5) is not buffers.plan(w, 12, 5)
        assert buffers.plan(w, 12, 4) is plan  # kept, not cut again
        assert buffers.plan(w, 13, 4) is not plan  # more rows: new arrays, new plans
        last = buffers.plan(w, 12, 5)
        assert [run[2] for run in last.runs] == [0, 5]  # lo of each run
        assert last.runs[-1][5].shape == (7, w.layers[1].wq.shape[2])  # q of rows 5..11

    @pytest.mark.parametrize("gains,k_start,first_row,views", [
        ((1.0, 1.0, 1.0, 1.0), 3, 0, (True, True, True, True)),
        ((1.0, 1.0, 1.0, 1.0), 2, 0, (True, False, True, True)),
        ((2.0, 1.0, 1.0, -1.0), 2, 0, (False, True, True, False)),
        ((1.0, 1.0, 1.0, 1.0), 3, 9, (True, True, False, True))])
    def test_c_1_runs_as_a_view_but_where_numpy_would_round_it_differently(
            self, gains, k_start, first_row, views):
        # q reads channels 2..3: k on the same channels as a view of them
        # would make q @ k.T numpy's syrk, and a one-row tile (rows 9..9)
        # would make attn·v a vector product over a view
        lw = eye_layer(8, (2, k_start, 4, 6), gains, w=2, w_v=1)
        w = dataclasses.replace(init_random_model(small_config(layers=1, heads=1, embed_dim=8), 0),
                                layers=[lw], norm=False)
        assert ForwardBuffers().plan(w, 10, first_row).runs[0][4] == views

    @pytest.mark.parametrize("first_row", [0, 5])
    @pytest.mark.parametrize("norm", [False, True])
    def test_a_kept_set_gives_the_fresh_sets_bits(self, norm, first_row):
        w = dataclasses.replace(init_random_model(small_config(), 0), norm=norm)
        buffers = ForwardBuffers()
        for n in (12, 12, 8, 12):
            x = SeededRng(n).normal(size=(n, 16))
            logits, cap = forward(x, w, capture=True, first_row=first_row, buffers=buffers)
            want, want_cap = forward(x, w, capture=True, first_row=first_row)
            assert logits.tobytes() == want.tobytes()
            assert cap.maps[0][0].tobytes() == want_cap.maps[0][0].tobytes()


class TestFirstRunReuse:
    """A forward on the plan of the buffers' last forward reuses the first
    run's increment and captured rows when the model has no norm, that run
    has no FFN and the columns of ``x`` it reads are bitwise those it kept."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), layers=st.integers(1, 3), heads=st.integers(1, 2),
           n=st.integers(2, 12), routing=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_kept_forwards_give_the_fresh_forwards_bits(self, data, layers, heads, n,
                                                         routing, seed):
        d = 8
        rng = SeededRng(seed)
        w = init_random_model(small_config(layers=layers, heads=heads, embed_dim=d), seed)
        positions = [dataclasses.replace(lw, w1=None, w2=None) for lw in w.layers]
        if routing:  # reads channels 2..4, so edits of the others leave its inputs alone
            positions[0] = eye_block_layer(data, rng, heads, d, range(2, 5), range(5, 8), w=3,
                                           w_v=1)
        w = dataclasses.replace(w, layers=positions, norm=False)
        hull = ForwardBuffers().plan(w, n, 0).hull
        assert (2 <= hull.start and hull.stop <= 5) if routing else (hull == slice(0, d))
        x = rng.normal(size=(n, d))
        buffers = ForwardBuffers()
        for _ in range(data.draw(st.integers(2, 6), label="forwards")):
            row = data.draw(st.integers(0, n - 1), label="edited row")
            column = data.draw(st.sampled_from(["none", "read", "other"]), label="edited column")
            if column != "none":
                read = list(range(hull.start, hull.stop))
                c = data.draw(st.sampled_from(read if column == "read" else
                                              [c for c in range(d) if c not in read] or read))
                x[row, c] = data.draw(st.floats(-2, 2), label="value")
            first_row = data.draw(st.sampled_from([0, n - 1]), label="first_row")
            capture = data.draw(st.booleans(), label="capture")
            logits, cap = forward(x, w, capture=capture, first_row=first_row, buffers=buffers)
            want, want_cap = forward(x, w, capture=capture, first_row=first_row)
            assert logits.tobytes() == want.tobytes()
            if capture:
                assert cap.maps[0][0].tobytes() == want_cap.maps[0][0].tobytes()

    def test_a_copy8x8_baseline_decode_runs_the_broadcast_layer_at_most_twice(self):
        tasks = TaskParams(grid=(8, 8), alphabet=tuple("abcdefghijklmnop"))
        w = build_copy_model(tasks.grid, tasks.alphabet)
        task = gen_pointer_task(tasks.grid, tasks.alphabet, 5)
        visual, prompt = encode_image(task.image, w), embed_prompt(task.prompt, w)
        n = visual.shape[0] + prompt.shape[0] + 8
        with mock.patch.object(model, "softmax_rows", wraps=softmax_rows) as spy:
            ids, _, _ = run_inference(visual, prompt, 8, 8, w, SchedulePolicy.confidence())
        broadcast = [c for c in spy.call_args_list if c.args[0].shape[0] == n]  # all n rows
        assert len(spy.call_args_list) - len(broadcast) == 8  # the fetch run, every step
        assert 1 <= len(broadcast) <= 2
        np.testing.assert_array_equal(ids, np.full(8, task.expected))

    def test_one_slot_serves_forwards_on_plans_a_a_b_a_a(self):
        w = build_copy_model((2, 3), ("a", "b", "c"))
        x, _ = copy_model_input(w, (2, 3), ("a", "b", "c"))
        n = len(x)
        buffers = ForwardBuffers()
        ran, held = [], []
        for first_row in (7, 7, 6, 7, 7):
            with mock.patch.object(model, "softmax_rows", wraps=softmax_rows) as spy:
                logits, cap = forward(x, w, capture=True, first_row=first_row, buffers=buffers)
            want, want_cap = forward(x, w, capture=True, first_row=first_row)
            assert logits.tobytes() == want.tobytes()
            assert cap.maps[0][0].tobytes() == want_cap.maps[0][0].tobytes()
            ran.append(any(c.args[0].shape[0] == n for c in spy.call_args_list))  # all n rows
            a = buffers.plan(w, n, 7)
            assert buffers.kept is None or (len(buffers.kept) == 4 and buffers.kept[0] is a)
            held.append(buffers.kept is not None)
        # kept at the second forward on A, and reused after B only once A runs twice again
        assert ran == [True, True, True, True, False]
        assert held == [False, True, True, True, True]

    def test_a_grown_set_frees_its_old_array(self):
        w = build_copy_model((2, 3), ("a", "b", "c"))
        x, _ = copy_model_input(w, (2, 3), ("a", "b", "c"))
        buffers = ForwardBuffers()
        for _ in range(2):
            forward(x[:-1], w, capture=True, first_row=6, buffers=buffers)
        assert buffers.kept is not None  # its plan's views are of the old array
        old = weakref.ref(buffer_arrays(buffers)[0])
        forward(x, w, first_row=7, buffers=buffers)  # one row more: a new array
        assert old() is None

    @pytest.mark.parametrize("config", [
        dict(layers=4, heads=4, embed_dim=128, vision_dim=16, ffn_dim=256, vocab_size=64,
             patch_grid=(32, 32), mask_token_id=63),
        dict(layers=1, heads=1, embed_dim=4, vision_dim=2, ffn_dim=4, vocab_size=4,
             patch_grid=(1, 1), mask_token_id=3)], ids=["vit1024", "tiny16"])
    def test_a_norm_model_keeps_no_copy(self, config):
        w = init_random_model(ModelConfig(**config), 0)
        n = w.config.num_patches + 16 + 32
        x = SeededRng(1).normal(size=(n, w.config.embed_dim))
        buffers = ForwardBuffers()
        for _ in range(3):
            forward(x, w, capture=True, first_row=n - 32, buffers=buffers)
        plan = buffers.plan(w, n, n - 32)
        assert buffers.last is plan  # the forwards ran on one plan
        assert plan.hull is None and buffers.kept is None


class TestForwardAllocations:
    @staticmethod
    def forward_peak(n, width=32, vocab=64, **kwargs):
        cfg = small_config(embed_dim=width, ffn_dim=2 * width, vocab_size=vocab,
                           mask_token_id=vocab - 1, patch_grid=(16, 32))
        w = init_random_model(cfg, 0)
        x = SeededRng(0).normal(size=(n, cfg.embed_dim))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            forward(x, w, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("capture,maps", [(False, 2), (True, 3)])
    def test_peak_is_a_few_score_maps(self, capture, maps):
        # a fresh array for each stage of each head's softmax peaks above 5 maps
        n = 512
        assert self.forward_peak(n, capture=capture) <= maps * 8 * n * n

    @pytest.mark.parametrize("kwargs", [{}, {"capture": True, "first_row": 512 - 32}])
    def test_peak_stays_below_one_map(self, kwargs):
        # a half-map score tile and a 32-row capture; the model is narrow, so its
        # (n, width) activations and (n, vocab) logits stay small next to a map
        n = 512
        assert self.forward_peak(n, width=16, vocab=16, **kwargs) < 8 * n * n


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


def zero_padded_to_width_d(w):
    """The one-head copy model with each head's q, k and v zero-padded to width
    d, ``wo`` to (d, d), and an all-zero FFN of width ``config.ffn_dim`` in
    every layer: the dense weights that compact, FFN-free layers replace."""
    d, mu = w.config.embed_dim, w.config.ffn_dim
    assert w.config.heads == 1

    def pad(m):
        out = np.zeros((m.shape[0], m.shape[1], d))
        out[:, :, :m.shape[2]] = m
        return out

    layers = []
    for lw in w.layers:
        wo = np.zeros((d, d))
        wo[:lw.wo.shape[0]] = lw.wo
        layers.append(dataclasses.replace(lw, wq=pad(lw.wq), wk=pad(lw.wk), wv=pad(lw.wv),
                                          wo=wo, w1=np.zeros((d, mu)), w2=np.zeros((mu, d))))
    return dataclasses.replace(w, layers=layers)


class TestCopyModel:
    def test_exhaustive_2x2(self):
        symbols = ("a", "b", "c", "d")
        w = build_copy_model((2, 2), symbols)
        vocab = CopyTaskVocab(symbols, 4)
        image = [["c", "a"], ["d", "b"]]
        flat = [s for row in image for s in row]
        for target in range(4):
            ids, _ = decode_pointer(w, vocab, image, target)
            assert ids[0] == vocab.symbol_id(flat[target]), f"target {target}"

    def test_attention_mass_on_target(self):
        symbols = ("a", "b", "c", "d")
        w = build_copy_model((2, 2), symbols)
        vocab = CopyTaskVocab(symbols, 4)
        target = 2
        _, trace = decode_pointer(w, vocab, [["a", "b"], ["c", "d"]], target)
        abar = mean_attention(trace[0].attention)
        masked_row = 4 + 1 + 0  # position 0 is still masked after step 1
        assert abar[masked_row, target] >= 0.9
        assert np.argmax(abar[masked_row, :4]) == target

    def test_prompt_index_controls_answer(self):
        symbols = ("p", "q", "r", "s", "t", "u")
        w = build_copy_model((2, 3), symbols)
        vocab = CopyTaskVocab(symbols, 6)
        image = [["p", "q", "r"], ["s", "t", "u"]]
        ids5, _ = decode_pointer(w, vocab, image, 5)
        ids2, _ = decode_pointer(w, vocab, image, 2)
        assert ids5[0] == vocab.symbol_id("u")
        assert ids2[0] == vocab.symbol_id("r")

    @pytest.mark.parametrize("grid", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_soundness_up_to_3x3(self, grid):
        symbols = ("a", "b", "c", "d")
        w = build_copy_model(grid, symbols)
        n = grid[0] * grid[1]
        vocab = CopyTaskVocab(symbols, n)
        rng = SeededRng(10)
        for trial in range(3):
            flat = [symbols[int(i)] for i in rng.integers(0, len(symbols), size=n)]
            image = [flat[r * grid[1] : (r + 1) * grid[1]] for r in range(grid[0])]
            for target in range(n):
                ids, _ = decode_pointer(w, vocab, image, target)
                assert ids[0] == vocab.symbol_id(flat[target])

    def test_config_is_the_smallest_host(self):
        symbols = ("a", "b", "c")
        w = build_copy_model((2, 3), symbols)
        assert w.config == copy_model_config((2, 3), symbols)
        assert (w.config.heads, w.config.embed_dim) == (1, 2 * 6 + 4 + 2 * 3)
        # the layers carry no FFN, but the config keeps ffn_dim = 1 for the cost model
        assert w.config.ffn_dim == 1

    def test_each_layer_stores_only_the_head_columns_it_routes(self):
        n, a = 6, 3
        w = build_copy_model((2, 3), ("a", "b", "c"))
        d = w.config.embed_dim
        broadcast, *fetch = w.layers
        assert ([x.shape for x in (broadcast.wq, broadcast.wk, broadcast.wv, broadcast.wo)]
                == [(1, d, n), (1, d, n), (1, d, 1), (1, d)])
        assert len(fetch) == w.config.layers - 1
        assert all(lw is fetch[0] for lw in fetch)  # one tied layer object
        for lw in fetch:
            assert [x.shape for x in (lw.wq, lw.wk, lw.wv, lw.wo)] == [
                (1, d, 1), (1, d, 1), (1, d, a), (a, d)]

    @pytest.mark.parametrize("grid,num_symbols", [((2, 2), 4), ((2, 3), 6), ((8, 8), 16)])
    def test_compact_heads_are_bitwise_the_zero_padded_heads(self, grid, num_symbols):
        symbols = tuple(f"s{j}" for j in range(num_symbols))
        w = build_copy_model(grid, symbols)
        dense = zero_padded_to_width_d(w)
        n = w.config.num_patches
        vocab = CopyTaskVocab(symbols, n)
        x, flat = copy_model_input(w, grid, symbols)
        for first_row in (0, n + 1):
            logits, cap = forward(x, w, capture=True, first_row=first_row)
            want_logits, want = forward(x, dense, capture=True, first_row=first_row)
            np.testing.assert_array_equal(logits, want_logits)
            np.testing.assert_array_equal(cap.maps[0][0], want.maps[0][0])
            assert np.argmax(logits[n + 1 - first_row]) == vocab.symbol_id(flat[n - 1])

    @pytest.mark.parametrize("copy", [True, False])
    def test_gelu_runs_once_per_layer_with_an_ffn(self, copy):
        # copy layers are attention-only, so their forward runs no FFN at all
        w = (build_copy_model((2, 3), ("a", "b", "c")) if copy
             else init_random_model(small_config(layers=3), 0))
        x = SeededRng(1).normal(size=(9, w.config.embed_dim))
        with mock.patch.object(model, "gelu", wraps=gelu) as spy:
            forward(x, w, capture=True, first_row=7)
        assert spy.call_count == (0 if copy else w.config.layers)
        assert all(lw.w1 is None for lw in w.layers) == copy

    @pytest.mark.parametrize("copy", [True, False])
    def test_layer_norm_runs_before_each_sublayer_and_the_head(self, copy):
        # a random model norms before attention, before the FFN and before the head
        w = (build_copy_model((2, 3), ("a", "b", "c")) if copy
             else init_random_model(small_config(layers=3), 0))
        x = SeededRng(1).normal(size=(9, w.config.embed_dim))
        with mock.patch.object(model, "layer_norm", wraps=layer_norm) as spy:
            forward(x, w, capture=True, first_row=7)
        assert spy.call_count == (0 if copy else 2 * w.config.layers + 1)
        assert w.norm != copy

    def test_repeated_symbols_rejected(self):
        # with a repeated symbol the copy model and the task answers disagree on its id
        with pytest.raises(ValueError, match="distinct"):
            CopyTaskVocab(("a", "a", "b"), 4)

    @pytest.mark.parametrize("grid", ["x", (), (2,), (1, 2, 3)])
    def test_copy_config_needs_two_sides(self, grid):
        with pytest.raises(ValueError):
            copy_model_config(grid, ("a", "b"))
