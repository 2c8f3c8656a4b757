import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from dlmprune import decoder, pruning
from dlmprune.decoder import (PolicyKind, SchedulePolicy, decode_quota, init_state,
                              remask_prob, run_inference, step)
from dlmprune.model import (CopyTaskVocab, ModelConfig, build_copy_model, embed_prompt,
                            embed_response, encode_image, forward, init_random_model)
from dlmprune.numerics import SeededRng, softmax_rows
from dlmprune.pruning import (EmptyGuidanceSet, KeepSet, PrunePlan, ScorerKind, apply_prune,
                              first_guidance_row, keep_schedule, plan_progressive, prune_to,
                              step_scores)
from test_model import buffer_arrays


def tiny_model(seed=1, grid=(2, 2), vocab=12):
    cfg = ModelConfig(layers=1, heads=1, embed_dim=8, vision_dim=4, ffn_dim=8,
                      vocab_size=vocab, patch_grid=grid, mask_token_id=vocab - 1)
    return cfg, init_random_model(cfg, seed)


def tiny_inputs(weights, seed=0, prompt_len=2):
    rng = SeededRng(seed)
    rows, cols = weights.config.patch_grid
    grid = [[f"s{int(rng.integers(0, 5))}" for _ in range(cols)] for _ in range(rows)]
    visual = encode_image(grid, weights)
    prompt = embed_prompt(rng.integers(0, weights.config.vocab_size - 1, size=prompt_len),
                          weights)
    return visual, prompt


class TestInitState:
    def test_initial_sets(self):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        st = init_state(v, p, 4, 8, mask_token_id=cfg.mask_token_id)
        assert st.masked_positions().tolist() == [0, 1, 2, 3]
        assert st.masked.all()
        assert st.step == 1
        np.testing.assert_array_equal(st.visual_index_map, [0, 1, 2, 3])
        assert np.all(st.response_ids == cfg.mask_token_id)

    def test_empty_prompt_is_legal(self):
        cfg, w = tiny_model()
        v, _ = tiny_inputs(w)
        st = init_state(v, np.zeros((0, 8)), 2, 2, mask_token_id=cfg.mask_token_id)
        assert st.prompt_len == 0 and st.seq_len == 4 + 0 + 2

    @pytest.mark.parametrize("tau,steps", [(0, 4), (4, 0)])
    def test_bad_counts(self, tau, steps):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        with pytest.raises(ValueError):
            init_state(v, p, tau, steps, mask_token_id=cfg.mask_token_id)


class TestRemaskProb:
    def test_first_step_value(self):
        assert remask_prob(1, 16) == pytest.approx(15.0 / 16.0)

    def test_final_step_zero(self):
        for k_total in (1, 4, 16):
            assert remask_prob(k_total, k_total) == 0.0

    def test_telescoping_product(self):
        prod = 1.0
        for k in range(1, 9):
            prod *= remask_prob(k, 16)
        assert prod == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            remask_prob(0, 16)
        with pytest.raises(ValueError):
            remask_prob(17, 16)


class TestDecodeQuota:
    def test_one_per_step(self):
        assert [decode_quota(k, 16, 16) for k in range(1, 17)] == [1] * 16

    def test_quotas_sum_to_tau(self):
        rng = SeededRng(11)
        for _ in range(50):
            tau = int(rng.integers(1, 40))
            steps = int(rng.integers(1, 25))
            quotas = [decode_quota(k, tau, steps) for k in range(1, steps + 1)]
            assert sum(quotas) == tau
            assert all(q >= 0 for q in quotas)


def reference_step(state, weights, policy, rng):
    """One step committed position by position: the loop that step() vectorises."""
    k = state.step
    x = np.vstack([state.visual, state.prompt, embed_response(state.response_ids, weights)])
    resp_logits = forward(x, weights)[0][state.num_visual + state.prompt_len:]
    entry_masked = state.masked_positions()
    if policy.kind == PolicyKind.STOCHASTIC:
        stay = rng.random(size=entry_masked.size) < remask_prob(k, state.total_steps)
        commit = [int(p) for p in entry_masked[~stay]]
    else:
        quota = min(decode_quota(k, state.response_len, state.total_steps), entry_masked.size)
        conf = softmax_rows(resp_logits[entry_masked]).max(axis=1)
        commit = [int(entry_masked[i]) for i in np.argsort(-conf, kind="stable")[:quota]]
    for p in commit:
        state.response_ids[p] = int(np.argmax(resp_logits[p]))
        state.masked[p] = False
    state.step = k + 1
    return sorted(commit)


class TestStep:
    @pytest.mark.parametrize("policy", [SchedulePolicy.confidence(),
                                        SchedulePolicy.stochastic(8)])
    @pytest.mark.parametrize("first_row", [0, 3, 6])  # 6: the response start
    def test_matches_per_position_reference(self, policy, first_row):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        st, ref = (init_state(v, p, 7, 5, mask_token_id=cfg.mask_token_id) for _ in range(2))
        rng, ref_rng = SeededRng(8), SeededRng(8)
        for _ in range(5):
            st, out = step(st, w, policy, rng, capture=False, first_row=first_row)
            assert out.newly_decoded.tolist() == reference_step(ref, w, policy, ref_rng)
            np.testing.assert_array_equal(st.response_ids, ref.response_ids)
            np.testing.assert_array_equal(st.masked, ref.masked)
        assert not st.masked.any()

    def test_decoded_positions_never_change(self):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        st = init_state(v, p, 6, 6, mask_token_id=cfg.mask_token_id)
        policy = SchedulePolicy.confidence()
        committed = {}
        for _ in range(6):
            st, out = step(st, w, policy, capture=False)
            for pos, tid in committed.items():
                assert st.response_ids[pos] == tid
            for pos in out.newly_decoded:
                committed[int(pos)] = int(st.response_ids[pos])
        assert len(committed) == 6

    def test_confidence_commits_quota(self):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        st = init_state(v, p, 16, 16, mask_token_id=cfg.mask_token_id)
        policy = SchedulePolicy.confidence()
        for _ in range(16):
            st, out = step(st, w, policy, capture=False)
            assert out.newly_decoded.size == 1
        assert not st.masked.any()

    def test_stochastic_requires_rng(self):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        st = init_state(v, p, 2, 2, mask_token_id=cfg.mask_token_id)
        with pytest.raises(ValueError):
            step(st, w, SchedulePolicy.stochastic(1), rng=None)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SchedulePolicy(PolicyKind.STOCHASTIC)

    def test_first_row_past_the_response_start_rejected(self):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        st = init_state(v, p, 3, 3, mask_token_id=cfg.mask_token_id)
        with pytest.raises(ValueError, match="response start 6"):
            step(st, w, SchedulePolicy.confidence(), first_row=7)
        assert st.step == 1 and st.masked.all()

    def test_attention_capture_dims(self):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        st = init_state(v, p, 3, 4, mask_token_id=cfg.mask_token_id)
        st, out = step(st, w, SchedulePolicy.confidence())
        assert out.attention.maps[0][0].shape == (4 + 2 + 3, 4 + 2 + 3)


class TestStochasticMarginal:
    def test_masked_fraction_tracks_schedule(self):
        cfg, w = tiny_model(grid=(1, 1))
        v, p = tiny_inputs(w, prompt_len=0)
        steps, tau, trials = 8, 16, 200
        still_masked = np.zeros(steps)
        for t in range(trials):
            st = init_state(v, p, tau, steps, mask_token_id=cfg.mask_token_id)
            rng = SeededRng(1000 + t)
            policy = SchedulePolicy.stochastic(1000 + t)
            for k in range(steps):
                st, _ = step(st, w, policy, rng, capture=False)
                still_masked[k] += st.masked.sum()
        fractions = still_masked / (trials * tau)
        for k in range(steps):
            assert abs(fractions[k] - (1.0 - (k + 1) / steps)) < 0.04


class TestRunInference:
    def test_keep_all_ratio_is_identity(self):
        cfg, w = tiny_model(seed=9)
        v, p = tiny_inputs(w, seed=4)
        for policy in (SchedulePolicy.confidence(), SchedulePolicy.stochastic(77)):
            base, _, _ = run_inference(v, p, 5, 4, w, policy, None)
            for plan in (PrunePlan.once(1.0), PrunePlan.random_once(1.0, seed=5)):
                pruned, _, _ = run_inference(v, p, 5, 4, w, policy, plan)
                np.testing.assert_array_equal(base, pruned)

    def test_copy_model_decodes_planted_symbol(self):
        symbols = ("a", "b", "c", "d")
        w = build_copy_model((2, 2), symbols)
        from dlmprune.model import CopyTaskVocab
        vocab = CopyTaskVocab(symbols, 4)
        visual = encode_image([["b", "a"], ["d", "c"]], w)
        prompt = embed_prompt([vocab.index_id(2)], w)
        for policy in (SchedulePolicy.confidence(), SchedulePolicy.stochastic(3)):
            ids, _, _ = run_inference(visual, prompt, 3, 3, w, policy, None)
            assert ids[0] == vocab.symbol_id("d")

    def test_single_step_decodes_everything(self):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        for policy in (SchedulePolicy.confidence(), SchedulePolicy.stochastic(5)):
            ids, trace, _ = run_inference(v, p, 4, 1, w, policy, None)
            assert len(trace) == 1
            assert np.all(ids != cfg.mask_token_id)

    def test_masked_sets_shrink_monotonically(self):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        _, trace, _ = run_inference(v, p, 8, 4, w, SchedulePolicy.stochastic(21), None)
        seen = set()
        for out in trace:
            newly = set(out.newly_decoded.tolist())
            assert not (newly & seen)
            seen |= newly
        assert seen == set(range(8))

    def test_pruned_run_lengths(self):
        cfg, w = tiny_model(grid=(3, 3))
        v, p = tiny_inputs(w)
        plan = PrunePlan.once(0.5)
        _, trace, stats = run_inference(v, p, 4, 4, w, SchedulePolicy.confidence(), plan)
        # step 1 at full length, steps 2+ at pruned length
        assert stats.per_step_lengths == [9 + 2 + 4, 4 + 2 + 4, 4 + 2 + 4, 4 + 2 + 4]
        assert all(out.attention is None for out in trace)  # maps live only to score
        # the same prune by hand: the capture after it covers the pruned sequence
        st = init_state(v, p, 4, 4, mask_token_id=cfg.mask_token_id)
        st, out = step(st, w, SchedulePolicy.confidence())
        assert out.attention.maps[0][0].shape == (15, 15)
        prune_to(st, plan, 4, out.attention)
        _, out = step(st, w, SchedulePolicy.confidence())
        assert out.attention.maps[0][0].shape == (10, 10)

    def test_progressive_lengths_follow_counts(self):
        cfg, w = tiny_model(grid=(3, 3))
        v, p = tiny_inputs(w)
        plan = PrunePlan.progressive(0.5, scorer=ScorerKind.MASKED)
        _, _, stats = run_inference(v, p, 6, 4, w, SchedulePolicy.confidence(), plan)
        # budget 9 - keep(4) = 5 over 3 steps, remainder first: [2, 2, 1]
        assert plan_progressive(9, 0.5, 4) == [2, 2, 1]
        assert stats.per_step_lengths == [17, 15, 13, 12]

    @pytest.mark.parametrize("plan", [None, PrunePlan.once(0.5),
                                      PrunePlan.random_once(0.5, seed=3),
                                      PrunePlan.progressive(0.25)])
    def test_lengths_follow_keep_schedule(self, plan):
        cfg, w = tiny_model(grid=(3, 3))
        v, p = tiny_inputs(w)
        _, _, stats = run_inference(v, p, 6, 4, w, SchedulePolicy.confidence(), plan)
        assert stats.per_step_lengths == [n + 2 + 6 for n in keep_schedule(plan, 9, 4)]

    @settings(max_examples=80, deadline=None)
    @given(tau=hst.integers(1, 8), steps=hst.integers(1, 8), stochastic=hst.booleans(),
           scorer=hst.sampled_from(list(ScorerKind)),
           strategy=hst.sampled_from([None, "once", "progressive"]),
           seed=hst.integers(0, 2**32 - 1))
    def test_score_trace_has_one_entry_per_step_leaving_masked_rows(self, tau, steps,
                                                                     stochastic, scorer,
                                                                     strategy, seed):
        assume(strategy != "progressive" or steps > 1)
        cfg, w = tiny_model(grid=(3, 3))
        v, p = tiny_inputs(w)
        policy = SchedulePolicy.stochastic(seed) if stochastic else SchedulePolicy.confidence()
        plan = {None: None, "once": PrunePlan.once(0.5, scorer),
                "progressive": PrunePlan.progressive(0.25, scorer)}[strategy]
        keeps = []

        def recording_apply_prune(state, keep):
            keeps.append(keep.indices)
            return apply_prune(state, keep)

        with mock.patch.object(pruning, "apply_prune", recording_apply_prune):
            try:
                _, _, stats = run_inference(v, p, tau, steps, w, policy, plan,
                                            score_with=scorer)
                got = stats.score_trace
            except EmptyGuidanceSet:
                got = None
            got_keeps, keeps[:] = keeps[:], []
            # the same steps by hand: entry i is the scores after the i-th
            # step that leaves masked rows
            schedule = keep_schedule(plan, 9, steps)
            st = init_state(v, p, tau, steps, mask_token_id=cfg.mask_token_id)
            rng = SeededRng(seed) if stochastic else None
            want = []
            try:
                while st.masked.any():
                    k = st.step
                    # run_inference's rows: the plan and score_with share the scorer
                    first_row = first_guidance_row(st, scorer)
                    st, out = step(st, w, policy, rng, first_row=first_row)
                    assert out.attention.first_row == first_row
                    if st.masked.any():
                        want.append(step_scores(st, out.attention, scorer))
                        if k < steps and schedule[k] < st.num_visual:
                            prune_to(st, plan, schedule[k], out.attention)
            except EmptyGuidanceSet:
                want = None
        if want is None:
            assert got is None
            return
        assert len(got) == len(want)
        for g, ref in zip(got, want):
            np.testing.assert_array_equal(g, ref)
        assert len(got_keeps) == len(keeps)
        for g, ref in zip(got_keeps, keeps):
            np.testing.assert_array_equal(g, ref)

    @pytest.mark.parametrize("scorer,first_row", [
        (ScorerKind.VISUAL, 0), (ScorerKind.PROMPT, 9), (ScorerKind.PROMPT_MASKED, 9),
        (ScorerKind.PROMPT_RESPONSE, 9), (ScorerKind.MASKED, 11), (ScorerKind.DECODED, 11),
        (ScorerKind.ALL_RESPONSE, 11)])
    def test_capture_starts_at_the_first_row_a_scorer_reads(self, scorer, first_row):
        cfg, w = tiny_model(grid=(3, 3))
        v, p = tiny_inputs(w)
        seen = []

        def recording_forward(x, weights, capture=False, first_row=0, buffers=None):
            seen.append((capture, first_row))
            return forward(x, weights, capture=capture, first_row=first_row, buffers=buffers)

        with mock.patch.object(decoder, "forward", recording_forward):
            run_inference(v, p, 6, 3, w, SchedulePolicy.confidence(), None, score_with=scorer)
        assert seen == [(True, first_row)] * 3
        # the capture spans from the earlier of two scorers' first rows; after
        # the prune to 4 of 9 visual tokens every later segment starts 5 rows up
        seen.clear()
        with mock.patch.object(decoder, "forward", recording_forward):
            run_inference(v, p, 6, 3, w, SchedulePolicy.confidence(),
                          PrunePlan.once(0.5, ScorerKind.MASKED), score_with=scorer)
        pruned_first_row = first_row and first_row - 5
        assert seen == [(True, min(first_row, 11))] + [(True, pruned_first_row)] * 2
        # without a scorer every step reads only the response logits, from row 11
        seen.clear()
        with mock.patch.object(decoder, "forward", recording_forward):
            run_inference(v, p, 6, 3, w, SchedulePolicy.confidence(), None)
        assert seen == [(False, 11)] * 3

    @settings(max_examples=60, deadline=None)
    @given(tau=hst.integers(1, 8), steps=hst.integers(1, 8), stochastic=hst.booleans(),
           strategy=hst.sampled_from([None, "once", "random", "progressive"]),
           ratio=hst.sampled_from([0.25, 0.5, 1.0]), seed=hst.integers(0, 2**32 - 1))
    def test_commits_partition_the_response_and_never_change(self, tau, steps, stochastic,
                                                             strategy, ratio, seed):
        assume(strategy != "progressive" or steps > 1)
        cfg, w = tiny_model(grid=(3, 3))
        v, p = tiny_inputs(w)
        policy = SchedulePolicy.stochastic(seed) if stochastic else SchedulePolicy.confidence()
        plan = {None: None, "once": PrunePlan.once(ratio),
                "random": PrunePlan.random_once(ratio, seed=seed),
                "progressive": PrunePlan.progressive(ratio)}[strategy]
        snapshots = []

        def recording_step(state, *args, **kwargs):
            state, out = step(state, *args, **kwargs)
            snapshots.append(state.response_ids.copy())
            return state, out

        with mock.patch.object(decoder, "step", recording_step):
            ids, trace, _ = run_inference(v, p, tau, steps, w, policy, plan)
        newly = [set(out.newly_decoded.tolist()) for out in trace]
        assert sum(map(len, newly)) == tau and set().union(*newly) == set(range(tau))
        committed: dict = {}
        for ids_now, new in zip(snapshots, newly):
            committed.update((pos, ids_now[pos]) for pos in new)
            assert {pos: ids_now[pos] for pos in committed} == committed
            masked = sorted(set(range(tau)) - set(committed))
            assert np.all(ids_now[masked] == cfg.mask_token_id)
        assert ids.tolist() == [committed[pos] for pos in range(tau)]

    def test_score_trace_is_empty_without_score_with(self):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        _, _, stats = run_inference(v, p, 4, 4, w, SchedulePolicy.confidence(), None)
        assert stats.score_trace == []

    def test_score_with_empty_guidance_set_raises(self):
        # tau 2 over K 8 commits nothing at step 1, so there are no decoded
        # rows to score; the step is not dropped from the trace
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        with pytest.raises(EmptyGuidanceSet):
            run_inference(v, p, 2, 8, w, SchedulePolicy.confidence(), None,
                          score_with=ScorerKind.DECODED)

    def test_ufunc_buffer_size_is_the_callers_after_a_decode(self):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        seen = []

        def recording_forward(*args, **kwargs):
            seen.append(np.getbufsize())
            return forward(*args, **kwargs)

        caller = np.setbufsize(1024)
        try:
            with mock.patch.object(decoder, "forward", recording_forward):
                run_inference(v, p, 4, 2, w, SchedulePolicy.confidence(), None)
            assert np.getbufsize() == 1024
            # tau 2 over K 8 commits nothing at step 1: the decoded scorer raises
            with pytest.raises(EmptyGuidanceSet):
                run_inference(v, p, 2, 8, w, SchedulePolicy.confidence(),
                              PrunePlan.once(0.5, ScorerKind.DECODED))
            assert np.getbufsize() == 1024
        finally:
            np.setbufsize(caller)
        assert seen == [decoder._UFUNC_BUFSIZE] * 2

    def test_invalid_progressive_counts(self):
        # a single step leaves no step to spread the progressive removals over
        cfg, w = tiny_model(grid=(3, 3))
        v, p = tiny_inputs(w)
        with pytest.raises(ValueError):
            run_inference(v, p, 4, 1, w, SchedulePolicy.confidence(),
                          PrunePlan.progressive(0.5))


def rebuilt_input(state, weights):
    return np.vstack([state.visual, state.prompt, embed_response(state.response_ids, weights)])


def model_and_segments(kind):
    """(weights, visual, prompt) of a 3x3-grid copy model or random model."""
    if kind == "copy":
        symbols = ("a", "b", "c", "d")
        w = build_copy_model((3, 3), symbols)
        image = [["b", "a", "d"], ["c", "a", "b"], ["d", "d", "c"]]
        prompt = embed_prompt([CopyTaskVocab(symbols, 9).index_id(5)], w)
        return w, encode_image(image, w), prompt
    _, w = tiny_model(grid=(3, 3))
    return (w, *tiny_inputs(w))


class TestKeptStepInput:
    """The input a state keeps between steps is, at every forward, the input
    rebuilt from its visual, prompt and response rows."""

    @pytest.mark.parametrize("policy", [SchedulePolicy.confidence(),
                                        SchedulePolicy.stochastic(6)])
    @pytest.mark.parametrize("plan", [None, PrunePlan.once(0.5),
                                      PrunePlan.random_once(0.5, seed=4),
                                      PrunePlan.progressive(0.25)])
    @pytest.mark.parametrize("kind", ["random", "copy"])
    def test_every_forward_reads_the_rebuilt_rows(self, kind, plan, policy):
        w, v, p = model_and_segments(kind)
        current, lengths = [], []

        def recording_step(state, *args, **kwargs):
            current[:] = [state]
            return step(state, *args, **kwargs)

        def checking_forward(x, weights, **kwargs):
            want = rebuilt_input(current[0], weights)
            assert x.shape == want.shape and x.tobytes() == want.tobytes()
            lengths.append(x.shape[0])
            return forward(x, weights, **kwargs)

        with mock.patch.object(decoder, "step", recording_step), \
                mock.patch.object(decoder, "forward", checking_forward):
            _, trace, stats = run_inference(v, p, 6, 4, w, policy, plan)
        assert lengths == stats.per_step_lengths and len(lengths) == len(trace) > 1
        assert (len(set(lengths)) > 1) == (plan is not None)

    def test_a_step_after_apply_prune_reads_the_pruned_rows(self):
        cfg, w = tiny_model(grid=(3, 3))
        v, p = tiny_inputs(w)
        state = init_state(v, p, 4, 4, mask_token_id=cfg.mask_token_id)
        step(state, w, SchedulePolicy.confidence())
        apply_prune(state, KeepSet(indices=np.array([1, 4, 7])))
        # the prune gathers the kept rows: bitwise the input rebuilt from them
        want = np.vstack([v[[1, 4, 7]], p, embed_response(state.response_ids, w)])
        assert state.step_input.shape == want.shape
        assert state.step_input.tobytes() == want.tobytes()
        seen = []

        def recording_forward(x, weights, **kwargs):
            seen.append(x.copy())
            return forward(x, weights, **kwargs)

        with mock.patch.object(decoder, "forward", recording_forward):
            step(state, w, SchedulePolicy.confidence())
        assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()
        assert state.step_input.tobytes() == rebuilt_input(state, w).tobytes()


def buffered_model(kind):
    """(weights, visual, prompt) of a 3x3-grid model: two two-head layers
    with norm and FFN, without norm, or without FFN; or the copy model,
    whose fetch layers run as one tied run."""
    if kind == "copy":
        return model_and_segments("copy")
    cfg = ModelConfig(layers=2, heads=2, embed_dim=8, vision_dim=4, ffn_dim=12,
                      vocab_size=12, patch_grid=(3, 3), mask_token_id=11)
    w = init_random_model(cfg, 3)
    if kind == "no_norm":
        w = dataclasses.replace(w, norm=False)
    elif kind == "no_ffn":
        w = dataclasses.replace(w, layers=[dataclasses.replace(lw, w1=None, w2=None)
                                           for lw in w.layers])
    return (w, *tiny_inputs(w))


class TestBufferedForward:
    """A decode's forwards write their intermediates into the state's
    ``ForwardBuffers``, sized at step 1 and cut to prefixes after a prune,
    and return bitwise what a forward with fresh buffers returns."""

    @pytest.mark.parametrize("variant", ["once", "progressive", "scored"])
    @pytest.mark.parametrize("scorer", [ScorerKind.VISUAL, ScorerKind.MASKED])
    @pytest.mark.parametrize("kind", ["norm_ffn", "no_norm", "no_ffn", "copy"])
    def test_every_forward_equals_the_unbuffered_one(self, kind, scorer, variant):
        w, v, p = buffered_model(kind)
        plan = {"once": PrunePlan.once(0.5, scorer), "progressive": PrunePlan.progressive(
            0.25, scorer), "scored": None}[variant]
        score_with = scorer if variant == "scored" else None
        seen, arrays_seen = [], {}

        def checking_forward(x, weights, capture=False, first_row=0, buffers=None):
            logits, cap = forward(x, weights, capture, first_row, buffers)
            want, want_cap = forward(x, weights, capture, first_row)
            assert logits.tobytes() == want.tobytes()
            assert (cap is None) == (want_cap is None)
            if cap is not None:
                assert cap.maps[0][0].tobytes() == want_cap.maps[0][0].tobytes()
            arrays = buffer_arrays(buffers)
            step1 = arrays_seen.setdefault("step 1", arrays)
            assert [id(a) for a in arrays] == [id(a) for a in step1]  # none new after step 1
            for a in arrays:
                assert not np.shares_memory(a, x)
                assert not np.shares_memory(a, logits)
                assert cap is None or not np.shares_memory(a, cap.maps[0][0])
            seen.append((x.shape[0], first_row, capture, buffers))
            return logits, cap

        with mock.patch.object(decoder, "forward", checking_forward):
            run_inference(v, p, 6, 4, w, SchedulePolicy.confidence(), plan,
                          score_with=score_with)
        lengths = [n for n, _, _, _ in seen]
        assert len({id(b) for *_, b in seen}) == 1  # one set of buffers per decode
        assert (lengths[-1] < lengths[0]) == (variant != "scored")
        assert any(c for _, _, c, _ in seen)
        # the visual scorer reads from row 0, the masked one the tail
        first_rows = {r for _, r, c, _ in seen if c}
        assert first_rows == {0} if scorer == ScorerKind.VISUAL else min(first_rows) > 0

    def test_decodes_of_one_model_share_buffers_one_at_a_time(self):
        w, v, p = buffered_model("norm_ffn")
        seen = []

        def recording_forward(x, weights, capture=False, first_row=0, buffers=None):
            seen.append(buffers)
            assert buffers not in weights.spare_buffers  # held by this decode alone
            return forward(x, weights, capture, first_row, buffers)

        with mock.patch.object(decoder, "forward", recording_forward):
            run_inference(v, p, 6, 4, w, SchedulePolicy.confidence(), PrunePlan.once(0.5))
            assert w.spare_buffers == [seen[0]]  # released when the decode ends
            run_inference(v, p, 6, 4, w, SchedulePolicy.confidence(), None)
            with pytest.raises(EmptyGuidanceSet):  # and when it raises
                run_inference(v, p, 2, 8, w, SchedulePolicy.confidence(),
                              PrunePlan.once(0.5, ScorerKind.DECODED))
        assert len({id(b) for b in seen}) == 1 and w.spare_buffers == [seen[0]]
        assert dataclasses.replace(w).spare_buffers == []  # a copy of the weights has its own
        # buffers larger than _SPARE_BYTES are not kept between decodes
        with mock.patch.object(decoder, "_SPARE_BYTES", seen[0].nbytes - 1):
            run_inference(v, p, 6, 4, w, SchedulePolicy.confidence(), None)
        assert w.spare_buffers == []
