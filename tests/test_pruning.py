import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dlmprune.decoder import SchedulePolicy, init_state, run_inference, step
from dlmprune.model import (AttentionCapture, CopyTaskVocab, build_copy_model, embed_prompt,
                            encode_image)
from dlmprune.numerics import SeededRng, softmax_rows
from dlmprune.pruning import (EmptyGuidanceSet, KeepSet, PrunePlan, ScorerKind, apply_prune,
                              guidance_rows, importance_scores, keep_count, keep_schedule,
                              mean_attention, plan_progressive, prune_to, random_keep,
                              select_top)
from test_decoder import tiny_inputs, tiny_model


def random_capture(rng, layers, heads, n):
    maps = [[softmax_rows(rng.normal(size=(n, n), scale=2.0)) for _ in range(heads)]
            for _ in range(layers)]
    return AttentionCapture(maps=maps)


def brute_force_scores(capture, guidance, visual_cols):
    """Quadruple loop over (layer, head, guidance row, visual column)."""
    num_layers = len(capture.maps)
    num_heads = len(capture.maps[0])
    out = []
    for c in visual_cols:
        acc = 0.0
        for lm in capture.maps:
            for m in lm:
                for j in guidance:
                    acc += m[j, c]
        out.append(acc / (num_layers * num_heads * len(guidance)))
    return np.array(out)


def visual_state(n):
    """A state of n distinguishable visual rows, no prompt, one response slot."""
    visual = np.arange(2.0 * n).reshape(n, 2)
    return init_state(visual, np.zeros((0, 2)), 1, 1, mask_token_id=0)


def sorted_subset(items, min_size=1):
    return hst.lists(hst.sampled_from(list(items)), min_size=min_size,
                     unique=True).map(sorted)


class TestMeanAttention:
    def test_single_map_identity(self):
        rng = SeededRng(1)
        cap = random_capture(rng, 1, 1, 4)
        np.testing.assert_array_equal(mean_attention(cap), cap.maps[0][0])

    def test_hand_average(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        cap = AttentionCapture(maps=[[a, b]])
        np.testing.assert_array_equal(mean_attention(cap), [[0.5, 0.5], [0.5, 0.5]])

    def test_rows_stay_stochastic(self):
        rng = SeededRng(2)
        for _ in range(10):
            cap = random_capture(rng, 3, 2, 6)
            sums = mean_attention(cap).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_inconsistent_dims(self):
        cap = AttentionCapture(maps=[[np.eye(2), np.eye(3)]])
        with pytest.raises(ValueError):
            mean_attention(cap)


class TestImportanceScores:
    def test_hand_average_over_rows(self):
        abar = np.zeros((5, 5))
        abar[3, 0:2] = [0.2, 0.1]
        abar[4, 0:2] = [0.4, 0.3]
        s = importance_scores(abar, [3, 4], [0, 1])
        np.testing.assert_allclose(s, [0.3, 0.2])

    def test_single_guidance_row(self):
        rng = SeededRng(3)
        abar = softmax_rows(rng.normal(size=(6, 6)))
        s = importance_scores(abar, [4], [0, 1, 2])
        np.testing.assert_array_equal(s, abar[4, :3])

    def test_empty_guidance_set(self):
        # Only step_scores knows the step and scorer: a direct call with no
        # rows must not report a scorer it was never given.
        with pytest.raises(ValueError) as info:
            importance_scores(np.eye(4), [], [0, 1])
        assert not isinstance(info.value, EmptyGuidanceSet)
        assert not any(kind.value in str(info.value) for kind in ScorerKind)

    @pytest.mark.parametrize("rows,cols", [([-1], [0, 1]), ([3], [-1, 0]), ([2, -4], [0]),
                                           ([0], [1, -4])])
    def test_negative_index_rejected(self, rows, cols):
        # numpy counts a negative index from the end: row -1 would score the last row
        with pytest.raises(ValueError, match="map dimensions"):
            importance_scores(np.arange(16.0).reshape(4, 4), rows, cols)

    def test_matches_brute_force(self):
        rng = SeededRng(4)
        for trial in range(25):
            layers = int(rng.integers(1, 4))
            heads = int(rng.integers(1, 4))
            n_vis = int(rng.integers(1, 9))
            m = int(rng.integers(0, 5))
            tau = int(rng.integers(1, 5))
            n = n_vis + m + tau
            cap = random_capture(rng, layers, heads, n)
            n_masked = int(rng.integers(1, tau + 1))
            guidance = (n_vis + m + rng.subset(tau, n_masked)).tolist()
            cols = list(range(n_vis))
            got = importance_scores(mean_attention(cap), guidance, cols)
            np.testing.assert_allclose(got, brute_force_scores(cap, guidance, cols),
                                       atol=1e-9)

    def test_visual_mass_bounded(self):
        rng = SeededRng(5)
        cap = random_capture(rng, 2, 2, 8)
        s = importance_scores(mean_attention(cap), [5, 6, 7], list(range(4)))
        assert np.all(s >= 0.0)
        assert s.sum() <= 1.0 + 1e-9


class TestSelectTop:
    def test_reported_token_counts(self):
        scores = SeededRng(6).random(size=3340)
        for r, expect in [(0.75, 2505), (0.50, 1670), (0.25, 835)]:
            assert select_top(np.arange(3340), scores, r).n_kept == expect
        assert select_top(np.arange(835), scores[:835], 0.75).n_kept == 626

    def test_hand_example(self):
        keep = select_top(np.arange(4), np.array([0.1, 0.4, 0.2, 0.3]), 0.5)
        assert keep.indices.tolist() == [1, 3]

    def test_keep_count_law(self):
        rng = SeededRng(7)
        for _ in range(200):
            n = int(rng.integers(1, 500))
            r = float(rng.random()) or 0.5
            keep = select_top(np.arange(n), rng.random(size=n), r)
            assert keep.n_kept == keep_count(n, r)
            assert keep.n_kept >= 1

    def test_monotone_transform_invariance(self):
        rng = SeededRng(8)
        for _ in range(20):
            scores = rng.random(size=30)
            base = select_top(np.arange(30), scores, 0.4).indices
            warped = select_top(np.arange(30), np.exp(3.0 * scores) + 5.0, 0.4).indices
            np.testing.assert_array_equal(base, warped)

    def test_ties_prefer_lower_index(self):
        keep = select_top(np.arange(4), np.array([0.5, 0.5, 0.5, 0.5]), 0.5)
        assert keep.indices.tolist() == [0, 1]

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            select_top(np.arange(4), np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            select_top(np.arange(4), np.zeros(4), 1.5)


class TestApplyPrune:
    def make_state(self, n_vis=4):
        cfg, w = tiny_model(grid=(2, 2))
        v, p = tiny_inputs(w)
        return init_state(v, p, 3, 4, mask_token_id=cfg.mask_token_id)

    def test_keep_all_is_identity(self):
        st = self.make_state()
        before = st.visual.copy()
        apply_prune(st, select_top(st.visual_index_map, np.arange(4.0), 1.0))
        np.testing.assert_array_equal(st.visual, before)
        np.testing.assert_array_equal(st.visual_index_map, [0, 1, 2, 3])

    @settings(max_examples=50, deadline=None)
    @given(n=hst.integers(1, 12), data=hst.data())
    def test_keep_subset_preserves_order(self, n, data):
        st = visual_state(n)
        rows = st.visual.copy()
        survivors = data.draw(sorted_subset(range(n)))
        keep = data.draw(sorted_subset(survivors))
        apply_prune(st, KeepSet(indices=np.array(survivors)))
        apply_prune(st, KeepSet(indices=np.array(keep)))
        assert st.visual_index_map.tolist() == keep
        np.testing.assert_array_equal(st.visual, rows[keep])

    def test_idempotent(self):
        st = self.make_state()
        keep = select_top(st.visual_index_map, np.array([0.0, 5.0, 1.0, 9.0]), 0.5)
        apply_prune(st, keep)
        again = st.visual.copy()
        apply_prune(st, keep)
        np.testing.assert_array_equal(st.visual, again)

    @settings(max_examples=50, deadline=None)
    @given(n=hst.integers(1, 12), data=hst.data())
    def test_missing_index_rejected(self, n, data):
        st = visual_state(n)
        survivors = data.draw(sorted_subset(range(n)))
        apply_prune(st, KeepSet(indices=np.array(survivors)))
        rows = st.visual.copy()
        absent = data.draw(hst.integers(-3, n + 3).filter(lambda i: i not in survivors))
        present = data.draw(sorted_subset(survivors, min_size=0))
        keep = np.array(sorted(present + [absent]))
        with pytest.raises(ValueError, match="not currently present"):
            apply_prune(st, KeepSet(indices=keep))
        assert st.visual_index_map.tolist() == survivors
        np.testing.assert_array_equal(st.visual, rows)


class TestRandomKeep:
    def test_full_ratio_keeps_all(self):
        keep = random_keep(np.arange(6), 6, SeededRng(9))
        assert keep.indices.tolist() == [0, 1, 2, 3, 4, 5]

    def test_seed_determinism(self):
        a = random_keep(np.arange(20), 6, SeededRng(10))
        b = random_keep(np.arange(20), 6, SeededRng(10))
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_floor_count(self):
        # the keep schedule owns the count, and a random plan keeps keep_count(N, r)
        for n, r in [(10, 0.25), (9, 0.5), (7, 0.1), (6, 1.0)]:
            cfg, w = tiny_model(grid=(1, n))
            v, p = tiny_inputs(w)
            plan = PrunePlan.random_once(r, seed=11)
            st = init_state(v, p, 2, 2, mask_token_id=cfg.mask_token_id)
            step(st, w, SchedulePolicy.confidence())
            prune_to(st, plan, keep_schedule(plan, n, 2)[1], None)
            assert st.num_visual == keep_count(n, r)
            assert st.visual_index_map.tolist() == sorted(set(st.visual_index_map.tolist()))

    def test_sorted_subset_of_survivors(self):
        survivors = np.array([2, 5, 7, 11, 13])
        keep = random_keep(survivors, 2, SeededRng(12))
        assert keep.n_kept == 2
        assert set(keep.indices.tolist()) <= set(survivors.tolist())
        assert np.all(np.diff(keep.indices) > 0)


class TestPlanProgressive:
    def test_hand_example(self):
        assert plan_progressive(64, 0.5, 4) == [11, 11, 10]

    def test_full_ratio_all_zero(self):
        assert plan_progressive(64, 1.0, 4) == [0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(n=hst.integers(2, 300), r=hst.floats(0.0, 1.0, exclude_min=True),
           steps=hst.integers(2, 20))
    def test_conservation(self, n, r, steps):
        counts = plan_progressive(n, r, steps)
        assert len(counts) == steps - 1
        assert sum(counts) + keep_count(n, r) == n
        # non-increasing and within one of each other: the remainders come first
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] - counts[-1] <= 1

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            plan_progressive(8, 0.5, 1)


class TestKeepSchedule:
    def test_no_plan_keeps_everything(self):
        assert keep_schedule(None, 16, 4) == [16, 16, 16, 16]

    def test_once(self):
        assert keep_schedule(PrunePlan.once(0.25), 16, 4) == [16, 4, 4, 4]

    def test_random(self):
        assert keep_schedule(PrunePlan.random_once(0.5, seed=1), 9, 3) == [9, 4, 4]

    def test_progressive_hand_value(self):
        assert keep_schedule(PrunePlan.progressive(0.5), 64, 4) == [64, 53, 42, 32]
        assert plan_progressive(64, 0.5, 4) == [11, 11, 10]

    def test_one_plan_serves_any_shape(self):
        plan = PrunePlan.progressive(0.5)
        assert keep_schedule(plan, 9, 4) == [9, 7, 5, 4]
        assert keep_schedule(plan, 16, 4) == [16, 13, 10, 8]
        assert keep_schedule(plan, 9, 6) == [9, 8, 7, 6, 5, 4]
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.ratio = 0.25

    def test_progressive_is_n_minus_running_sum(self):
        rng = SeededRng(15)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            r = float(rng.random()) or 0.5
            steps = int(rng.integers(2, 20))
            counts = plan_progressive(n, r, steps)
            want = [n - sum(counts[:k]) for k in range(steps)]
            assert keep_schedule(PrunePlan.progressive(r), n, steps) == want

    def test_once_single_step(self):
        assert keep_schedule(PrunePlan.once(0.25), 16, 1) == [16]

    def test_keep_all_ratio_removes_nothing(self):
        for plan in (PrunePlan.once(1.0), PrunePlan.random_once(1.0, seed=2),
                     PrunePlan.progressive(1.0)):
            assert keep_schedule(plan, 16, 4) == [16, 16, 16, 16]

    def test_single_token_removes_nothing(self):
        for plan in (PrunePlan.once(0.25), PrunePlan.random_once(0.25, seed=2),
                     PrunePlan.progressive(0.25)):
            assert keep_schedule(plan, 1, 4) == [1, 1, 1, 1]

    def test_validates_the_plan(self):
        with pytest.raises(ValueError):
            keep_schedule(PrunePlan.progressive(0.5), 9, 1)
        with pytest.raises(ValueError):
            keep_schedule(None, 9, 0)


class TestGuidanceRows:
    def make_state(self):
        cfg, w = tiny_model(grid=(3, 1), vocab=12)
        rng = SeededRng(14)
        visual = encode_image([["s1"], ["s2"], ["s0"]], w)
        prompt = embed_prompt([1, 2], w)
        st = init_state(visual, prompt, 2, 4, mask_token_id=cfg.mask_token_id)
        st.masked = np.array([False, True])
        st.response_ids[0] = 3
        st.step = 2
        return st

    def test_masked_offset_arithmetic(self):
        st = self.make_state()
        assert guidance_rows(st, ScorerKind.MASKED).tolist() == [6]

    def test_empty_prompt_rows(self):
        cfg, w = tiny_model()
        v, _ = tiny_inputs(w)
        st = init_state(v, np.zeros((0, 8)), 2, 2, mask_token_id=cfg.mask_token_id)
        st.step = 2
        assert guidance_rows(st, ScorerKind.PROMPT).size == 0

    def test_response_is_union_of_masked_and_decoded(self):
        st = self.make_state()
        union = np.sort(np.concatenate([guidance_rows(st, ScorerKind.MASKED),
                                        guidance_rows(st, ScorerKind.DECODED)]))
        np.testing.assert_array_equal(guidance_rows(st, ScorerKind.ALL_RESPONSE), union)

    def test_all_sets(self):
        st = self.make_state()
        assert guidance_rows(st, ScorerKind.VISUAL).tolist() == [0, 1, 2]
        assert guidance_rows(st, ScorerKind.PROMPT).tolist() == [3, 4]
        assert guidance_rows(st, ScorerKind.DECODED).tolist() == [5]
        assert guidance_rows(st, ScorerKind.PROMPT_MASKED).tolist() == [3, 4, 6]
        assert guidance_rows(st, ScorerKind.PROMPT_RESPONSE).tolist() == [3, 4, 5, 6]

    def test_requires_a_completed_step(self):
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        st = init_state(v, p, 2, 2, mask_token_id=cfg.mask_token_id)
        with pytest.raises(ValueError):
            guidance_rows(st, ScorerKind.MASKED)

    @settings(max_examples=200, deadline=None)
    @given(n_vis=hst.integers(1, 6), prompt_len=hst.integers(0, 4), data=hst.data())
    def test_every_scorer_is_its_segment_union(self, n_vis, prompt_len, data):
        masked = np.array(data.draw(hst.lists(hst.booleans(), min_size=1, max_size=6)))
        st = init_state(np.zeros((n_vis, 2)), np.zeros((prompt_len, 2)), masked.size, 4,
                        mask_token_id=0)
        st.masked = masked
        st.step = 2
        base = n_vis + prompt_len
        segments = {
            "visual": range(n_vis),
            "prompt": range(n_vis, base),
            "masked": [base + j for j in np.flatnonzero(masked)],
            "decoded": [base + j for j in np.flatnonzero(~masked)],
        }
        union = {
            ScorerKind.MASKED: ["masked"],
            ScorerKind.PROMPT: ["prompt"],
            ScorerKind.DECODED: ["decoded"],
            ScorerKind.ALL_RESPONSE: ["masked", "decoded"],
            ScorerKind.PROMPT_RESPONSE: ["prompt", "masked", "decoded"],
            ScorerKind.VISUAL: ["visual"],
            ScorerKind.PROMPT_MASKED: ["prompt", "masked"],
        }
        assert set(union) == set(ScorerKind)
        for scorer, names in union.items():
            rows = guidance_rows(st, scorer)
            want = sorted({int(i) for name in names for i in segments[name]})
            assert rows.tolist() == want, scorer
            assert np.all(np.diff(rows) > 0)


class TestCopyModelScoring:
    def test_masked_scores_peak_at_target(self):
        symbols = ("a", "b", "c", "d")
        w = build_copy_model((2, 2), symbols)
        vocab = CopyTaskVocab(symbols, 4)
        for target in range(4):
            visual = encode_image([["b", "d"], ["a", "c"]], w)
            prompt = embed_prompt([vocab.index_id(target)], w)
            st = init_state(visual, prompt, 3, 3, mask_token_id=w.config.mask_token_id)
            st, out = step(st, w, SchedulePolicy.confidence())
            scores = importance_scores(mean_attention(out.attention),
                                       guidance_rows(st, ScorerKind.MASKED),
                                       np.arange(4))
            assert int(np.argmax(scores)) == target

    def test_keep_all_skips_empty_guidance(self):
        # r=1.0 removes nothing, so nothing is scored and the empty set never surfaces
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        base, _, _ = run_inference(v, p, 2, 8, w, SchedulePolicy.confidence(), None)
        plan = PrunePlan.once(1.0, scorer=ScorerKind.DECODED)
        ids, _, _ = run_inference(v, p, 2, 8, w, SchedulePolicy.confidence(), plan)
        np.testing.assert_array_equal(ids, base)

    def test_empty_guidance_surfaces_for_decoded_scorer(self):
        # nothing is decoded after step 1 when the quota rounds to zero
        cfg, w = tiny_model()
        v, p = tiny_inputs(w)
        plan = PrunePlan.once(0.5, scorer=ScorerKind.DECODED)
        with pytest.raises(EmptyGuidanceSet):
            run_inference(v, p, 2, 8, w, SchedulePolicy.confidence(), plan)
