"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output); a failing assertion is the FAIL signal.
"""

import math

import numpy as np
import pytest

from dlmprune.analysis import cosine, flops_baseline, flops_for_lengths, flops_pruned
from dlmprune.decoder import SchedulePolicy, init_state, run_inference, step
from dlmprune.harness import config_from_dict, run_accuracy, run_bench, run_similarity
from dlmprune.model import (AttentionCapture, ModelConfig, embed_prompt, encode_image,
                            init_random_model)
from dlmprune.numerics import SeededRng, softmax_rows
from dlmprune.pruning import (PrunePlan, ScorerKind, importance_scores, mean_attention,
                              plan_progressive, select_top)


def _ok(name, detail=""):
    print(f"[acceptance] PASS {name}" + (f" ({detail})" if detail else ""))


def test_criterion_1_token_count_reproduction():
    """Retained-token counts match the published averages exactly."""
    scores = SeededRng(0).random(size=3340)
    got = {r: select_top(np.arange(3340), scores, r).n_kept for r in (0.75, 0.50, 0.25)}
    assert got == {0.75: 2505, 0.50: 1670, 0.25: 835}
    assert select_top(np.arange(835), scores[:835], 0.75).n_kept == 626
    _ok("1 token-count reproduction", "3340 -> 2505/1670/835; 835 -> 626")


def test_criterion_2_identity_pruning():
    """r=1.0 with equal seeds decodes bitwise-identically to baseline, 50 configs."""
    rng = SeededRng(42)
    for trial in range(50):
        grid = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        heads = int(rng.integers(1, 3))
        cfg = ModelConfig(
            layers=int(rng.integers(1, 3)), heads=heads,
            embed_dim=8 * heads, vision_dim=4, ffn_dim=int(rng.integers(4, 12)),
            vocab_size=16, patch_grid=grid, mask_token_id=15,
        )
        weights = init_random_model(cfg, int(rng.integers(0, 10000)))
        rows, cols = grid
        image = [[f"s{int(rng.integers(0, 6))}" for _ in range(cols)] for _ in range(rows)]
        visual = encode_image(image, weights)
        prompt = embed_prompt(rng.integers(0, 15, size=int(rng.integers(0, 4))), weights)
        tau = int(rng.integers(1, 7))
        steps = int(rng.integers(1, 5))
        seed = int(rng.integers(0, 10000))
        policy = (SchedulePolicy.stochastic(seed) if trial % 2 == 0
                  else SchedulePolicy.confidence())
        plan = (PrunePlan.once(1.0) if trial % 3 else PrunePlan.random_once(1.0, seed=trial))
        base, _, _ = run_inference(visual, prompt, tau, steps, weights, policy, None)
        pruned, _, _ = run_inference(visual, prompt, tau, steps, weights, policy, plan)
        np.testing.assert_array_equal(base, pruned)
    _ok("2 identity pruning", "50 random configs bitwise-equal")


def test_criterion_3_schedule_marginal():
    """Stochastic masked fraction tracks 1 - k/K; confidence decodes exact quotas."""
    cfg = ModelConfig(layers=1, heads=1, embed_dim=4, vision_dim=2, ffn_dim=4,
                      vocab_size=4, patch_grid=(1, 1), mask_token_id=3)
    weights = init_random_model(cfg, 1)
    visual = encode_image([["a"]], weights)
    prompt = embed_prompt([], weights)

    steps, tau, trials = 16, 64, 10000
    masked_after = np.zeros(steps)
    for t in range(trials):
        state = init_state(visual, prompt, tau, steps, mask_token_id=3)
        rng = SeededRng(t)
        policy = SchedulePolicy.stochastic(t)
        for k in range(steps):
            state, _ = step(state, weights, policy, rng, capture=False)
            masked_after[k] += state.masked.sum()
    worst = 0.0
    for k in range(steps):
        frac = masked_after[k] / (trials * tau)
        err = abs(frac - (1.0 - (k + 1) / steps))
        worst = max(worst, err)
        assert err < 0.02, f"step {k + 1}: fraction {frac}"

    state = init_state(visual, prompt, tau, steps, mask_token_id=3)
    policy = SchedulePolicy.confidence()
    for k in range(1, steps + 1):
        state, out = step(state, weights, policy, capture=False)
        expect = math.floor(tau * k / steps + 0.5) - math.floor(tau * (k - 1) / steps + 0.5)
        assert out.newly_decoded.size == expect
    assert not state.masked.any()
    _ok("3 schedule marginal", f"10k trials, worst |err| {worst:.4f} < 0.02; quotas exact")


def test_criterion_4_scoring_oracle():
    """Averaged-map pipeline matches a quadruple-loop brute force within 1e-9."""
    rng = SeededRng(7)
    for _ in range(100):
        layers = int(rng.integers(1, 4))
        heads = int(rng.integers(1, 4))
        n_vis = int(rng.integers(1, 9))
        m = int(rng.integers(0, 5))
        tau = int(rng.integers(1, 5))
        n = n_vis + m + tau
        maps = [[softmax_rows(rng.normal(size=(n, n), scale=2.0)) for _ in range(heads)]
                for _ in range(layers)]
        capture = AttentionCapture(maps=maps, step_index=1)
        masked = (n_vis + m + rng.subset(tau, int(rng.integers(1, tau + 1)))).tolist()
        cols = list(range(n_vis))

        got = importance_scores(mean_attention(capture), masked, cols)
        expect = []
        for c in cols:
            acc = 0.0
            for lm in maps:
                for mp in lm:
                    for j in masked:
                        acc += mp[j, c]
            expect.append(acc / (layers * heads * len(masked)))
        np.testing.assert_allclose(got, np.array(expect), atol=1e-9)
    _ok("4 scoring oracle", "100 instances within 1e-9")


def test_criterion_5_copy_model_retention():
    """8x8 grid, r=0.25, 200 tasks: guided pruning exact, random near-chance."""
    cfg = config_from_dict({
        "decode": {"K": 2, "tau": 2, "policy": "confidence", "seed": 7},
        "tasks": {"count": 200, "grid": [8, 8], "alphabet": 16, "seed": 11},
    })
    reports = run_accuracy(cfg, include_baseline=False, plans=[
        PrunePlan.once(0.25, ScorerKind.MASKED),
        PrunePlan.random_once(0.25, seed=13),
    ])
    masked_acc, random_acc = reports[0].accuracy, reports[1].accuracy
    assert masked_acc == 1.0
    half_width = 2.576 * math.sqrt(0.25 * 0.75 / 200.0)
    assert 0.25 - half_width <= random_acc <= 0.25 + half_width
    _ok("5 copy-model retention",
        f"masked 1.00, random {random_acc:.3f} in [{0.25 - half_width:.3f}, "
        f"{0.25 + half_width:.3f}]")


def test_criterion_6_similarity_harness():
    """Copy model, K=8: every step's scores stay aligned with step 1's."""
    cfg = config_from_dict({
        "decode": {"K": 8, "tau": 8, "policy": "confidence", "seed": 7},
        "tasks": {"count": 4, "grid": [4, 4], "alphabet": 4, "seed": 19},
    })
    curve = run_similarity(cfg)
    assert len(curve.sims) == 6  # steps 2..7; step 8 leaves no masked rows
    assert curve.min() >= 0.99
    assert abs(cosine([1.0, 0.0], [1.0, 1.0]) - math.sqrt(2.0) / 2.0) < 1e-9
    assert cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)
    _ok("6 similarity harness", f"min sim {curve.min():.6f} >= 0.99")


def test_criterion_7_flops_oracle():
    """Exact cost values plus additivity/monotonicity over 1000 random draws."""
    assert flops_baseline(2, 4, 16, 8, 16) == 98304
    assert flops_pruned(2, 4, 16, 8, 8, 16).pruned == 55296
    assert flops_pruned(2, 4, 16, 8, 8, 16).ratio == pytest.approx(0.5625)
    rng = SeededRng(23)
    for _ in range(1000):
        layers, steps, d, mu = (int(rng.integers(1, 10)) for _ in range(4))
        n = int(rng.integers(1, 100))
        assert flops_baseline(layers, steps, n, d, mu) == \
            steps * flops_baseline(layers, 1, n, d, mu)
        a, b = sorted(rng.integers(1, n + 1, size=2).tolist())
        assert flops_pruned(layers, steps, n, a, d, mu).pruned <= \
            flops_pruned(layers, steps, n, b, d, mu).pruned
    _ok("7 flops oracle", "98304 / 55296 / 0.5625 exact; 1000 property draws")


def test_criterion_8_wall_clock_speedup():
    """One-shot pruning at r=0.25 speeds decoding up by at least 1.5x."""
    cfg = config_from_dict({
        "model": {"L": 4, "H": 4, "d": 128, "d_v": 16, "mu": 256, "vocab": 64,
                  "grid": [32, 32]},
        "decode": {"K": 16, "tau": 32, "policy": "confidence", "seed": 7},
        "tasks": {"count": 1, "grid": [32, 32], "alphabet": 8, "seed": 29},
        "prune": {"strategy": "once", "scorer": "masked", "r": 0.25, "seed": 1},
        "bench": {"warmup": 1, "reps": 1, "prompt_len": 16},
    })
    baseline, pruned = run_bench(cfg)
    speedup = pruned.throughput_tok_per_s / baseline.throughput_tok_per_s
    assert speedup >= 1.5, f"speedup {speedup:.2f}x under 1.5x"
    assert pruned.flops.ratio < 0.5  # analytic cost predicts a large margin
    _ok("8 wall-clock speedup",
        f"{speedup:.2f}x measured, analytic cost ratio {pruned.flops.ratio:.3f}")


def test_criterion_9_progressive_efficiency_ordering():
    """One-shot pruning never costs more than progressive pruning at equal r."""
    model = {"L": 2, "H": 2, "d": 64, "d_v": 8, "mu": 128, "vocab": 64, "grid": [16, 32]}
    cfg = config_from_dict({
        "model": model,
        "decode": {"K": 8, "tau": 16, "policy": "confidence", "seed": 7},
        "tasks": {"count": 1, "grid": [16, 32], "alphabet": 8, "seed": 31},
        "bench": {"warmup": 1, "reps": 3, "prompt_len": 8},
    })
    once = PrunePlan.once(0.5, ScorerKind.MASKED)
    progressive = PrunePlan.progressive(0.5, ScorerKind.MASKED)
    _, once_rep, pp_rep = run_bench(cfg, plans=[once, progressive])
    assert once_rep.latency_s_per_sample <= pp_rep.latency_s_per_sample

    n_vis, m, tau, steps = 512, 8, 16, 8
    n_keep = 256
    once_lengths = [n_vis + m + tau] + [n_keep + m + tau] * (steps - 1)
    counts = plan_progressive(n_vis, 0.5, steps)
    pp_lengths, vis = [], n_vis
    for k in range(steps):
        pp_lengths.append(vis + m + tau)
        if k < steps - 1:
            vis -= counts[k]
    assert vis == n_keep
    once_cost = flops_for_lengths(model["L"], model["d"], model["mu"], once_lengths)
    pp_cost = flops_for_lengths(model["L"], model["d"], model["mu"], pp_lengths)
    assert once_cost < pp_cost
    _ok("9 progressive efficiency ordering",
        f"latency {once_rep.latency_s_per_sample:.3f}s <= {pp_rep.latency_s_per_sample:.3f}s; "
        f"analytic {once_cost} < {pp_cost}")
