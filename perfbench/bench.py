"""Measurement for the decode benchmark: set-up, rounds, checks and metrics.

Imported by run.py once the BLAS thread cap is set and ``src`` is on the path.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

from dlmprune import analysis, decoder, model, pruning
from spans import Tracer
from workloads import VARIANTS, WORKLOADS, expected_lengths, plan_for

SETUP_REPS = 7
# Rounds take turns on the cores this process may use. On a shared 2-core
# x86_64 VM each core ran the tiny16 loop either at about 3 ms or at about
# 4.5 ms per decode for stretches of several seconds, often one core fast
# while the other was slow; a run left on one core could spend all its 30 s
# slow. With rounds alternating, a low percentile finds the fast stretches.
CPUS = sorted(os.sched_getaffinity(0))
MIN_TAIL_SAMPLES = 100  # report a tail only at p90 or above
TAIL_VARIANTS = ("baseline", "once", "progressive")
PRUNING_FUNCS = ("mean_attention", "importance_scores", "guidance_rows", "select",
                 "apply_prune")


class Run:
    """One workload's set-up, warm-up and measured rounds."""

    def __init__(self, wl, seed: int, traced: bool):
        self.wl, self.seed = wl, seed
        self.tracer = Tracer() if traced else None
        self.counts = defaultdict(float)  # observations made in traced rounds
        self.keeps: dict = {}             # decode id -> last keep set applied
        self.failures: list = []
        self.attempted = 0
        self.failed = 0
        self.decode_id = 0
        self.baseline_ids: dict = {}      # input index -> first baseline response
        self.latency = defaultdict(list)  # variant -> decode seconds
        self.match = defaultdict(list)    # variant -> share of tokens equal to the reference
        self.flops = defaultdict(list)    # variant -> (proj, attn, ffn) per decode
        self.round_seconds = {False: [], True: []}  # traced? -> decode seconds per round
        self.target_kept: list = []       # traced guided decodes: target survived?

        self.embed_targets = [(model, "encode_image", "model.embed", None),
                              (model, "embed_prompt", "model.embed", None)]
        self.decode_targets = [
            (decoder, "run_inference", "decoder.run_inference", None),
            (decoder, "step", "decoder.step", None),
            (decoder, "forward", "model.forward", self._forward_hook),
            (decoder, "embed_response", "model.embed_response", None),
            (decoder, "softmax_rows", "numerics.softmax_rows", None),
            (model, "softmax_rows", "numerics.softmax_rows", None),
            (model, "layer_norm", "numerics.layer_norm", None),
            (model, "gelu", "model.gelu", None),
            (pruning, "mean_attention", "pruning.mean_attention", None),
            (pruning, "importance_scores", "pruning.importance_scores", None),
            (pruning, "guidance_rows", "pruning.guidance_rows", None),
            (pruning, "select_top", "pruning.select", None),
            (pruning, "keep_top_n", "pruning.select", None),
            (pruning, "random_keep", "pruning.select", None),
            (pruning, "apply_prune", "pruning.apply_prune", self._keep_hook),
        ]

        self.setup_times = []  # (model_s, inputs_s) per set-up
        self.weights, self.inputs = self.set_up()

    # --- hooks observing traced calls -------------------------------------

    def _forward_hook(self, args, result):
        cfg = args[1].config
        n = args[0].shape[0]
        self.counts["rows"] += n
        self.counts["flops"] += cfg.layers * analysis.flops_per_pass(
            n, cfg.embed_dim, cfg.ffn_dim)
        if result[1] is not None:
            self.counts["capture_bytes"] += sum(m.nbytes for lm in result[1].maps for m in lm)

    def _keep_hook(self, args, result):
        self.keeps[self.tracer.decode] = args[1].indices

    # --- set-up and decoding ---------------------------------------------

    def set_up(self):
        """Build the model and generate and embed the inputs, timing both."""
        gc.collect()  # so no collection of earlier garbage lands in the timing
        if self.tracer:
            self.tracer.install(self.embed_targets)
        try:
            t0 = time.perf_counter()
            weights = self.wl.build_model()
            t1 = time.perf_counter()
            inputs = self.wl.make_inputs(np.random.default_rng(self.seed), weights)
            t2 = time.perf_counter()
        finally:
            if self.tracer:
                self.tracer.uninstall()
        self.setup_times.append((t1 - t0, t2 - t1))
        return weights, inputs

    def _decode(self, inp, variant: str, traced: bool) -> dict:
        score_with = pruning.ScorerKind.MASKED if variant == "scored" else None
        plan = plan_for(variant, inp)
        self.decode_id += 1
        if traced:
            self.tracer.decode = self.decode_id
        t0 = time.perf_counter()
        ids, steps, stats = decoder.run_inference(
            inp.visual, inp.prompt, self.wl.tau, self.wl.steps, self.weights,
            inp.policy, plan, score_with=score_with)
        seconds = time.perf_counter() - t0
        if traced:
            self.tracer.decode = -1
        return {"id": self.decode_id, "seconds": seconds, "ids": ids, "steps": steps,
                "stats": stats}

    def round(self, i: int, traced: bool) -> None:
        """Decode input ``i mod pool`` under every variant, check the decodes and
        record their figures. Nothing of a decode is kept beyond its figures, so
        memory does not grow with the number of rounds."""
        inp = self.inputs[i % len(self.inputs)]
        order = VARIANTS[i % len(VARIANTS):] + VARIANTS[:i % len(VARIANTS)]
        os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})
        if traced:
            self.tracer.install(self.decode_targets)
        out = {}
        try:
            for variant in order:
                self.attempted += 1
                out[variant] = self._decode(inp, variant, traced)
        finally:
            if traced:
                self.tracer.uninstall()
        self._check(i, inp, out)
        self.round_seconds[traced].append(sum(r["seconds"] for r in out.values()))
        for variant, res in out.items():
            self.latency[variant].append(res["seconds"])
            self.match[variant].append(res["match"])
            self.flops[variant].append(res["flops"])
        if traced:
            self._record_target(out)
        self.keeps.clear()

    # --- output checks ----------------------------------------------------

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    def _check(self, i: int, inp, out: dict) -> None:
        """Check each decode, and record its accuracy and FLOPs on it."""
        wl = self.wl
        ref = out["baseline"]["ids"] if inp.expected is None else inp.expected
        n_vis = inp.visual.shape[0]
        rest = inp.prompt.shape[0] + wl.tau
        for variant, res in out.items():
            problems = []
            committed = np.sort(np.concatenate([s.newly_decoded for s in res["steps"]]))
            if not np.array_equal(committed, np.arange(wl.tau)):
                problems.append("did not commit every position exactly once")
            lengths = res["stats"].per_step_lengths
            want = expected_lengths(variant, n_vis, rest, wl.steps)
            if not lengths or lengths != want[:len(lengths)]:
                problems.append(f"per-step lengths {lengths} != plan {want}")
            if inp.expected is not None and variant != "random" \
                    and not np.array_equal(res["ids"], inp.expected):
                problems.append(f"answer {res['ids'].tolist()} != {inp.expected.tolist()}")
            if variant == "scored":
                trace = res["stats"].score_trace
                sims = [analysis.cosine(s, trace[0]) for s in trace[1:]]
                if not trace or min(sims, default=1.0) < 0.99:
                    problems.append(f"score cosine vs step 1 {sims} < 0.99")
            if variant == "baseline":
                first = self.baseline_ids.setdefault(i % len(self.inputs), res["ids"])
                if not np.array_equal(first, res["ids"]):
                    problems.append("repeated baseline decode changed its answer")
            res["flops"] = self._flops(lengths, problems)
            res["match"] = float(np.mean(res["ids"] == ref))
            if problems:
                self._fail(f"round {i} {variant}: " + "; ".join(problems))

    def _record_target(self, out: dict) -> None:
        """Did the guided (once, progressive) decodes keep the target: the visual
        token the unpruned masked-row scorer ranks first at step 1 (on copy8x8,
        the patch the prompt points at)? A decode that pruned nothing kept it."""
        scores = out["scored"]["stats"].score_trace
        if scores:
            target = int(np.argmax(scores[0]))
            for variant in ("once", "progressive"):
                keep = self.keeps.get(out[variant]["id"])
                self.target_kept.append(keep is None or target in keep)

    def _flops(self, lengths, problems) -> tuple:
        """Analytic (proj, attn, ffn) FLOPs of the lengths this decode ran."""
        cfg = self.weights.config
        d, mu, layers = cfg.embed_dim, cfg.ffn_dim, cfg.layers
        terms = (sum(layers * 4 * n * d * d for n in lengths),
                 sum(layers * 2 * n * n * d for n in lengths),
                 sum(layers * 2 * n * d * mu for n in lengths))
        if sum(terms) != analysis.flops_for_lengths(layers, d, mu, lengths):
            problems.append("FLOP terms do not add up to analysis.flops_for_lengths")
        return terms


def measure(run: Run, seconds: float, traced: bool) -> tuple:
    """Warm up with one round, then run rounds until ``seconds`` of decoding.

    Stops when one more round would end past the deadline by more than half a
    round, so the measured time stays close to ``seconds``. In a traced run
    even rounds are traced and odd rounds are not, and there are at least two.
    The remaining set-ups are spread between rounds: the machine's speed
    changes over seconds, and set-ups run back to back would all see one
    moment of it. Returns (rounds, seconds elapsed)."""
    run.round(0, traced=False)
    for kind in run.latency, run.match, run.flops:
        kind.clear()
    run.round_seconds[False].clear()
    rounds = 0
    t0 = time.perf_counter()
    while True:
        run.round(rounds, traced and rounds % 2 == 0)
        rounds += 1
        elapsed = time.perf_counter() - t0
        done = rounds > traced and elapsed + 0.5 * elapsed / rounds >= seconds
        due = SETUP_REPS if done else min(SETUP_REPS - 1, int(elapsed / seconds * SETUP_REPS))
        while len(run.setup_times) < due:
            run.set_up()
        if done:
            return rounds, elapsed


def _low(values) -> float:
    """The 10th percentile by nearest rank (the fastest of fewer than 11 values).

    Gated timings use it because a shared 2-core x86_64 VM ran the same code
    up to 1.8x slower in windows of a few seconds when other work shared its
    cores: over two 30 s copy8x8 runs the median baseline decode read 66.8
    and 52.1 ms, the 10th percentile 49.9 and 47.6 ms."""
    ordered = sorted(values)
    return ordered[int(0.1 * (len(ordered) - 1))]


def _tail(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    return ordered[-11], 100.0 * (len(values) - 10) / len(values)


def _flops_ratios(run: Run) -> dict:
    base = sum(sum(f) for f in run.flops["baseline"])
    return {v: sum(sum(f) for f in fs) / base for v, fs in run.flops.items()}


def end_to_end(run: Run) -> tuple:
    lat = run.latency
    metrics = {
        "setup_s": statistics.median(m + i for m, i in run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tok_per_s": run.wl.tau * len(VARIANTS) / _low(run.round_seconds[False]),
    }
    for variant, seconds in lat.items():
        metrics[f"latency_s.p10.{variant}"] = _low(seconds)
    for variant in ("once", "progressive"):
        metrics[f"accuracy.{variant}"] = statistics.fmean(run.match[variant])
    extras = {
        "samples": {v: len(seconds) for v, seconds in lat.items()},
        "latency_s.p50": {v: statistics.median(seconds) for v, seconds in lat.items()},
        "accuracy.random": statistics.fmean(run.match["random"]),
        "speedup.baseline_over_once": metrics["latency_s.p10.baseline"]
        / metrics["latency_s.p10.once"],
        "flops_ratio": _flops_ratios(run),
    }
    for variant in TAIL_VARIANTS:
        tail = _tail(lat[variant])
        if tail is not None:
            extras[f"latency_s.tail.{variant}"] = {"value": tail[0], "unit": "s",
                                                  "percentile": tail[1],
                                                  "samples": len(lat[variant])}
    return metrics, extras


def per_layer(run: Run) -> tuple:
    tracer = run.tracer
    tab = tracer.table()
    n = len(run.round_seconds[True])
    in_decode = tab["decode"] >= 0

    def agg(name, col="self", where=in_decode):
        """(sum of ``col``, number of spans) over spans called ``name``."""
        sel = where & (tab["name"] == tracer.names.index(name)) if name in tracer.names \
            else np.zeros_like(where)
        return float(tab[col][sel].sum()), int(sel.sum())

    metrics = {}
    fwd_self, fwd_calls = agg("model.forward")
    metrics["model.forward.calls"] = fwd_calls / n
    metrics["model.forward.self_s"] = fwd_self / n
    metrics["model.forward.rows"] = run.counts["rows"] / n
    metrics["model.forward.gflops"] = run.counts["flops"] / agg("model.forward", "dur")[0] / 1e9
    metrics["model.gelu.s"] = agg("model.gelu")[0] / n
    metrics["model.capture.bytes"] = run.counts["capture_bytes"] / n
    setup_embed_s = agg("model.embed", "dur", tab["decode"] < 0)[0]
    metrics["model.embed.s"] = setup_embed_s / len(run.setup_times)
    metrics["model.embed_response.s"] = agg("model.embed_response")[0] / n
    for name in ("numerics.softmax_rows", "numerics.layer_norm"):
        s, calls = agg(name)
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.s"] = s / n
    s, calls = agg("decoder.step")
    metrics["decoder.step.calls"] = calls / n
    metrics["decoder.step.self_s"] = s / n
    metrics["decoder.run_inference.self_s"] = agg("decoder.run_inference")[0] / n
    for fn in PRUNING_FUNCS:
        s, calls = agg(f"pruning.{fn}")
        metrics[f"pruning.{fn}.calls"] = calls / n
        metrics[f"pruning.{fn}.s"] = s / n
    metrics["pruning.target_kept_frac"] = statistics.fmean(run.target_kept or [True])
    metrics["harness.setup.model_s"] = statistics.median(m for m, _ in run.setup_times)
    metrics["harness.setup.inputs_s"] = statistics.median(i for _, i in run.setup_times)
    rounds = len(run.flops["baseline"])
    for k, term in enumerate(("proj", "attn", "ffn")):
        metrics[f"analysis.flops.{term}"] = sum(
            f[k] for fs in run.flops.values() for f in fs) / rounds
    for variant, ratio in _flops_ratios(run).items():
        if variant != "baseline":
            metrics[f"analysis.flops_ratio.{variant}"] = ratio
    traced_s = statistics.fmean(run.round_seconds[True])
    metrics["trace.decode_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - statistics.fmean(run.round_seconds[False])

    decode_s = agg("decoder.run_inference", "dur")[0]
    self_sum = float(tab["self"][in_decode].sum())
    if abs(self_sum - decode_s) > 1e-9 * max(decode_s, 1.0):
        run._fail(f"span self times sum to {self_sum} s, traced decodes took {decode_s} s")
    extras = {"traced_rounds": n, "untraced_rounds": len(run.round_seconds[False]),
              "traced_decode_s": decode_s, "span_self_sum_s": self_sum,
              "spans": int(len(tab["name"]))}
    return metrics, extras


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    run = Run(WORKLOADS[name], seed, traced)
    try:
        rounds, elapsed = measure(run, seconds, traced)
    finally:
        os.sched_setaffinity(0, CPUS)
    metrics, extras = (per_layer if traced else end_to_end)(run)
    extras.update({"rounds": rounds, "measured_s": elapsed})
    result = {"workload": name, "attempted": run.attempted, "failed": run.failed,
              "failures": run.failures, "metrics": metrics, "extras": extras}
    if traced:
        tab = run.tracer.table()
        result["spans"] = {"names": run.tracer.names,
                           **{k: tab[k] for k in ("name", "start", "end", "parent", "decode")}}
    return result
