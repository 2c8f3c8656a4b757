#!/usr/bin/env python3
"""Interleaved in-process A/B of whole perfbench decodes between two checkouts.

    python3 tools/ab_decode.py <base-checkout> [--workload W] [--rounds N]

Loads the base checkout and the checkout this script lives in side by side
(``tools/checkout.py``: one BLAS thread, no bytecode, one core). For each
workload (``all`` by default) each side builds its model and the first
``INPUTS`` inputs of seed 1 through its own ``perfbench/workloads.py``, and
decodes them under every variant in ``workloads.VARIANTS`` as the benchmark
does (``checkout.decode``).

It exits 1, before timing anything, unless both sides decode every input
under every variant bitwise alike in the fields ``tools/decode_digest.py``
hashes (``checkout.record_decode``): the decoded ids, the positions
committed at each step, the per-step sequence lengths, the score traces, the
keep sets applied, and the logits and captured maps of every forward. It
records and compares one input on both sides at a time, so it holds one
input's records per side. Each round then times, per variant, a batch of
decodes on each side, alternating which side runs first; a batch holds as
many decodes as make about 20 ms of the base side's baseline, cycling
through the inputs. Per workload it prints, per variant, each side's median
seconds per decode, the median ratio head/base with its quartiles and its
bootstrap 95% interval (``bootstrap_interval``), the rounds the head side
won, and each side's median thread CPU seconds (``time.thread_time``) and
minor page faults (``getrusage(RUSAGE_THREAD)``) per decode, an integer.
Then, per variant that prunes or scores, the per-step overhead: the
variant's time less the baseline's in the same round, divided by its prune
or score steps per decode, as the median over rounds for each side, and the
ratio head/base of those medians where the base's is positive (a prune that
saves more than it costs reads negative).
The exit code reports only the bitwise check, never a timing.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import time
from pathlib import Path

from checkout import (FIELDS, check_root, decode, isolate, load_sides, pin_to_one_core,
                      record_decode)

INPUTS = 16
SEED = 1
BATCH_S = 0.02
RESAMPLES = 2000


class Side:
    """One checkout's decodes of one workload's inputs."""

    def __init__(self, package, workloads, name: str):
        import numpy as np
        self.side = package, workloads
        self.wl = workloads.WORKLOADS[name]
        self.weights = self.wl.build_model()
        self.inputs = self.wl.make_inputs(np.random.default_rng(SEED), self.weights)[:INPUTS]

    def record(self, variant: str, i: int) -> tuple:
        """``record_decode``'s fields for input ``i``."""
        return record_decode(*self.side, self.wl, self.weights, variant, self.inputs[i])

    def batch(self, variant: str, reps: int) -> tuple[float, float, float]:
        """Wall seconds, thread CPU seconds and minor page faults per decode
        over ``reps`` decodes, cycling through the inputs."""
        gc.collect()
        f0 = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        c0 = time.thread_time()
        t0 = time.perf_counter()
        for i in range(reps):
            decode(*self.side, self.wl, self.weights, variant, self.inputs[i % len(self.inputs)])
        t1 = time.perf_counter()
        c1 = time.thread_time()
        f1 = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        return (t1 - t0) / reps, (c1 - c0) / reps, (f1 - f0) / reps


def differing_fields(base: tuple, head: tuple) -> list:
    """Names of the ``FIELDS`` in which two ``Side.record`` results differ."""
    def same(a, b):
        return len(a) == len(b) and all(
            x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in zip(a, b))
    return [name for name, b, h in zip(FIELDS, base, head) if not same(b, h)]


def bootstrap_interval(ratios, seed: int = 0) -> tuple[float, float]:
    """Bootstrap 95% interval of the median of ``ratios``, one per round: the
    2.5th and 97.5th percentiles of the medians of ``RESAMPLES`` resamplings
    of the rounds with replacement, drawn from ``default_rng(seed)``."""
    import numpy as np
    ratios = np.asarray(ratios, dtype=np.float64)
    picks = np.random.default_rng(seed).integers(0, ratios.size, (RESAMPLES, ratios.size))
    lo, hi = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return float(lo), float(hi)


def ab_workload(name: str, sides: dict, variants: tuple, rounds: int) -> bool:
    """Check and time one workload; False if the decodes differ."""
    import numpy as np
    pair = {label: Side(*loaded, name) for label, loaded in sides.items()}
    inputs = len(pair["head"].inputs)
    if len(pair["base"].inputs) != inputs:
        print(f"error: base and head make different inputs on workload {name}", file=sys.stderr)
        return False
    # per variant, prune or score steps per decode of each input a batch cycles through
    steps_per_decode = {variant: [] for variant in variants}
    for variant in variants:
        for i in range(inputs):
            base, head = pair["base"].record(variant, i), pair["head"].record(variant, i)
            differ = differing_fields(base, head)
            if differ:
                print(f"error: base and head decodes differ on workload {name} variant "
                      f"{variant} input {i}: {', '.join(differ)}", file=sys.stderr)
                return False
            steps_per_decode[variant].append(len(head[3]) + len(head[4]))
            del base, head  # hold one input's records per side, not two

    reps = max(1, round(BATCH_S / pair["base"].batch("baseline", 1)[0]))
    times = {(label, v): [] for label in pair for v in variants}
    for r in range(rounds):
        for variant in variants:
            for label in ("base", "head") if r % 2 == 0 else ("head", "base"):
                times[label, variant].append(pair[label].batch(variant, reps))
    # (rounds, 3): wall seconds, CPU seconds and faults per decode
    measured = {key: np.asarray(t) for key, t in times.items()}
    times = {key: m[:, 0] for key, m in measured.items()}

    print(f"{name}: {reps} decodes per batch, {rounds} rounds")
    print(f"  {'variant':12s} {'base s':>10s} {'head s':>10s} {'ratio':>6s} "
          f"{'[q1, q3]':>15s} {'95% interval':>15s} {'won':>7s} {'base cpu':>9s} "
          f"{'head cpu':>9s} {'base flt':>8s} {'head flt':>8s}")
    for variant in variants:
        base_s, head_s = times["base", variant], times["head", variant]
        q1, ratio, q3 = np.percentile(head_s / base_s, [25, 50, 75])
        lo, hi = bootstrap_interval(head_s / base_s)
        won = int((head_s < base_s).sum())
        cpu = {label: np.median(measured[label, variant][:, 1]) for label in pair}
        faults = {label: round(np.median(measured[label, variant][:, 2])) for label in pair}
        print(f"  {variant:12s} {np.median(base_s):10.3e} {np.median(head_s):10.3e} "
              f"{ratio:6.3f} [{q1:.3f}, {q3:.3f}] [{lo:.3f}, {hi:.3f}] {won:3d}/{rounds:<3d} "
              f"{cpu['base']:9.3e} {cpu['head']:9.3e} {faults['base']:8d} {faults['head']:8d}")
    print(f"  {'per-step':12s} {'steps':>6s} {'base us':>9s} {'head us':>9s} {'ratio':>6s}")
    for variant in variants:
        counts = steps_per_decode[variant]
        steps = float(np.mean([counts[i % len(counts)] for i in range(reps)]))
        if variant == "baseline" or steps == 0:
            continue
        over = {label: 1e6 * float(np.median(times[label, variant] - times[label, "baseline"]))
                / steps for label in pair}
        ratio = f"{over['head'] / over['base']:6.3f}" if over["base"] > 0 else f"{'-':>6s}"
        print(f"  {variant:12s} {steps:6.2f} {over['base']:9.1f} {over['head']:9.1f} {ratio}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout to compare this one against")
    parser.add_argument("--workload", default="all",
                        help="a perfbench workload name, or all (the default)")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    base = args.base.resolve()
    error = check_root(base)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.rounds < 1:
        print("error: --rounds must be >= 1", file=sys.stderr)
        return 2
    isolate()
    pin_to_one_core()
    sides = load_sides(base)
    workloads = sides["head"][1]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for name in names:
        if not ab_workload(name, sides, tuple(workloads.VARIANTS), args.rounds):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
