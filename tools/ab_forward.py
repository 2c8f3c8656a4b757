#!/usr/bin/env python3
"""Interleaved in-process A/B of ``model.forward`` between two checkouts.

    python3 tools/ab_forward.py <base-checkout> [--rounds N]

Imports ``src/dlmprune`` of the given base checkout and of the checkout this
script lives in under distinct package names (``dlmprune_base`` and
``dlmprune_head``), without writing bytecode, with one BLAS thread, pinned
to one core (``tools/checkout.py``). For each side it builds each
perfbench workload's model and the input of its first baseline decode step
(seed 1, the first input: visual, prompt and an all-masked response, outputs
from the response start on, no capture) through that side's
``perfbench/workloads.py``.

It exits 1, before timing anything, unless both sides' logits are bitwise
equal on every workload. Each round then times a batch of forwards of each
side, alternating which side runs first. A batch holds as many forwards as
make about 20 ms on the base side, so per-call overhead is timed as well as
arithmetic. Per workload it prints each side's median seconds per forward,
the median ratio head/base with its quartiles, the rounds the head side won,
and each side's median minor page faults per forward (``getrusage``).
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

from checkout import check_root, isolate, load_sides, pin_to_one_core

BATCH_S = 0.02


def step_call(package, workloads, name: str):
    """A no-argument call of one side's forward on workload ``name``'s first
    baseline decode-step input."""
    import numpy as np
    wl = workloads.WORKLOADS[name]
    weights = wl.build_model()
    inp = wl.make_inputs(np.random.default_rng(1), weights)[0]
    model = package.model
    ids = np.full(wl.tau, weights.config.mask_token_id, dtype=np.int64)
    x = np.vstack([inp.visual, inp.prompt, model.embed_response(ids, weights)])
    first_row = inp.visual.shape[0] + inp.prompt.shape[0]
    return lambda: model.forward(x, weights, first_row=first_row)[0]


def time_batch(call, reps: int) -> tuple[float, float]:
    """(seconds, minor page faults) per call over ``reps`` calls."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(reps):
        call()
    seconds = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return seconds / reps, faults / reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout to compare this one against")
    parser.add_argument("--rounds", type=int, default=40)
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
    import numpy as np

    sides = load_sides(base)
    names = list(sides["head"][1].WORKLOADS)
    calls = {name: {side: step_call(*loaded, name) for side, loaded in sides.items()}
             for name in names}
    for name, pair in calls.items():
        a, b = pair["base"](), pair["head"]()
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            print(f"error: base and head logits differ on workload {name}", file=sys.stderr)
            return 1
    print(f"{'workload':8s} {'base s':>10s} {'head s':>10s} {'ratio':>6s} "
          f"{'[q1, q3]':>15s} {'won':>7s} {'base flt':>9s} {'head flt':>9s}")
    for name, pair in calls.items():
        for call in pair.values():  # warm both sides
            call()
        reps = max(1, round(BATCH_S / time_batch(pair["base"], 3)[0]))
        times = {"base": [], "head": []}
        faults = {"base": [], "head": []}
        for r in range(args.rounds):
            for side in ("base", "head") if r % 2 == 0 else ("head", "base"):
                s, f = time_batch(pair[side], reps)
                times[side].append(s)
                faults[side].append(f)
        base_s, head_s = np.asarray(times["base"]), np.asarray(times["head"])
        q1, ratio, q3 = np.percentile(head_s / base_s, [25, 50, 75])
        won = int((head_s < base_s).sum())
        print(f"{name:8s} {np.median(base_s):10.3e} {np.median(head_s):10.3e} {ratio:6.3f} "
              f"[{q1:.3f}, {q3:.3f}] {won:3d}/{args.rounds:<3d} "
              f"{np.median(faults['base']):9.1f} {np.median(faults['head']):9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
