#!/usr/bin/env python3
"""Interleaved A/B of whole perfbench decodes between two checkouts, one process each.

    python3 tools/ab_decode.py <base-checkout> [--workload W] [--rounds N] [--json PATH]

For each workload (``all`` by default), the base checkout and the checkout
this script lives in each run in a spawned worker process that loads only
that checkout (``tools/checkout.py``: one BLAS thread, no bytecode), on the
one core this process is pinned to. Each side builds its model and the
first ``INPUTS`` inputs of seed 1 through its own ``perfbench/workloads.py``
and decodes them under every variant in ``workloads.VARIANTS`` as the
benchmark does (``checkout.decode``).

It exits 1, before timing anything, unless both sides decode every input
under every variant bitwise alike in the fields ``tools/decode_digest.py``
hashes (``checkout.record_decode``): the decoded ids, the positions
committed at each step, the per-step sequence lengths, the score traces, the
keep sets applied, and the logits and captured maps of every forward. Each
side sends one SHA-256 per field and input (``checkout.update_digest``).
Each round then times, per variant, a batch of decodes on each side,
alternating which side runs first; a batch holds as many decodes as make
about 20 ms of the base side's baseline, cycling through the inputs. Per
workload it prints, per variant, each side's median seconds per decode, the
median ratio head/base with its quartiles and its bootstrap 95% interval
(``bootstrap_interval``), the rounds the head side won, and each side's
median thread CPU seconds (``time.thread_time``) and minor page faults
(``getrusage(RUSAGE_THREAD)``, in its own process) per decode, an integer.
Then, per variant that prunes or scores, the per-step overhead in
microseconds: the variant's time less the baseline's in the same round,
divided by its prune or score steps per decode (a prune that saves more
than it costs reads negative). It prints each side's median over rounds,
and the median over rounds of head's less base's with its bootstrap 95%
interval. ``--json PATH`` also writes all of that to PATH, per workload
(``ab_workload``'s record), for the workloads timed before any whose
decodes differ. A PATH that cannot be opened for writing exits 2 before
anything is decoded. The exit code reports only the bitwise check, never a
timing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from checkout import (FIELDS, HEAD, check_root, decode, isolate, load, pin_to_one_core,
                      record_decode, update_digest)

INPUTS = 16
SEED = 1
BATCH_S = 0.02
RESAMPLES = 2000


class Side:
    """One checkout's decodes of one workload's inputs, in a worker process."""

    def __init__(self, package, workloads, name: str):
        import numpy as np
        self.side = package, workloads
        self.wl = workloads.WORKLOADS[name]
        self.weights = self.wl.build_model()
        self.inputs = self.wl.make_inputs(np.random.default_rng(SEED), self.weights)[:INPUTS]

    def record(self, variant: str) -> list:
        """Per input, one SHA-256 per ``record_decode`` field (``update_digest``
        of each array) and the decode's score and prune steps."""
        records = []
        for inp in self.inputs:
            fields = record_decode(*self.side, self.wl, self.weights, variant, inp)
            digests = []
            for arrays in fields:
                h = hashlib.sha256()
                update_digest(h, *arrays)
                digests.append(h.hexdigest())
            records.append((digests, len(fields[3]) + len(fields[4])))
        return records

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


_side = None  # a worker process's Side


def _start_side(root: Path, name: str) -> None:
    """A worker's initializer: the ``Side`` of workload ``name`` of the checkout at ``root``."""
    global _side
    isolate()
    _side = Side(*load(root), name)


def _call(method: str, *args):
    """The worker's ``Side.record`` or ``Side.batch``."""
    return getattr(_side, method)(*args)


def bootstrap_interval(values, seed: int = 0) -> tuple[float, float]:
    """Bootstrap 95% interval of the median of ``values``, one per round: the
    2.5th and 97.5th percentiles of the medians of ``RESAMPLES`` resamplings
    of the rounds with replacement, drawn from ``default_rng(seed)``."""
    import numpy as np
    values = np.asarray(values, dtype=np.float64)
    picks = np.random.default_rng(seed).integers(0, values.size, (RESAMPLES, values.size))
    lo, hi = np.percentile(np.median(values[picks], axis=1), [2.5, 97.5])
    return float(lo), float(hi)


def ab_workload(name: str, roots: dict, variants: tuple, rounds: int) -> dict | None:
    """Check and time one workload, each side of ``roots`` in a worker process of
    its own, and print what was measured; that record, or None if the decodes differ."""
    import numpy as np
    spawn = multiprocessing.get_context("spawn")  # a forked worker would hold this checkout
    with ProcessPoolExecutor(1, spawn, _start_side, (roots["base"], name)) as base_pool, \
            ProcessPoolExecutor(1, spawn, _start_side, (roots["head"], name)) as head_pool:
        pools = {"base": base_pool, "head": head_pool}

        def call(label: str, method: str, *args):
            return pools[label].submit(_call, method, *args).result()

        # per variant, prune or score steps per decode of each input a batch cycles through
        steps_per_decode = {}
        for variant in variants:
            base, head = call("base", "record", variant), call("head", "record", variant)
            if len(base) != len(head):
                print(f"error: base and head make different inputs on workload {name}",
                      file=sys.stderr)
                return None
            for i, ((base_digests, _), (head_digests, _)) in enumerate(zip(base, head)):
                differ = [f for f, b, h in zip(FIELDS, base_digests, head_digests) if b != h]
                if differ:
                    print(f"error: base and head decodes differ on workload {name} variant "
                          f"{variant} input {i}: {', '.join(differ)}", file=sys.stderr)
                    return None
            steps_per_decode[variant] = [steps for _, steps in head]

        reps = max(1, round(BATCH_S / call("base", "batch", "baseline", 1)[0]))
        times = {(label, v): [] for label in roots for v in variants}
        for r in range(rounds):
            for variant in variants:
                for label in ("base", "head") if r % 2 == 0 else ("head", "base"):
                    times[label, variant].append(call(label, "batch", variant, reps))
    # (rounds, 3): wall seconds, CPU seconds and faults per decode
    measured = {key: np.asarray(t) for key, t in times.items()}
    times = {key: m[:, 0] for key, m in measured.items()}

    # numpy's float64 is a float, so the record goes to JSON as it is
    record = {"decodes_per_batch": reps, "rounds": rounds, "variants": {}, "per_step": {}}
    for variant in variants:
        base_s, head_s = times["base", variant], times["head", variant]
        q1, ratio, q3 = np.percentile(head_s / base_s, [25, 50, 75])
        cpu = {label: np.median(measured[label, variant][:, 1]) for label in roots}
        faults = {label: round(np.median(measured[label, variant][:, 2])) for label in roots}
        record["variants"][variant] = {
            "base_s": np.median(base_s), "head_s": np.median(head_s), "ratio": ratio,
            "ratio_q1": q1, "ratio_q3": q3, "interval_95": bootstrap_interval(head_s / base_s),
            "won": int((head_s < base_s).sum()), "base_cpu_s": cpu["base"],
            "head_cpu_s": cpu["head"], "base_faults": faults["base"],
            "head_faults": faults["head"]}
    for variant in variants:
        counts = steps_per_decode[variant]
        steps = float(np.mean([counts[i % len(counts)] for i in range(reps)]))
        if variant == "baseline" or steps == 0:
            continue
        # per round and side, microseconds per step over the baseline decode
        over = {label: 1e6 * (times[label, variant] - times[label, "baseline"]) / steps
                for label in roots}
        diff = over["head"] - over["base"]
        record["per_step"][variant] = {
            "steps": steps, "base_us": float(np.median(over["base"])),
            "head_us": float(np.median(over["head"])), "diff_us": float(np.median(diff)),
            "diff_interval_95": bootstrap_interval(diff)}
    print_workload(name, record)
    return record


def print_workload(name: str, record: dict) -> None:
    """Print ``ab_workload``'s record of workload ``name`` as two tables."""
    rounds = record["rounds"]
    print(f"{name}: {record['decodes_per_batch']} decodes per batch, {rounds} rounds")
    print(f"  {'variant':12s} {'base s':>10s} {'head s':>10s} {'ratio':>6s} "
          f"{'[q1, q3]':>15s} {'95% interval':>15s} {'won':>7s} {'base cpu':>9s} "
          f"{'head cpu':>9s} {'base flt':>8s} {'head flt':>8s}")
    for variant, row in record["variants"].items():
        lo, hi = row["interval_95"]
        print(f"  {variant:12s} {row['base_s']:10.3e} {row['head_s']:10.3e} "
              f"{row['ratio']:6.3f} [{row['ratio_q1']:.3f}, {row['ratio_q3']:.3f}] "
              f"[{lo:.3f}, {hi:.3f}] {row['won']:3d}/{rounds:<3d} {row['base_cpu_s']:9.3e} "
              f"{row['head_cpu_s']:9.3e} {row['base_faults']:8d} {row['head_faults']:8d}")
    print(f"  {'per-step':12s} {'steps':>6s} {'base us':>9s} {'head us':>9s} {'diff us':>9s} "
          f"{'95% interval':>19s}")
    for variant, row in record["per_step"].items():
        lo, hi = row["diff_interval_95"]
        print(f"  {variant:12s} {row['steps']:6.2f} {row['base_us']:9.1f} {row['head_us']:9.1f} "
              f"{row['diff_us']:9.1f} [{lo:.1f}, {hi:.1f}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout to compare this one against")
    parser.add_argument("--workload", default="all",
                        help="a perfbench workload name, or all (the default)")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--json", type=Path, help="also write what is printed here, as JSON")
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
    pin_to_one_core()  # the workers inherit the one core
    workloads = load(HEAD)[1]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        out = open(args.json, "w") if args.json else None
    except OSError as exc:
        print(f"error: --json {args.json} cannot be written: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    report = {"base": str(base), "head": str(HEAD), "workloads": {}}
    status = 0
    try:
        for name in names:
            record = ab_workload(name, {"base": base, "head": HEAD},
                                 tuple(workloads.VARIANTS), args.rounds)
            if record is None:
                status = 1
                break
            report["workloads"][name] = record
        if out:
            json.dump(report, out, indent=1)
            out.write("\n")
    finally:
        if out:
            out.close()
    return status


if __name__ == "__main__":
    sys.exit(main())
