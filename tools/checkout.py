"""Load a checkout of dlmprune and decode its perfbench workloads, for the tools.

``load`` imports a checkout's ``src/dlmprune`` and ``perfbench/workloads.py``
under their own names, so a process holds one checkout. ``isolate`` writes
no bytecode into a checkout and gives BLAS one thread; it must run before
numpy is imported. ``pin_to_one_core`` is for the tools that time.
``record_decode`` decodes one input under one perfbench variant as the
benchmark does and returns what ``tools/decode_digest.py`` and
``tools/ab_decode.py`` hash, each with ``update_digest``: the decode's
results, the keep sets it applied, and the logits and captured maps of every
forward it ran.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]
FIELDS = ("ids", "committed positions", "step lengths", "score traces", "keep sets",
          "logits and captures")


def check_root(root: Path) -> str | None:
    """An error message if ``root`` holds no dlmprune sources, else None."""
    if not (root / "src" / "dlmprune" / "__init__.py").is_file():
        return f"no dlmprune sources under {root / 'src'}"
    return None


def isolate() -> None:
    """One BLAS thread and no bytecode."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True


def pin_to_one_core() -> None:
    """Run on one core, the lowest this process may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load(root: Path):
    """(dlmprune, workloads module) of the checkout at ``root``, imported under
    their own names with ``root``'s directories first on ``sys.path``. A
    process holds one checkout: load it before anything imports either."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import dlmprune
    import workloads
    return dlmprune, workloads


def update_digest(h, *arrays) -> None:
    """Feed each array's dtype, shape and bytes, in order, to the hash ``h``."""
    import numpy as np
    for array in arrays:
        a = np.ascontiguousarray(array)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def decode(package, workloads, wl, weights, variant: str, inp):
    """``run_inference`` of one input under one perfbench variant, as the benchmark runs it."""
    score_with = package.pruning.ScorerKind.MASKED if variant == "scored" else None
    return package.decoder.run_inference(inp.visual, inp.prompt, wl.tau, wl.steps, weights,
                                         inp.policy, workloads.plan_for(variant, inp),
                                         score_with=score_with)


def record_decode(package, workloads, wl, weights, variant: str, inp) -> tuple:
    """The ``FIELDS`` of one ``decode``, each a list of arrays. Keep sets are
    recorded by wrapping ``pruning.apply_prune``, as the benchmark's tracer
    does, and each forward's logits and then its captured maps, layer by layer,
    by wrapping ``decoder.forward``. Since the decoder keeps a forward's input
    between steps, a forward that writes it raises ``ValueError``."""
    import numpy as np
    decoder, pruning = package.decoder, package.pruning
    forward, apply_prune = decoder.forward, pruning.apply_prune
    keeps, forwards = [], []

    def recording_apply_prune(state, keep):
        keeps.append(keep.indices.copy())
        return apply_prune(state, keep)

    def recording_forward(x, *args, **kwargs):
        before = x.tobytes()
        logits, capture = result = forward(x, *args, **kwargs)
        if x.tobytes() != before:
            raise ValueError("a forward wrote its input")
        forwards.append(logits.copy())  # the next forward reuses its buffers
        if capture is not None:
            forwards.extend(m.copy() for maps in capture.maps for m in maps)
        return result

    decoder.forward, pruning.apply_prune = recording_forward, recording_apply_prune
    try:
        ids, steps, stats = decode(package, workloads, wl, weights, variant, inp)
    finally:
        decoder.forward, pruning.apply_prune = forward, apply_prune
    return ([ids], [s.newly_decoded for s in steps],
            [np.asarray(stats.per_step_lengths, dtype=np.int64)], list(stats.score_trace), keeps,
            forwards)
