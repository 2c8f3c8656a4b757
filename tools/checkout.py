"""Load checkouts of dlmprune and decode their perfbench workloads, for the tools.

``load_side`` imports a checkout's ``src/dlmprune`` under a package name of
the caller's choosing (``dlmprune_base``, ``dlmprune_head``), so two trees
live in one interpreter, together with that checkout's
``perfbench/workloads.py``. ``isolate`` writes no bytecode into a checkout
and gives BLAS one thread; it must run before numpy is imported.
``pin_to_one_core`` is for the tools that time. ``record_decode`` decodes one
input under one perfbench variant as the benchmark does and returns what
``tools/decode_digest.py`` hashes and ``tools/ab_decode.py`` compares: the
decode's results, the keep sets it applied, and the logits and captured maps
of every forward it ran.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]
SUBMODULES = ("decoder", "harness", "model", "pruning")  # what workloads.py imports
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


def load_side(name: str, root: Path):
    """(package, workloads module) of the checkout at ``root``, imported as ``name``."""
    src = root / "src" / "dlmprune"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    # workloads.py imports ``dlmprune`` by its own name: lend it this side's package
    spec = importlib.util.spec_from_file_location(f"{name}_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # for its dataclasses
    saved = sys.modules.get("dlmprune")
    sys.modules["dlmprune"] = package
    try:
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["dlmprune"]
        else:
            sys.modules["dlmprune"] = saved
    return package, workloads


def load_sides(base: Path) -> dict:
    """{"base": ..., "head": ...}: ``load_side`` of ``base`` and of this checkout."""
    return {"base": load_side("dlmprune_base", base), "head": load_side("dlmprune_head", HEAD)}


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
