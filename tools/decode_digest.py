#!/usr/bin/env python3
"""Digest of what the perfbench decodes produce, to compare two checkouts.

    python3 tools/decode_digest.py <checkout>

Imports ``src/dlmprune`` and ``perfbench/workloads.py`` from the given
checkout without writing to it (no bytecode files), with one BLAS thread. For
seeds 1 and 2 it decodes the first 64 inputs of copy8x8 and tiny16 and all 4
of vit1024 under every variant in ``workloads.VARIANTS`` (1,320 decodes), as
the benchmark does, and prints one SHA-256 per workload over the decoded ids,
the positions committed at each step, the per-step sequence lengths, the
score traces and the keep sets applied (``record_decode`` in
``tools/checkout.py``, which ``tools/ab_decode.py`` shares). A change that must
leave every decode bitwise the same prints the same digests as its parent.
A second line per workload, ``<name> inputs``, is one SHA-256 over the
embedded visual and prompt rows of every input decoded, so a change to the
embedding path shows directly, not only through the decodes. A third,
``<name> logits``, is one SHA-256 over ``record_decode``'s logits and
captures: the logits of every forward those decodes run, and the attention
map it captured whenever there is one, so a change to the forward's
arithmetic shows even where it flips no decoded id. A forward that writes its
input (the decoder keeps that input between steps) ends the script with exit
code 1 and names the workload.

It then runs each command of ``REPORT_COMMANDS`` through the checkout's CLI
under ``--policy confidence`` and ``--policy stochastic`` and prints one
SHA-256 of the ``--out`` JSON with the timings (``TIMINGS``) removed, or the
exit code of a command that fails. The JSON keeps its key order and the text
of its floats, so a report that only reorders its fields or prints a float
differently digests differently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from checkout import check_root, isolate, record_decode

SEEDS = (1, 2)
MAX_INPUTS = 64
REPORT_COMMANDS = (["run", "--seed", "9"], ["ablate", "--r", "0.25"], ["similarity"],
                   ["flops", "--r", "0.25", "--strategy", "progressive"], ["bench", "--r", "0.25"])
POLICIES = ("confidence", "stochastic")
TIMINGS = ("latency_s_per_sample", "throughput_tok_per_s")


def _update(h, array) -> None:
    import numpy as np
    a = np.ascontiguousarray(array)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: decode_digest.py <checkout>", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    error = check_root(root)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    isolate()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import dlmprune
    import numpy as np
    import workloads

    total = 0
    for name, wl in workloads.WORKLOADS.items():
        h, h_inputs, h_logits = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
        weights = wl.build_model()
        for seed in SEEDS:
            inputs = wl.make_inputs(np.random.default_rng(seed), weights)[:MAX_INPUTS]
            for inp in inputs:
                _update(h_inputs, inp.visual)
                _update(h_inputs, inp.prompt)
                for variant in workloads.VARIANTS:
                    try:
                        ids, committed, lengths, scores, keeps, forwards = record_decode(
                            dlmprune, workloads, wl, weights, variant, inp)
                    except ValueError as error:
                        print(f"error: {error} on workload {name}", file=sys.stderr)
                        return 1
                    total += 1
                    h.update(variant.encode())
                    for a in ids + committed + lengths + scores:
                        _update(h, a)
                    h.update(f"keeps{len(keeps)}".encode())
                    for keep in keeps:
                        _update(h, keep)
                    for a in forwards:
                        _update(h_logits, a)
        print(f"{name:8s} {h.hexdigest()}")
        print(f"{name} inputs {h_inputs.hexdigest()}")
        print(f"{name} logits {h_logits.hexdigest()}")
    print(f"decodes  {total}")
    _print_report_digests()
    return 0


def _print_report_digests() -> None:
    from dlmprune.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for command in REPORT_COMMANDS:
            for policy in POLICIES:
                args = command + ["--policy", policy, "--out", str(out)]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(args)
                label = " ".join(command + ["--policy", policy])
                if code != 0:
                    print(f"{label:58s} exit {code}")
                    continue
                data = json.loads(out.read_text(), parse_float=str)
                for report in data if isinstance(data, list) else [data]:
                    for key in TIMINGS:
                        report.pop(key, None)
                digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
                print(f"{label:58s} {digest}")


if __name__ == "__main__":
    sys.exit(main())
