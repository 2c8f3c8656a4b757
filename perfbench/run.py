#!/usr/bin/env python3
"""Decode benchmark for dlmprune.

    python3 perfbench/run.py --workload vit1024 --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all`` three in one process) as a closed loop with a
single caller and one decode in flight, for ``--seconds`` of decoding. Each
round decodes one input under every variant in ``workloads.VARIANTS``,
rotating which goes first. Every decode is checked; a decode that fails a
check counts in ``failed``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which hold
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``, named and with the units BENCHMARK.json gives. A full report
(environment, tails, per-variant extras) and, for traced runs, the span
table are written under ``perfbench/out``. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("vit1024", "copy8x8", "tiny16")


def _blas_thread_count():
    """Ask numpy's bundled OpenBLAS for its thread count; None if it cannot be asked."""
    import numpy as np
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_thread_count() or int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Decode benchmark for dlmprune.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dlmprune" / "__init__.py").is_file():
        print(f"error: no dlmprune sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # One BLAS thread, set before numpy loads. The products here are small
    # (n <= 1072, d <= 164): on a 2-core x86_64 box a second thread gained
    # under 10% on vit1024, doubled CPU time by spin-waiting, and made the
    # latency depend on what else ran on the machine.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import dlmprune
    if Path(dlmprune.__file__).resolve().parent != (src / "dlmprune").resolve():
        print(f"error: imported dlmprune from {dlmprune.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np
    import bench

    env = environment(args.seed, nproc)
    print("env " + json.dumps(env), flush=True)
    out_dir = HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = bench.run_workload(name, args.seed, args.seconds, bool(args.trace))
        if set(res["metrics"]) != set(units):
            print(f"error: {name} reported {sorted(res['metrics'])}, "
                  f"BENCHMARK.json lists {sorted(units)}", file=sys.stderr)
            return 3
        results.append(res)
        for why in res["failures"]:
            print(f"FAILED {name}: {why}", file=sys.stderr)
        print(f"== {name}: {res['attempted']} decodes, {res['failed']} failed")
        for metric, value in res["metrics"].items():
            print(f"  {metric:36s} {value:14.6g} {units[metric]}")
        for key, value in res["extras"].items():
            print(f"  [{key}] {json.dumps(value)}")
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        spans = res.pop("spans", None)
        if spans is not None:
            np.savez_compressed(out_dir / f"{stem}.spans.npz", **spans)
        (out_dir / f"{stem}.json").write_text(json.dumps({"env": env, **res}, indent=1) + "\n")

    def entry(res, metric):
        return {"value": res["metrics"][metric], "unit": units[metric]}

    if len(results) == 1:
        metrics = {m: entry(results[0], m) for m in results[0]["metrics"]}
    else:
        metrics = {f"{r['workload']}/{m}": entry(r, m) for r in results for m in r["metrics"]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
