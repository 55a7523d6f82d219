"""Repo benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a checkout.

Runs one seeded workload against the ``repro`` package in ``src/``, prints a
report (environment fingerprint, output checks, every metric by name with
its unit) and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each result is
also appended to ``perfbench/out/results.jsonl`` with its fingerprint, for
``perfbench/compare.py``.  See ``perfbench/NOTES.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics, reported by every workload (units as in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s", "fit_sweep_ms": "ms", "peak_rss_mb": "MB",
    "predict_p50_ms": "ms",
}


def _openblas_threads():
    """Threads OpenBLAS will use, asked of numpy's bundled library."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        return None


def _src_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def fingerprint() -> dict:
    """The environment a result depends on.  ``compare.py`` refuses to put
    results side by side unless every key but ``commit``/``src`` agrees."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src": _src_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from layers import PER_LAYER
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    (HERE / "out").mkdir(exist_ok=True)
    env = fingerprint()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("fingerprint " + json.dumps(env, sort_keys=True))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    for line in out.report:
        print(line)
    for name, ok, detail in out.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    wanted = PER_LAYER if args.trace else END_TO_END
    values = out.layers if args.trace else out.metrics
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in wanted.items()}
    for name, m in metrics.items():
        print(f"metric {name:<28} {m['value']:>16.6g} {m['unit']}")
    attempted = max(1, out.attempted)
    print(f"metric {'fail_ratio':<28} {out.failed / attempted:>16.6g} "
          f"({out.failed} of {attempted} operations failed or wrong)")
    correct = out.failed == 0 and all(ok for _, ok, _ in out.checks)
    result = {"correct": correct, "attempted": attempted, "failed": out.failed,
              "metrics": metrics}
    with open(HERE / "out" / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "fingerprint": env, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
