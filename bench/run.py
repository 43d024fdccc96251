"""Benchmark of the attnmv solver and its Monte-Carlo oracles.

Run from the repository root:

    python3 bench/run.py --workload mc-verify --seed 1 --seconds 50 --trace 0

Workloads (see ``inputs.py`` for their inputs and ``workloads.py`` for
their calls):

* ``mc-verify``: one default solve, then the chain, SDE and filter-marginal
  oracles from the evaluation node.  Carries the Monte-Carlo work.
* ``sweep-fine``: the ``sweep-k`` pipeline, three solves on the fine grid.
  Carries the per-slice contraction, argmin and ``g`` propagation.  Not
  listed in BENCHMARK.json (see ``inputs.BENCHMARKED``); run it by hand.
* ``epochs-daily``: the ``check`` pipeline without Monte-Carlo on daily
  coefficient epochs, so nearly every slice needs its own stencil batch.
  Carries the kernel and the stencil cache.

One process runs one workload as a closed loop with a single caller: each
call starts when the previous one returns.  Iterations repeat until their
timed calls add up to ``--seconds``.  The first iteration's outputs are
checked, every iteration's outputs are hashed, and the hashes must agree.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s``
(median time of one iteration's calls), ``setup_s`` (median of
SETUP_SAMPLES set-ups, each in a fresh interpreter: imports, config load
and validation, lattice and control grid) and ``peak_rss_mb``.  With
``--trace 1`` iterations alternate between untraced and traced, and the
result holds the per-layer metrics of ``tracing.PER_LAYER``.

The last line of standard output is the result JSON; the line before it
is a report with the environment, samples, checks and digests.  Failed
checks show as ``failed`` out of ``attempted`` and make ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "attnmv"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120


def config_path(workload: str, seed: int) -> Path:
    return WORK / f"{workload}-{seed}.json"


def timed_setup(workload: str, seed: int):
    """(seconds, workloads module, Setup): imports through control grid."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    setup = workloads.set_up(workload, config_path(workload, seed))
    return perf_counter() - t0, workloads, setup


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        try:
            cdll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "commit": _commit(),
        "src_sha256": _src_sha256(),
    }


def summary(samples: list[float]) -> dict:
    """Median, quartiles and the guide's tail percentile, with the count.

    The tail percentile is the highest one with at least ten samples
    beyond it; below 20 samples no percentile above the median has.
    """
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples),
           "min": min(samples), "max": max(samples), "samples": samples}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 20:
        p = int(100 * (1 - 10 / n))
        out["tail"] = {"percentile": p,
                       "value": statistics.quantiles(samples, n=100)[p - 1]}
    else:
        out["tail"] = None
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "attnmv" / "__init__.py").is_file():
        print(f"bench: package source {SRC / 'attnmv'} not found",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(timed_setup(args.workload, args.seed)[0])
        return 0

    # inputs: written before the set-up clock starts
    data = inputs.config_bytes(args.workload, args.seed)
    regenerated = inputs.config_bytes(args.workload, args.seed) == data
    WORK.mkdir(parents=True, exist_ok=True)
    config_path(args.workload, args.seed).write_bytes(data)

    own_setup, workloads, s = timed_setup(args.workload, args.seed)
    import tracing
    setups = [own_setup] + [setup_probe(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]

    checks = workloads.Checks()
    checks.record("inputs_regenerate_identically", regenerated,
                  sha256=hashlib.sha256(data).hexdigest())
    calls = tracing.Calls()
    hooks = tracing.Hooks(calls) if args.trace else None
    walls, digests = [], []
    timed = 0.0
    i = 0
    while True:
        # iteration 0 is never traced: it carries the output checks
        tracing_now = bool(args.trace) and i % 2 == 1
        calls.start_iteration(tracing_now)
        try:
            if tracing_now:
                with hooks:
                    digests.append(workloads.iterate(s, calls))
            else:
                digests.append(workloads.iterate(
                    s, calls, checks if i == 0 else None))
                walls.append(calls.elapsed)
        except workloads.CALL_ERRORS as err:
            checks.record("call_raised", False, iteration=i,
                          error=f"{type(err).__name__}: {err}")
            if tracing_now:
                calls.traced.pop()
            break
        timed += calls.elapsed
        i += 1
        if timed >= args.seconds and (not args.trace or calls.traced):
            break
    if digests:
        checks.record("digest_repeats", len(set(digests)) == 1,
                      iterations=len(digests), digest=digests[0])

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "loop": "closed, one caller",
        "environment": environment(),
        "setup_s": summary(setups),
        "wall_s": summary(walls) if walls else None,
        "checks_failed": checks.failed / checks.attempted,
        "checks": checks.entries,
    }
    if args.trace:
        traced = [tracing.iteration_metrics(spans, counts, s.lat.n_nodes)
                  for spans, counts in calls.traced]
        metrics, missing = tracing.layer_report(
            traced, walls, s.load_config_s, hooks.missing)
        report["missing_metrics"] = missing
        report["missing_hooks"] = hooks.missing
        report["layers"] = {m.name: m.moves for m in tracing.PER_LAYER}
        report["no_change"] = list(tracing.NO_CHANGE)
        report["computed_from_array_shapes"] = [
            "kernel.batch_bytes_computed", "solver.contraction_bytes_computed",
            "solver.ops_per_byte_computed"]
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        if walls:
            metrics["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
