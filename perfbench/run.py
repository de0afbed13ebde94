"""Benchmark runner for spectracube.

    python3 perfbench/run.py --workload poisson-n80 --seed 1 --seconds 34 --trace 0

Imports spectracube from ``src/`` of the checkout this file sits in, pins
BLAS and OpenMP to one thread, runs one untimed warm-up at the workload's
smoke size, then repeats the workload's user-level call for as long as
another call fits in ``--seconds`` seconds (at least once) and checks every
output.  Prints a detail line (environment and every repetition) and, as
the last line, the result object ``{"correct", "attempted", "failed",
"metrics"}``:

* ``--trace 0``: the medians of ``total_s``, ``setup_s`` and ``solve_s``
  over the repetitions, all three split from the same calls, and the
  process's ``peak_rss_mb``;
* ``--trace 1``: the same untimed repetitions, then one call with every
  layer probe installed; its per-layer numbers, and ``trace.overhead_s``
  as the traced ``total_s`` minus the untraced median.  The spans are
  written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from tracer import LAYER_PROBES, SETUP_PROBES, Tracer, layer_metrics, self_times_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# On two cores, two BLAS threads made eig-n20 3.5x slower and Poisson run
# times three times as spread as one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Rep(NamedTuple):
    total_s: float  # the user-level call
    setup_s: float  # inside StationarySolver(...)
    gate: dict  # the workload's check, or the exception the call raised


def pin_threads() -> None:
    """Set every BLAS/OpenMP thread variable to 1; call before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on the path, or exit if it is absent."""
    src = ROOT / "src"
    if not (src / "spectracube" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spectracube sources under {src}")
    sys.path.insert(0, str(src))


def git_commit(root: Path) -> str | None:
    """Commit checked out at ``root``, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library file name.

    numpy and scipy each load their own copy; both must read 1.  Found
    through this process's memory map, so empty off Linux.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return {}
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[Path(path).name] = getter()
                break
    return threads


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
    }


def run_once(workload, size, seed: int, probes):
    """One user-level call under a tracer with ``probes``; returns (Rep, tracer)."""
    case = workload.build(size, seed)
    gc.collect()
    tracer = Tracer(probes)
    try:
        with tracer, tracer.span("bench.call") as root:
            output = case.call()
        gate = case.check(output)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc()
        gate = {"ok": False, "exception": repr(exc)}
    setup_ns = sum(
        s.duration_ns for s in tracer.spans if s.name == "drivers.setup" and not s.nested
    )
    return Rep(root.duration_ns * 1e-9, setup_ns * 1e-9, gate), tracer


def measure(workload, size, seed: int, seconds: float) -> list[Rep]:
    """Repeat the call while another one of median length fits in ``seconds``.

    Always makes at least one call.  Stopping before the budget runs out,
    not after, keeps a run of long calls close to ``seconds``.
    """
    reps: list[Rep] = []
    start = time.perf_counter()
    while not reps or (time.perf_counter() - start
                       + statistics.median(r.total_s for r in reps) <= seconds):
        reps.append(run_once(workload, size, seed, SETUP_PROBES)[0])
    return reps


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for span, own in zip(tracer.spans, self_times_ns(tracer.spans)):
            out.write(json.dumps({
                "id": span.id, "parent": span.parent, "name": span.name,
                "start_ns": span.start_ns, "end_ns": span.end_ns, "self_ns": own,
                "attrs": span.attrs,
            }) + "\n")
    print(f"spans: {path}", file=sys.stderr)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Warm up, measure and check one workload; returns (detail, result, tracer).

    ``tracer`` holds the traced call's spans when ``trace`` is set, else None.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    size = workload.smoke if smoke else workload.full
    warm_up = run_once(workload, workload.smoke, seed, SETUP_PROBES)[0]
    reps = measure(workload, size, seed, seconds)
    totals = [r.total_s for r in reps]
    metrics = {
        "total_s": (statistics.median(totals), "s"),
        "setup_s": (statistics.median(r.setup_s for r in reps), "s"),
        "solve_s": (statistics.median(r.total_s - r.setup_s for r in reps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    checked = [warm_up] + reps
    tracer = None
    if trace:
        traced, tracer = run_once(workload, size, seed, LAYER_PROBES)
        checked.append(traced)
        metrics = layer_metrics(tracer.spans, tracer.counts)
        metrics["trace.overhead_s"] = (traced.total_s - statistics.median(totals), "s")
    failed = sum(not r.gate["ok"] for r in checked)
    detail = {
        "workload": name,
        "size": size._asdict(),
        "environment": environment(seed),
        "seconds": seconds,
        "samples": len(reps),
        "total_s": {"median": statistics.median(totals), "min": min(totals), "max": max(totals)},
        "warm_up": warm_up._asdict(),
        "reps": [r._asdict() for r in checked[1:]],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    use_checkout_sources()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    detail, result, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        write_spans(tracer, BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
