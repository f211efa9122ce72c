"""One benchmark process: set up a workload, run it in passes, check it.

Started by ``run.py`` in a fresh interpreter per run.  Prints one JSON line
on standard output.  With ``--setup-only`` it stops once the configs are
generated and reports when it got there and how long a reference chunk
then takes, which ``run.py`` uses to time set-up several times per run.

Each pass runs the workload's operations once, in order, with one caller:
an operation starts only after the previous one returned.  Only the
operations themselves are timed; extracting and checking their outputs
and removing the bundles they wrote happen after each pass.  In a measured
run a reference loop (``calibration.py``) is timed before each operation
and after the last, so each pass time can be scaled to the host's speed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the checkout's own sources, never an installed copy
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

# set-up includes importing every module the operations use
import numpy  # noqa: E402

import moeblab  # noqa: E402
from moeblab import (cocycle, complexity, contfrac, dynamics,  # noqa: E402,F401
                     fixtures, harness, mrt, numtheory)

import checks  # noqa: E402
import workloads  # noqa: E402


def run_pass(ops, out_root: Path, tracer=None,
             chunk=None) -> tuple[list[float], list[float], list]:
    """Run every operation once; return op durations, reference chunk
    times and (raw, error) per operation.

    With `chunk` (a reference loop from calibration.py), one chunk runs
    before each operation and one after the last, outside the op timings.
    """
    ctx: dict = {}
    durations, chunks, results = [], [], []
    for op_id, op in enumerate(ops):
        if chunk:
            chunks.append(_timed(chunk))
        if tracer:
            tracer.op_id = op_id
            span = tracer.enter("bench.op", op.name)
        start = time.perf_counter()
        try:
            raw, error = workloads.execute(op, ctx, out_root), None
        except Exception as exc:   # a raising operation counts as failed
            raw, error = None, f"{type(exc).__name__}: {exc}"
        durations.append(time.perf_counter() - start)
        if tracer:
            tracer.exit(span)
        results.append((raw, error))
    if chunk:
        chunks.append(_timed(chunk))
    return durations, chunks, results


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def check_pass(ops, results, reference: dict, same_seed: bool) -> list[str]:
    """One failure line per failed operation."""
    failures = []
    for op, (raw, error) in zip(ops, results):
        if error is None:
            try:
                bad = checks.check(op, workloads.outputs(op, raw),
                                   reference["outputs"][op.name], same_seed)
            except Exception as exc:   # unreadable output fails the operation
                bad = [f"output check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(bad) or None
        if error:
            failures.append(f"{op.name}: {error}")
    return failures


class Session:
    """The passes of one run, with their failures and timings."""

    def __init__(self, ops, out_root: Path, reference: dict, same_seed: bool):
        self.ops, self.out_root = ops, out_root
        self.reference, self.same_seed = reference, same_seed
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer=None, chunk=None) -> tuple[float, float]:
        """Pass time and mean reference chunk time (0 without `chunk`)."""
        durations, chunks, results = run_pass(self.ops, self.out_root,
                                              tracer, chunk)
        self.attempted += len(self.ops)
        self.failures += check_pass(self.ops, results, self.reference,
                                    self.same_seed)
        shutil.rmtree(self.out_root, ignore_errors=True)
        return sum(durations), (statistics.fmean(chunks) if chunks else 0.0)

    def passes_until(self, deadline: float, chunk) -> tuple[list, list]:
        """Pass times and their mean chunk times, from passes run while one
        more is expected to end by `deadline` (monotonic seconds); at least
        one pass."""
        times, chunk_times, spent = [], [], []
        while _fits(spent, deadline):
            start = time.monotonic()
            pass_s, chunk_s = self.one_pass(chunk=chunk)
            times.append(pass_s)
            chunk_times.append(chunk_s)
            spent.append(time.monotonic() - start)
        return times, chunk_times


def _fits(times: list[float], deadline: float) -> bool:
    return not times or time.monotonic() + statistics.median(times) <= deadline


def traced_run(session: Session, deadline: float) -> tuple[dict, list]:
    """Untraced and traced passes in turn while another pair fits before
    `deadline`, then one pass with tracemalloc on for the memory peaks.

    Alternating the two kinds of pass keeps slow drift of the machine out
    of the tracing overhead, the difference of their mean pass times.
    """
    import tracemalloc

    import tracing

    timing = tracing.Tracer()
    untraced, traced, pairs = [], [], []
    counts: dict = {}
    while _fits(pairs, deadline):
        untraced.append(session.one_pass()[0])
        timing.install()
        try:
            traced.append(session.one_pass(timing)[0])
        finally:
            timing.uninstall()
        counts = counts or dict(timing.counts)
        pairs.append(untraced[-1] + traced[-1])
    memory = tracing.Tracer()
    memory.memory = True
    memory.install()
    tracemalloc.start()
    try:
        session.one_pass(memory)
    finally:
        tracemalloc.stop()
        memory.uninstall()
    values = tracing.layer_values(timing.spans, len(traced), counts, memory.peaks)
    values["trace.run_s"] = sum(traced) / len(traced)
    values["trace.untraced_run_s"] = sum(untraced) / len(untraced)
    values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
    return values, timing.spans


def environment() -> dict:
    import ctypes
    import importlib.util
    import os
    import platform

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "moeblab": moeblab.__version__,
           "nproc": len(os.sched_getaffinity(0)),
           "numba": importlib.util.find_spec("numba") is not None,
           "blas_threads": None, "l3_bytes": None}
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            env["blas_threads"] = get()
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        level3 = libc.sysconf(194)        # _SC_LEVEL3_CACHE_SIZE in glibc
        env["l3_bytes"] = level3 if level3 > 0 else None
    except (OSError, AttributeError):
        pass
    return env


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        import calibration

        chunk = calibration.SETUP_CHUNK[0]
        print(json.dumps({"ready": ready, "chunk_s": statistics.median(
            _timed(chunk) for _ in range(3))}))
        return 0

    import resource

    out_root = HERE / "_out" / f"{args.workload}-{args.seed}"
    session = Session(ops, out_root, checks.load_reference(),
                      args.seed == workloads.DEFAULT_SEED)
    deadline = ready + args.seconds
    result = {"ready": ready, "env": environment()}
    if args.trace:
        result["layers"], spans = traced_run(session, deadline)
        trace_dir = HERE / "_traces"
        trace_dir.mkdir(exist_ok=True)
        with open(trace_dir / f"{args.workload}.jsonl", "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)
    else:
        import calibration

        chunk = calibration.CHUNKS[args.workload][0]
        chunk()    # build the chunk's caches before the first pass
        result["pass_s"], result["chunk_s"] = session.passes_until(deadline, chunk)
        nominal = calibration.CHUNKS[args.workload][1]
        result["cal_s"] = [calibration.calibrated(p, c, nominal)
                           for p, c in zip(result["pass_s"], result["chunk_s"])]
        result["peak_rss_mib"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result |= {"attempted": session.attempted, "failures": session.failures}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
