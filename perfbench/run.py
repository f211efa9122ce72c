"""The moeblab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload covering --seed 0 --seconds 34 --trace 0

Run from the root of a source checkout; the benchmark imports moeblab from
its ``src/`` directory.  Workloads: ``covering``, ``mobius-orbit`` and
``certified`` (see README.md in this directory).

``--trace 0`` prints the end-to-end metrics: ``run_cal_s``, the median time
of one pass over the workload's operations, each pass scaled to the host's
nominal speed by a reference loop timed around it (``calibration.py``);
``setup_s``, the median over several fresh processes of the time from
start to the first operation, scaled the same way; and ``peak_rss_mib``,
the run's peak resident set.  ``--trace 1`` prints the per-layer metrics
of a traced run instead.  Either way the last line is
one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give quartiles, sample counts, the error
rate and the environment.

Every run happens in fresh child processes with BLAS pinned to one thread,
and the command exits non-zero without a result if it cannot run them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 7            # set-up is timed in this many processes per run
TIME_LIMIT_S = 170.0  # whole run, set-up processes included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"run_cal_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py with `args`; return its JSON line plus its set-up time."""
    env = dict(os.environ) | {var: "1" for var in THREAD_VARS}
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name: str, values: list[float], unit: str, what: str) -> str:
    q1, med, q3 = quartiles(values)
    return (f"{name}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, "
            f"n={len(values)} {what})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "moeblab" / "__init__.py").is_file():
        print(f"no moeblab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [spawn([*common, "--setup-only"], deadline)
                  for _ in range(SETUPS)]
        run = spawn(common, deadline)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    nominal = calibration.SETUP_CHUNK[1]
    setup_s = [calibration.calibrated(s["setup_s"], s["chunk_s"], nominal)
               for s in setups]

    attempted, failures = run["attempted"], run["failures"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{args.seconds:g} s: one process, one caller, closed loop")
    print("env: " + json.dumps(run["env"], sort_keys=True))
    for line in failures:
        print(f"FAILED {line}")
    print(f"error_rate: {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} operations failed)")
    print(describe("setup_s", setup_s, "s", "processes"))
    print(describe("set-up wall time", [s["setup_s"] for s in setups], "s",
                   "processes"))
    print(describe("set-up reference chunk", [s["chunk_s"] for s in setups],
                   "s", f"processes; scaled to nominal {nominal:g} s"))

    if args.trace:
        units = tracing.metric_units()
        layers = run["layers"]
        for name, unit in units.items():
            value = layers[name]
            print(f"{name}: {value:d}" if unit == "count" else
                  f"{name}: {value:.6g}", unit)
        gap = layers["trace.self_sum_s"] - layers["trace.untraced_run_s"]
        print(f"self times sum to trace.untraced_run_s {gap:+.4f} s "
              f"(tracing overhead {layers['trace.overhead_s']:+.4f} s)")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        print(describe("run_cal_s", run["cal_s"], "s", "passes"))
        print(describe("pass wall time", run["pass_s"], "s", "passes"))
        print(describe("pass reference chunk", run["chunk_s"], "s",
                       "pass means; scaled to nominal "
                       f"{calibration.CHUNKS[args.workload][1]:g} s"))
        print(f"peak_rss_mib: {run['peak_rss_mib']:.6g} MiB")
        values = {"run_cal_s": statistics.median(run["cal_s"]),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mib": run["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
