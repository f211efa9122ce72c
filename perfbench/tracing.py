"""Span tracing around the calls into moeblab's modules, from outside them.

`Tracer.install` swaps selected moeblab functions for thin wrappers.  Every
module attribute bound to a wrapped function is swapped, so calls through
names that other modules imported (``from .complexity import greedy_cover``
in ``harness``) are seen too; `uninstall` puts the originals back.  Each
call records one span ``[name, tag, start, end, parent, op_id]`` in memory;
spans are written out only after the run.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly because one thread makes every call.  With
``memory=True`` each span also gets its `tracemalloc` peak above the traced
memory at entry; a child resets the peak counter, so the parent folds the
child's peak into its own before and after.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

MIB = float(1 << 20)

NAME, TAG, START, END, PARENT, OP = range(6)


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: where it lives, how its spans are named,
    and what work it counts."""

    module: str                  # module defining the function
    attr: str                    # "function" or "Class.method"
    name: str                    # span name
    tag: Callable | None = None  # (args, kwargs) -> tag string
    count: Callable | None = None  # (args, kwargs, result) -> {counter: n}


def _pairs(xs) -> int:
    steps, p = xs.shape
    return steps * p * (p - 1) // 2


PROBES = (
    Probe("_kernels", "accumulate_circle", "kernels.accumulate_circle",
          count=lambda a, k, r: {"pair_steps": _pairs(a[0])}),
    Probe("_kernels", "accumulate_torus", "kernels.accumulate_torus",
          count=lambda a, k, r: {"pair_steps": _pairs(a[0])}),
    Probe("_kernels", "assign_nearest_circle", "kernels.assign_nearest_circle",
          count=lambda a, k, r: {"point_center_steps":
                                 int(a[2]) * a[1].shape[0] * a[1].shape[1]}),
    Probe("complexity", "complexity_profile", "complexity.dbar",
          tag=lambda a, k: a[0].system.kind),
    Probe("complexity", "greedy_cover", "complexity.greedy_cover",
          count=lambda a, k, r: {"calls": 1, "centers": r.count}),
    Probe("complexity", "grid_cover_check", "complexity.grid_cover_check"),
    Probe("numtheory", "build_mobius_table", "numtheory.build_mobius_table",
          count=lambda a, k, r: {"calls": 1, "entries": r.limit}),
    Probe("numtheory", "pretentious_scan", "numtheory.pretentious_scan",
          count=lambda a, k, r: {"rows": len(r)}),
    Probe("mrt", "typical_set_mask", "mrt.typical_set_mask"),
    Probe("mrt", "bilinear_mobius_average", "mrt.bilinear_mobius_average"),
    Probe("harness", "correlation_sum", "harness.correlation_sum",
          count=lambda a, k, r: {"orbit_points": max(r.checkpoints)}),
    Probe("harness", "block_decomposition_trace",
          "harness.block_decomposition_trace"),
    Probe("harness", "run_experiment", "harness.run_experiment",
          tag=lambda a, k: a[0].get("experiment")),
    Probe("dynamics", "make_system", "dynamics.make_system"),
    Probe("dynamics", "SystemInstance.states_list", "dynamics.states_list",
          count=lambda a, k, r: {"calls": 1}),
    Probe("contfrac", "centered_fractional", "contfrac.centered_fractional",
          count=lambda a, k, r: {"calls": 1}),
    Probe("contfrac", "circle_norm_interval", "contfrac.circle_norm_interval",
          count=lambda a, k, r: {"calls": 1}),
    Probe("contfrac", "expand", "contfrac.expand"),
    Probe("contfrac", "best_approx_check", "contfrac.best_approx_check"),
    Probe("cocycle", "split_cocycle", "cocycle.split_cocycle",
          count=lambda a, k, r: {"tail_frequencies": len(r.tail.support)}),
    Probe("cocycle", "block_estimate_check", "cocycle.block_estimate_check"),
)

# the registered experiment functions, one span each; their self time is
# the experiment's own glue between the library calls
EXPERIMENT_SPAN = "harness.experiment"


class Tracer:
    """Spans, work counts and (with `memory`) tracemalloc peaks of the
    calls made while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.peaks: dict[tuple[str, str | None], float] = {}
        self.memory = False
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._peak_stack: list[list[int]] = []   # [base, running peak]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def enter(self, name: str, tag: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peak_stack:
                top = self._peak_stack[-1]
                top[1] = max(top[1], peak)
            tracemalloc.reset_peak()
            self._peak_stack.append([current, current])
        index = len(self.spans)
        self.spans.append([name, tag, self.clock(), None, parent, self.op_id])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        span = self.spans[index]
        span[END] = self.clock()
        self._stack.pop()
        if self.memory:
            base, peak = self._peak_stack.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            key = (span[NAME], span[TAG])
            self.peaks[key] = max(self.peaks.get(key, 0.0), (peak - base) / MIB)
            if self._peak_stack:
                top = self._peak_stack[-1]
                top[1] = max(top[1], peak)
            tracemalloc.reset_peak()

    def wrap(self, fn: Callable, name: str, tag: Callable | None = None,
             count: Callable | None = None) -> Callable:
        enter, exit_, counts = self.enter, self.exit, self.counts

        def traced(*args, **kwargs):
            index = enter(name, tag(args, kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(index)
            if count:
                for key, n in count(args, kwargs, result).items():
                    counts[(name, key)] += n
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------
    def install(self) -> None:
        """Wrap every probe, and every registered experiment function."""
        from moeblab import harness

        modules = [m for key, m in list(sys.modules.items())
                   if key == "moeblab" or key.startswith("moeblab.")]
        for probe in PROBES:
            owner = sys.modules[f"moeblab.{probe.module}"]
            cls_name, _, attr = probe.attr.rpartition(".")
            holder = getattr(owner, cls_name) if cls_name else owner
            original = getattr(holder, attr)
            wrapped = self.wrap(original, probe.name, probe.tag, probe.count)
            self._swap(holder, attr, wrapped)
            if cls_name:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, wrapped)
        registry = harness._EXPERIMENTS
        for key, fn in list(registry.items()):
            wrapped = self.wrap(fn, EXPERIMENT_SPAN, lambda a, k, n=key: n)
            self._undo.append((registry, key, fn))
            registry[key] = wrapped

    def _swap(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            out[span[PARENT]] -= span[END] - span[START]
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

EXPERIMENTS = ("covering-profile", "sieve-check", "correlation", "block-trace",
               "mrt-bilinear", "pretentious", "lemma54")
SYSTEM_KINDS = ("rotation", "skew2", "group_skew", "shift")

# self-time metrics named after their span; a tagged span adds its tag
SELF_TIMES = (
    "kernels.accumulate_circle", "kernels.accumulate_torus",
    "kernels.assign_nearest_circle",
    *(f"complexity.dbar.{kind}" for kind in SYSTEM_KINDS),
    "complexity.greedy_cover", "complexity.grid_cover_check",
    "numtheory.build_mobius_table", "numtheory.pretentious_scan",
    "mrt.typical_set_mask", "mrt.bilinear_mobius_average",
    "harness.correlation_sum", "harness.block_decomposition_trace",
    "harness.bundle_io", "harness.experiment",
    "dynamics.make_system", "dynamics.states_list",
    "contfrac.centered_fractional", "contfrac.circle_norm_interval",
    "contfrac.expand", "contfrac.best_approx_check",
    "cocycle.split_cocycle", "cocycle.block_estimate_check",
    "bench.op",
)
COUNTS = (
    ("kernels.accumulate_circle", "pair_steps"),
    ("kernels.accumulate_torus", "pair_steps"),
    ("kernels.assign_nearest_circle", "point_center_steps"),
    ("complexity.greedy_cover", "calls"), ("complexity.greedy_cover", "centers"),
    ("numtheory.build_mobius_table", "calls"),
    ("numtheory.build_mobius_table", "entries"),
    ("numtheory.pretentious_scan", "rows"),
    ("harness.correlation_sum", "orbit_points"),
    ("dynamics.states_list", "calls"),
    ("contfrac.centered_fractional", "calls"),
    ("contfrac.circle_norm_interval", "calls"),
    ("cocycle.split_cocycle", "tail_frequencies"),
)
PEAKS = (
    ("complexity.dbar.shift", ("complexity.dbar", "shift")),
    ("numtheory.build_mobius_table", ("numtheory.build_mobius_table", None)),
    ("mrt.bilinear_mobius_average", ("mrt.bilinear_mobius_average", None)),
)
TRACE_TOTALS = ("trace.run_s", "trace.untraced_run_s", "trace.overhead_s",
                "trace.self_sum_s")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.s": "s" for name in SELF_TIMES}
    units |= {f"harness.run_experiment.{e}.s": "s" for e in EXPERIMENTS}
    units |= {f"{name}.{counter}": "count" for name, counter in COUNTS}
    units |= {f"{name}.peak_mib": "MiB" for name, _ in PEAKS}
    units |= {name: "s" for name in TRACE_TOTALS}
    units["trace.spans"] = "count"
    return units


def _self_key(span: list) -> str:
    name, tag = span[NAME], span[TAG]
    if name == "complexity.dbar":
        return f"{name}.{tag}"
    if name == "harness.run_experiment":
        return "harness.bundle_io"
    return name


def layer_values(spans: list[list], passes: int, counts: dict,
                 peaks: dict) -> dict[str, float]:
    """Per-pass self times, inclusive experiment times, counts and peaks.

    `spans` come from `passes` traced passes, `counts` from the first of
    them, `peaks` from a separate pass with tracemalloc on.
    """
    values = {name: 0.0 for name in metric_units()}
    for span, own in zip(spans, self_times(spans)):
        values[f"{_self_key(span)}.s"] += own / passes
        if span[NAME] == "harness.run_experiment":
            values[f"harness.run_experiment.{span[TAG]}.s"] += (
                span[END] - span[START]) / passes
    for name, counter in COUNTS:
        values[f"{name}.{counter}"] = counts.get((name, counter), 0)
    for name, key in PEAKS:
        values[f"{name}.peak_mib"] = peaks.get(key, 0.0)
    values["trace.spans"] = len(spans) // passes
    values["trace.self_sum_s"] = sum(values[f"{name}.s"] for name in SELF_TIMES)
    return values
