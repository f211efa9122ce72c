"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import calibration
import checks
import run
import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent.parent


def _op(workload, name, seed=workloads.DEFAULT_SEED):
    return next(op for op in workloads.build(workload, seed) if op.name == name)


# ---------------------------------------------------------------------------
# Output checker
# ---------------------------------------------------------------------------

def test_checker_accepts_the_reference_and_flags_a_perturbed_sn_row():
    reference = checks.load_reference()["outputs"]
    for name in ("covering-profile/skew2", "covering-profile/shift"):
        op, ref = _op("covering", name), reference[name]
        assert checks.check(op, copy.deepcopy(ref), ref, same_seed=True) == []
        bad = copy.deepcopy(ref)
        bad["rows"][3][2] += 1
        assert checks.check(op, bad, ref, same_seed=True)


def test_checker_invariants_hold_on_any_seed():
    ref = checks.load_reference()["outputs"]["covering-profile/rotation"]
    op = _op("covering", "covering-profile/rotation", seed=7)
    varied = copy.deepcopy(ref)
    for row in varied["rows"]:
        row[2] += 1                 # another seed: other counts, still constant
    assert checks.check(op, varied, ref, same_seed=False) == []
    varied["rows"][-1][2] += 1      # S_n of a rotation must not move with n
    assert any("not constant" in m
               for m in checks.check(op, varied, ref, same_seed=False))


def test_checker_ignores_covering_labels():
    ref = checks.load_reference()["outputs"]["covering-profile/shift"]
    relabelled = copy.deepcopy(ref)
    relabelled["labels"] = {eps: "saturated" for eps in ref["labels"]}
    assert checks.check(_op("covering", "covering-profile/shift"),
                        relabelled, ref, same_seed=True) == []


def test_reference_covers_every_operation():
    reference = checks.load_reference()
    assert reference["seed"] == workloads.DEFAULT_SEED
    names = {op.name for w in workloads.WORKLOADS
             for op in workloads.build(w, workloads.DEFAULT_SEED)}
    assert names == set(reference["outputs"])


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_times_on_a_hand_built_span_tree():
    #  op [0, 10] -> run_experiment [1, 9] -> experiment [2, 8]
    #                                           -> dbar [3, 7] -> kernel [4, 6]
    #  second op [10, 13] with no children
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 10.0, 13.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    op = tracer.enter("bench.op", "a")
    run_exp = tracer.enter("harness.run_experiment", "covering-profile")
    exp = tracer.enter(tracing.EXPERIMENT_SPAN, "covering-profile")
    dbar = tracer.enter("complexity.dbar", "rotation")
    kernel = tracer.enter("kernels.accumulate_circle")
    for index in (kernel, dbar, exp, run_exp, op):
        tracer.exit(index)
    tracer.exit(tracer.enter("bench.op", "b"))

    assert tracing.self_times(tracer.spans) == [2.0, 2.0, 2.0, 2.0, 2.0, 3.0]
    values = tracing.layer_values(tracer.spans, passes=1, counts={}, peaks={})
    assert values["kernels.accumulate_circle.s"] == 2.0
    assert values["complexity.dbar.rotation.s"] == 2.0
    assert values["harness.experiment.s"] == 2.0
    assert values["harness.bundle_io.s"] == 2.0
    assert values["harness.run_experiment.covering-profile.s"] == 8.0
    assert values["bench.op.s"] == 5.0
    assert values["trace.self_sum_s"] == 13.0
    assert values["trace.spans"] == 6
    halved = tracing.layer_values(tracer.spans, passes=2, counts={}, peaks={})
    assert halved["trace.self_sum_s"] == 6.5


def test_tracer_records_memory_peaks_of_nested_spans():
    import tracemalloc

    import numpy as np

    tracer = tracing.Tracer()
    tracer.memory = True
    inner = tracer.wrap(lambda: np.ones(4 << 20, dtype=np.uint8).sum(), "inner")
    outer = tracer.wrap(lambda: inner() + np.ones(1 << 20, dtype=np.uint8).sum(),
                        "outer")
    tracemalloc.start()
    try:
        outer()
    finally:
        tracemalloc.stop()
    assert 4.0 <= tracer.peaks[("inner", None)] < 4.5
    assert 4.0 <= tracer.peaks[("outer", None)] < 5.5


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert workloads.build(workload, 5) == workloads.build(workload, 5)
    assert workloads.build(workload, 5) != workloads.build(workload, 6)
    json.dumps([op.config for op in workloads.build(workload, 5)])


# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------

def _small(op):
    """`op` with its sizes cut down, same code paths."""
    params = dict(op.config["params"])
    for key, value in {"samples": 60, "cloud": 200, "N": 2000,
                       "limit": 10 ** 5, "bign": 10 ** 4}.items():
        if key in params:
            params[key] = value
    if "checkpoints" in params:
        params["checkpoints"] = [10, 100, 1000, 10000]
    return replace(op, config={**op.config, "params": params})


def _traced_counts(ops, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, results = worker.run_pass(ops, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert [error for _, error in results] == [None] * len(ops)
    return dict(tracer.counts)


def test_work_counts_repeat_exactly(tmp_path):
    ops = [_small(op) for w in ("covering", "mobius-orbit")
           for op in workloads.build(w, 3)]
    first = _traced_counts(ops, tmp_path / "1")
    second = _traced_counts(ops, tmp_path / "2")
    assert first == second
    # 256 rotation steps on 60 points, the block trace's 64 steps on 200,
    # and 128 steps on 60 points for each of the two torus skews
    assert first[("kernels.accumulate_circle", "pair_steps")] == (
        256 * 60 * 59 // 2 + 64 * 200 * 199 // 2)
    assert first[("kernels.accumulate_torus", "pair_steps")] == 2 * 128 * 60 * 59 // 2
    assert first[("kernels.assign_nearest_circle", "point_center_steps")] > 0
    assert first[("numtheory.build_mobius_table", "entries")] == (
        10 ** 5 + 10 ** 4 + (2000 + 64) + (10 ** 4 + 20) + 10 ** 5)


def test_reference_chunks_bracket_every_operation(tmp_path):
    ops = [_small(op) for op in workloads.build("mobius-orbit", 3)[:2]]
    calls = []
    durations, chunks, results = worker.run_pass(
        ops, tmp_path, chunk=lambda: calls.append(len(calls)))
    assert len(durations) == 2 and len(chunks) == len(calls) == 3
    assert [error for _, error in results] == [None, None]
    # a host running the chunk at half speed doubles the pass time
    assert calibration.calibrated(4.0, 0.07, 0.035) == 2.0


def test_tracer_uninstall_restores_every_function():
    from moeblab import complexity, dynamics, harness

    before = (harness.greedy_cover, complexity.greedy_cover,
              dynamics.SystemInstance.states_list, dict(harness._EXPERIMENTS))
    tracer = tracing.Tracer()
    tracer.install()
    assert harness.greedy_cover is complexity.greedy_cover is not before[0]
    tracer.uninstall()
    assert (harness.greedy_cover, complexity.greedy_cover,
            dynamics.SystemInstance.states_list, dict(harness._EXPERIMENTS)) == before


# ---------------------------------------------------------------------------
# The command and its declaration
# ---------------------------------------------------------------------------

def test_declared_metrics_match_what_the_command_prints():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_out", "_traces"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "covering",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
