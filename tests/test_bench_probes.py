"""The benchmark's tracer names moeblab functions, experiments and system
kinds by string; each must still exist, or `--trace 1` breaks at install."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from moeblab import dynamics as dy
from moeblab import harness

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_tracing()


def test_every_probe_resolves_to_a_callable(tracing):
    for probe in tracing.PROBES:
        holder = importlib.import_module(f"moeblab.{probe.module}")
        for part in probe.attr.split("."):
            holder = getattr(holder, part, None)
        assert callable(holder), f"moeblab.{probe.module}.{probe.attr}"


def test_traced_experiments_are_registered(tracing):
    assert set(tracing.EXPERIMENTS) <= set(harness._EXPERIMENTS)


def test_traced_system_kinds_exist(tracing):
    assert set(tracing.SYSTEM_KINDS) <= set(dy._KINDS)
