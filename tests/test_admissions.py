"""One admission audit: each registered experiment at a small config, and
each library call that admits a working set with `errors.admit`, checked
three ways.  A spy stands in for `admit` in every moeblab module that
binds it and reads the tracemalloc peak at each admission.

1. The peak before each admission, and at the end, is at most the
   admissions made before it (each call site's largest, all live
   together) plus the row's slack: memory allocated before anything
   admits it shows here.
2. The largest admission is at most the row's factor above the peak.
3. The row scaled past the cap raises SizingError with under 1 MiB traced.
"""

import ast
import contextlib
import os
import sys
import tempfile
import tracemalloc
from collections import deque
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import numpy.ma  # noqa: F401  np.union1d imports it on its first call
import pytest

from moeblab import cli, cocycle, complexity, contfrac, dynamics, fixtures, harness, mrt
from moeblab import numtheory as nt
from moeblab.errors import SizingError, admit

SOURCES = sorted(Path(__file__).resolve().parents[1].joinpath("src", "moeblab").glob("*.py"))
MIB = 1 << 20


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of calling fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refused_peak(fn, match="over the cap") -> int:
    """The tracemalloc peak of fn(), which must raise SizingError."""
    return traced_peak(lambda: pytest.raises(SizingError, fn).match(match))


class _Stop(Exception):
    pass


@contextlib.contextmanager
def admissions(stop_at=None):
    """Every moeblab module's `admit` replaced by one spy, which records
    (call site, bytes, traced peak so far) and then admits; with `stop_at`,
    it raises _Stop once that many are recorded, so nothing past the
    admission is computed."""
    log = []

    def spy(nbytes, what):
        log.append((_site(), nbytes, tracemalloc.get_traced_memory()[1]))
        admit(nbytes, what)
        if len(log) == stop_at:
            raise _Stop

    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.startswith("moeblab.") and getattr(module, "admit", None) is admit:
                mp.setattr(module, "admit", spy)
        yield log


def _site() -> str:
    """module.function of the code that admits, past the admit wrappers."""
    frame = sys._getframe(2)
    while frame.f_code.co_name in ("admit", "_admit"):
        frame = frame.f_back
    return f"{frame.f_globals['__name__'].split('.')[-1]}.{frame.f_code.co_name}"


def _admitting_sites() -> set[str]:
    """module.function of each function in src/ that calls `admit` or a
    kind's `_admit`, found in the source."""
    return {f"{path.stem}.{fn.name}" for path in SOURCES
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef) and fn.name not in ("admit", "_admit")
            and any(isinstance(c, ast.Call) and getattr(
                c.func, "id", getattr(c.func, "attr", None)) in ("admit", "_admit")
                    for c in ast.walk(fn))}


class Row(NamedTuple):
    run: Callable
    past_cap: Callable
    site: str | None = None     # the call site a library row admits at
    slack: int = 128 << 10      # bytes beside the admissions, at every peak
    factor: float = 1.5         # the largest admission over the peak


def _experiment(name, params, past_cap, **row):
    """The experiment run into a bundle in a scratch directory."""
    def run(params):
        with tempfile.TemporaryDirectory() as out:
            harness.run_experiment({"experiment": name, "seed": 1, "params": params}, out)
    return Row(lambda: run(params), lambda: run(dict(params, **past_cap)), **row)


def _library(fn, args, past_cap, site=None):
    """fn(*args) read to its end; it admits at fn unless `site` says."""
    def run(args):
        out = fn(*args)
        deque(out if hasattr(out, "__next__") else (), 0)
    return Row(lambda: run(args), lambda: run(past_cap),
               site or f"{fn.__module__.split('.')[-1]}.{fn.__name__}")


def _dbar(site, desc):
    """A kind's balls of 600 sampled states; past the cap, 10^6 zero-copy ones."""
    system, ns_eps = dynamics.make_system(desc), ([1, 2, 8, 64], [0.1, 0.2, 0.3])
    states = system.sample(600, 1)
    many = np.broadcast_to(states[0], (10 ** 6,) + states.shape[1:])
    return _library(system.dbar_balls, (states, *ns_eps), (many, *ns_eps), site)


def _trace(n_total):
    harness.block_decomposition_trace(dynamics.make_system(ROTATION),
                                      [[1, 0.5, 0.0]], 0.1, ell=16, epsilon=0.3,
                                      n_total=n_total, cloud_size=256)


def _mobius(tgrid):
    args = cli._build_parser().parse_args(["mobius", "--limit", "1000",
                                           "--pretentious", "--tgrid", tgrid])
    with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
        args.func(args)


ROTATION = {"kind": "rotation", "alpha": "sqrt2-1"}
SKEW2 = {"kind": "skew2", "alpha": "sqrt2-1", "h": [[1, 0.0, -0.15]]}
GROUP = {"kind": "group_skew", "group": {"q": 12}, "a": 5, "h": [[1, 0.05, 0.0]]}
SHIFT = {"kind": "shift", "weights": [0.5, 0.5], "horizon": 64}
CF, RES, H = fixtures.resonant_fixture(depth=9, freq_bound=4096)
H1 = cocycle.split_cocycle(H, RES).h1
GOLDEN = contfrac.expand("golden", 40)
BLOCK, CHUNK = nt.SIEVE_BLOCK, mrt.BILINEAR_CHUNK

ROWS = {
    # -- the registered experiments
    "sieve-check": _experiment("sieve-check", {"limit": 4 * BLOCK}, {"limit": 2 ** 31}),
    "lemma54": _experiment("lemma54", {
        "alpha": "quotients:" + ",".join(map(str, fixtures.resonant_quotients(9))),
        "depth": 9, "freq_bound": 4096, "grid": 512, "tau": 1},
        {"freq_bound": 10 ** 7}),
    # the suspended dbar_balls generator keeps its band sums and balls
    # while greedy_cover holds its 8 p^2 cast: the two admissions together
    "covering-profile": _experiment("covering-profile", {
        "system": SKEW2, "samples": 800, "eps": [0.1, 0.2], "ns": [1, 2, 4, 8]},
        {"samples": 24000}),
    # an orbit chunk's coordinates and terms, 2^15 points, are not admitted
    "correlation": _experiment("correlation", {
        "system": ROTATION, "f": [[1, 1.0, 0.0]], "x0": 0.1,
        "checkpoints": [2 * BLOCK]}, {"checkpoints": [10, 2 ** 31]}, slack=2 * MIB),
    # past the cap, the Gram's figure refuses L = 30000 before the mask of
    # 10^7 entries is built
    "mrt-bilinear": _experiment("mrt-bilinear", {
        "p1": 11, "q1": 17, "n0": 10 ** 4, "bign": 10 ** 7, "ell": 1},
        {"bign": 10 ** 7, "ell": 30000}),
    # past the cap, the trace's 3.2 GB figure refuses N = 2 10^7 before mu
    # up to N + L is sieved
    "block-trace": _experiment("block-trace", {
        "system": ROTATION, "f": [[1, 0.5, 0.0]], "x0": 0.1, "L": 16,
        "epsilon": 0.3, "N": 10 ** 5, "cloud": 256}, {"N": 2 * 10 ** 7}),
    "pretentious": _experiment("pretentious", {"limit": 1000, "bigq": 20, "tgrid": 100},
                               {"tgrid": 10 ** 9}),
    # -- the admitting library calls
    "primes": _library(nt._simple_prime_sieve, (10 ** 6,), (2 ** 40,)),
    "mu-stream": _library(nt.mobius_segments, (4 * BLOCK,), (2 ** 31,)),
    "table": _library(nt.build_mobius_table, (4 * BLOCK,), (2 ** 31 - 2 ** 22,),
                      "numtheory.mobius_segments"),
    "t-grid": _library(nt.default_t_grid, (1000, 10 ** 5), (1000, 10 ** 9)),
    # 128 characters by 100 t values: rows, not prime values, dominate
    "scan-rows": _library(nt.pretentious_scan, (1000, 20, np.linspace(-1, 1, 100)),
                          (1000, 100, np.broadcast_to(0.0, (10 ** 6,)))),
    "scan-characters": _library(nt.pretentious_scan, (10 ** 5, 20, [0.0, 1.0]),
                                (10 ** 8, 100, [0.0])),
    "mask": _library(mrt.typical_set_mask,
                     (mrt.build_ladder(11, 17, 10 ** 4, 10 ** 6), 10 ** 6),
                     (mrt.build_ladder(11, 17, 2 ** 31, 2 ** 31), 2 ** 31)),
    "bilinear": _library(mrt.bilinear_mobius_average,
                         (None, CHUNK + CHUNK // 2, 300), (None, 100, 30000),
                         "mrt._admit_gram"),
    # the balls of both epsilons and greedy's cast, admitted before the
    # first n; past the cap, 16385 states, built outside the trace
    "profile": _library(complexity.complexity_profile,
                        (complexity.sample_cloud(dynamics.make_system(ROTATION), 600, 1),
                         [0.1, 0.2], [1, 2]),
                        (complexity.sample_cloud(dynamics.make_system(ROTATION), 16385, 1),
                         [0.1, 0.2], [1])),
    "greedy": _library(complexity.greedy_cover,
                       (np.broadcast_to(True, (1000, 1000)), np.full(1000, 1e-3), 0.1),
                       (np.broadcast_to(True, (16385, 16385)),
                        np.broadcast_to(1 / 16385, (16385,)), 0.1)),
    # what the envelope admits covers a split of it, as lemma54 runs them
    "envelope": Row(lambda: cocycle.split_cocycle(cocycle.envelope_cocycle(4096), RES),
                    lambda: cocycle.envelope_cocycle(10 ** 7),
                    site="cocycle.envelope_cocycle"),
    "grid-cover": _library(complexity.grid_cover_check, (CF, RES, H1, 0.2, 1.0, 6, 2000),
                           (CF, RES, H1, 0.2, 1.0, 6, 2 ** 40)),
    "resonance": _library(contfrac.resonance_sets, (GOLDEN, "1/20000"),
                          (GOLDEN, "1/1000000000")),
    "dbar-rotation": _dbar("dynamics.dbar_balls", ROTATION),
    "dbar-skew2": _dbar("dynamics._band_sums", SKEW2),
    "dbar-group-skew": _dbar("dynamics._band_sums", GROUP),
    "dbar-shift": _dbar("dynamics._dbar_means", SHIFT),
    "block-trace-call": Row(lambda: _trace(10 ** 5), lambda: _trace(10 ** 9),
                            site="harness.block_decomposition_trace"),
    # moeblab mobius --limit 1000 --pretentious --tgrid K
    "mobius-pretentious": Row(lambda: _mobius("200"), lambda: _mobius("1000000000")),
}


@pytest.mark.parametrize("name", ROWS)
def test_admissions_cover_the_peak(name):
    row = ROWS[name]
    with admissions() as log:
        last = traced_peak(row.run)
    assert log, "nothing was admitted"
    held, over = {}, [log[0][2]]       # the peak before any admission
    for (site, nbytes, _), (*_, peak) in zip(log, log[1:] + [(0, 0, last)]):
        held[site] = max(held.get(site, 0), nbytes)
        over.append(peak - sum(held.values()))
    assert max(over) <= row.slack, (over, log, last)
    assert max(nbytes for _, nbytes, _ in log) <= row.factor * last, (log, last)
    assert row.site is None or row.site in held, held


@pytest.mark.parametrize("name", ROWS)
def test_past_the_cap_refused_before_allocation(name):
    assert refused_peak(ROWS[name].past_cap, "over the cap|reaches 2") < MIB


def test_every_experiment_has_a_row():
    assert sorted(set(harness._EXPERIMENTS) - set(ROWS)) == []


def test_every_admitting_call_site_has_a_row():
    assert _admitting_sites() == {row.site for row in ROWS.values()} - {None}
