import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeblab import cocycle as cc
from moeblab import dynamics as dy
from moeblab import harness as hx
from moeblab import numtheory as nt
from moeblab.errors import (DEFAULT_MEMORY_CAP, DomainError, ParameterError,
                            SizingError)

ROT = dy.make_system({"kind": "rotation", "alpha": "sqrt2-1"})
FIXTURE = json.loads((Path(__file__).parent / "fixtures"
                      / "correlation_decay.json").read_text())


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def test_parse_observable_errors():
    with pytest.raises(DomainError):
        hx.parse_observable([[1, 2]])
    with pytest.raises(DomainError):
        hx.parse_observable([])
    with pytest.raises(DomainError):
        hx.parse_observable([[1, 1.0, 0.0], [1, 2, 1.0, 0.0]])


def test_observable_eval_and_bounds():
    f = hx.parse_observable([[1, 0.5, 0.0], [-1, 0.5, 0.0]])   # cos(2 pi x)
    assert f((0.0,)) == pytest.approx(1.0)
    assert f((0.5,)) == pytest.approx(-1.0)
    assert f.sup_bound() == pytest.approx(1.0)
    assert f.lipschitz_bound() == pytest.approx(2 * math.pi)


# ---------------------------------------------------------------------------
# Correlation sums
# ---------------------------------------------------------------------------

def _one_block(table):
    """A table's values as the one block of mu that correlation_sum reads."""
    return [table.values[1:]]


def test_constant_observable_reduces_to_mertens(table_100k):
    series = hx.correlation_sum(_one_block(table_100k), ROT, [[0, 1.0, 0.0]],
                                0.1, [10, 100, 10 ** 4])
    for n, v in zip(series.checkpoints, series.values):
        assert v == pytest.approx(nt.mertens(table_100k, n) / n, abs=1e-12)


def test_values_bounded_by_sup(table_100k):
    series = hx.correlation_sum(_one_block(table_100k), ROT, [[1, 0.7, 0.2]],
                                0.3, [500, 5000])
    for v in series.values:
        assert abs(v) <= series.sup_f + 1e-12


def test_checkpoint_beyond_sieve(table_100k):
    with pytest.raises(SizingError):
        hx.correlation_sum(_one_block(table_100k), ROT, [[1, 1.0, 0.0]], 0.1,
                           [table_100k.limit + 1])


def test_prefix_consistency(table_100k):
    series = hx.correlation_sum(_one_block(table_100k), ROT, [[1, 1.0, 0.0]],
                                0.1, [1000, 2000])
    total_1000 = series.values[0] * 1000
    total_2000 = series.values[1] * 2000
    _, coords = ROT.orbit_coords(0.1, 2000, 1000)
    middle = complex(np.sum(table_100k.values[1001:2001]
                            * np.exp(2j * np.pi * coords[:, 0])))
    assert total_2000 == pytest.approx(total_1000 + middle, abs=1e-9)


def test_rotation_davenport_decay(table_1m):
    series = hx.correlation_sum(_one_block(table_1m), ROT, [[1, 1.0, 0.0]],
                                0.1, [10 ** 4, 10 ** 5, 10 ** 6])
    assert abs(series.values[-1]) < 0.02


def test_skew_decay_matches_frozen_oracle(table_1m):
    system = dy.make_system(FIXTURE["system"])
    series = hx.correlation_sum(_one_block(table_1m), system, FIXTURE["f"],
                                np.asarray(FIXTURE["x0"]),
                                FIXTURE["checkpoints"])
    for value, observed in zip(series.values, FIXTURE["observed_abs"]):
        assert abs(value) == pytest.approx(observed, abs=2e-5)


SKEW2 = dy.make_system({"kind": "skew2", "alpha": "sqrt2-1",
                        "h": [[1, 0.0, -0.15]]})
Z12 = dy.make_system({"kind": "group_skew", "group": {"q": 12}, "a": 5,
                      "h": [[1, 0.05, 0.0]]})


def _ref_bulk(f, coords):
    """TrigObservable.bulk before the trig helper: a zero phase seed and
    one complex exponential per frequency."""
    out = np.zeros(coords.shape[0], dtype=np.complex128)
    for freqs, c in f.coefficients.items():
        phase = np.zeros(coords.shape[0])
        for axis, m in enumerate(freqs):
            if m:
                phase = phase + m * coords[:, axis]
        out += c * np.exp(2j * np.pi * phase)
    return out


def _ref_correlation_sum(table, system, f, x0, checkpoints):
    """The correlation_sum body before the mu = 0 skip: f at every n."""
    f = hx.parse_observable(f)
    cps = sorted(int(n) for n in checkpoints)
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    values = []
    next_cp = 0
    mu = table.values
    lo = 1
    for coords in system.orbit_coords(x0, cps[-1], hx.CHUNK):
        hi = lo + len(coords)
        terms = mu[lo:hi].astype(np.float64) * _ref_bulk(f, coords)
        while next_cp < len(cps) and cps[next_cp] < hi:
            cp = cps[next_cp]
            part = complex(np.sum(terms[: cp - lo + 1]))
            values.append((hx._kahan(total, comp, part)[0]) / cp)
            next_cp += 1
        total, comp = hx._kahan(total, comp, complex(np.sum(terms)))
        lo = hi
    return tuple(values)


def _old_arithmetic(mp):
    """Put back np.mod and the complex exponential in the orbit and in h."""
    mp.setattr(dy, "frac", lambda v: np.mod(v, 1.0))
    mp.setattr(cc, "twice_re",
               lambda c, m, x: 2.0 * (c * np.exp(2j * np.pi * m * x)).real)


STREAM_CHECKPOINTS = [1, 2, 7, 32767, 32768, 32769, 2 * 10 ** 5]


@pytest.mark.parametrize("desc,x0", [
    ({"kind": "skew2", "alpha": "sqrt2-1", "h": [[1, 0.0, -0.15]]}, (0.3, 0.7)),
    ({"kind": "skew2", "alpha": "golden", "h": [[1, 0.1, 0.05], [3, 0.0, 0.02]]},
     (0.61, 0.05)),
    ({"kind": "group_skew", "group": {"q": 12}, "a": 5, "h": [[1, 0.05, 0.0]]},
     (7, 0.4)),
    ({"kind": "rotation", "alpha": "sqrt2-1"}, 0.1),
])
@pytest.mark.parametrize("shape", ["complex", "cos", "constant", "imaginary",
                                   "general"])
def test_correlation_stream_equals_the_old_stream_bit_for_bit(table_1m, desc, x0,
                                                               shape):
    rows = {"complex": [[1, 0.5, 0.0], [2, 0.0, -0.3]],      # f complex-valued
            "cos": [[1, 0.5, 0.0], [-1, 0.5, 0.0]],
            "constant": [[0, 0.7, 0.0]],
            "imaginary": [[0, 0.0, -1.0]],
            "general": [[1, 0.5, 0.2], [2, -0.3, 0.1]]}[shape]
    if desc["kind"] != "rotation":
        # the first frequency on the base, the second on the fibre
        rows = [[m, 0, re, im] if k else [0, m, re, im]
                for k, (m, re, im) in enumerate(rows)]
    with pytest.MonkeyPatch.context() as mp:
        if shape == "general":
            # on a temporary of 2^14 complex values or more numpy runs the old
            # c * np.exp(...) as np.exp(...) * c, and the operand order sets
            # the last bit of the imaginary part; smaller chunks keep c first
            mp.setattr(hx, "CHUNK", 1 << 13)
        got = hx.correlation_sum(_one_block(table_1m), dy.make_system(desc),
                                 rows, x0, STREAM_CHECKPOINTS).values
        _old_arithmetic(mp)
        ref = _ref_correlation_sum(table_1m, dy.make_system(desc), rows, x0,
                                   STREAM_CHECKPOINTS)
    assert repr(got) == repr(ref)


@pytest.mark.parametrize("system,rows", [
    (ROT, [[1, 0.5, 0.2], [2, -0.3, 0.1]]),
    (SKEW2, [[1, 1, 0.5, 0.2], [0, 1, -0.3, 0.1]]),
])
def test_observable_values_do_not_depend_on_the_batch(system, rows):
    # one point gets the same bits alone, in a small batch and in a large one
    f = hx.parse_observable(rows)
    coords = next(system.orbit_coords((0.3, 0.7) if system is SKEW2 else 0.3,
                                      40000, 40000))
    full = f.bulk(coords)
    for idx in (np.arange(0, 40000, 3), np.arange(7), np.array([12345])):
        assert f.bulk(coords.take(idx, axis=0)).tobytes() == full[idx].tobytes()


def test_observable_evaluated_only_where_mu_is_nonzero(table_100k, monkeypatch):
    seen = []
    bulk = hx.TrigObservable.bulk
    monkeypatch.setattr(hx.TrigObservable, "bulk",
                        lambda self, coords: seen.append(len(coords))
                        or bulk(self, coords))
    n = 70000       # three chunks, the last one partial
    hx.correlation_sum(_one_block(table_100k), SKEW2, [[0, 1, 1.0, 0.0]],
                       (0.3, 0.7), [n])
    assert sum(seen) == np.count_nonzero(table_100k.values[1:n + 1])
    assert len(seen) == -(-n // hx.CHUNK)


def _correlation_at(chunk, table, system, f, x0, cps):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hx, "CHUNK", chunk)
        return hx.correlation_sum(_one_block(table), system, f, x0, cps).values


@settings(max_examples=60, deadline=None)
@given(chunk=st.integers(1, 500), on_group=st.booleans(),
       y0=st.floats(0, 1, exclude_max=True),
       cps=st.lists(st.integers(1, 3000), min_size=1, max_size=6))
def test_correlation_independent_of_chunk(table_100k, chunk, on_group, y0, cps):
    # where the orbit is cut into chunks must not change the values
    system, x0 = (Z12, (7, y0)) if on_group else (SKEW2, (0.3, y0))
    f = [[1, 1, 0.5, 0.2], [0, 1, 0.3, 0.0]]
    got = _correlation_at(chunk, table_100k, system, f, x0, cps)
    ref = _correlation_at(hx.CHUNK, table_100k, system, f, x0, cps)
    for a, b in zip(got, ref):
        assert abs(a - b) <= 1e-12 * abs(b), (a, b)


@settings(max_examples=40, deadline=None)
@given(block=st.integers(1, 5000), chunk=st.integers(1, 5000),
       n_max=st.integers(1, 2 * 10 ** 4), data=st.data())
def test_streamed_mu_equals_the_one_block_table(table_100k, block, chunk,
                                                n_max, data):
    # the sieve's segments re-cut to the orbit chunks wherever either
    # boundary falls: the same floats as the table's values as one block,
    # and the same Mertens values as the table's sums
    cps = data.draw(st.lists(st.integers(1, n_max), min_size=1, max_size=6))
    f = [[1, 1, 0.5, 0.2], [0, 1, 0.3, 0.0]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nt, "SIEVE_BLOCK", block)
        mp.setattr(hx, "CHUNK", chunk)
        got = hx.correlation_sum(nt.mobius_segments(n_max), SKEW2, f,
                                 (0.3, 0.6), cps).values
        ref = hx.correlation_sum(_one_block(table_100k), SKEW2, f,
                                 (0.3, 0.6), cps).values
        rows, _, _ = hx.experiment_rows("sieve-check", {"limit": n_max})
        streamed = nt.mertens_values(nt.mobius_segments(n_max), sorted(cps))
    hexes = [(v.real.hex(), v.imag.hex()) for v in got]
    assert hexes == [(v.real.hex(), v.imag.hex()) for v in ref]
    sums = np.cumsum(table_100k.values[1:n_max + 1], dtype=np.int64)
    assert [r["mertens"] for r in rows] == [int(sums[r["n"] - 1]) for r in rows]
    assert streamed == [int(sums[n - 1]) for n in sorted(cps)]


def _correlation_peak(n_max):
    """The tracemalloc peak of the correlation experiment up to n_max."""
    params = {"system": {"kind": "rotation", "alpha": "sqrt2-1"},
              "f": [[1, 1.0, 0.0]], "x0": 0.1, "checkpoints": [n_max]}
    tracemalloc.start()
    try:
        hx.experiment_rows("correlation", params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_correlation_holds_one_sieve_segment():
    # no table of mu up to N: four times the orbit, the same peak
    short = _correlation_peak(2 * nt.SIEVE_BLOCK)
    long = _correlation_peak(8 * nt.SIEVE_BLOCK)
    assert abs(long - short) < 1 << 20, (short, long)


@pytest.mark.parametrize("name, params", [
    ("sieve-check", {"limit": 2 ** 31}),
    ("correlation", {"system": {"kind": "rotation", "alpha": "sqrt2-1"},
                     "f": [[1, 1.0, 0.0]], "x0": 0.1,
                     "checkpoints": [10, 2 ** 31]})],
    ids=["sieve-check", "correlation"])
def test_stream_past_int32_refused_before_allocation(name, params):
    tracemalloc.start()
    try:
        with pytest.raises(SizingError, match="reaches 2"):
            hx.experiment_rows(name, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@settings(max_examples=15, deadline=None)
@given(chunk=st.integers(1, 500))
def test_block_trace_assignment_independent_of_chunk(table_100k, chunk):
    seen = []

    def trace(chunk_size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hx, "CHUNK", chunk_size)
            assign = hx._assign_to_centers
            mp.setattr(hx, "_assign_to_centers",
                       lambda *a: seen.append(assign(*a)) or seen[-1])
            hx.block_decomposition_trace(
                table_100k, SKEW2, [[1, 1, 0.5, 0.0]], (0.3, 0.6), ell=4,
                epsilon=0.4, n_total=1500, cloud_size=64, seed=2)

    trace(chunk)
    trace(hx.CHUNK)
    (j_got, d_got), (j_ref, d_ref) = seen
    # the fibre's carry enters the first sum of each chunk, so the orbit
    # and the distances are the same floats wherever the chunks are cut
    assert np.array_equal(j_got, j_ref)
    assert np.array_equal(d_got, d_ref)


def test_group_skew_correlation_runs(table_100k):
    gs = dy.make_system({"kind": "group_skew", "group": {"q": 12}, "a": 5,
                         "h": [[1, 0.05, 0.0]]})
    series = hx.correlation_sum(_one_block(table_100k), gs, [[0, 1, 1.0, 0.0]],
                                (0, 0.2), [2000])
    assert abs(series.values[0]) <= 1.0


def test_shift_rejected_for_correlation(table_100k):
    shift = dy.make_system({"kind": "shift", "weights": [0.5, 0.5]})
    with pytest.raises(DomainError, match="trig"):
        hx.correlation_sum(_one_block(table_100k), shift, [[1, 1.0, 0.0]],
                           0.0, [10])


# ---------------------------------------------------------------------------
# Block tracer
# ---------------------------------------------------------------------------

def test_block_trace_zero_observable(table_100k):
    tr = hx.block_decomposition_trace(table_100k, ROT, [[1, 0.0, 0.0]], 0.1,
                                      ell=16, epsilon=0.3,
                                      n_total=5000, cloud_size=100, seed=1)
    assert tr.anchor_diff == 0.0 and tr.block_avg_magnitude == 0.0


def test_block_trace_rotation_fixture(table_1m):
    tr = hx.block_decomposition_trace(table_1m, ROT, [[1, 1.0, 0.0]], 0.1,
                                      ell=64, epsilon=0.3,
                                      n_total=10 ** 5, cloud_size=2000, seed=7)
    assert tr.anchor_diff < 1.5                  # below 5 eps
    assert tr.block_avg_magnitude < 0.9          # below 3 eps
    assert tr.assignment_valid
    assert tr.assigned_fraction > 0.5


def test_block_trace_group_skew_centers_on_the_group(table_100k, monkeypatch):
    # the center orbits are compared with the orbit in the sup metric of
    # the states: g by the exact min(k, q - k)/q, k = g - g' mod q
    q, a, ell, n_total, p = 12, 5, 8, 3000, 200
    gs = dy.make_system({"kind": "group_skew", "group": {"q": q}, "a": a,
                         "h": [[1, 0.05, 0.0]]})
    seen = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]
        monkeypatch.setattr(hx, name, wrapped)

    spy("greedy_cover", hx.greedy_cover)
    spy("_assign_to_centers", hx._assign_to_centers)
    x0 = (3, 0.2)
    tr = hx.block_decomposition_trace(table_100k, gs, [[1, 1, 0.05, 0.0]], x0,
                                      ell=ell, epsilon=0.4,
                                      n_total=n_total, cloud_size=p, seed=0)
    j_all, dmin = seen["_assign_to_centers"]

    def orbit(state, steps):
        out = [state]
        for _ in range(steps - 1):
            out.append(gs.step(out[-1]))
        return np.array(out)

    cloud = gs.states_list(gs.sample(p, 0))
    ctraj = np.array([orbit(cloud[c], ell) for c in seen["greedy_cover"].centers])
    path = orbit(x0, n_total + ell + 1)[1:]          # T^1 x0, T^2 x0, ...
    dsum = np.zeros((len(ctraj), n_total))
    for l_off in range(ell):
        seg = path[l_off: l_off + n_total]
        k = (seg[None, :, 0] - ctraj[:, l_off, 0][:, None]) % q
        dg = np.minimum(k, q - k) / q
        dy_ = dy.circle_dist(seg[None, :, 1], ctraj[:, l_off, 1][:, None])
        dsum += np.maximum(dg, dy_)
    dbar = dsum / ell
    ref = np.sort(dbar, axis=0)
    assert np.max(np.abs(dmin - ref[0])) <= 1e-9
    clear = ref[1] - ref[0] > 1e-9
    assert np.array_equal(j_all[clear], np.argmin(dbar, axis=0)[clear])
    assert tr.assigned_fraction == np.mean(dmin < tr.epsilon1) > 0.5


def test_block_trace_parameter_errors(table_100k):
    with pytest.raises(ParameterError, match="N must be >= 1, got 0"):
        hx.block_decomposition_trace(table_100k, ROT, [[1, 1.0, 0.0]], 0.1,
                                     ell=16, epsilon=0.3, n_total=0)
    with pytest.raises(DomainError, match="bounded"):
        hx.block_decomposition_trace(table_100k, ROT, [[1, 2.0, 0.0]], 0.1,
                                     ell=16, epsilon=0.3,
                                     n_total=1000)


def _broadcast_table(limit):
    """A zero-copy MobiusTable up to `limit`, mu = 1 throughout."""
    return nt.MobiusTable(limit=limit,
                          values=np.broadcast_to(np.int8(1), (limit + 1,)))


@pytest.mark.parametrize("system, f, x0", [
    (ROT, [[1, 0.5, 0.0]], 0.1),
    (SKEW2, [[1, 1, 0.5, 0.0]], (0.3, 0.6)),
], ids=["rotation", "skew2"])
def test_block_trace_refused_from_the_estimate_alone(system, f, x0,
                                                     monkeypatch):
    # 10^9 orbit points over a zero-copy table: refused before the
    # correlation sum (here stopped, were it reached) or any orbit row
    def reached(*args):
        raise AssertionError("the correlation sum was reached")

    monkeypatch.setattr(hx, "correlation_sum", reached)
    n_total, ell = 10 ** 9, 16
    table = _broadcast_table(n_total + ell)
    tracemalloc.start()
    try:
        with pytest.raises(SizingError, match="over the cap"):
            hx.block_decomposition_trace(table, system, f, x0, ell=ell,
                                         epsilon=0.3,
                                         n_total=n_total, cloud_size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


class _Reached(Exception):
    pass


@pytest.mark.parametrize("system, f, x0, admitted", [
    (ROT, [[1, 0.5, 0.0]], 0.1, True),
    (SKEW2, [[1, 1, 0.5, 0.0]], (0.3, 0.6), False),
], ids=["rotation", "skew2"])
def test_block_trace_counts_the_generic_search_sums(system, f, x0, admitted,
                                                    monkeypatch):
    # at N = 1.15 10^7 the orbit rows and the per-point scratch fit the cap
    # for either kind (1.84 and 2.02 GB); the skew product's generic
    # nearest-center search adds three (m, chunk) sums of 2^23 floats
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(hx, "correlation_sum", reached)
    n_total, ell = 115 * 10 ** 5, 16
    assert 176 * (n_total + ell) + 32 * 64 * ell < DEFAULT_MEMORY_CAP
    with pytest.raises(_Reached if admitted else SizingError):
        hx.block_decomposition_trace(_broadcast_table(n_total + ell), system,
                                     f, x0, ell=ell, epsilon=0.3,
                                     n_total=n_total, cloud_size=64)


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

def test_unknown_experiment(tmp_path):
    with pytest.raises(ParameterError, match="unknown experiment"):
        hx.run_experiment({"experiment": "frobnicate"}, out_root=tmp_path)


def test_missing_param_named(tmp_path):
    # schema violations must name the missing field
    with pytest.raises(DomainError, match="'alpha'"):
        hx.run_experiment({"experiment": "correlation",
                           "params": {"system": {"kind": "skew2"},
                                      "f": [[0, 1, 1.0, 0.0]], "x0": [0, 0],
                                      "checkpoints": [10]}},
                          out_root=tmp_path)
    with pytest.raises(ParameterError, match="'checkpoints'"):
        hx.run_experiment({"experiment": "correlation",
                           "params": {"system": {"kind": "rotation",
                                                 "alpha": "golden"},
                                      "f": [[1, 1.0, 0.0]], "x0": 0.1}},
                          out_root=tmp_path)


def test_run_correlation_bundle(tmp_path):
    config = {"experiment": "correlation", "seed": 3,
              "params": {"system": {"kind": "rotation", "alpha": "sqrt2-1"},
                         "f": [[1, 1.0, 0.0]], "x0": 0.1,
                         "checkpoints": [100, 1000]}}
    bundle = hx.run_experiment(config, out_root=tmp_path)
    assert bundle.csv_path.exists() and bundle.summary_path.exists()
    assert bundle.svg_path is not None and bundle.svg_path.exists()
    lines = bundle.csv_path.read_text().splitlines()
    assert lines[0] == "N,re,im,abs"
    assert len(lines) == 3
    summary = json.loads(bundle.summary_path.read_text())
    assert summary["version"] and summary["seed"] == 3
    assert "polyline" in bundle.svg_path.read_text()


def test_run_determinism(tmp_path):
    config = {"experiment": "covering-profile", "seed": 5,
              "params": {"system": {"kind": "rotation", "alpha": "golden"},
                         "samples": 120, "eps": [0.2], "ns": [1, 2, 4]}}
    b1 = hx.run_experiment(config, out_root=tmp_path / "a")
    b2 = hx.run_experiment(config, out_root=tmp_path / "b")
    assert b1.csv_path.read_bytes() == b2.csv_path.read_bytes()
    assert b1.summary_path.read_bytes() == b2.summary_path.read_bytes()


def test_same_second_runs_get_their_own_bundles(tmp_path, monkeypatch):
    monkeypatch.setattr(hx.time, "strftime", lambda fmt: "20260101T000000")
    bundles = [hx.run_experiment({"experiment": "sieve-check",
                                  "params": {"limit": limit}},
                                 out_root=tmp_path)
               for limit in (100, 1000, 10)]
    assert [b.out_dir.name for b in bundles] == [
        "sieve-check-20260101T000000", "sieve-check-20260101T000000-1",
        "sieve-check-20260101T000000-2"]
    for bundle, limit in zip(bundles, (100, 1000, 10)):
        summary = json.loads(bundle.summary_path.read_text())
        assert summary["params"]["limit"] == limit
        assert summary == bundle.summary
        assert bundle.csv_path.parent == bundle.out_dir
        rows = bundle.csv_path.read_text().splitlines()[1:]
        assert max(int(r.split(",")[0]) for r in rows) <= limit


def test_run_sieve_check(tmp_path):
    bundle = hx.run_experiment({"experiment": "sieve-check",
                                "params": {"limit": 1000}}, out_root=tmp_path)
    summary = json.loads(bundle.summary_path.read_text())
    assert summary["summary"]["mertens"]["10"] == -1
    assert summary["summary"]["mertens"]["1000"] == 2


def test_run_pretentious_sieves_no_mobius_table(tmp_path, monkeypatch):
    def sieve(*args):
        raise AssertionError("the pretentious scan reads only primes")
    monkeypatch.setattr(hx, "build_mobius_table", sieve)
    bundle = hx.run_experiment({"experiment": "pretentious", "params": {
        "limit": 1000, "bigq": 2, "tgrid": 5}}, out_root=tmp_path)
    assert bundle.summary["summary"]["min_distance_sq"] > 0


def test_run_lemma54(tmp_path):
    config = {"experiment": "lemma54",
              "params": {"alpha": "quotients:" + ",".join(
                  str(q) for q in __import__("moeblab.fixtures", fromlist=["x"]).resonant_quotients(9)),
                         "depth": 9, "freq_bound": 512, "tau": 1}}
    bundle = hx.run_experiment(config, out_root=tmp_path)
    summary = json.loads(bundle.summary_path.read_text())
    assert summary["summary"]["E"] == [2, 6, 8]
    assert summary["summary"]["constant"] < 1.0


def test_run_mrt_bilinear(tmp_path):
    config = {"experiment": "mrt-bilinear",
              "params": {"p1": 11, "q1": 17, "n0": 10 ** 4, "bign": 10 ** 4,
                         "ell": 2, "csv_rows": 50}}
    bundle = hx.run_experiment(config, out_root=tmp_path)
    summary = json.loads(bundle.summary_path.read_text())
    assert 0 < summary["summary"]["bilinear_avg"] < 1
    lines = bundle.csv_path.read_text().splitlines()
    assert lines[0] == "n,in_set" and len(lines) == 51


BLOCK_TRACE = {"experiment": "block-trace", "seed": 2,
               "params": {"system": {"kind": "rotation", "alpha": "sqrt2-1"},
                          "f": [[1, 1.0, 0.0]], "x0": 0.1, "L": 16,
                          "epsilon": 0.3, "N": 4000, "cloud": 100}}


def test_run_block_trace(tmp_path):
    bundle = hx.run_experiment(BLOCK_TRACE, out_root=tmp_path)
    summary = json.loads(bundle.summary_path.read_text())["summary"]
    assert set(summary) == {"L", "epsilon", "epsilon1", "cover_count",
                            "assigned_fraction", "assignment_valid",
                            "anchor_diff", "block_avg"}
    assert set(summary["anchor_diff"]) == set(summary["block_avg"]) == {"observed"}
    lines = bundle.csv_path.read_text().splitlines()
    assert lines[0] == "quantity,observed"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "anchor_diff", "block_avg_magnitude"]


def test_block_trace_ignores_a_delta_key(tmp_path):
    # a config shaped like the benchmark's still carries the retired "delta"
    with_delta = dict(BLOCK_TRACE, params=dict(BLOCK_TRACE["params"],
                                               delta=0.001))
    got = hx.run_experiment(with_delta, out_root=tmp_path / "a").summary
    want = hx.run_experiment(BLOCK_TRACE, out_root=tmp_path / "b").summary
    assert got.pop("params") == dict(want.pop("params"), delta=0.001)
    assert got == want


def test_svg_writer(tmp_path):
    path = tmp_path / "x.svg"
    hx.write_line_svg(path, [("a", [(1, 1.0), (10, 0.1), (100, 0.01)])])
    text = path.read_text()
    assert text.startswith("<svg") and "polyline" in text
