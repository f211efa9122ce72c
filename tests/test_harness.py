import json
import math
from pathlib import Path

import numpy as np
import pytest

from moeblab import dynamics as dy
from moeblab import harness as hx
from moeblab import numtheory as nt
from moeblab.errors import DomainError, ParameterError, SizingError

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

def test_constant_observable_reduces_to_mertens(table_100k):
    series = hx.correlation_sum(table_100k, ROT, [[0, 1.0, 0.0]], 0.1,
                                [10, 100, 10 ** 4])
    for n, v in zip(series.checkpoints, series.values):
        assert v == pytest.approx(nt.mertens(table_100k, n) / n, abs=1e-12)


def test_values_bounded_by_sup(table_100k):
    series = hx.correlation_sum(table_100k, ROT, [[1, 0.7, 0.2]], 0.3,
                                [500, 5000])
    for v in series.values:
        assert abs(v) <= series.sup_f + 1e-12


def test_checkpoint_beyond_sieve(table_100k):
    with pytest.raises(SizingError):
        hx.correlation_sum(table_100k, ROT, [[1, 1.0, 0.0]], 0.1,
                           [table_100k.limit + 1])


def test_prefix_consistency(table_100k):
    series = hx.correlation_sum(table_100k, ROT, [[1, 1.0, 0.0]], 0.1,
                                [1000, 2000])
    total_1000 = series.values[0] * 1000
    total_2000 = series.values[1] * 2000
    coords = hx._orbit_coords(ROT, 0.1, 1001, 2001, {})
    middle = complex(np.sum(table_100k.values[1001:2001]
                            * np.exp(2j * np.pi * coords[:, 0])))
    assert total_2000 == pytest.approx(total_1000 + middle, abs=1e-9)


def test_rotation_davenport_decay(table_1m):
    series = hx.correlation_sum(table_1m, ROT, [[1, 1.0, 0.0]], 0.1,
                                [10 ** 4, 10 ** 5, 10 ** 6])
    assert abs(series.values[-1]) < 0.02


def test_skew_decay_matches_frozen_oracle(table_1m):
    system = dy.make_system(FIXTURE["system"])
    series = hx.correlation_sum(table_1m, system, FIXTURE["f"],
                                np.asarray(FIXTURE["x0"]),
                                FIXTURE["checkpoints"])
    for value, observed in zip(series.values, FIXTURE["observed_abs"]):
        assert abs(value) == pytest.approx(observed, abs=2e-5)


def test_group_skew_correlation_runs(table_100k):
    gs = dy.make_system({"kind": "group_skew", "group": {"q": 12}, "a": 5,
                         "h": [[1, 0.05, 0.0]]})
    series = hx.correlation_sum(table_100k, gs, [[0, 1, 1.0, 0.0]], (0, 0.2),
                                [2000])
    assert abs(series.values[0]) <= 1.0


def test_shift_rejected_for_correlation(table_100k):
    shift = dy.make_system({"kind": "shift", "weights": [0.5, 0.5]})
    with pytest.raises(DomainError, match="trig"):
        hx.correlation_sum(table_100k, shift, [[1, 1.0, 0.0]], 0.0, [10])


def test_conjugated_system_rejected(table_100k):
    # under x -> 1 - x the rotation steps by -alpha; the closed-form orbit
    # x0 + n alpha would be the unconjugated one
    def reflect(states):
        return np.mod(1.0 - np.asarray(states), 1.0)

    conj = dy.conjugate_system(ROT, reflect, reflect)
    with pytest.raises(DomainError, match="conjugated"):
        hx.correlation_sum(table_100k, conj, [[1, 1.0, 0.0]], 0.1, [10])
    with pytest.raises(DomainError, match="conjugated"):
        hx.block_decomposition_trace(table_100k, conj, [[1, 1.0, 0.0]], 0.1,
                                     ell=16, delta=0.001, epsilon=0.3,
                                     n_total=1000, cloud_size=50)


# ---------------------------------------------------------------------------
# Block tracer
# ---------------------------------------------------------------------------

def test_block_trace_zero_observable(table_100k):
    tr = hx.block_decomposition_trace(table_100k, ROT, [[1, 0.0, 0.0]], 0.1,
                                      ell=16, delta=0.001, epsilon=0.3,
                                      n_total=5000, cloud_size=100, seed=1)
    assert tr.anchor_diff == 0.0 and tr.block_avg_magnitude == 0.0


def test_block_trace_rotation_fixture(table_1m):
    tr = hx.block_decomposition_trace(table_1m, ROT, [[1, 1.0, 0.0]], 0.1,
                                      ell=64, delta=0.001, epsilon=0.3,
                                      n_total=10 ** 5, cloud_size=2000, seed=7)
    assert tr.anchor_diff < tr.anchor_tolerance          # below 5 eps
    assert tr.block_avg_magnitude < tr.block_avg_tolerance         # below 3 eps
    assert tr.assignment_valid
    assert tr.assigned_fraction > 0.5
    assert set(tr.schedule) >= {"W >= 10", "W >= log^20(L)",
                                "W <= (log N)^(1/125)"}
    # the desk-scale regime cannot satisfy the W floor; must be reported
    assert tr.schedule["W >= 10"] is False


def test_block_trace_parameter_errors(table_100k):
    with pytest.raises(ParameterError, match="delta"):
        hx.block_decomposition_trace(table_100k, ROT, [[1, 1.0, 0.0]], 0.1,
                                     ell=16, delta=0.01, epsilon=0.3,
                                     n_total=1000)
    with pytest.raises(DomainError, match="bounded"):
        hx.block_decomposition_trace(table_100k, ROT, [[1, 2.0, 0.0]], 0.1,
                                     ell=16, delta=0.001, epsilon=0.3,
                                     n_total=1000)


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


def test_run_block_trace(tmp_path):
    config = {"experiment": "block-trace", "seed": 2,
              "params": {"system": {"kind": "rotation", "alpha": "sqrt2-1"},
                         "f": [[1, 1.0, 0.0]], "x0": 0.1, "L": 16,
                         "delta": 0.001, "epsilon": 0.3, "N": 4000,
                         "cloud": 100}}
    bundle = hx.run_experiment(config, out_root=tmp_path)
    summary = json.loads(bundle.summary_path.read_text())
    assert "schedule" in summary["summary"]
    assert "note" in summary["summary"]


def test_svg_writer(tmp_path):
    path = tmp_path / "x.svg"
    hx.write_line_svg(path, [("a", [(1, 1.0), (10, 0.1), (100, 0.01)])])
    text = path.read_text()
    assert text.startswith("<svg") and "polyline" in text
