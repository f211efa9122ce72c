"""Acceptance gate: one test per criterion, each printing a PASS or FAIL
line with its measured runtime against the stated budget.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from moeblab import cocycle as cc
from moeblab import complexity as cx
from moeblab import contfrac as cf
from moeblab import dynamics as dy
from moeblab import fixtures as fx
from moeblab import harness as hx
from moeblab import mrt
from moeblab import numtheory as nt

FIXTURE = json.loads((Path(__file__).parent / "fixtures"
                      / "correlation_decay.json").read_text())


class Budget:
    def __init__(self, index: int, seconds: float, label: str):
        self.index, self.seconds, self.label = index, seconds, label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        within = elapsed < self.seconds
        status = "PASS" if exc_type is None and within else "FAIL"
        print(f"\nACCEPTANCE {self.index}: {status} "
              f"({elapsed:.1f}s {'<' if within else '>='} {self.seconds:.0f}s) "
              f"{self.label}")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.index} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)")
        return False


def oracle_mu_array(limit: int) -> np.ndarray:
    """Independent mu computation: multiplicative marking, no segmentation."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p:: p] = False
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    for p in np.nonzero(is_p)[0]:
        p = int(p)
        mu[p:: p] *= -1
        mu[p * p:: p * p] = 0
    return mu


def test_criterion_1_sieve_correctness():
    with Budget(1, 10, "sieve vs trial division; Mertens vs independent oracle"):
        table = nt.build_mobius_table(10 ** 5)
        mismatches = sum(1 for n in range(1, 10 ** 5 + 1)
                         if int(table.values[n]) != nt.mu_by_factorization(n))
        assert mismatches == 0
        table_m = nt.build_mobius_table(10 ** 6)
        oracle = oracle_mu_array(10 ** 6)
        direct_sum = int(np.sum(oracle[1:]))
        assert nt.mertens_values([table_m.values[1:]], [10 ** 6]) == [direct_sum]


def test_criterion_2_continued_fractions():
    with Budget(2, 1, "CF invariants at depth <= 40; certified two-sided bounds"):
        for spec in ("sqrt2-1", "golden", "2/7"):
            c = cf.expand(spec, 40)
            assert c.ps[0] == 0 and c.qs[0] == 1
            assert c.ps[1] == 1 and c.qs[1] == c.quotients[0]
            for k in range(1, c.depth + 1):
                if k >= 2:
                    assert c.p(k + 1) == c.a(k) * c.p(k) + c.p(k - 1)
                    assert c.q(k + 1) == c.a(k) * c.q(k) + c.q(k - 1)
                assert math.gcd(c.p(k), c.q(k)) == 1
                assert abs(c.p(k + 1) * c.q(k) - c.p(k) * c.q(k + 1)) == 1
            rows = cf.best_approx_check(c)
            for row in rows:
                if row.k >= 2:
                    assert row.certified, (spec, row)


def test_criterion_3_coboundary_identity():
    with Budget(3, 5, "psi(x+a) - psi(x) = h - h1, residual < 1e-9, 3 fixtures"):
        rng = np.random.default_rng(101)
        xs = rng.random(1000)
        for name, (c, res, h) in {
            "M empty": fx.m_empty_fixture(),
            "M = {+-1}": fx.m_pm1_fixture(),
            "M infinite-flagged": fx.resonant_fixture(depth=9, freq_bound=4096)[:3],
        }.items():
            if name == "M infinite-flagged":
                assert not res.m_finite_within_depth
            else:
                assert res.m_finite_within_depth
            split = cc.split_cocycle(h, res)
            residual = cc.coboundary_residual(split, h, xs)
            assert residual < 1e-9, (name, residual)


@pytest.fixture(scope="module")
def resonant_block_rows(resonant):
    c, res, h, split = resonant
    return cc.block_estimate_check(split.h1, c, res, grid_size=512)


def test_criterion_4_block_estimate_witness(resonant):
    with Budget(4, 30, "H_{q_t} deviation ratios bounded over t in E (>= 3)"):
        c, res, h, split = resonant
        rows = cc.block_estimate_check(split.h1, c, res, grid_size=512)
        assert len(rows) >= 3
        constant = max(r.ratio for r in rows)
        assert all(r.ratio <= constant for r in rows)
        assert math.isfinite(constant)
        print(f"  [criterion 4] recorded constant = {constant:.6g} over "
              f"t in {[r.t for r in rows]}")


def test_criterion_5_rotation_complexity_bounded():
    with Budget(5, 60, "rotation S_n exactly constant over n = 1..4096"):
        system = dy.make_system({"kind": "rotation", "alpha": "sqrt2-1"})
        cloud = cx.sample_cloud(system, 2000, seed=42)
        n_list = [2 ** k for k in range(13)]
        profiles = cx.complexity_profile(cloud, [0.1, 0.2], n_list, tau=1.0)
        for prof in profiles:
            counts = [r.s_n for r in prof.rows]
            assert len(set(counts)) == 1, (prof.epsilon, counts)
            assert prof.classification.kind == "bounded"


def test_criterion_6_entropy_contrast():
    with Budget(6, 120, "Bernoulli(1/2,1/2) exponential rate in [0.5, 0.72]"):
        system = dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                                 "horizon": 64})
        cloud = cx.sample_cloud(system, 2000, seed=20260810)
        prof = cx.complexity_profile(cloud, [0.1], list(range(1, 15)),
                                     tau=1.0)[0]
        assert prof.classification.kind == "exponential"
        rate = prof.classification.entropy_rate
        assert 0.5 <= rate <= 0.72, rate
        print(f"  [criterion 6] fitted rate = {rate:.4f} (log 2 = 0.6931)")


def test_criterion_7_grid_cover(resonant, resonant_block_rows):
    with Budget(7, 60, "explicit grid covers the torus for two smallest t in E"):
        c, res, h, split = resonant
        c_cert = max(r.ratio for r in resonant_block_rows)
        for t in res.E[:2]:
            rep = cx.grid_cover_check(c, res, split.h1, epsilon=0.2,
                                      c_cert=c_cert, t=t, sample_points=200)
            assert rep.certificate_ok, rep
            assert rep.sampled_ok, rep
            k_tilde = math.floor(3 / 0.2) + 1
            assert rep.grid_count == rep.lipschitz_l ** 2 * rep.q_t * k_tilde
            print(f"  [criterion 7] t={t}: S_(n_t) <= {rep.grid_count} "
                  f"witnessed (certificate {rep.certificate_bound:.3f} < 0.2)")


def test_criterion_8_correlation_decay(table_1m):
    with Budget(8, 30, "skew correlation decay under frozen envelopes, < 0.05"):
        system = dy.make_system(FIXTURE["system"])
        series = hx.correlation_sum([table_1m.values[1:]], system,
                                    FIXTURE["f"], np.asarray(FIXTURE["x0"]),
                                    FIXTURE["checkpoints"])
        values = [abs(v) for v in series.values]
        thresholds = FIXTURE["thresholds"]
        assert thresholds == sorted(thresholds, reverse=True)
        for value, bound in zip(values, thresholds):
            assert value < bound, (value, bound)
        assert values[-1] < values[0]            # decade-scale decay
        assert values[-1] < FIXTURE["final_tolerance"]
        print(f"  [criterion 8] |corr| = {values} < {thresholds}")


def test_criterion_9_covering_oracle():
    with Budget(9, 20, "exact <= greedy <= 2 * exact on 100 seeded instances"):
        system = dy.make_system({"kind": "rotation", "alpha": "sqrt2-1"})
        for s in range(100):
            rng = np.random.default_rng(1000 + s)
            states = rng.random(12)
            w = rng.random(12)
            cloud = cx.OrbitCloud(system=system, states=states,
                                  weights=w / w.sum(), provenance="seeded")
            greedy = cx.covering_number(cloud, 4, 0.15, "greedy")
            exact = cx.covering_number(cloud, 4, 0.15, "exact")
            assert exact.count <= greedy.count <= 2 * exact.count, s


def test_criterion_10_mrt_oracles(table_1m):
    with Budget(10, 60, "MRT membership/complement/bilinear against oracles"):
        ladder = mrt.build_ladder(11, 17, 10 ** 4, 10 ** 4)
        level_primes = [tuple(int(p) for p in lvl)
                        for lvl in ladder.level_primes()]
        mask = mrt.typical_set_mask(ladder, 10 ** 4)
        for n in range(1, 10 ** 4 + 1):
            brute = all(any(n % p == 0 for p in lvl) for lvl in level_primes)
            assert bool(mask[n]) == brute, n
        stats = mrt.complement_density(ladder, mask)
        assert stats.complement_count == int(np.count_nonzero(~mask[1:]))

        avg_l1 = mrt.bilinear_mobius_average(mask, 10 ** 4, 1)
        sqfree = sum(1 for n in range(1, 10 ** 4 + 1)
                     if mask[n] and int(table_1m.values[n]) != 0)
        assert avg_l1 == sqfree / 10 ** 4

        mask_m = mrt.typical_set_mask(mrt.build_ladder(11, 17, 10 ** 6, 10 ** 6),
                                      10 ** 6)
        small = mrt.bilinear_mobius_average(mask, 10 ** 4, 20)
        large = mrt.bilinear_mobius_average(mask_m, 10 ** 6, 20)
        assert large < small, (large, small)
        print(f"  [criterion 10] bilinear avg: {small:.5f} (N=1e4) -> "
              f"{large:.5f} (N=1e6)")
