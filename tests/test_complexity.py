import dataclasses
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeblab import cocycle as cc
from moeblab import complexity as cx
from moeblab import contfrac as cf
from moeblab import dynamics as dy
from moeblab import _kernels as kn
from moeblab import fixtures as fx
from moeblab.errors import DomainError, SizingError

from band_reference import band_dbar

ROT = dy.make_system({"kind": "rotation", "alpha": "sqrt2-1"})
SKEW = dy.make_system({"kind": "skew2", "alpha": "sqrt2-1", "h": [[1, 0.15, 0.0]]})  # 0.3 cos(2 pi x)


def manual_cloud(states, weights=None):
    states = np.asarray(states, dtype=np.float64)
    n = states.shape[0]
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights)
    return cx.OrbitCloud(system=ROT, states=states, weights=w, provenance="manual")


# ---------------------------------------------------------------------------
# dbar
# ---------------------------------------------------------------------------

def test_dbar_n1_is_metric():
    assert cx.dbar_distance(ROT, 0.1, 0.4, 1) == pytest.approx(0.3)


def test_dbar_rotation_constant_in_n():
    d1 = cx.dbar_distance(ROT, 0.15, 0.55, 1)
    for n in (2, 5, 17):
        assert cx.dbar_distance(ROT, 0.15, 0.55, n) == pytest.approx(d1, abs=1e-12)


def test_dbar_skew_matches_hand_computation():
    x, y = np.array([0.1, 0.2]), np.array([0.6, 0.9])
    total = 0.0
    u, v = x.copy(), y.copy()
    for _ in range(8):
        total += max(float(dy.circle_dist(u[0], v[0])),
                     float(dy.circle_dist(u[1], v[1])))
        u, v = SKEW.step(u), SKEW.step(v)
    assert cx.dbar_distance(SKEW, x, y, 8) == pytest.approx(total / 8, abs=1e-12)


def _dbar_matrices(system, states, ns):
    """(n, dbar_n) in cloud order from what each kind's balls read: the
    rotation's pairwise distance, a skew product's band sums at reach 1/2
    (every pair), and the shift's dense means."""
    if isinstance(system, dy.Rotation):
        yield from ((n, system.pairwise_distance(states)) for n in ns)
    elif isinstance(system, dy.TorusSkew):
        yield from band_dbar(system, states, ns)
    else:
        # the shift's float32 mean is one reused matrix: copied, widened
        yield from ((n, mean.astype(np.float64))
                    for n, mean in system._dbar_means(states, ns, 0))


def _thresholds(mat, eps):
    """The balls of a dbar_n matrix: mat < eps, True on the diagonal."""
    balls = np.stack([mat < e for e in eps])
    balls[:, np.arange(len(mat)), np.arange(len(mat))] = True
    return balls


def test_dbar_snapshot_matrix_matches_scalar():
    cloud = cx.sample_cloud(SKEW, 10, seed=2)
    lst = SKEW.states_list(cloud.states)
    for n, mat in _dbar_matrices(SKEW, cloud.states, [1, 3, 7]):
        for i in range(10):
            for j in range(10):
                expect = cx.dbar_distance(SKEW, lst[i], lst[j], n) if i != j else 0.0
                assert mat[i, j] == pytest.approx(expect, abs=1e-10), (n, i, j)


def test_dbar_shift_profile_matches_scalar():
    shift = dy.make_system({"kind": "shift", "weights": [0.5, 0.5], "horizon": 40})
    cloud = cx.sample_cloud(shift, 8, seed=5)
    mat0 = cloud.states
    for n, mat in _dbar_matrices(shift, cloud.states, [1, 2, 6]):
        for i in range(8):
            for j in range(8):
                if i == j:
                    continue
                total = 0.0
                si, sj = mat0[i], mat0[j]
                for _ in range(n):
                    total += shift.metric(si, sj)
                    si, sj = shift.step(si), shift.step(sj)
                assert mat[i, j] == pytest.approx(total / n, rel=1e-6), (n, i, j)


EVERY_KIND = {
    "rotation": ROT,
    "skew2": SKEW,
    "group_skew": dy.make_system({"kind": "group_skew", "group": {"q": 12},
                                  "a": 5, "h": [[1, 0.05, 0.0]]}),
    "shift": dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                             "horizon": 24}),
}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(EVERY_KIND)), p=st.integers(2, 30),
       seed=st.integers(0, 2 ** 16),
       ns=st.sets(st.integers(1, 20), min_size=1, max_size=5))
def test_dbar_snapshots_of_every_kind(name, p, seed, ns):
    # what each kind's balls read is exactly symmetric, holds the scalar
    # dbar_n on sampled pairs and on the diagonal (0, but for the shift's
    # window end; the shift path sums in float32), and its threshold is
    # the balls, True on the diagonal
    system = EVERY_KIND[name]
    states = system.sample(p, seed)
    lst = system.states_list(states)
    pairs = np.random.default_rng(seed).integers(0, p, (4, 2))
    pairs = np.concatenate([pairs, pairs[:, :1].repeat(2, axis=1)])
    tol = {"rel": 1e-6} if name == "shift" else {"abs": 1e-10}
    eps = [0.1, 0.3]
    ns = sorted(ns)
    for (n, mat), (_, balls) in zip(_dbar_matrices(system, states, ns),
                                    system.dbar_balls(states, ns, eps)):
        assert np.array_equal(mat, mat.T), n
        if name != "shift":
            assert np.all(np.diag(mat) == 0.0), n
        assert np.array_equal(balls, _thresholds(mat, eps)), n
        for i, j in pairs:
            expect = cx.dbar_distance(system, lst[i], lst[j], n)
            assert mat[i, j] == pytest.approx(expect, **tol), (n, i, j)


@pytest.mark.parametrize("name", sorted(EVERY_KIND))
def test_scalar_oracle_and_balls_read_one_metric(name):
    # dbar_1 of the scalar oracle is the pairwise distance, bit for bit,
    # and a skew product's band at n = 1 is that matrix too: over Z/q both
    # read the exact base distance min(k, q - k)/q
    system = EVERY_KIND[name]
    states = system.sample(40, 6)
    mat = system.pairwise_distance(states)
    lst = system.states_list(states)
    scalar = np.array([[cx.dbar_distance(system, x, y, 1) for y in lst]
                       for x in lst])
    assert scalar.tobytes() == mat.tobytes()
    if isinstance(system, dy.TorusSkew):
        (_, band), = band_dbar(system, states, [1])
        assert band.tobytes() == mat.tobytes()


@pytest.mark.parametrize("chunk", [1, 3, 100])
@pytest.mark.parametrize("name", ["skew2", "group_skew"])
def test_skew_snapshots_independent_of_step_chunk(name, chunk, monkeypatch):
    # the fibre steps are accumulated one by one, so where STEP_CHUNK cuts
    # them (here on both sides of the default 256) changes no bit
    system = EVERY_KIND[name]
    states = system.sample(70, 7)
    ns = [1, 255, 256, 257, 300, 513]

    def run():
        sums = [mat.tobytes() for _, mat in _dbar_matrices(system, states, ns)]
        balls = [b.tobytes() for _, b in system.dbar_balls(states, ns, [0.1, 0.2])]
        return sums, balls

    expect = run()
    monkeypatch.setattr(dy, "STEP_CHUNK", chunk)
    assert run() == expect


# ---------------------------------------------------------------------------
# Covering numbers
# ---------------------------------------------------------------------------

def test_two_atoms_need_two_balls():
    cloud = manual_cloud([0.0, 0.5])
    for n in (1, 2, 8):
        assert cx.covering_number(cloud, n, 0.25).count == 2


def test_single_atom_one_ball():
    cloud = manual_cloud([0.3])
    assert cx.covering_number(cloud, 5, 0.1).count == 1


def test_greedy_vs_exact_on_seeded_instances():
    for s in range(30):
        rng = np.random.default_rng(1000 + s)
        w = rng.random(12)
        cloud = manual_cloud(rng.random(12), w / w.sum())
        g = cx.covering_number(cloud, 4, 0.15, "greedy")
        e = cx.covering_number(cloud, 4, 0.15, "exact")
        assert e.count <= g.count <= 2 * e.count


@st.composite
def _uniform_cover_instances(draw):
    """A random symmetric reflexive ball matrix on p <= 20 atoms of weight
    1/p, and a radius-independent epsilon in (0, 1)."""
    p = draw(st.integers(1, cx.EXACT_COVER_MAX_POINTS))
    density = draw(st.floats(0.15, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.random((p, p)) < density, 1)
    ball = upper | upper.T | np.eye(p, dtype=bool)
    eps = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return ball, np.full(p, 1.0 / p), eps


@settings(max_examples=150, deadline=None)
@given(instance=_uniform_cover_instances())
def test_greedy_within_log_factor_of_exact(instance):
    # greedy partial set cover needing k = min(p, floor((1-eps)p) + 1)
    # atoms is within H(k) <= 1 + ln p of the optimum
    ball, weights, eps = instance
    p = len(weights)
    greedy = cx.greedy_cover(ball, weights, eps)
    exact = cx.exact_cover(ball, weights, eps)
    k = min(p, math.floor((1 - eps) * p) + 1)
    harmonic = sum(1 / j for j in range(1, k + 1))
    assert harmonic <= 1 + math.log(p) + 1e-12
    assert exact.count <= greedy.count <= harmonic * exact.count


@pytest.mark.parametrize("uniform", [True, False])
def test_cover_when_one_minus_eps_rounds_to_one(uniform):
    # mass > 1 - eps needs every atom; greedy used to stall and exact to
    # find no cover, because 1 - 1e-17 == 1.0 in floats
    ball = np.eye(3, dtype=bool)
    weights = np.full(3, 1 / 3) if uniform else np.array([0.5, 0.25, 0.25])
    assert cx.greedy_cover(ball, weights, 1e-17).count == 3
    assert cx.exact_cover(ball, weights, 1e-17).count == 3


# the greedy body before the one-time float64 cast, kept as the reference
def _ref_greedy_cover(ball, weights, epsilon, uniform=False):
    p = len(weights)
    uncovered = weights.astype(np.float64).copy()
    gains = ball @ uncovered
    chosen = []
    covered_count = 0
    covered_mass = 0.0
    target = 1.0 - epsilon
    needed = cx._mass_target_count(p, epsilon) if uniform else None
    while True:
        if uniform:
            if covered_count >= needed:
                break
        elif covered_mass > target or not uncovered.any():
            break
        i = int(np.argmax(gains))
        exact = float(ball[i] @ uncovered)
        while True:
            gains[i] = exact
            i2 = int(np.argmax(gains))
            if i2 == i:
                break
            i = i2
            exact = float(ball[i] @ uncovered)
        if exact <= 0.0:
            raise AssertionError("greedy stalled before reaching target mass")
        newly = ball[i] & (uncovered > 0)
        covered_count += int(np.count_nonzero(newly))
        covered_mass += float(uncovered[newly].sum())
        uncovered[newly] = 0.0
        chosen.append(i)
    return cx.CoverResult(count=len(chosen), centers=tuple(chosen),
                          covered_mass=covered_mass, method="greedy")


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("uniform", [True, False])
def test_greedy_equals_bool_row_greedy(symmetric, uniform):
    rng = np.random.default_rng(31 + 2 * symmetric + uniform)
    for p in [1, 2, 3, 7, 20, 64, 150, 400] * 3:
        raw = rng.random((p, p)) < rng.uniform(0.02, 0.6)
        ball = (np.triu(raw) | np.triu(raw).T) if symmetric else raw
        ball |= np.eye(p, dtype=bool)
        w = np.full(p, 1.0 / p) if uniform else rng.random(p) ** 3
        w = w / w.sum()
        for eps in (0.05, 0.1, 0.2, 0.5):
            got = cx.greedy_cover(ball, w, eps)
            assert got == _ref_greedy_cover(ball, w, eps, uniform), (p, eps)


def test_exact_cover_size_cap():
    cloud = manual_cloud(np.linspace(0, 1, 21, endpoint=False))
    with pytest.raises(SizingError):
        cx.covering_number(cloud, 1, 0.2, "exact")


def test_method_validation():
    cloud = manual_cloud([0.1, 0.2])
    with pytest.raises(DomainError):
        cx.covering_number(cloud, 1, 0.2, "annealing")
    with pytest.raises(DomainError):
        cx.covering_number(cloud, 1, 1.5)


def test_covered_mass_exceeds_target():
    rng = np.random.default_rng(7)
    cloud = manual_cloud(rng.random(50))
    for eps in (0.1, 0.3):
        res = cx.covering_number(cloud, 2, eps)
        assert res.covered_mass > 1 - eps


def test_greedy_monotone_in_epsilon():
    rng = np.random.default_rng(3)
    cloud = manual_cloud(rng.random(200))
    counts = [cx.covering_number(cloud, 4, eps).count
              for eps in (0.05, 0.1, 0.2, 0.4)]
    assert counts == sorted(counts, reverse=True)


def test_greedy_tie_break_lowest_index():
    # two identical-coverage candidates: index 0 must win
    cloud = manual_cloud([0.0, 0.5, 0.02, 0.52])
    res = cx.covering_number(cloud, 1, 0.3)
    assert res.centers[0] == 0


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("n", [1, 4])
def test_greedy_cover_independent_of_ball_layout(seed, n):
    # a gain is a BLAS dot product, whose order of summation followed the
    # layout of the ball; here the F-order ball picked other centers
    system = EVERY_KIND["skew2"]
    cloud = cx.sample_cloud(system, 150, seed)
    (_, balls), = system.dbar_balls(cloud.states, [n], [0.2])
    ball = balls[0]
    wide = np.zeros((150, 300), dtype=bool)
    wide[:, ::2] = ball
    results = [cx.greedy_cover(b, cloud.weights, 0.2)
               for b in (ball, np.asfortranarray(ball), wide[:, ::2])]
    assert results[0] == results[1] == results[2]


class _CastReached(Exception):
    pass


class _NumpyStoppingAtTheCast:
    """numpy, but for `asarray`, which stops greedy_cover at its cast."""

    def __getattr__(self, name):
        return getattr(np, name)

    def asarray(self, *args, **kwargs):
        raise _CastReached


@pytest.mark.parametrize("p", [16384, 16385])
def test_greedy_cover_cast_refused_past_the_cap(p, monkeypatch):
    # the float64 cast of a zero-copy ball is 8 p^2 bytes: 2 GiB, the cap,
    # at p = 16384; past it, refused before anything of p^2 is allocated.
    # The cast itself is never made: reaching it is admission.
    ball = np.broadcast_to(True, (p, p))
    weights = np.broadcast_to(1.0 / p, (p,))
    monkeypatch.setattr(cx, "np", _NumpyStoppingAtTheCast())
    if p == 16384:
        with pytest.raises(_CastReached):
            cx.greedy_cover(ball, weights, 0.1)
        return
    tracemalloc.start()
    try:
        with pytest.raises(SizingError, match="over the cap"):
            cx.greedy_cover(ball, weights, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_doubling_radius_dominates_arbitrary_centers():
    # a hand-built eps-cover with centers OFF the cloud: greedy restricted
    # to cloud centers at radius 2*eps must not need more balls
    rng = np.random.default_rng(11)
    states = rng.random(60)
    cloud = manual_cloud(states)
    eps = 0.1
    arbitrary = np.arange(0.05, 1.0, 2 * eps)     # 5 balls cover everything
    covered = np.zeros(60, dtype=bool)
    for c in arbitrary:
        covered |= np.asarray(dy.circle_dist(states, c) < eps)
    assert covered.mean() > 1 - eps
    doubled = cx.covering_number(cloud, 1, 2 * eps)
    # the greedy count competes against the arbitrary-center budget
    assert doubled.count <= len(arbitrary)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_profile_rotation_bounded():
    cloud = cx.sample_cloud(ROT, 400, seed=6)
    prof = cx.complexity_profile(cloud, [0.1], [1, 2, 4, 8, 16], tau=1.0)[0]
    counts = [r.s_n for r in prof.rows]
    assert len(set(counts)) == 1
    assert prof.classification.kind == "bounded"
    assert prof.classification.liminf_witness == counts[0] / 16


def test_profile_needs_three_points():
    cloud = cx.sample_cloud(ROT, 100, seed=1)
    prof = cx.complexity_profile(cloud, [0.2], [1, 2], tau=1.0)[0]
    assert prof.classification.kind == "withheld"
    assert len(prof.rows) == 2


def test_profile_shift_exponential():
    shift = dy.make_system({"kind": "shift", "weights": [0.5, 0.5], "horizon": 48})
    cloud = cx.sample_cloud(shift, 700, seed=9)
    prof = cx.complexity_profile(cloud, [0.1], list(range(1, 11)), tau=1.0)[0]
    assert prof.classification.kind == "exponential"
    assert prof.classification.exp_rate > 0.2
    assert prof.classification.entropy_rate > 0.4


@pytest.mark.parametrize("name", ["skew2", "group_skew", "shift"])
def test_profile_drops_each_n_balls_before_the_next(name, monkeypatch):
    # one n's balls at a time: each yielded array is dead once the
    # profile asks for the next n
    system = EVERY_KIND[name]
    cloud = cx.sample_cloud(system, 60, 3)
    real = system.dbar_balls
    refs = []

    def spy(states, ns, eps):
        for item in real(states, ns, eps):
            refs.append(weakref.ref(item[1]))
            held = [item]
            del item
            yield held.pop()
            assert all(ref() is None for ref in refs), len(refs)

    monkeypatch.setattr(system, "dbar_balls", spy)
    cx.complexity_profile(cloud, [0.1, 0.2], [1, 2, 4, 8])
    assert len(refs) == 4


def test_profile_requires_ascending_ns():
    cloud = cx.sample_cloud(ROT, 50, seed=2)
    with pytest.raises(DomainError):
        cx.complexity_profile(cloud, [0.2], [4, 2, 1], tau=1.0)


def test_profile_epsilon_monotone():
    cloud = cx.sample_cloud(ROT, 500, seed=12)
    profs = cx.complexity_profile(cloud, [0.1, 0.2, 0.3], [1, 2, 4], tau=1.0)
    by_eps = {p.epsilon: [r.s_n for r in p.rows] for p in profs}
    for row_idx in range(3):
        assert (by_eps[0.1][row_idx] >= by_eps[0.2][row_idx]
                >= by_eps[0.3][row_idx])


def test_prop_22_surrogate_conjugation_preserves_boundedness():
    # the coboundary skew (x, y + phi(x + alpha) - phi(x)), phi = amp
    # sin(2 pi x), is conjugated by the shear (x, y - phi(x)) to the
    # rotation (x + alpha, y), the skew with h = 0; both stay bounded
    a = cf.SQRT2_MINUS_1.as_float()
    amp = 0.2
    phase = np.exp(2j * np.pi * a) - 1.0
    c1 = (-0.5j * amp) * phase
    skew = dy.make_system({"kind": "skew2", "alpha": "sqrt2-1",
                           "h": [[1, c1.real, c1.imag]]})
    rotation = dy.make_system({"kind": "skew2", "alpha": "sqrt2-1", "h": []})

    def shear(states):
        return np.column_stack([states[:, 0], np.mod(
            states[:, 1] - amp * np.sin(2 * np.pi * states[:, 0]), 1.0)])

    ns = [1, 2, 4, 8, 16, 32]
    for system in (skew, rotation):
        cloud = cx.sample_cloud(system, 300, seed=15)
        prof = cx.complexity_profile(cloud, [0.2], ns, tau=1.0)[0]
        assert prof.classification.kind == "bounded"
    states = skew.sample(300, 15)
    assert np.max(dy.circle_dist(shear(skew.step_bulk(states)),
                                 rotation.step_bulk(shear(states)))) < 1e-9


# ---------------------------------------------------------------------------
# Grid cover (resonant skew)
# ---------------------------------------------------------------------------

def test_grid_cover_smallest_t(resonant):
    c, res, h, split = resonant
    rows = cc.block_estimate_check(split.h1, c, res, grid_size=512)
    c_cert = max(r.ratio for r in rows)
    rep = cx.grid_cover_check(c, res, split.h1, epsilon=0.2,
                              c_cert=c_cert, t=2, sample_points=100)
    assert rep.n_t == 8 and rep.q_t == 2
    assert rep.grid_count == rep.lipschitz_l ** 2 * 2 * 16
    assert rep.certificate_ok and rep.sampled_ok
    assert not rep.i_subsampled


def _ref_grid_cover_check(cf, res, h1, epsilon, c_cert, t, sample_points,
                          seed):
    """The former grid cover: the whole (len(i_vals), sample_points)
    i-average in memory, reduced by np.mean."""
    tau = res.tau
    e_int = int(Fraction(1) / tau)
    exponent = float(1 / tau + 2)
    q_t = cf.q(t)
    n_t = q_t ** (e_int + 2)
    l_const = max(math.ceil(3.0 / epsilon), math.ceil(h1.lipschitz_bound()))
    k_tilde = math.floor(3.0 / epsilon) + 1
    grid_count = l_const * l_const * q_t * k_tilde
    dx = 1.0 / (l_const * q_t * k_tilde)
    dy = 1.0 / l_const
    mean_a = (float(q_t) ** (e_int + 1) - 1.0) / 2.0
    mean_b = (q_t - 1) / 2.0
    block_dev = 2.0 * c_cert * math.exp(-exponent * math.log(q_t))
    certificate = (dx + dy + mean_a * block_dev
                   + (mean_b + 1.0) * l_const * dx)
    rng = np.random.default_rng(seed)
    pts = rng.random((sample_points, 2))
    nx = l_const * q_t * k_tilde
    x_star = kn.frac(np.rint(pts[:, 0] * nx) / nx)
    y_star = kn.frac(np.rint(pts[:, 1] * l_const) / l_const)
    subsampled = n_t > cx.I_SAMPLE_CAP
    if subsampled:
        i_vals = sorted(int(r * n_t) for r in rng.random(256))
    else:
        i_vals = list(range(int(n_t)))
    # one block of every i is the former full H_i matrix of each point set
    h_pts, h_star = next(cx._birkhoff_blocks(h1, cf.alpha, i_vals,
                                             (pts[:, 0], x_star), len(i_vals)))
    dxs = kn.circle_dist(pts[:, 0], x_star)
    dys = kn.circle_dist((pts[:, 1][None, :] + h_pts),
                         (y_star[None, :] + h_star))
    dbar_est = np.mean(np.maximum(dxs[None, :], dys), axis=0)
    worst = float(np.max(dbar_est))
    return cx.GridCoverReport(
        t=t, q_t=q_t, n_t=n_t, lipschitz_l=l_const, k_tilde=k_tilde,
        grid_count=grid_count, certificate_bound=certificate,
        certificate_ok=certificate < epsilon, sampled_max_dbar=worst,
        sampled_ok=worst < epsilon, i_subsampled=subsampled)


def _report_fields(rep):
    return [v.hex() if isinstance(v, float) else v
            for v in dataclasses.astuple(rep)]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       sample_points=st.integers(2, 300))
def test_grid_cover_streams_the_full_matrix_average(resonant, data, seed,
                                                    sample_points):
    # from one i row a block to a single block past every i, the running
    # per-point total in ascending i is np.mean's sum, bit for bit
    c, res, _, split = resonant
    t = data.draw(st.sampled_from(res.E), label="t")
    n_i = min(c.q(t) ** 3, 256)
    rows = data.draw(st.integers(1, n_i + 1), label="rows")
    block = rows * sample_points + data.draw(st.integers(0, sample_points - 1),
                                             label="spare")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx, "GRID_BLOCK", block)
        got = cx.grid_cover_check(c, res, split.h1, 0.2, 1.0, t,
                                  sample_points, seed)
    ref = _ref_grid_cover_check(c, res, split.h1, 0.2, 1.0, t,
                                sample_points, seed)
    assert _report_fields(got) == _report_fields(ref)


def test_grid_cover_single_point_sums_in_ascending_i(resonant):
    # np.mean sums one column pairwise; the stream sums it in ascending i
    c, res, _, split = resonant
    rep = cx.grid_cover_check(c, res, split.h1, 0.2, 1.0, 6, 1, 1)
    ref = _ref_grid_cover_check(c, res, split.h1, 0.2, 1.0, 6, 1, 1)
    assert rep.sampled_max_dbar == 0.017130371954696487
    assert ref.sampled_max_dbar == 0.01713037195469648


def test_grid_cover_working_set_is_streamed(resonant, monkeypatch):
    # the full matrices peaked at 28.2 MiB here; the blocks, the two e(m x)
    # tables and the per-point vectors stay within what is admitted
    c, res, _, split = resonant
    admitted = []
    monkeypatch.setattr(cx, "admit", lambda nbytes, what: admitted.append(nbytes))
    tracemalloc.start()
    try:
        cx.grid_cover_check(c, res, split.h1, 0.2, 1.0, 6, 2000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20, peak
    assert admitted == [admitted[0]] and admitted[0] >= peak, (admitted, peak)


@pytest.mark.parametrize("points", [0, -3])
def test_grid_cover_refuses_no_sample_points(resonant, points):
    c, res, _, split = resonant
    with pytest.raises(DomainError, match="at least one sample point"):
        cx.grid_cover_check(c, res, split.h1, 0.2, 1.0, 6, points)


def test_grid_cover_refused_before_allocation(resonant):
    c, res, _, split = resonant
    tracemalloc.start()
    try:
        with pytest.raises(SizingError, match="over the cap"):
            cx.grid_cover_check(c, res, split.h1, 0.2, 1.0, 6, 2 ** 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_grid_cover_refuses_an_n_t_beyond_a_float():
    # at depth 12, E = (2, 6, 8, 10, 12): n_t = q_12^3 has 3307 bits, which
    # a float cannot hold; t = 10 (825 bits) still runs
    c, res, h = fx.resonant_fixture(depth=12, freq_bound=4096)
    h1 = cc.split_cocycle(h, res).h1
    assert res.E[-1] == 12
    with pytest.raises(SizingError, match=r"t=12: n_t = q_t\^3 has 3307 bits"):
        cx.grid_cover_check(c, res, h1, epsilon=0.2, c_cert=1.0, t=12,
                            sample_points=10)
    rep = cx.grid_cover_check(c, res, h1, epsilon=0.2, c_cert=1.0, t=10,
                              sample_points=10)
    assert rep.n_t.bit_length() == 825 and rep.i_subsampled
