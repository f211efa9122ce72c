from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeblab import _kernels as kn
from moeblab import complexity as cx
from moeblab import dynamics as dy

from band_reference import band_dbar, band_dense
from test_admissions import MIB, traced_peak


@pytest.fixture()
def circle_block(rng):
    return rng.random((12, 40))     # (steps, points)


def numpy_reference_circle(xs):
    p = xs.shape[1]
    out = np.zeros((p, p))
    for row in xs:
        d = np.abs(row[:, None] - row[None, :])
        d = np.minimum(d, 1.0 - d)
        out += np.triu(d, 1)
    return out


def test_circle_kernel_against_reference(circle_block):
    dsum = np.zeros((40, 40))
    kn.accumulate_circle(circle_block, dsum)
    assert np.allclose(dsum, numpy_reference_circle(circle_block), atol=1e-12)
    assert np.allclose(np.tril(dsum), 0.0)      # upper triangle only


def _full_band(p):
    """Strip ends of the band of every pair: the upper triangle."""
    return np.full(len(range(0, p, kn.TORUS_BLOCK)), p)


def _band_layout(dense, stops):
    """A (p, p) matrix in the band's (p, width) layout."""
    p = len(dense)
    out = np.zeros((p, max(p - 1, 0)))
    for rows, cols in kn.band_strips(stops, p):
        out[rows, :len(cols)] = dense[rows][:, cols]
    return out


def test_torus_kernel_against_reference(rng):
    xs = rng.random((9, 25))
    ys = rng.random((9, 25))
    dx = np.abs(xs[0][:, None] - xs[0][None, :])
    dx = np.minimum(dx, 1.0 - dx)
    sums = np.zeros((25, 24))
    stops = _full_band(25)
    kn.accumulate_torus(ys, stops, _band_layout(dx, stops), sums)
    dsum = band_dense(stops, sums)
    ref = np.zeros((25, 25))
    for ry in ys:
        dy_ = np.abs(ry[:, None] - ry[None, :])
        dy_ = np.minimum(dy_, 1.0 - dy_)
        ref += np.triu(np.maximum(dx, dy_), 1)
    assert np.allclose(dsum, ref + ref.T, atol=1e-12)   # full symmetric matrix
    assert np.array_equal(dsum, dsum.T)
    assert np.all(np.diag(dsum) == 0.0)


def test_rotation_fast_path_matches_scalar():
    # the rotation's balls threshold its pairwise distance at every n
    rot = dy.make_system({"kind": "rotation", "alpha": "golden"})
    cloud = cx.sample_cloud(rot, 15, seed=8)
    lst = rot.states_list(cloud.states)
    mat = rot.pairwise_distance(cloud.states)
    for n in [1, 5, 13]:
        for i in range(15):
            for j in range(i + 1, 15):
                expect = cx.dbar_distance(rot, lst[i], lst[j], n)
                assert mat[i, j] == pytest.approx(expect, abs=1e-10)
    _assert_balls_equal_reference(rot, cloud.states, [1, 5, 13], [0.1, 0.3])


def test_rotation_isometry_matches_stepwise_accumulation():
    rot = dy.make_system({"kind": "rotation", "alpha": "sqrt2-1"})
    cloud = cx.sample_cloud(rot, 50, seed=3)
    ns = [2 ** k for k in range(9)]
    rows = [cloud.states]
    while len(rows) < ns[-1]:
        rows.append(rot.step_bulk(rows[-1]))
    mat = rot.pairwise_distance(cloud.states)
    for n, balls in rot.dbar_balls(cloud.states, ns, [0.1, 0.2]):
        dsum = np.zeros((50, 50))
        kn.accumulate_circle(np.stack(rows[:n]), dsum)
        expect = (dsum + dsum.T) / n
        assert np.max(np.abs(mat - expect)) <= 1e-12, n
        for k, eps in enumerate((0.1, 0.2)):
            assert np.array_equal(mat < eps, expect < eps), (n, eps)
            assert np.array_equal(balls[k], expect < eps), (n, eps)


def _stepwise_torus_reference(cloud, ns):
    """dbar_n from explicit sums of max(dx_s, dy_s), with the base distance
    dx_s recomputed at every step from the stepped states."""
    system = cloud.system
    states = cloud.states
    p = cloud.size
    dsum = np.zeros((p, p))
    out = {}
    for s in range(max(ns)):
        bx, fy = states[:, 0], states[:, 1]
        if isinstance(system, dy.GroupSkew):   # Z/q: positions g/q on the circle
            bx = bx / system.descriptor["group"]["q"]
        dx_s = dy.circle_dist(bx[:, None], bx[None, :])
        dy_s = dy.circle_dist(fy[:, None], fy[None, :])
        dsum += np.maximum(dx_s, dy_s)
        if s + 1 in ns:
            out[s + 1] = dsum / (s + 1)
        states = system.step_bulk(states)
    return out


@pytest.mark.parametrize("descriptor", [
    {"kind": "skew2", "alpha": "sqrt2-1", "h": [[1, 0.0, -0.15]]},
    {"kind": "group_skew", "group": {"q": 12}, "a": 5, "h": [[1, 0.05, 0.0]]},
])
def test_skew_base_isometry_matches_stepwise_accumulation(descriptor):
    system = dy.make_system(descriptor)
    cloud = cx.sample_cloud(system, 60, seed=4)
    ns = [2 ** k for k in range(8)]
    expect = _stepwise_torus_reference(cloud, ns)
    for (n, mat), (_, balls) in zip(band_dbar(system, cloud.states, ns),
                                    system.dbar_balls(cloud.states, ns,
                                                      [0.1, 0.2])):
        assert np.max(np.abs(mat - expect[n])) <= 1e-12, n
        for k, eps in enumerate((0.1, 0.2)):
            assert np.array_equal(mat < eps, expect[n] < eps), (n, eps)
            assert np.array_equal(balls[k], expect[n] < eps), (n, eps)
        assert np.array_equal(mat, mat.T), n
        assert np.all(np.diag(mat) == 0.0), n


def _brute_nearest_circle(x, centers):
    d = np.abs(x[None, :] - centers[:, None])
    np.minimum(d, 1.0 - d, out=d)
    return np.argmin(d, axis=0), np.min(d, axis=0)


@pytest.mark.parametrize("m_count", [1, 2, 40])
def test_assign_nearest_circle_matches_brute_force(rng, m_count):
    top = 1.0 - 2.0 ** -53                    # the largest float below 1
    centers = rng.random(m_count)
    if m_count == 40:
        centers[:5] = [0.75, 0.0, top, 2.0 ** -60, 0.3]
        centers[30] = 0.25
        centers[31] = centers[4]              # duplicate above a lower index
        centers[35] = centers[33]             # duplicate, later index
        centers[5] = centers[36]              # duplicate, earlier index
    x = np.concatenate([rng.random(5000),
                        [0.0, 2.0 ** -60, 1e-17, top, 1.0 - 1e-12, 0.5,
                         0.25, 0.75, 0.125, 0.875],
                        rng.random(200) * 1e-9,
                        1.0 - rng.random(200) * 1e-9,
                        centers])
    j, d = kn.assign_nearest_circle(x, centers[:, None], len(x))
    j_ref, d_ref = _brute_nearest_circle(x, centers)
    assert np.array_equal(j, j_ref)
    assert np.array_equal(d, d_ref)           # bit-equal distances


def test_assign_nearest_circle_ties_go_to_the_lower_index():
    h = 2.0 ** -30
    centers = np.array([0.5 + h, 1.0 - h, 0.3, h, 0.5 - h, 0.3])
    x = np.array([0.5, 0.0, 0.3])
    j, d = kn.assign_nearest_circle(x, centers[:, None], 3)
    assert j.tolist() == [0, 1, 2]            # 0 over 4, 1 over 3 across 0, 2 over 5
    assert d.tolist() == [h, h, 0.0]
    assert np.array_equal(j, _brute_nearest_circle(x, centers)[0])


def test_assign_nearest_circle_counts_first_points_only(rng):
    centers = rng.random((7, 1))
    x = rng.random(50)
    j, d = kn.assign_nearest_circle(x, centers, 30)
    assert j.shape == d.shape == (30,)
    with pytest.raises(ValueError, match="shape"):
        kn.assign_nearest_circle(x, rng.random((7, 4)), 30)


@pytest.mark.parametrize("ell", [16, 64])
def test_rotation_assignment_matches_l_step_average(ell):
    from moeblab import harness as hx

    rot = dy.make_system({"kind": "rotation", "alpha": "sqrt2-1"})
    states = rot.states_list(cx.sample_cloud(rot, 60, seed=5).states)
    ctraj = np.empty((60, ell))
    for j, state in enumerate(states):
        for l_off in range(ell):
            ctraj[j, l_off] = state
            state = rot.step(state)
    x0, n_total = 0.37, 3000
    j_all, dmin = hx._assign_to_centers(rot, x0, ctraj, n_total)

    a = rot.alpha.as_float()
    orbit = np.mod(x0 + np.arange(1, n_total + ell + 1) * a, 1.0)
    dsum = np.zeros((60, n_total))
    for l_off in range(ell):
        d = np.abs(orbit[l_off: l_off + n_total][None, :]
                   - ctraj[:, l_off, None])
        dsum += np.minimum(d, 1.0 - d)
    dbar = dsum / ell
    assert np.array_equal(j_all, np.argmin(dbar, axis=0))
    assert np.max(np.abs(dmin - np.min(dbar, axis=0))) <= 1e-12
    for eps1 in (0.001, 0.005, 0.02):
        assert np.array_equal(dmin < eps1, np.min(dbar, axis=0) < eps1)


@pytest.mark.parametrize("p", [1, 2, 50, 1000])
def test_rotation_snapshot_is_the_one_row_circle_kernel(p):
    # the rotation's pairwise distance equals the one-row circle kernel,
    # mirrored, bit for bit, and its balls are the same read-only array
    # for every n
    rot = dy.make_system({"kind": "rotation", "alpha": "sqrt2-1"})
    states = rot.sample(p, seed=p)
    dsum = np.zeros((p, p))
    kn.accumulate_circle(states[None, :], dsum)
    expect = dsum + dsum.T
    assert rot.pairwise_distance(states).tobytes() == expect.tobytes()
    got = list(rot.dbar_balls(states, [1, 3, 64], [0.1, 0.3]))
    assert [n for n, _ in got] == [1, 3, 64]
    for _, balls in got:
        assert balls is got[0][1]
        assert balls.tobytes() == np.stack([expect < 0.1, expect < 0.3]).tobytes()
        assert not balls.flags.writeable
        with pytest.raises(ValueError):
            balls[0, 0, 0] = False


def test_rotation_snapshot_reduces_positions_mod_one(rng):
    # points moved by whole turns, +1 and -3 in alternation, give the
    # matrix of the reduced cloud; unreduced, the circle distance of a
    # pair a few turns apart would come out negative
    rot = dy.make_system({"kind": "rotation", "alpha": "golden"})
    x = rng.random(60)
    moved = x + np.where(np.arange(60) % 2 == 0, 1.0, -3.0)
    got = rot.pairwise_distance(moved)
    reduced = rot.pairwise_distance(np.mod(moved, 1.0))
    assert np.array_equal(got, reduced)
    assert np.all(got >= 0.0) and np.all(got <= 0.5)
    plain = rot.pairwise_distance(x)
    assert np.max(np.abs(got - plain)) <= 1e-12
    (_, balls), = rot.dbar_balls(moved, [5], [0.1, 0.3])
    (_, expect), = rot.dbar_balls(np.mod(moved, 1.0), [5], [0.1, 0.3])
    assert np.array_equal(balls, expect)


@pytest.mark.parametrize("desc,states", [
    ({"kind": "skew2", "alpha": "sqrt2-1", "h": [[1, 0.0, -0.15]]},
     np.array([[1.3, 0.2], [0.2, 0.2]])),
    ({"kind": "skew2", "alpha": "sqrt2-1", "h": [[1, 0.0, -0.15]]},
     np.array([[0.2, 1.3], [0.2, 0.2]])),
    ({"kind": "group_skew", "group": {"q": 12}, "a": 5, "h": [[1, 0.05, 0.0]]},
     np.array([[4, 1.3], [4, 0.2]])),
], ids=["skew2-base", "skew2-fibre", "group-fibre"])
def test_skew_distances_reduce_coordinates_mod_one(desc, states):
    # one coordinate a whole turn out: unreduced, its circle distance came
    # out negative and the max with the other axis read 0.0
    system = dy.make_system(desc)
    s, t = system.states_list(states)
    assert system.metric(s, t) == pytest.approx(0.1, abs=1e-12)
    assert system.pairwise_distance(states)[0, 1] == pytest.approx(0.1, abs=1e-12)
    (_, snap), = band_dbar(system, states, [1])
    assert snap[0, 1] == pytest.approx(0.1, abs=1e-12)
    (_, balls), = system.dbar_balls(states, [1], [0.09, 0.11])
    assert balls[:, 0, 1].tolist() == [False, True]
    assert cx.dbar_distance(system, s, t, 1) == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("ell", [1, 16])
def test_rotation_nearest_centers_match_the_base_loop(ell):
    # the sorted circle search against the generic L-step average of the
    # base class, on the same orbit states and center state trajectories
    rot = dy.make_system({"kind": "rotation", "alpha": "sqrt2-1"})
    states = cx.sample_cloud(rot, 40, seed=6).states
    rows = [states]
    for _ in range(ell - 1):
        states = rot.step_bulk(states)
        rows.append(states)
    ctraj = np.stack(rows, axis=1)
    n_total = 2500
    orbit, = rot.orbit(0.61, n_total + ell, n_total + ell)
    j_fast, d_fast = rot.nearest_centers(orbit, ctraj, n_total)
    j_base, d_base = dy.SystemInstance.nearest_centers(rot, orbit, ctraj,
                                                       n_total)
    assert np.max(np.abs(d_fast - d_base)) <= 1e-12

    # where the nearest center is clear of the runner-up by 1e-12
    dist = np.abs(orbit[None, :n_total] - ctraj[:, :1])
    dist = np.sort(np.minimum(dist, 1.0 - dist), axis=0)
    clear = dist[1] - dist[0] > 1e-12
    assert clear.mean() > 0.9
    assert np.array_equal(j_fast[clear], j_base[clear])


# the full-matrix kernel, the dense strip kernel and the cube-based shift
# profiles that the strip kernel, the band kernel and the offset-major
# profiles replaced, kept as the reference
def _ref_accumulate_torus(ys, dx, dsum):
    p = ys.shape[1]
    d = np.empty((p, p))
    e = np.empty((p, p))
    for row in ys:
        np.subtract(row[:, None], row[None, :], out=d)
        np.abs(d, out=d)
        np.subtract(1.0, d, out=e)
        np.minimum(d, e, out=d)
        np.maximum(d, dx, out=d)
        np.add(dsum, d, out=dsum)


def _ref_strip_kernel(ys, dx, dsum):
    p = ys.shape[1]
    d = np.empty((kn.TORUS_BLOCK, p))
    e = np.empty((kn.TORUS_BLOCK, p))
    for r0 in range(0, p, kn.TORUS_BLOCK):
        r1 = min(p, r0 + kn.TORUS_BLOCK)
        dd, ee = d[:r1 - r0, :p - r0], e[:r1 - r0, :p - r0]
        strip, dxs = dsum[r0:r1, r0:], dx[r0:r1, r0:]
        for row in ys:
            np.subtract(row[r0:r1, None], row[None, r0:], out=dd)
            np.abs(dd, out=dd)
            np.subtract(1.0, dd, out=ee)
            np.minimum(dd, ee, out=dd)
            np.maximum(dd, dxs, out=dd)
            np.add(strip, dd, out=strip)
        dsum[r1:, r0:r1] = dsum[r0:r1, r1:].T


def _ref_skew_sums(system, states, ns):
    """(n, dense sums of every pair) of a skew product: the fixed base
    distance of every pair and the dense strip kernel, step by step."""
    g = states[:, 0]
    y = kn.frac(states[:, 1])
    dx = system._base_distance(g[:, None], g[None, :])
    dsum = np.zeros((len(states), len(states)))
    done = 0
    for n in ns:
        while done < n:
            _ref_strip_kernel(y[None], dx, dsum)
            y = kn.frac(y + system._h(system._advance(g, done)))
            done += 1
        yield n, dsum.copy()


def _ref_balls(system, states, ns, eps):
    """(n, balls) from the dense dbar_n, thresholded at each eps."""
    if isinstance(system, dy.Rotation):
        dense = ((n, system.pairwise_distance(states)) for n in ns)
    else:
        dense = ((n, dsum / n) for n, dsum in _ref_skew_sums(system, states, ns))
    for n, dbar in dense:
        yield n, np.stack([dbar < e for e in eps])


def _ref_shift_snapshots(states, ns):
    mat, pos = states, 0
    p, horizon = mat.shape
    n_max = max(ns)
    idx = {n: k for k, n in enumerate(ns)}
    snaps = np.zeros((p, p, len(ns)), dtype=np.float32)
    chunk = max(1, (1 << 25) // (p * horizon))
    for lo in range(0, p, chunk):
        hi = min(p, lo + chunk)
        window = mat[lo:hi, :]
        diff = window[:, None, pos:] != mat[None, :, pos:]
        w = diff.shape[2]
        val = np.ones((hi - lo, p), dtype=np.float32)
        prof = np.empty((hi - lo, p, n_max), dtype=np.float32)
        for j in range(w - 1, -1, -1):
            val = np.where(diff[:, :, j], np.float32(1.0), np.float32(0.5) * val)
            if j < n_max:
                prof[:, :, j] = val
        run = np.zeros((hi - lo, p), dtype=np.float32)
        for i in range(n_max):
            run = run + prof[:, :, i]
            n = i + 1
            if n in idx:
                snaps[lo:hi, :, idx[n]] = run / np.float32(n)
    for n in ns:
        d = snaps[:, :, idx[n]].astype(np.float64)
        np.fill_diagonal(d, 0.0)
        yield n, d


def _assert_shift_equal_reference(system, states, ns, eps=(0.1, 0.5)):
    """The shift's float32 means, widened, with the diagonal zeroed, and its
    balls against the cube-based snapshots, bit for bit."""
    means = [(n, mean.astype(np.float64))
             for n, mean in system._dbar_means(states, ns, 0)]
    balls = list(system.dbar_balls(states, ns, eps))
    ref = list(_ref_shift_snapshots(states, ns))
    assert [n for n, _ in means] == [n for n, _ in balls] == [n for n, _ in ref] == ns
    for (n, mat), (_, got), (_, expect) in zip(means, balls, ref):
        np.fill_diagonal(mat, 0.0)
        assert np.array_equal(mat, expect), (ns, n)
        assert np.array_equal(got, np.stack([expect < e for e in eps])), (ns, n)


def _circle_base_distance(x):
    dx = np.abs(x[:, None] - x[None, :])
    return np.minimum(dx, 1.0 - dx)


@pytest.mark.parametrize("p", [1, 2, 63, 64, 65, 130, 200])
def test_torus_strips_equal_full_matrix_kernel(p):
    # the band of every pair; two calls into one sums, as the snapshots make
    # one per step chunk; p on both sides of the strip height and its
    # multiples (last strips of 1, 63, 64, 1, 2 and 8 rows)
    rng = np.random.default_rng(p)
    dx = _circle_base_distance(rng.random(p))
    stops = _full_band(p)
    dx_band = _band_layout(dx, stops)
    for steps in range(1, 10):
        sums, ref = np.zeros((p, max(p - 1, 0))), np.zeros((p, p))
        for _ in range(2):
            ys = rng.random((steps, p))
            kn.accumulate_torus(ys, stops, dx_band, sums)
            _ref_accumulate_torus(ys, dx, ref)
            assert np.array_equal(band_dense(stops, sums), ref), (p, steps)


BAND_SYSTEMS = {
    "rotation": {"kind": "rotation", "alpha": "sqrt2-1"},
    "skew2": {"kind": "skew2", "alpha": "sqrt2-1", "h": [[1, 0.0, -0.15]]},
    "group_skew-circle": {"kind": "group_skew", "alpha": "golden",
                          "h": [[1, 0.05, 0.0]]},
    "group_skew-Zq": {"kind": "group_skew", "group": {"q": 12}, "a": 5,
                      "h": [[1, 0.05, 0.0]]},
}
SKEW_BANDS = ["skew2", "group_skew-circle", "group_skew-Zq"]


def _assert_balls_equal_reference(system, states, ns, eps):
    got = list(system.dbar_balls(states, ns, eps))
    assert [n for n, _ in got] == ns
    for (n, balls), (_, expect) in zip(got, _ref_balls(system, states, ns, eps)):
        assert balls.dtype == bool and balls.flags.c_contiguous
        assert balls.shape == (len(eps), len(states), len(states))
        assert np.array_equal(balls, expect), n


@pytest.mark.parametrize("eps", [[0.1, 0.2], [0.05], [0.3, 0.6], [0.5]],
                         ids=["band", "narrow", "whole-triangle", "half"])
@pytest.mark.parametrize("p", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("name", sorted(BAND_SYSTEMS))
def test_band_balls_equal_dense_threshold(name, p, eps):
    # the reach is capped at 1/2, where the band holds every pair
    system = dy.make_system(BAND_SYSTEMS[name])
    _assert_balls_equal_reference(system, system.sample(p, p), [1, 2, 7, 16, 33],
                                  eps)


@pytest.mark.parametrize("reach", [0.05, 0.2, 0.45, 0.5, np.inf])
@pytest.mark.parametrize("p", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("name", SKEW_BANDS)
def test_band_sums_equal_dense_sums(name, p, reach):
    # every pair below the reach is held, with the dense sum's float
    system = dy.make_system(BAND_SYSTEMS[name])
    states = system.sample(p, p + 1)
    ns = [1, 3, 40]
    for (n, order, stops, sums), (_, dense) in zip(
            system._band_sums(states, ns, reach, 0),
            _ref_skew_sums(system, states, ns)):
        got = band_dense(stops, sums, fill=np.nan)
        held = ~np.isnan(got)
        assert np.array_equal(got[held], dense[np.ix_(order, order)][held]), n
        g = states[order, 0]
        # from reach 1/2 on, every pair
        dx = system._base_distance(g[:, None], g[None, :])
        below = (dx < reach) | (reach >= 0.5)
        np.fill_diagonal(below, False)
        assert np.all(held[below]), n


@pytest.mark.parametrize("name", SKEW_BANDS)
def test_band_wraps_past_the_last_sorted_row(name):
    system = dy.make_system(BAND_SYSTEMS[name])
    states = system.sample(130, 5)
    (_, _, stops, _), = system._band_sums(states, [1], 0.2, 0)
    assert stops[-1] > 130
    _assert_balls_equal_reference(system, states, [1, 9, 64], [0.1, 0.2])


_QUARTER_ULPS = [np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.25, 1.0)]


@pytest.mark.parametrize("eps", _QUARTER_ULPS, ids=["below", "at", "above"])
def test_band_balls_at_base_distance_eps_on_the_circle(eps):
    # base points on a grid of 1/8 and one ulp either side of its points:
    # base distances of exactly 1/4 and one ulp either side of it; the
    # fibre moves little, so dbar_n stays near the base distance
    system = dy.make_system({"kind": "skew2", "alpha": "sqrt2-1",
                             "h": [[1, 0.0, -0.001]]})
    grid = np.arange(8) / 8
    g = np.concatenate([grid, np.nextafter(grid, 1.0),
                        np.nextafter(grid[1:], 0.0)])
    states = np.column_stack([g, np.full(len(g), 0.3)])
    dx = system._base_distance(g[:, None], g[None, :])
    assert all(np.any(dx == d) for d in _QUARTER_ULPS)
    _assert_balls_equal_reference(system, states, [1, 2, 3, 5, 64], [eps])
    _assert_balls_equal_reference(system, states, [1, 7], [0.1, eps])


@pytest.mark.parametrize("desc, g", [
    ({"kind": "skew2", "alpha": "sqrt2-1", "h": []},
     np.concatenate([np.linspace(0.0, 0.04, 63), [0.1, 0.2, 0.6]])),
    ({"kind": "group_skew", "group": {"q": 100}, "a": 3, "h": []},
     np.concatenate([np.arange(63) % 5, [10, 20, 60]])),
], ids=["circle", "zq"])
def test_band_keeps_pairs_whose_average_rounds_below_eps(desc, g):
    # no fibre motion: dbar_n of the pair of rows 63 and 64 is n copies of
    # dx = 0.1 = eps summed and divided by n, which rounds below 0.1 at
    # n = 6..12: the pair is in a ball then, and only row 63, the last of
    # its strip, can hold it, so the band must reach past eps
    system = dy.make_system(desc)
    states = np.column_stack([g, np.full(len(g), 0.3)])
    assert system._base_distance(g[63], g[64]) == 0.1
    ns = [1, 5, 6, 10, 13]
    dense = dict(_ref_balls(system, states, ns, [0.1]))
    assert not dense[5][0, 63, 64] and dense[10][0, 63, 64]
    _assert_balls_equal_reference(system, states, ns, [0.1])


@pytest.mark.parametrize("q", [8, 12])
@pytest.mark.parametrize("eps", _QUARTER_ULPS, ids=["below", "at", "above"])
def test_band_balls_at_base_distance_eps_over_zq(q, eps):
    # k/q = 1/4 for k = q/4: base distances of exactly eps
    system = dy.make_system({"kind": "group_skew", "group": {"q": q}, "a": 5,
                             "h": [[1, 0.001, 0.0]]})
    states = system.sample(90, q)
    g = states[:, 0]
    assert np.any(system._base_distance(g[:, None], g[None, :]) == 0.25)
    _assert_balls_equal_reference(system, states, [1, 2, 3, 5, 64], [eps])


@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.2, 0.3, 0.5],
                                     [1 / 16] * 16])
@pytest.mark.parametrize("shifted", [0, 5])
def test_offset_major_shift_profiles_equal_cube_profiles(weights, shifted):
    system = dy.make_system({"kind": "shift", "weights": weights,
                             "horizon": 40})
    states = system.sample(90, len(weights))
    for _ in range(shifted):
        states = system.step_bulk(states)
    for ns in ([1], [1, 2, 3, 7, 20], [4, 40 - shifted],
               list(range(1, 41 - shifted))):
        _assert_shift_equal_reference(system, states, ns)


def test_offset_major_shift_profiles_over_several_row_chunks():
    # p = 800 at horizon 64 takes two row chunks of 655 and 145 rows
    system = dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                             "horizon": 64})
    states = system.sample(800, 2)
    assert (1 << 25) // (800 * 64) < 800
    _assert_shift_equal_reference(system, states, [1, 2, 5, 14, 24])


def _agreeing_windows(k, p, w, seed):
    """p windows of k symbols, copies of three words each changed at about
    one offset in 128, every fifth one unchanged: pairs agree over long
    runs, so exponents pass float32 underflow (150) and a byte (255) on
    long windows."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, k, (3, w))
    rows = words[rng.integers(0, 3, p)]
    flips = rng.random((p, w)) < 1 / 128
    flips[::5] = False
    return np.where(flips, (rows + 1) % k, rows).astype(np.int8)


@pytest.mark.parametrize("k", [2, 3, 16])
@pytest.mark.parametrize("w", [1, 2, 127, 128, 129, 130, 256, 300, 600])
def test_streamed_shift_snapshots_equal_reference(k, w):
    system = dy.make_system({"kind": "shift", "weights": [1 / k] * k,
                             "horizon": w})
    states = _agreeing_windows(k, 40, w, seed=k * 1000 + w)
    for ns in (list(range(1, w + 1)), sorted({1, (w + 1) // 2, w}),
               sorted({1, (w + 2) // 3}), [w]):
        _assert_shift_equal_reference(system, states, ns)


def test_agreeing_windows_reach_saturation_and_underflow():
    # at w = 300: a real difference 150..254 offsets ahead of some j, and
    # one more than 255 ahead (the window end, for identical windows)
    states = _agreeing_windows(2, 40, 300, seed=2300)
    p, w = states.shape
    ahead = np.full((p, p), w)
    in_band = past_byte = False
    for j in range(w - 1, -1, -1):
        ahead[states[:, j, None] != states[:, j]] = j
        in_band |= np.any((ahead - j >= 150) & (ahead - j < 255) & (ahead < w))
        past_byte |= np.any(ahead - j > 255)
    assert in_band and past_byte


@pytest.mark.parametrize("block", [1, 7, 106])
def test_streamed_shift_snapshots_in_other_blocks(monkeypatch, block):
    # down to one offset, and up to 106, the longest block whose exponents
    # (at most the block and the 149 offsets looked ahead) fit a byte
    monkeypatch.setattr(dy, "SHIFT_BLOCK", block)
    w = 300
    system = dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                             "horizon": w})
    states = _agreeing_windows(2, 30, w, seed=block)
    for ns in (list(range(1, w + 1)), [1, 8, 151, 152, 299]):
        _assert_shift_equal_reference(system, states, ns)


@pytest.mark.parametrize("p", [700, 800])
def test_streamed_shift_snapshots_on_both_sides_of_the_row_chunk(p):
    # the row chunk is 748 rows at p = 700 and 655 at p = 800
    w = 300
    assert ((1 << 19) // p >= p) == (p == 700)
    system = dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                             "horizon": w})
    states = _agreeing_windows(2, p, w, seed=p)
    _assert_shift_equal_reference(system, states, [1, 40, 45])


def test_torus_kernel_scratch_is_a_strip():
    # the full-matrix kernel's two (p, p) scratch buffers were 16 MiB here;
    # the band of every pair is the widest
    p = 1000
    rng = np.random.default_rng(11)
    dx = _circle_base_distance(rng.random(p))
    ys = rng.random((8, p))
    stops = _full_band(p)
    dx_band = _band_layout(dx, stops)
    sums = np.zeros((p, p - 1))
    peak = traced_peak(lambda: kn.accumulate_torus(ys, stops, dx_band, sums))
    assert peak < 4 * MIB, peak


def test_shift_profiles_peak_below_cube_peak():
    system = dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                             "horizon": 64})
    states = system.sample(800, 4)
    ns = list(range(1, 15))
    # balls are dropped as they come, as a covering profile drops them
    new = traced_peak(lambda: deque(system.dbar_balls(states, ns, [0.1]), 0))
    old = traced_peak(lambda: deque(_ref_shift_snapshots(states, ns), 0))
    assert new < old, (new, old)


def test_shift_peak_does_not_grow_with_the_snapshots_asked_for():
    system = dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                             "horizon": 64})
    states = system.sample(800, 4)
    one, every = (traced_peak(lambda: deque(system.dbar_balls(states, ns, [0.1]), 0))
                  for ns in ([14], range(1, 15)))
    assert abs(every - one) < MIB, (one, every)


def test_shift_peak_does_not_grow_with_n_max():
    system = dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                             "horizon": 600})
    states = system.sample(400, 4)
    peaks = [traced_peak(lambda: deque(system.dbar_balls(states, ns, [0.1]), 0))
             for ns in ([dy.SHIFT_BLOCK], [600], range(1, 601))]
    assert max(peaks) - min(peaks) < MIB, peaks


# ---------------------------------------------------------------------------
# Trigonometric evaluations and the reduction mod 1: bit-equal to the
# complex-exponential and np.mod formulas they replace
# ---------------------------------------------------------------------------

_FREQS = st.tuples(st.integers(1, 1 << 14), st.sampled_from([1, -1]),
                   st.sampled_from([int, np.int64])).map(lambda t: t[2](t[0] * t[1]))
_PARTS = st.floats(-1e300, 1e300)
_ZERO = st.sampled_from([0.0, -0.0])
_COEFFS = st.one_of(st.builds(complex, _PARTS, _ZERO),      # pure real
                    st.builds(complex, _ZERO, _PARTS),      # pure imaginary
                    st.builds(complex, _PARTS, _PARTS))
_POINTS = st.one_of(
    st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=24)
    .map(np.array),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=24).map(np.array),
    st.floats(-1e6, 1e6).map(np.asarray))                   # 0-d


def _old_twice_re(c, m, x):
    return 2.0 * (c * np.exp(2j * np.pi * m * x)).real


@settings(max_examples=400, deadline=None)
@given(c=_COEFFS, m=_FREQS, x=_POINTS)
def test_trig_helpers_equal_the_complex_exponential_bit_for_bit(c, m, x):
    with np.errstate(over="ignore"):
        old, new = _old_twice_re(c, m, x), kn.twice_re(c, m, x)
    # a scalar stays a scalar: numpy rounds complex scalar products apart
    # from array ones
    assert (type(new), np.shape(new)) == (type(old), np.shape(old))
    assert np.asarray(new).tobytes() == np.asarray(old).tobytes(), (c, m, x)
    old, new = np.exp(2j * np.pi * m * x), kn.unit(m, x)
    assert (type(new), np.shape(new)) == (type(old), np.shape(old))
    assert np.asarray(new).tobytes() == np.asarray(old).tobytes(), (m, x)


def test_trig_helpers_on_zero_and_tiny_phases():
    x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, 0.25, 1.0, -3.75])
    for m in (1, -1, np.int64(7), -(1 << 14)):
        assert kn.unit(m, x).tobytes() == np.exp(2j * np.pi * m * x).tobytes()
        for c in (0j, -0j, complex(-0.0, 0.0), 5e-324 + 0j, 5e-324j,
                  1e-310j, complex(-0.0, 0.15), complex(0.3, -0.0), 0.1 + 0.2j):
            assert (kn.twice_re(c, m, x).tobytes()
                    == _old_twice_re(c, m, x).tobytes()), (m, c)
    # a general c at a 0-d x, where scalar and array products round apart
    assert kn.twice_re(5 + 1j, -1, np.asarray(2.875)) == _old_twice_re(
        5 + 1j, -1, np.asarray(2.875))


_FRAC_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, -1e-20, 0.5, -0.5,
               1.0, -1.0, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 3.75, -3.75,
               2.0 ** 51 + 0.5, -(2.0 ** 51 + 0.5), 2.0 ** 53, -(2.0 ** 60),
               1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan]


def test_frac_equals_np_mod_on_edge_values():
    v = np.array(_FRAC_EDGES)
    with np.errstate(invalid="ignore"):
        assert kn.frac(v).tobytes() == np.mod(v, 1.0).tobytes()
        for e in _FRAC_EDGES:
            assert np.asarray(kn.frac(e)).tobytes() == np.asarray(np.mod(e, 1.0)).tobytes(), e


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=24).map(np.array))
def test_frac_equals_np_mod(v):
    assert kn.frac(v).tobytes() == np.mod(v, 1.0).tobytes()
