import numpy as np
import pytest

from moeblab import _kernels as kn
from moeblab import complexity as cx
from moeblab import dynamics as dy


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


def test_torus_kernel_against_reference(rng):
    xs = rng.random((9, 25))
    ys = rng.random((9, 25))
    dx = np.abs(xs[0][:, None] - xs[0][None, :])
    dx = np.minimum(dx, 1.0 - dx)
    dsum = np.zeros((25, 25))
    kn.accumulate_torus(ys, dx, dsum)
    ref = np.zeros((25, 25))
    for ry in ys:
        dy_ = np.abs(ry[:, None] - ry[None, :])
        dy_ = np.minimum(dy_, 1.0 - dy_)
        ref += np.triu(np.maximum(dx, dy_), 1)
    assert np.allclose(dsum, ref + ref.T, atol=1e-12)   # full symmetric matrix
    assert np.array_equal(dsum, dsum.T)
    assert np.all(np.diag(dsum) == 0.0)


def test_rotation_fast_path_matches_scalar():
    rot = dy.make_system({"kind": "rotation", "alpha": "golden"})
    cloud = cx.sample_cloud(rot, 15, seed=8)
    lst = rot.states_list(cloud.states)
    for n, mat in cx._iter_dbar(cloud, [1, 5, 13]):
        for i in range(15):
            for j in range(i + 1, 15):
                expect = cx.dbar_distance(rot, lst[i], lst[j], n)
                assert mat[i, j] == pytest.approx(expect, abs=1e-10)


def test_rotation_isometry_matches_stepwise_accumulation():
    rot = dy.make_system({"kind": "rotation", "alpha": "sqrt2-1"})
    cloud = cx.sample_cloud(rot, 50, seed=3)
    ns = [2 ** k for k in range(9)]
    rows = [cloud.states]
    while len(rows) < ns[-1]:
        rows.append(rot.step_bulk(rows[-1]))
    for n, mat in cx._iter_dbar(cloud, ns):
        dsum = np.zeros((50, 50))
        kn.accumulate_circle(np.stack(rows[:n]), dsum)
        expect = (dsum + dsum.T) / n
        assert np.max(np.abs(mat - expect)) <= 1e-12, n
        for eps in (0.1, 0.2):
            assert np.array_equal(mat < eps, expect < eps), (n, eps)


def _stepwise_torus_reference(cloud, ns):
    """dbar_n from explicit sums of max(dx_s, dy_s), with the base distance
    dx_s recomputed at every step from the stepped states."""
    system = cloud.system
    states = cloud.states
    p = cloud.size
    dsum = np.zeros((p, p))
    out = {}
    for s in range(max(ns)):
        if isinstance(states, tuple):       # Z/q: positions g/q on the circle
            q = system.descriptor["group"]["q"]
            bx, fy = states[0] / q, states[1]
        else:
            bx, fy = states[:, 0], states[:, 1]
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
    for n, mat in cx._iter_dbar(cloud, ns):
        assert np.max(np.abs(mat - expect[n])) <= 1e-12, n
        for eps in (0.1, 0.2):
            assert np.array_equal(mat < eps, expect[n] < eps), (n, eps)
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
    ctraj = np.empty((60, ell, 1))
    for j, state in enumerate(states):
        for l_off in range(ell):
            ctraj[j, l_off, 0] = state
            state = rot.step(state)
    x0, n_total = 0.37, 3000
    j_all, dmin = hx._assign_to_centers(rot, x0, ctraj, n_total)

    a = rot.alpha.as_float()
    orbit = np.mod(x0 + np.arange(1, n_total + ell + 1) * a, 1.0)
    dsum = np.zeros((60, n_total))
    for l_off in range(ell):
        d = np.abs(orbit[l_off: l_off + n_total][None, :] - ctraj[:, l_off])
        dsum += np.minimum(d, 1.0 - d)
    dbar = dsum / ell
    assert np.array_equal(j_all, np.argmin(dbar, axis=0))
    assert np.max(np.abs(dmin - np.min(dbar, axis=0))) <= 1e-12
    for eps1 in (0.001, 0.005, 0.02):
        assert np.array_equal(dmin < eps1, np.min(dbar, axis=0) < eps1)
