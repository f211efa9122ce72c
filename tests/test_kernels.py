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
