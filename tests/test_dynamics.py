import math
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeblab import cli
from moeblab import complexity as cx
from moeblab import dynamics as dy
from moeblab.errors import DEFAULT_MEMORY_CAP, DomainError, SizingError

from birkhoff_reference import _ref_birkhoff_sum

SKEW_DESC = {"kind": "skew2", "alpha": "sqrt2-1", "h": [[1, 0.0, -0.15]]}


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(sample_a)
    b = np.sort(sample_b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical(n: int, m: int, level_coeff: float = 1.628) -> float:
    # c(0.01) = 1.628 for the two-sample test
    return level_coeff * math.sqrt((n + m) / (n * m))


@pytest.fixture(scope="module")
def systems():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {
            "rotation": dy.make_system({"kind": "rotation", "alpha": "sqrt2-1"}),
            "skew2": dy.make_system(SKEW_DESC),
            "group": dy.make_system({"kind": "group_skew", "group": {"q": 12},
                                     "a": 5, "h": [[1, 0.05, 0.0]]}),
            "shift": dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                                     "horizon": 48}),
        }


# ---------------------------------------------------------------------------
# Construction and stepping
# ---------------------------------------------------------------------------

def test_unknown_kind():
    with pytest.raises(DomainError, match="unknown system kind"):
        dy.make_system({"kind": "horocycle"})


def test_missing_field_named():
    with pytest.raises(DomainError, match="'alpha'"):
        dy.make_system({"kind": "rotation"})
    with pytest.raises(DomainError, match="'weights'"):
        dy.make_system({"kind": "shift"})


def test_identity_rotation():
    with pytest.warns(UserWarning, match="rational"):
        ident = dy.make_system({"kind": "rotation", "alpha": "0"})
    assert ident.step(0.37) == 0.37


def test_rational_alpha_warns():
    with pytest.warns(UserWarning, match="rational"):
        dy.make_system({"kind": "rotation", "alpha": "1/3"})


def test_rotation_metric_invariance(systems):
    rot = systems["rotation"]
    for x, y in [(0.12, 0.7), (0.98, 0.01), (0.5, 0.5)]:
        assert rot.metric(rot.step(x), rot.step(y)) == pytest.approx(
            rot.metric(x, y), abs=1e-15)


def test_skew_step_matches_formula(systems):
    skew = systems["skew2"]
    a = skew.alpha.as_float()
    s = skew.step(np.array([0.25, 0.5]))
    assert s[0] == pytest.approx((0.25 + a) % 1)
    assert s[1] == pytest.approx((0.5 + 0.3 * math.sin(2 * np.pi * 0.25)) % 1)


@pytest.mark.parametrize("name", ["skew2", "group"])
def test_skew_steps_integral_states_as_floats(systems, name):
    # an integer row [3, 0] steps as the float row [3.0, 0.0], not cast back
    skew = systems[name]
    expect = skew.step(np.array([3.0, 0.0]))
    assert skew.step([3, 0]).tobytes() == expect.tobytes()
    assert skew.step_bulk(np.array([[3, 0]]))[0].tobytes() == expect.tobytes()


def test_skew_power_formula(systems):
    # S^n(x, y) = (x + n alpha, y + H_n(x)), checked against n-fold stepping
    skew = systems["skew2"]
    a = skew.alpha.as_float()
    state = np.array([0.1, 0.2])
    x0 = state.copy()
    for n in range(1, 101):
        state = skew.step(state)
    h_n = _ref_birkhoff_sum(skew.h, skew.alpha, float(x0[0]), 100)
    assert state[0] == pytest.approx((x0[0] + 100 * a) % 1, abs=1e-10)
    assert dy.circle_dist(state[1], (x0[1] + h_n) % 1.0) < 1e-10


def test_iteration_identity_long(systems):
    # pointwise to 1e-10 for n <= 1000
    skew = systems["skew2"]
    state = np.array([0.32, 0.77])
    x0, y0 = state
    for n in (10, 100, 1000):
        s = np.array([x0, y0])
        for _ in range(n):
            s = skew.step(s)
        h_n = _ref_birkhoff_sum(skew.h, skew.alpha, x0, n)
        assert dy.circle_dist(s[1], (y0 + h_n) % 1.0) < 1e-10


@pytest.mark.parametrize("tau", [0, 0.5, 3])
def test_skew_descriptor_tau_is_not_read(tau):
    # h's envelope constant is fitted to its coefficients, so a "tau" key
    # would change no step; tau = 0 would divide by zero
    plain = dy.make_system(SKEW_DESC)
    keyed = dy.make_system(dict(SKEW_DESC, tau=tau))
    assert keyed.h == plain.h
    states = plain.sample(50, 3)
    assert keyed.step_bulk(states).tobytes() == plain.step_bulk(states).tobytes()


# one descriptor per registered kind; a kind added without one fails here
CONTRACT_DESCRIPTORS = {
    "rotation": {"kind": "rotation", "alpha": "sqrt2-1"},
    "skew2": SKEW_DESC,
    "group_skew": {"kind": "group_skew", "group": {"q": 12}, "a": 5,
                   "h": [[1, 0.05, 0.0]]},
    "shift": {"kind": "shift", "weights": [0.2, 0.3, 0.5], "horizon": 16},
}


@pytest.mark.parametrize("kind", sorted(dy._KINDS))
def test_bulk_payload_is_one_array_row_per_state(kind):
    system = dy.make_system(CONTRACT_DESCRIPTORS[kind])
    p = 9
    states = system.sample(p, 4)
    assert isinstance(states, np.ndarray) and len(states) == p
    stepped = system.step_bulk(states)
    assert isinstance(stepped, np.ndarray) and len(stepped) == p
    for s in (states, stepped):
        rebuilt = np.array(system.states_list(s))
        assert rebuilt.dtype == s.dtype
        assert rebuilt.tobytes() == s.tobytes()
        assert system.pairwise_distance(s).shape == (p, p)


@pytest.mark.parametrize("name,x0", [("rotation", 0.37), ("skew2", [0.1, 0.2]),
                                     ("group", [3, 0.2])])
@pytest.mark.parametrize("n_max", [6, 7, 8, 21])
def test_orbit_chunks_concatenate_to_one_chunk(systems, name, x0, n_max):
    # n_max below, equal to and one past the chunk, and a multiple of it
    system = systems[name]
    chunk = 7
    chunks = list(system.orbit_coords(x0, n_max, chunk))
    assert [len(c) for c in chunks] == [min(chunk, n_max - lo)
                                        for lo in range(0, n_max, chunk)]
    got = np.concatenate(chunks)
    whole, = system.orbit_coords(x0, n_max, n_max)
    assert got.shape == whole.shape == (n_max, 1 if name == "rotation" else 2)
    if name == "rotation":
        assert got.tobytes() == whole.tobytes()
    else:
        # the fibre sum is carried across a cut as a float: last bits only
        assert np.max(dy.circle_dist(got, whole)) <= 1e-12


def test_group_order_above_cap_refused_before_allocating():
    # h on Z/q for q = 2^40 would be an 8 TiB table
    tracemalloc.start()
    try:
        for q in (dy.MAX_GROUP_ORDER + 1, 2 ** 40):
            with pytest.raises(SizingError, match="exceeds"):
                dy.make_system({"kind": "group_skew", "group": {"q": q},
                                "a": 1, "h": [[1, 0.05, 0.0]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


GROUP_DESC = {"kind": "group_skew", "group": {"q": 12}, "a": 5,
              "h": [[1, 0.05, 0.0]]}
SHIFT_DESC = {"kind": "shift", "weights": [0.5, 0.5], "horizon": 64}


def _dbar_cases(horizon=64):
    """label -> (system, one state) for each dbar_balls implementation: the
    rotation's, TorusSkew over T^1 and over Z/q, and the shift's."""
    rot = dy.make_system({"kind": "rotation", "alpha": "sqrt2-1"})
    shift = dy.make_system(dict(SHIFT_DESC, horizon=horizon))
    return {"rotation": (rot, np.zeros(())),
            "skew2": (dy.make_system(SKEW_DESC), np.zeros(2)),
            "group_skew": (dy.make_system(GROUP_DESC), np.zeros(2)),
            "shift": (shift, np.zeros(horizon, dtype=np.int8))}


@pytest.mark.parametrize("label", ["rotation", "skew2", "group_skew",
                                   "shift"])
@pytest.mark.parametrize("p", [9500, 10 ** 6])
def test_dbar_snapshots_refused_from_the_estimate_alone(label, p):
    # zero-copy states: only the estimate can refuse without allocating;
    # p = 9500 is just past the rotation's cap of 24 p^2 bytes, and past a
    # skew product's of 16 p^2 for its band of every pair (the states are
    # one point) and 2 p^2 for each of four balls.  A skew product sorts
    # its base points (56 bytes a state) once its four balls are admitted.
    system, state = _dbar_cases()[label]
    states = np.broadcast_to(state, (p,) + state.shape)
    tracemalloc.start()
    try:
        with pytest.raises(SizingError, match="over the cap"):
            next(system.dbar_balls(states, [1, 64], [0.1, 0.2, 0.3, 0.4]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, (label, peak)


class _Admitted(Exception):
    pass


_ADMIT = dy.admit
# a skew product admits its band at width 1 before it sorts the base
# points, then at the band's width; every other kind admits once
_ADMISSIONS = {"skew2": 2, "group_skew": 2}


def _spy_admit(monkeypatch, asked, kind, stop=True):
    """Pass each admission of a system of this kind through the real one
    and append its figure to `asked`; with `stop`, raise _Admitted at the
    kind's last admission, so nothing of the working set is computed."""
    def spy(nbytes, what):
        asked.append(nbytes)
        _ADMIT(nbytes, what)
        if stop and len(asked) == _ADMISSIONS.get(kind, 1):
            raise _Admitted

    monkeypatch.setattr(dy, "admit", spy)


def _admissions(monkeypatch, cases, p, ns, eps=(0.1,), sample=False):
    """The estimate each case's balls state for p states (one repeated
    state, or a sample), these ns and eps, each passed through the real
    admission and then stopped: nothing is computed."""
    asked = {}
    for label, (system, state) in cases.items():
        states = (system.sample(p, 0) if sample
                  else np.broadcast_to(state, (p,) + state.shape))
        asked[label] = []
        _spy_admit(monkeypatch, asked[label], system.kind)
        with pytest.raises(_Admitted):
            next(system.dbar_balls(states, ns, eps))
    return {label: figures[-1] for label, figures in asked.items()}


@pytest.mark.parametrize("eps", [[0.1], [0.1, 0.2, 0.3], [0.6]],
                         ids=["one", "three", "wide"])
@pytest.mark.parametrize("label", ["rotation", "skew2", "group_skew",
                                   "shift"])
def test_stated_working_set_covers_the_traced_peak(label, eps, monkeypatch):
    # what each kind admits is at least what its balls allocate, but for
    # the (p,) vectors beside them
    system, _ = _dbar_cases()[label]
    p = 600
    states = system.sample(p, 1)
    asked = []
    _spy_admit(monkeypatch, asked, system.kind, stop=False)
    tracemalloc.start()
    try:
        deque(system.dbar_balls(states, [1, 2, 8, 64], eps), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(asked) == _ADMISSIONS.get(system.kind, 1), asked
    assert asked == sorted(asked) and peak <= asked[-1] + 64 * p, (asked, peak)


@pytest.mark.parametrize("p", [1, 63, 64, 65, 1000])
def test_rotation_balls_in_strips_equal_the_thresholded_distance(p, monkeypatch):
    # strips of TORUS_BLOCK rows on either side of a strip boundary: the
    # balls of the whole distance matrix, within the admitted bytes but
    # for the (p,) vectors and the arrays' headers, and at p = 1000 under
    # 4 MiB where the matrix and its scratch took 23
    system, _ = _dbar_cases()["rotation"]
    states = system.sample(p, 5)
    eps = [0.05, 0.45]
    asked = []
    _spy_admit(monkeypatch, asked, system.kind, stop=False)
    tracemalloc.start()
    try:
        (_, balls), = system.dbar_balls(states, [1], eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = system.pairwise_distance(states) < np.array(eps)[:, None, None]
    assert balls.dtype == bool and balls.shape == dense.shape
    assert np.array_equal(balls, dense)
    assert peak <= asked[-1] + 64 * p + (8 << 10), (peak, asked)
    assert p < 1000 or peak < 4 << 20, peak


def test_cli_default_cloud_is_admitted(monkeypatch):
    # the complexity command's default samples and ns, on a shift whose
    # horizon reaches the last n
    args = cli._build_parser().parse_args(["complexity", "--system", "s.json"])
    ns = [int(n) for n in args.ns.split(",")]
    asked = _admissions(monkeypatch, _dbar_cases(horizon=max(ns)),
                        args.samples, ns)
    assert len(asked) == 4 and max(asked.values()) <= DEFAULT_MEMORY_CAP, asked


def test_isometric_snapshots_admitted_just_under_the_cap(monkeypatch):
    # 24 p^2 bytes at p = 9400 is 1.97 GiB: the rotation's distance matrix
    # and its scratch, which up to 16 eps outweigh the matrix and the balls
    rotation = {"rotation": _dbar_cases()["rotation"]}
    asked = _admissions(monkeypatch, rotation, 9400, [1, 64],
                        [0.05 * k for k in range(1, 17)])
    assert asked == {"rotation": 24 * 9400 ** 2}


def test_cli_default_cloud_balls_are_admitted(monkeypatch):
    # the balls the complexity command's profile asks for, on every kind
    args = cli._build_parser().parse_args(["complexity", "--system", "s.json"])
    ns = [int(n) for n in args.ns.split(",")]
    eps = [float(e) for e in args.eps.split(",")]
    asked = _admissions(monkeypatch, _dbar_cases(horizon=max(ns)),
                        args.samples, ns, eps, sample=True)
    assert len(asked) == 4 and max(asked.values()) <= DEFAULT_MEMORY_CAP, asked


def _band_estimate(monkeypatch, p, eps):
    """The working set the balls of a sampled skew2 cloud of p states state,
    and the tracemalloc peak of reaching that estimate."""
    system = dy.make_system(SKEW_DESC)
    states = system.sample(p, 0)
    asked = []
    _spy_admit(monkeypatch, asked, system.kind)
    tracemalloc.start()
    try:
        with pytest.raises((_Admitted, SizingError)) as caught:
            next(system.dbar_balls(states, [1, 64], eps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return asked[-1], caught.type is SizingError, peak


def test_band_admits_a_skew_cloud_the_dense_snapshots_refused(monkeypatch):
    # the dense path stated 32 p^2 bytes and the fibre rows: 3071 MiB here
    p = 10 ** 4
    assert 32 * p * p + 8 * dy.STEP_CHUNK * p > DEFAULT_MEMORY_CAP
    nbytes, refused, peak = _band_estimate(monkeypatch, p, [0.1, 0.2])
    assert not refused and nbytes < DEFAULT_MEMORY_CAP // 2, nbytes
    assert peak < 1 << 20, peak      # the sort; nothing of the working set


def test_band_past_the_cap_is_refused(monkeypatch):
    # the band sums alone, 8 p (0.45 p + 64) bytes, pass the cap
    p = 3 * 10 ** 4
    nbytes, refused, peak = _band_estimate(monkeypatch, p, [0.45])
    assert refused and nbytes - 2 * p * p > DEFAULT_MEMORY_CAP, nbytes
    assert peak < 4 << 20, peak


def test_shift_estimate_does_not_grow_with_n_max(monkeypatch):
    shift = {"shift": _dbar_cases(horizon=4096)["shift"]}
    asked = [_admissions(monkeypatch, shift, 2000, ns)["shift"]
             for ns in ([1, 64], [4096], range(1, 4097))]
    # the exponent block, two float32 matrices and the eps balls, and ten
    # bytes a pair of a row chunk: two bytes and the index np.take makes
    chunk = (1 << 19) // 2000
    assert asked == [(dy.SHIFT_BLOCK + 8 + 1) * 2000 ** 2
                     + 10 * chunk * 2000] * 3


def test_shift_step_refused_on_exhausted_window():
    shift = dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                            "horizon": 3})
    states = shift.step_bulk(shift.step_bulk(shift.sample(4, 0)))
    assert states.shape == (4, 1)
    with pytest.raises(DomainError, match="exhausted"):
        shift.step_bulk(states)


def test_scalar_shift_step_refused_on_exhausted_window():
    shift = dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                            "horizon": 4})
    s, t = shift.sample(2, 0)
    with pytest.raises(DomainError, match="exhausted"):
        shift.step(s[3:])
    # the window carries dbar_n up to n = horizon, as the balls' means do
    _, d4 = next(shift._dbar_means(np.array([s, t]), [4], 0))
    assert cx.dbar_distance(shift, s, t, 4) == pytest.approx(d4[0, 1], rel=1e-6)
    with pytest.raises(DomainError, match="exhausted"):
        cx.dbar_distance(shift, s, t, 10)


def test_shift_snapshots_refused_past_window():
    shift = dy.make_system({"kind": "shift", "weights": [0.5, 0.5],
                            "horizon": 8})
    states = shift.step_bulk(shift.sample(4, 0))     # windows of 7 symbols
    assert [n for n, _ in shift.dbar_balls(states, [1, 7], [0.1])] == [1, 7]
    with pytest.raises(DomainError, match="too short"):
        next(shift.dbar_balls(states, [2, 8], [0.1]))


# ---------------------------------------------------------------------------
# Metric axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["rotation", "skew2", "group", "shift"])
def test_metric_axioms(name, systems, rng):
    sys_ = systems[name]
    states = sys_.states_list(sys_.sample(30, seed=11))
    for _ in range(1000):
        i, j, k = rng.integers(0, len(states), 3)
        x, y, z = states[i], states[j], states[k]
        dxy = sys_.metric(x, y)
        assert dxy == pytest.approx(sys_.metric(y, x), abs=1e-12)
        assert sys_.metric(x, x) <= 1e-12
        assert dxy <= sys_.metric(x, z) + sys_.metric(z, y) + 1e-12


def test_shift_metric_refuses_windows_of_unequal_length(systems):
    shift = systems["shift"]
    s, t = shift.sample(2, seed=3)
    assert shift.metric(s[1:], t[1:]) == shift.pairwise_distance(
        np.array([s[1:], t[1:]]))[0, 1]
    assert shift.metric(s[:0], t[:0]) == 1.0     # no symbols: 2^-0
    with pytest.raises(DomainError, match="shapes"):
        shift.metric(s, t[1:])


ONE_DISTANCE = {
    "rotation": {"kind": "rotation", "alpha": "sqrt2-1"},
    "skew2": SKEW_DESC,
    "group_skew-circle": {"kind": "group_skew", "group": "circle",
                          "alpha": "golden", "h": [[1, 0.05, 0.0]]},
    "group_skew-Z12": {"kind": "group_skew", "group": {"q": 12}, "a": 5,
                       "h": [[1, 0.05, 0.0]]},
    "shift": {"kind": "shift", "weights": [0.5, 0.5], "horizon": 6},
}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(ONE_DISTANCE)), p=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_form_of_the_distance_reads_one_d(name, p, seed):
    # metric, pairwise_distance, the n = 1 balls and the generic center
    # search at L = 1 all read the kind's one distance, bit for bit; the
    # balls are cut at distances of the cloud itself, so ties are hit
    system = dy.make_system(ONE_DISTANCE[name])
    states = system.sample(p, seed)
    scalar = np.array([[system.metric(s, t) for t in states] for s in states])
    pair = system.pairwise_distance(states)
    assert pair.dtype == np.float64 and pair.tobytes() == scalar.tobytes()
    if name == "shift":
        # 2^-(first differing offset), found one symbol at a time
        w = states.shape[1]
        ref = [[2.0 ** -next((k for k in range(w) if s[k] != t[k]), w)
                for t in states] for s in states]
        assert pair.tobytes() == np.array(ref).tobytes()
        return
    eps = np.array([pair.max(), pair[0, -1], 0.1]) + (pair.max() == 0)
    (_, balls), = system.dbar_balls(states, [1], eps)
    assert balls.tobytes() == (pair < eps[:, None, None]).tobytes()
    # the first half of the cloud as the orbit, the rest as the centers
    orbit, centers = states[: (p + 1) // 2], states[(p + 1) // 2:]
    if not len(centers):
        return
    ctraj = centers[:, None]
    to_centers = scalar[: len(orbit), len(orbit):].T
    j, d = dy.SystemInstance.nearest_centers(system, orbit, ctraj, len(orbit))
    assert j.tolist() == np.argmin(to_centers, axis=0).tolist()
    assert d.tobytes() == to_centers.min(axis=0).tobytes()
    # the kind's own search (the rotation's sorted one) agrees too
    j_own, d_own = system.nearest_centers(orbit, ctraj, len(orbit))
    assert j_own.tolist() == j.tolist() and d_own.tobytes() == d.tobytes()


# ---------------------------------------------------------------------------
# Sampler invariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,coord", [("rotation", None), ("skew2", 0),
                                        ("skew2", 1)])
def test_sampler_invariance_ks(name, coord, systems):
    sys_ = systems[name]
    states = sys_.sample(10 ** 4, seed=77)
    stepped = sys_.step_bulk(states)
    arr = np.asarray(states)
    arr2 = np.asarray(stepped)
    if coord is not None:
        arr, arr2 = arr[:, coord], arr2[:, coord]
    stat = ks_statistic(arr, arr2)
    assert stat < ks_critical(len(arr), len(arr2))


def test_skew_x_marginal_uniform(systems):
    states = systems["skew2"].sample(10 ** 4, seed=13)
    xs = np.sort(np.asarray(states)[:, 0])
    uniform_cdf = xs                           # CDF of U[0,1) at sorted points
    empirical = np.arange(1, len(xs) + 1) / len(xs)
    stat = float(np.max(np.abs(empirical - uniform_cdf)))
    assert stat < 1.628 / math.sqrt(len(xs))   # one-sample 1% critical value


def test_bernoulli_marginals(systems):
    mat = systems["shift"].sample(10 ** 4, seed=21)
    freq = mat.mean(axis=0)
    sigma = math.sqrt(0.25 / mat.shape[0])
    assert np.all(np.abs(freq - 0.5) < 3 * sigma + 1e-9)


def test_group_skew_circle_alias():
    gs = dy.make_system({"kind": "group_skew", "group": "circle",
                         "alpha": "sqrt2-1", "h": [[1, 0.0, -0.15]]})
    assert gs.kind == "group_skew"
    a = gs.alpha.as_float()
    s = gs.step(np.array([0.25, 0.5]))
    assert s[0] == pytest.approx((0.25 + a) % 1)


def _ref_orbit_states(system, x0, count, burn_in, stride):
    """Bulk payload of `count` states along the orbit of x0, taken every
    `stride` steps after `burn_in` steps, one scalar step at a time."""
    state = x0
    for _ in range(burn_in):
        state = system.step(state)
    items = []
    for _ in range(count):
        items.append(state)
        for _ in range(stride):
            state = system.step(state)
    return np.array(items)


def test_orbit_sampler_provenance():
    desc = dict(SKEW_DESC, sampler="orbit", x0=[0.1, 0.2],
                burn_in=100, stride=3)
    sys_ = dy.make_system(desc)
    states = sys_.sample(50, seed=0)
    assert np.asarray(states).shape == (50, 2)
    expect = _ref_orbit_states(sys_, np.array([0.1, 0.2]), 50, 100, 3)
    # the closed-form fibre sum against step-wise reduction: rounding only
    assert np.max(dy.circle_dist(states, expect)) <= 1e-9


def test_group_orbit_sampler_follows_the_orbit():
    desc = {"kind": "group_skew", "group": {"q": 12}, "a": 5,
            "h": [[1, 0.05, 0.0]], "sampler": "orbit", "x0": [3, 0.2],
            "burn_in": 10, "stride": 1}
    gs = dy.make_system(desc)
    states = gs.sample(5, seed=0)
    expect = _ref_orbit_states(gs, np.array([3.0, 0.2]), 5, 10, 1)
    assert states[:, 0].tobytes() == expect[:, 0].tobytes()
    assert np.max(dy.circle_dist(states[:, 1], expect[:, 1])) <= 1e-9
    assert states[:, 0].tolist() == [5, 10, 3, 8, 1]     # 3 + 5 (10 + k) mod 12
    # without "x0" the orbit starts at the group's zero
    del desc["x0"]
    start = dy.make_system(dict(desc, burn_in=0)).sample(1, seed=0)[0]
    assert start.tolist() == [0.0, 0.2]


def test_group_orbit_start_must_lie_on_the_group():
    desc = {"kind": "group_skew", "group": {"q": 12}, "a": 5,
            "h": [[1, 0.05, 0.0]], "sampler": "orbit", "burn_in": 0,
            "stride": 1}
    # off the group: a fraction, nan, or an integer outside 0..q-1, whose
    # step read past the table of h (IndexError at 15) or wrapped (at -1)
    for x0 in ([3.5, 0.2], np.array([3.5, 0.2]), [float("nan"), 0.2],
               [12, 0.2], [15, 0.2], [-1, 0.2]):
        gs = dy.make_system(dict(desc, x0=x0))
        with pytest.raises(DomainError, match="Z/12"):
            gs.sample(4, seed=0)
        with pytest.raises(DomainError, match="Z/12"):
            gs.orbit_coords(x0, 4, 2)    # refused before any step
    gs = dy.make_system(dict(desc, x0=[3.0, 0.2]))
    assert gs.sample(4, seed=0)[:, 0].tolist() == [3, 8, 1, 6]
    coords = np.concatenate(list(gs.orbit_coords([3.0, 0.2], 4, 2)))
    assert (coords[:, 0] * 12).round().tolist() == [8, 1, 6, 11]


ORBIT_CASES = {
    "rotation": ({"kind": "rotation", "alpha": "sqrt2-1"}, 0.37),
    "skew2": (SKEW_DESC, [0.1, 0.2]),
    "Z12": (GROUP_DESC, [3, 0.2]),
    "circle": ({"kind": "group_skew", "group": "circle", "alpha": "golden",
                "h": [[1, 0.0, -0.15]]}, [0.1, 0.2]),
}


@pytest.mark.parametrize("name", sorted(ORBIT_CASES))
@pytest.mark.parametrize("chunk", [1, 7, 1 << 15])
def test_orbit_coords_are_the_coords_of_the_orbit(name, chunk):
    desc, x0 = ORBIT_CASES[name]
    system = dy.make_system(desc)
    n_max = 40
    states = list(system.orbit(x0, n_max, chunk))
    coords = list(system.orbit_coords(x0, n_max, chunk))
    assert [len(c) for c in coords] == [len(s) for s in states]
    assert sum(map(len, states)) == n_max
    for got, rows in zip(coords, states):
        assert got.tobytes() == system.coords(rows).tobytes()


@pytest.mark.parametrize("name", ["skew2", "Z12", "circle"])
@pytest.mark.parametrize("burn_in,stride,count", [(0, 1, 5), (0, 3, 4),
                                                  (9, 0, 3), (5000, 7, 9)])
def test_orbit_sampler_takes_the_rows_of_the_orbit(name, burn_in, stride,
                                                    count):
    desc, x0 = ORBIT_CASES[name]
    system = dy.make_system(dict(desc, sampler="orbit", x0=x0,
                                 burn_in=burn_in, stride=stride))
    states = system.sample(count, seed=0)
    ns = [burn_in + i * stride for i in range(count)]
    orbit = np.concatenate([np.array([x0], dtype=np.float64)]
                           + list(system.orbit(x0, max(ns), dy.ORBIT_CHUNK)))
    assert states.shape == (count, 2)
    assert states.tobytes() == orbit[ns].tobytes()
    if burn_in == 0:
        assert states[0].tolist() == [float(v) for v in x0]


def test_orbit_sampler_takes_no_steps_for_a_negative_burn_in_or_stride():
    # a negative count of steps takes none
    desc = dict(SKEW_DESC, sampler="orbit", x0=[0.1, 0.2])
    for burn_in, stride in ((-3, 2), (4, -1), (-1, -1)):
        got = dy.make_system(dict(desc, burn_in=burn_in,
                                  stride=stride)).sample(4, seed=0)
        want = dy.make_system(dict(desc, burn_in=max(0, burn_in),
                                   stride=max(0, stride))).sample(4, seed=0)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q, a, field", [
    (12.5, 5.9, "group.q"), (12, 5.9, "a"), (12.5, 5, "group.q"),
    (True, 1, "group.q"), (12, True, "a"), ("12", 5, "group.q"),
    (12, None, "a")])
def test_group_fields_must_be_integers(q, a, field):
    # int() truncated them: q 12.5 and a 5.9 built the rotation by 5 on Z/12
    with pytest.raises(DomainError, match=f"'{field}' must be an integer"):
        dy.make_system({"kind": "group_skew", "group": {"q": q}, "a": a,
                        "h": []})


@pytest.mark.parametrize("q, a", [(12.0, 5), (12, 5.0), (np.int64(12), 5),
                                  (12, np.float64(-7.0))])
def test_integral_group_fields_of_any_number_type_build(q, a):
    gs = dy.make_system({"kind": "group_skew", "group": {"q": q}, "a": a,
                         "h": []})
    assert (gs.q, gs.a) == (12, 5) and type(gs.q) is type(gs.a) is int


@pytest.mark.parametrize("group", [12, "12", "torus", [12], {"order": 12}, None])
def test_group_must_be_the_circle_or_a_cyclic_order(group):
    with pytest.raises(DomainError, match="'group'"):
        dy.make_system({"kind": "group_skew", "group": group, "a": 5,
                        "alpha": "golden", "h": []})


@pytest.mark.parametrize("kind", ["rotation", "shift"])
def test_orbit_sampler_refused_without_an_orbit_start(kind):
    # a rotation has no orbit start, and a shift's window shrinks at each
    # step; neither falls back to its invariant draw
    system = dy.make_system(dict(CONTRACT_DESCRIPTORS[kind], sampler="orbit"))
    with pytest.raises(DomainError, match="no sampler 'orbit'"):
        system.sample(3, seed=0)


@pytest.mark.parametrize("kind", sorted(dy._KINDS))
def test_unknown_sampler_refused(kind):
    system = dy.make_system(dict(CONTRACT_DESCRIPTORS[kind], sampler="haar"))
    with pytest.raises(DomainError, match="no sampler 'haar'"):
        system.sample(3, seed=0)
