"""Covering numbers S_n(d, rho, eps) under the averaged orbit metric.

The averaged metric is dbar_n(x,y) = (1/n) sum_{i<n} d(T^i x, T^i y), and
S_n is the least number of dbar_n-balls of radius eps whose union carries
mass > 1 - eps.  Here rho is always an empirical measure on a finite cloud
of sampled states, centers are restricted to cloud points, and the greedy
set-cover count is the working estimate, with an exhaustive exact solver
as the small-instance oracle.  Growth-rate conclusions downstream are
robust to the doubling-radius slack this center restriction costs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from ._kernels import accumulate_circle, accumulate_torus
from .cocycle import FourierCocycle
from .contfrac import ContinuedFraction, ResonanceData
from .dynamics import SystemInstance, circle_dist, circle_dist_matrix
from .errors import DomainError, SizingError

EXACT_COVER_MAX_POINTS = 20
STEP_CHUNK = 256


# ---------------------------------------------------------------------------
# Clouds
# ---------------------------------------------------------------------------

@dataclass
class OrbitCloud:
    """Weighted atoms sampled from a system's invariant (or empirical)
    measure; weights are nonnegative and sum to 1."""

    system: SystemInstance
    states: object           # bulk payload, system-specific
    weights: np.ndarray
    provenance: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError("weights must be nonnegative and sum to 1")
        self.weights = w

    @property
    def size(self) -> int:
        return self.system.bulk_size(self.states)

    @property
    def uniform(self) -> bool:
        return bool(np.allclose(self.weights, 1.0 / self.size, rtol=0, atol=1e-15))


def sample_cloud(system: SystemInstance, count: int, seed: int) -> OrbitCloud:
    states = system.sample(count, seed)
    return OrbitCloud(system=system, states=states,
                      weights=np.full(count, 1.0 / count),
                      provenance=f"sampled(seed={seed})")


def orbit_cloud(system: SystemInstance, x0, count: int,
                burn_in: int = 10 ** 4, stride: int = 7) -> OrbitCloud:
    """Empirical cloud along the orbit of x0 with burn-in and stride."""
    state = x0
    for _ in range(burn_in):
        state = system.step(state)
    items = []
    for _ in range(count):
        items.append(state)
        for _ in range(stride):
            state = system.step(state)
    return OrbitCloud(system=system, states=system.bulk_from_list(items),
                      weights=np.full(count, 1.0 / count),
                      provenance=f"orbit(x0={x0}, burn_in={burn_in}, stride={stride})")


# ---------------------------------------------------------------------------
# Averaged metric
# ---------------------------------------------------------------------------

def dbar_distance(system: SystemInstance, x, y, n: int) -> float:
    """dbar_n(x, y) as the exact average of n step-metric values."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    total = 0.0
    for _ in range(n):
        total += system.metric(x, y)
        x, y = system.step(x), system.step(y)
    return total / n


def _iter_dbar(cloud: OrbitCloud, n_list: Sequence[int]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, dbar_n pairwise matrix) for ascending n in n_list.

    A system with `isometric` set (an unconjugated rotation) steps by an
    isometry of its circle metric, so dbar_n = d for every n and one snapshot
    serves the whole list.  An unconjugated skew product over a rotation
    (kinds "skew2" and "group_skew") keeps its base distance fixed, so that
    matrix is computed once (exactly from integers over Z/q) and only the
    fibre distance is accumulated per step.  Shifts have their own path;
    every conjugated system accumulates its steps generically.
    """
    ns = sorted(set(int(n) for n in n_list))
    if not ns or ns[0] < 1:
        raise DomainError("n_list must contain positive integers")
    system = cloud.system
    if system.kind == "shift":
        yield from _iter_dbar_shift(cloud, ns)
    elif system.isometric:
        yield from _iter_dbar_rotation(cloud, ns)
    elif (system.kind in ("skew2", "group_skew")
          and not system.descriptor.get("conjugated")):
        yield from _iter_dbar_torus(cloud, ns)
    else:
        yield from _iter_dbar_generic(cloud, ns)


def _iter_dbar_rotation(cloud, ns):
    """dbar_n for x -> x + alpha under the circle metric.

    The rotation is an isometry, d(x + i*alpha, y + i*alpha) = d(x, y), so the
    n = 1 snapshot is dbar_n for every n.  It is yielded, read-only, for each n
    in ns.  Step-wise accumulation of the n shifted rows gives the same matrix
    up to float rounding of the shifted coordinates (at most ~1e-14).
    """
    x0 = np.mod(np.asarray(cloud.states, dtype=np.float64), 1.0)
    p = len(x0)
    dsum = np.zeros((p, p))
    accumulate_circle(x0[None, :], dsum)
    d = dsum + dsum.T
    d.flags.writeable = False
    for n in ns:
        yield n, d


def _iter_dbar_torus(cloud, ns):
    """dbar_n for a skew product (x + a, y + h(x)) under the sup metric.

    The base rotation is an isometry, so the base distance dx of a pair is
    the same at every step and is computed once: the circle distance of
    mod(x, 1) on the torus, and exactly, min(k, q - k)/q with
    k = (g_i - g_j) mod q, over the group Z/q.  Each step adds only
    max(dx, ||y_i - y_j||).  Against step-wise recomputation of the rotated
    base coordinates the snapshots differ by float rounding alone (a few
    1e-15).  Snapshots are exactly symmetric with a zero diagonal.
    """
    system = cloud.system
    if isinstance(cloud.states, tuple):
        g, y = cloud.states
        group = system.descriptor["group"]
        q = int(group["q"]) if isinstance(group, dict) else int(group)
        a = int(system.descriptor["a"]) % q
        h_vals = system.h.evaluate(np.arange(q) / q)
        k = np.subtract.outer(g, g) % q
        dx = np.minimum(k, q - k) / q

        def h_at(i):
            return h_vals[(g + i * a) % q]
    else:
        arr = np.asarray(cloud.states, dtype=np.float64)
        x, y = arr[:, 0], arr[:, 1]
        a = system.alpha.as_float()
        dx = circle_dist_matrix(np.mod(x, 1.0))

        def h_at(i):
            return system.h.evaluate(np.mod(x + i * a, 1.0))
    p = len(y)
    y = np.asarray(y, dtype=np.float64).copy()
    dsum = np.zeros((p, p))
    done = 0
    ys = np.empty((STEP_CHUNK, p))
    for n in ns:
        while done < n:
            chunk = min(STEP_CHUNK, n - done)
            for s in range(chunk):
                ys[s] = y
                y = np.mod(y + h_at(done + s), 1.0)
            accumulate_torus(ys[:chunk], dx, dsum)
            done += chunk
        yield n, dsum / n


def _iter_dbar_shift(cloud, ns):
    mat, pos = cloud.states
    p, horizon = mat.shape
    n_max = max(ns)
    if pos + n_max > horizon:
        raise DomainError(
            f"shift horizon {horizon} too short for n={n_max} from position {pos}")
    idx = {n: k for k, n in enumerate(ns)}
    snaps = np.zeros((p, p, len(ns)), dtype=np.float32)
    chunk = max(1, (1 << 25) // (p * horizon))
    for lo in range(0, p, chunk):
        hi = min(p, lo + chunk)
        window = mat[lo:hi, :]
        diff = window[:, None, pos:] != mat[None, :, pos:]
        w = diff.shape[2]
        # v_j = 2^{-(next diff offset from j)}, virtual diff at the horizon
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


def _iter_dbar_generic(cloud, ns):
    system = cloud.system
    states = cloud.states
    p = cloud.size
    dsum = np.zeros((p, p))
    done = 0
    for n in ns:
        while done < n:
            dsum += system.pairwise_distance(states)
            states = system.step_bulk(states)
            done += 1
        d = dsum / n
        np.fill_diagonal(d, 0.0)
        yield n, d


# ---------------------------------------------------------------------------
# Covering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverResult:
    count: int
    centers: tuple[int, ...]     # indices into the cloud, selection order
    covered_mass: float
    method: str


def _mass_target_count(p: int, epsilon: float) -> int:
    """Least covered-atom count with count/p > 1 - epsilon (uniform weights)."""
    return math.floor(p * (1.0 - epsilon)) + 1


def greedy_cover(ball: np.ndarray, weights: np.ndarray, epsilon: float,
                 uniform: bool = False) -> CoverResult:
    """Greedy set cover: repeatedly take the ball covering maximal uncovered
    weight (ties to the lowest index) until mass > 1 - epsilon.

    Gains are refreshed lazily: they only ever shrink, so the running
    argmax is re-evaluated until stable, which reproduces exact greedy
    selection with deterministic tie-breaking.
    """
    p = len(weights)
    uncovered = weights.astype(np.float64).copy()
    gains = ball @ uncovered
    chosen = []
    covered_count = 0
    covered_mass = 0.0
    target = 1.0 - epsilon
    needed = _mass_target_count(p, epsilon) if uniform else None
    while True:
        if uniform:
            if covered_count >= needed:
                break
        elif covered_mass > target:
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
    return CoverResult(count=len(chosen), centers=tuple(chosen),
                       covered_mass=covered_mass, method="greedy")


def exact_cover(ball: np.ndarray, weights: np.ndarray,
                epsilon: float) -> CoverResult:
    """Minimum-cardinality cover by exhaustive search (<= 20 points)."""
    p = len(weights)
    if p > EXACT_COVER_MAX_POINTS:
        raise SizingError(
            f"exact cover limited to {EXACT_COVER_MAX_POINTS} points, got {p}")
    masks = []
    for i in range(p):
        m = 0
        for j in range(p):
            if ball[i, j]:
                m |= 1 << j
        masks.append(m)
    wts = [float(w) for w in weights]
    target = 1.0 - epsilon

    def mass(mask: int) -> float:
        total = 0.0
        j = 0
        while mask:
            if mask & 1:
                total += wts[j]
            mask >>= 1
            j += 1
        return total

    for k in range(1, p + 1):
        for combo in itertools.combinations(range(p), k):
            u = 0
            for i in combo:
                u |= masks[i]
            m = mass(u)
            if m > target:
                return CoverResult(count=k, centers=tuple(combo),
                                   covered_mass=m, method="exact")
    raise AssertionError("full cloud fails to cover itself")   # unreachable


def covering_number(cloud: OrbitCloud, n: int, epsilon: float,
                    method: str = "greedy") -> CoverResult:
    """S_n estimate with centers restricted to cloud points."""
    if not 0 < epsilon < 1:
        raise DomainError(f"epsilon must be in (0,1), got {epsilon}")
    if method not in ("greedy", "exact"):
        raise DomainError(f"method must be 'greedy' or 'exact', got {method!r}")
    _, dbar = next(iter(_iter_dbar(cloud, [n])))
    ball = dbar < epsilon
    if method == "exact":
        result = exact_cover(ball, cloud.weights, epsilon)
    else:
        result = greedy_cover(ball, cloud.weights, epsilon, uniform=cloud.uniform)
    assert result.covered_mass > 1 - epsilon - 1e-12
    return result


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileRow:
    n: int
    s_n: int
    method: str
    covered_mass: float


@dataclass(frozen=True)
class Classification:
    kind: str                    # bounded | polynomial | exponential | inconclusive | withheld
    poly_exponent: float | None
    poly_residual: float | None
    exp_rate: float | None       # slope of log S_n on n, with intercept
    exp_residual: float | None
    entropy_rate: float | None   # zero-intercept fit: the (1/n) log S_n readout
    residual_ratio: float | None
    liminf_witness: float        # min over n_list of S_n / n^tau
    tau: float


@dataclass(frozen=True)
class CoveringProfile:
    epsilon: float
    rows: tuple[ProfileRow, ...]
    classification: Classification


def _classify(rows: Sequence[ProfileRow], tau: float) -> Classification:
    s = np.array([r.s_n for r in rows], dtype=np.float64)
    ns = np.array([r.n for r in rows], dtype=np.float64)
    witness = float(np.min(s / ns ** tau))
    if len(rows) < 3:
        return Classification("withheld", None, None, None, None, None, None,
                              witness, tau)
    logs = np.log(s)
    entropy_rate = float(np.sum(ns * logs) / np.sum(ns * ns))
    if rows[-1].s_n == rows[-2].s_n == rows[-3].s_n:
        return Classification("bounded", None, None, None, None, entropy_rate,
                              None, witness, tau)
    a_poly = np.vstack([np.log(ns), np.ones_like(ns)]).T
    a_exp = np.vstack([ns, np.ones_like(ns)]).T
    sol_p, *_ = np.linalg.lstsq(a_poly, logs, rcond=None)
    sol_e, *_ = np.linalg.lstsq(a_exp, logs, rcond=None)
    r_poly = float(np.sum((a_poly @ sol_p - logs) ** 2))
    r_exp = float(np.sum((a_exp @ sol_e - logs) ** 2))
    lo, hi = sorted([r_poly, r_exp])
    ratio = hi / lo if lo > 0 else math.inf
    if ratio <= 1.5:
        kind = "inconclusive"
    elif r_poly < r_exp:
        kind = "polynomial"
    else:
        kind = "exponential"
    return Classification(kind, float(sol_p[0]), r_poly, float(sol_e[0]),
                          r_exp, entropy_rate, ratio, witness, tau)


def complexity_profile(cloud: OrbitCloud, epsilon_list: Sequence[float],
                       n_list: Sequence[int], tau: float = 1.0
                       ) -> list[CoveringProfile]:
    """Greedy S_n over the n-grid for each epsilon, with growth readouts.

    Distance snapshots are accumulated in one ascending pass over n_list
    and shared by all epsilon values.
    """
    eps = [float(e) for e in epsilon_list]
    if any(not 0 < e < 1 for e in eps):
        raise DomainError("every epsilon must lie in (0,1)")
    ns = sorted(set(int(n) for n in n_list))
    if sorted(n_list) != list(n_list):
        raise DomainError("n_list must be ascending")
    rows_per_eps: dict[float, list[ProfileRow]] = {e: [] for e in eps}
    for n, dbar in _iter_dbar(cloud, ns):
        for e in eps:
            ball = dbar < e
            res = greedy_cover(ball, cloud.weights, e, uniform=cloud.uniform)
            assert res.covered_mass > 1 - e - 1e-12
            rows_per_eps[e].append(ProfileRow(n=n, s_n=res.count,
                                              method="greedy",
                                              covered_mass=res.covered_mass))
    return [CoveringProfile(epsilon=e, rows=tuple(rows_per_eps[e]),
                            classification=_classify(rows_per_eps[e], tau))
            for e in eps]


# ---------------------------------------------------------------------------
# Visit-frequency diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VisitFrequencyReport:
    rho_k: float
    rho_e_n: float
    epsilon: float
    n: int
    precondition_ok: bool    # empirical rho(K) > 1 - eps^2
    bound_ok: bool | None    # rho(E_n) < eps, None when the check was skipped


def visit_frequency_check(cloud: OrbitCloud, predicate: Callable, n: int,
                          epsilon: float) -> VisitFrequencyReport:
    """Empirical form of the visit-frequency bound.

    predicate maps a bulk state payload to a boolean membership array.
    E_n collects cloud points whose orbit visits K with frequency at most
    1 - eps over the first n steps; under the mass precondition the
    empirical mass of E_n must fall below eps.
    """
    if not 0 < epsilon < 1:
        raise DomainError(f"epsilon must be in (0,1), got {epsilon}")
    system = cloud.system
    states = cloud.states
    rho_k = float(np.sum(cloud.weights[np.asarray(predicate(states))]))
    visits = np.zeros(cloud.size, dtype=np.int64)
    for _ in range(n):
        visits += np.asarray(predicate(states)).astype(np.int64)
        states = system.step_bulk(states)
    low_frequency = (visits / n) <= (1.0 - epsilon)
    rho_e_n = float(np.sum(cloud.weights[low_frequency]))
    pre_ok = rho_k > 1 - epsilon ** 2
    return VisitFrequencyReport(rho_k=rho_k, rho_e_n=rho_e_n, epsilon=epsilon,
                                n=n, precondition_ok=pre_ok,
                                bound_ok=(rho_e_n < epsilon) if pre_ok else None)


# ---------------------------------------------------------------------------
# Explicit grid cover for the resonant skew product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridCoverReport:
    t: int
    q_t: int
    n_t: int
    lipschitz_l: int
    k_tilde: int
    grid_count: int           # L^2 q_t ([3/eps]+1), the claimed S_{n_t} bound
    certificate_bound: float  # certified dbar bound for arbitrary points
    certificate_ok: bool
    sampled_max_dbar: float
    sampled_ok: bool
    i_subsampled: bool        # True when the i-average was Monte Carlo


def grid_cover_check(cf: ContinuedFraction, res: ResonanceData,
                     h1: FourierCocycle, epsilon: float, c_cert: float,
                     t: int, sample_points: int = 200,
                     i_sample_cap: int = 4096, seed: int = 0
                     ) -> GridCoverReport:
    """Check that the explicit product grid F_t covers the torus by
    dbar_{n_t}-balls of radius eps, where n_t = q_t^{[1/tau]+2}.

    Two independent routes: an analytic certificate averaging the
    block-decomposition chain over i < n_t (valid for every point of the
    torus, using the recorded block-estimate constant c_cert and the
    certified Lipschitz bound of h1), and a random spot check that sampled
    points land within eps of their nearest grid center (the i-average is
    exact when n_t is small, Monte Carlo over i otherwise).
    """
    tau = res.tau
    e_int = int(Fraction(1) / tau)          # [1/tau]
    exponent = float(1 / tau + 2)
    q_t = cf.q(t)
    n_t = q_t ** (e_int + 2)
    l_const = max(math.ceil(3.0 / epsilon), math.ceil(h1.lipschitz_bound()))
    k_tilde = math.floor(3.0 / epsilon) + 1
    grid_count = l_const * l_const * q_t * k_tilde

    # full-spacing distances to the nearest grid center
    dx = 1.0 / (l_const * q_t * k_tilde)
    dy = 1.0 / l_const
    # i = a q_t + b: mean a = (q_t^{e+1}-1)/2, mean b = (q_t-1)/2
    mean_a = (float(q_t) ** (e_int + 1) - 1.0) / 2.0
    mean_b = (q_t - 1) / 2.0
    block_dev = 2.0 * c_cert * math.exp(-exponent * math.log(q_t))
    certificate = (dx + dy + mean_a * block_dev
                   + (mean_b + 1.0) * l_const * dx)
    cert_ok = certificate < epsilon

    rng = np.random.default_rng(seed)
    pts = rng.random((sample_points, 2))
    alpha = cf.alpha
    nx = l_const * q_t * k_tilde
    x_star = np.rint(pts[:, 0] * nx) / nx % 1.0
    y_star = np.rint(pts[:, 1] * l_const) / l_const % 1.0

    subsampled = n_t > i_sample_cap
    if subsampled:
        i_vals = sorted(int(r * n_t) for r in rng.random(256))
    else:
        i_vals = list(range(int(n_t)))
    h_pts = _birkhoff_block(h1, alpha, i_vals, pts[:, 0])
    h_star = _birkhoff_block(h1, alpha, i_vals, x_star)
    dxs = circle_dist(pts[:, 0], x_star)
    dys = circle_dist((pts[:, 1][None, :] + h_pts),
                      (y_star[None, :] + h_star))
    dbar_est = np.mean(np.maximum(dxs[None, :], dys), axis=0)
    worst = float(np.max(dbar_est))
    sampled_ok = worst < epsilon
    return GridCoverReport(t=t, q_t=q_t, n_t=n_t, lipschitz_l=l_const,
                           k_tilde=k_tilde, grid_count=grid_count,
                           certificate_bound=certificate,
                           certificate_ok=cert_ok,
                           sampled_max_dbar=worst, sampled_ok=sampled_ok,
                           i_subsampled=subsampled)


def _birkhoff_block(h1: FourierCocycle, alpha, i_vals: Sequence[int],
                    xs: np.ndarray) -> np.ndarray:
    """H_i(x) for every (i in i_vals, x in xs), shape (len(i_vals), len(xs)).

    Each i incurs one exact reduction of i*alpha mod 1; the geometric
    closed form then runs in floats on the reduced phase, which is ample
    for the spot-check tolerances here.
    """
    from .contfrac import centered_fractional

    ms = np.array([m for m in h1.support if m > 0], dtype=np.int64)
    cs = np.array([h1.coefficients[m] for m in ms], dtype=np.complex128)
    dens = np.array([np.exp(2j * np.pi * float(centered_fractional(alpha, int(m)))) - 1.0
                     for m in ms], dtype=np.complex128)
    e_mx = np.exp(2j * np.pi * ms[:, None] * xs[None, :])
    out = np.empty((len(i_vals), len(xs)), dtype=np.float64)
    mean = h1.mean
    for row, i in enumerate(i_vals):
        if i == 0:
            out[row] = 0.0
            continue
        t_i = float(centered_fractional(alpha, i))
        num = np.exp(2j * np.pi * ms * t_i) - 1.0
        coeff = cs * num / dens
        out[row] = i * mean + 2.0 * (coeff[:, None] * e_mx).real.sum(axis=0)
    return out
