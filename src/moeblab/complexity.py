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
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import truediv
from typing import Iterator, Sequence

import numpy as np

from ._kernels import circle_dist, frac, unit
from .cocycle import FourierCocycle
from .contfrac import ContinuedFraction, ResonanceData, _centered_parts
from .dynamics import SystemInstance
from .errors import DomainError, SizingError, admit

EXACT_COVER_MAX_POINTS = 20
# grid_cover_check averages over every i < n_t up to this n_t, else 256 draws
I_SAMPLE_CAP = 4096
# (i, point) entries a block of grid_cover_check's i-average holds, in cache
GRID_BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# Clouds
# ---------------------------------------------------------------------------

@dataclass
class OrbitCloud:
    """Weighted atoms sampled from a system's invariant (or empirical)
    measure; weights are nonnegative and sum to 1."""

    system: SystemInstance
    states: np.ndarray       # bulk payload, one row per state
    weights: np.ndarray
    provenance: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError("weights must be nonnegative and sum to 1")
        self.weights = w

    @property
    def size(self) -> int:
        return len(self.states)


def sample_cloud(system: SystemInstance, count: int, seed: int) -> OrbitCloud:
    if count < 1:
        raise DomainError(f"a cloud needs at least one sample, got {count}")
    states = system.sample(count, seed)
    return OrbitCloud(system=system, states=states,
                      weights=np.full(count, 1.0 / count),
                      provenance=f"sampled(seed={seed})")


# ---------------------------------------------------------------------------
# Averaged metric
# ---------------------------------------------------------------------------

def dbar_distance(system: SystemInstance, x, y, n: int) -> float:
    """dbar_n(x, y) as the exact average of n step-metric values."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    total = system.metric(x, y)
    for _ in range(n - 1):
        x, y = system.step(x), system.step(y)
        total += system.metric(x, y)
    return total / n


def _ns(n_list: Sequence[int]) -> list[int]:
    """The distinct n of n_list, ascending; each must be positive."""
    ns = sorted(set(int(n) for n in n_list))
    if not ns or ns[0] < 1:
        raise DomainError("n_list must contain positive integers")
    return ns


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
    """Least covered-atom count with count/p > 1 - epsilon (uniform weights);
    p when 1 - epsilon rounds to 1.0."""
    return min(p, math.floor(p * (1.0 - epsilon)) + 1)


def greedy_cover(ball: np.ndarray, weights: np.ndarray,
                 epsilon: float) -> CoverResult:
    """Greedy set cover: repeatedly take the ball covering maximal uncovered
    weight until mass > 1 - epsilon; uniform weights (1/p to 1e-15) stop
    at the exact atom count instead.  A gain is the float64 dot product of a
    ball row with the uncovered weights, summed in BLAS order.  The largest
    float wins and only an exact float tie goes to the lowest index: equal
    atom counts can differ in the last bit, and then the larger float wins.

    Gains are refreshed lazily: they only ever shrink, so the running
    argmax is re-evaluated until stable, which reproduces exact greedy
    selection with deterministic tie-breaking.  The float64 cast of the
    ball, 8 p^2 bytes, is refused past the memory cap before it is made.
    """
    p = len(weights)
    admit(8 * p * p, f"the float64 ball of a greedy cover of {p} states")
    uncovered = weights.astype(np.float64).copy()
    # cast once, not per lazy refresh; C order, so that BLAS sums each gain
    # in one order whatever the layout of `ball`
    ball_f = np.asarray(ball, dtype=np.float64, order="C")
    gains = ball_f @ uncovered
    chosen = []
    covered_count = 0
    covered_mass = 0.0
    target = 1.0 - epsilon
    uniform = bool(np.allclose(weights, 1.0 / p, rtol=0, atol=1e-15))
    needed = _mass_target_count(p, epsilon) if uniform else None
    while True:
        if uniform:
            if covered_count >= needed:
                break
        elif covered_mass > target or not uncovered.any():
            break
        i = int(gains.argmax())
        exact = float(ball_f[i] @ uncovered)
        while True:
            gains[i] = exact
            i2 = int(gains.argmax())
            if i2 == i:
                break
            i = i2
            exact = float(ball_f[i] @ uncovered)
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
    masks = [sum(1 << j for j in range(p) if row[j]) for row in ball]
    wts = [float(w) for w in weights]
    target = 1.0 - epsilon
    for k in range(1, p + 1):
        for combo in itertools.combinations(range(p), k):
            u = 0
            for i in combo:
                u |= masks[i]
            # the covered weights summed in atom order, from 0.0
            m = sum((wts[j] for j in range(p) if u >> j & 1), 0.0)
            if m > target or u == (1 << p) - 1:   # all of the cloud covers it
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
    (_, balls), = cloud.system.dbar_balls(cloud.states, _ns([n]), [epsilon])
    ball = balls[0]
    if method == "exact":
        result = exact_cover(ball, cloud.weights, epsilon)
    else:
        result = greedy_cover(ball, cloud.weights, epsilon)
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
    exp_rate: float | None       # slope of log S_n on n, with intercept
    entropy_rate: float | None   # zero-intercept fit: the (1/n) log S_n readout
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
        return Classification("withheld", None, None, None, witness, tau)
    logs = np.log(s)
    entropy_rate = float(np.sum(ns * logs) / np.sum(ns * ns))
    if rows[-1].s_n == rows[-2].s_n == rows[-3].s_n:
        return Classification("bounded", None, None, entropy_rate, witness,
                              tau)
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
    return Classification(kind, float(sol_p[0]), float(sol_e[0]),
                          entropy_rate, witness, tau)


def complexity_profile(cloud: OrbitCloud, epsilon_list: Sequence[float],
                       n_list: Sequence[int], tau: float = 1.0
                       ) -> list[CoveringProfile]:
    """Greedy S_n over the n-grid for each epsilon, with growth readouts.

    The balls of every epsilon come from one ascending pass over n_list
    (`dbar_balls`); each n's are dropped before the next n's are built.
    An n's bool balls and `greedy_cover`'s float64 cast of one of them are
    live together, (len(eps) + 8) p^2 bytes, refused past the cap first.
    """
    eps = [float(e) for e in epsilon_list]
    if any(not 0 < e < 1 for e in eps):
        raise DomainError("every epsilon must lie in (0,1)")
    ns = _ns(n_list)
    if sorted(n_list) != list(n_list):
        raise DomainError("n_list must be ascending")
    p = cloud.size
    admit((len(eps) + 8) * p * p,
          f"the balls and greedy cast of a covering profile of {p} states")
    rows_per_eps: dict[float, list[ProfileRow]] = {e: [] for e in eps}
    for n, balls in cloud.system.dbar_balls(cloud.states, ns, eps):
        for k, e in enumerate(eps):
            res = greedy_cover(balls[k], cloud.weights, e)
            assert res.covered_mass > 1 - e - 1e-12
            rows_per_eps[e].append(ProfileRow(n=n, s_n=res.count,
                                              method="greedy",
                                              covered_mass=res.covered_mass))
        del balls
    return [CoveringProfile(epsilon=e, rows=tuple(rows_per_eps[e]),
                            classification=_classify(rows_per_eps[e], tau))
            for e in eps]


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
                     t: int, sample_points: int = 200, seed: int = 0
                     ) -> GridCoverReport:
    """Check that the explicit product grid F_t covers the torus by
    dbar_{n_t}-balls of radius eps, where n_t = q_t^{[1/tau]+2}.

    Two independent routes: an analytic certificate averaging the
    block-decomposition chain over i < n_t (valid for every point of the
    torus, using the recorded block-estimate constant c_cert and the
    certified Lipschitz bound of h1), and a random spot check that sampled
    points land within eps of their nearest grid center (the i-average is
    exact for n_t <= I_SAMPLE_CAP, Monte Carlo over i otherwise).  Both
    read n_t as a float, so an n_t of 1024 bits or more is refused with
    `SizingError` before any conversion.

    The spot check streams the i-average in blocks of about GRID_BLOCK
    (i, point) entries, and adds each i's distances to one running
    per-point total in ascending i.  That is the order in which np.mean
    sums a matrix's columns for two or more points, so those reports are
    bit-for-bit those of the full matrix.  For a single point np.mean
    would sum pairwise, and `sampled_max_dbar` can differ from it in the
    last bits.  The working set, from sample_points, the block and the
    support of h1, is refused past the memory cap before any point is
    drawn; fewer than one sample point is refused with `DomainError`.
    """
    if sample_points < 1:
        raise DomainError(
            f"grid cover needs at least one sample point, got {sample_points}")
    tau = res.tau
    e_int = int(Fraction(1) / tau)          # [1/tau]
    exponent = float(1 / tau + 2)
    q_t = cf.q(t)
    n_t = q_t ** (e_int + 2)
    # the certificate and the draws of i below read q_t and n_t as floats
    if n_t.bit_length() >= sys.float_info.max_exp:
        raise SizingError(
            f"grid cover at t={t}: n_t = q_t^{e_int + 2} has "
            f"{n_t.bit_length()} bits, beyond a float "
            f"({sys.float_info.max_exp - 1} bits at most)")
    rows = max(1, GRID_BLOCK // sample_points)
    frequencies = sum(1 for m in h1.support if m > 0)
    # complex: two e(m x) tables and one row's terms; float: ten block
    # matrices and ten per-point vectors
    admit(16 * 3 * frequencies * sample_points
          + 80 * (rows + 1) * sample_points,
          f"a grid cover of {sample_points} points")
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
    nx = l_const * q_t * k_tilde
    x_star = frac(np.rint(pts[:, 0] * nx) / nx)
    y_star = frac(np.rint(pts[:, 1] * l_const) / l_const)

    subsampled = n_t > I_SAMPLE_CAP
    if subsampled:
        i_vals = sorted(int(r * n_t) for r in rng.random(256))
    else:
        i_vals = list(range(int(n_t)))
    dxs = circle_dist(pts[:, 0], x_star)
    total = np.zeros(sample_points)
    for h_pts, h_star in _birkhoff_blocks(h1, cf.alpha, i_vals,
                                          (pts[:, 0], x_star), rows):
        dys = circle_dist(pts[:, 1] + h_pts, y_star + h_star)
        for dist in np.maximum(dxs, dys):
            total += dist
    dbar_est = total / len(i_vals)
    worst = float(np.max(dbar_est))
    sampled_ok = worst < epsilon
    return GridCoverReport(t=t, q_t=q_t, n_t=n_t, lipschitz_l=l_const,
                           k_tilde=k_tilde, grid_count=grid_count,
                           certificate_bound=certificate,
                           certificate_ok=cert_ok,
                           sampled_max_dbar=worst, sampled_ok=sampled_ok,
                           i_subsampled=subsampled)


def _birkhoff_blocks(h1: FourierCocycle, alpha, i_vals: Sequence[int],
                     point_sets: Sequence[np.ndarray], rows: int
                     ) -> Iterator[list[np.ndarray]]:
    """H_i(x) for i in i_vals and x in each of point_sets, in blocks of
    `rows` consecutive i_vals: per block, one (len(block), len(xs)) array
    for each set, in the order of point_sets.

    The per-frequency setup (ms, cs, the exact dens and e(m x)) is built
    once.  Each i incurs one exact reduction of i*alpha mod 1, shared by
    every point set; the geometric closed form then runs in floats on the
    reduced phase, which is ample for the spot-check tolerances here.  The
    phase is `u / den` of the unreduced pair from `_centered_parts`,
    correctly rounded, hence equal to float(centered_fractional(alpha, i)).
    """
    ms = np.array([m for m in h1.support if m > 0], dtype=np.int64)
    cs = np.array([h1.coefficients[m] for m in ms], dtype=np.complex128)
    dens = np.array([unit(1, truediv(*_centered_parts(alpha, int(m)))) - 1.0
                     for m in ms], dtype=np.complex128)
    e_mxs = [unit(ms[:, None], xs[None, :]) for xs in point_sets]
    mean = h1.mean
    for r0 in range(0, len(i_vals), rows):
        block = i_vals[r0:r0 + rows]
        outs = [np.empty((len(block), e_mx.shape[1])) for e_mx in e_mxs]
        for row, i in enumerate(block):
            if i == 0:
                for out in outs:
                    out[row] = 0.0
                continue
            t_i = truediv(*_centered_parts(alpha, i))
            coeff = cs * (unit(ms, t_i) - 1.0) / dens
            for out, e_mx in zip(outs, e_mxs):
                out[row] = (i * mean
                            + 2.0 * (coeff[:, None] * e_mx).real.sum(axis=0))
        yield outs
