"""Concrete systems: rotations, torus skew products, group skews, shifts.

Every system packages an iteration step, a metric, and a seeded sampler of
an invariant measure, in both scalar and vectorised (bulk) form.  Bulk
states are the system's own payload: an (P,) array of circle positions, an
(P, 2) array on the torus, an (int array, float array) pair on G x T^1
with G = Z/q, or a (symbol matrix, position) pair for shifts.

Samplers draw Haar measure where it is invariant by fibered structure
(always, for skews over rotations) and fall back to Birkhoff sampling
along a long orbit when a descriptor asks for the empirical-measure
reading (burn-in 10^4, stride 7).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cocycle import FourierCocycle, circle_dist, cocycle_from_pairs
from .contfrac import ExactAlpha, RationalAlpha, ZeroAlpha, parse_alpha
from .errors import ConjugacyError, DomainError

ORBIT_BURN_IN = 10 ** 4
ORBIT_STRIDE = 7
MAX_ALPHABET = 16


def circle_dist_matrix(xs: np.ndarray) -> np.ndarray:
    """Pairwise ||x_i - x_j|| on the circle for a vector of positions."""
    d = np.abs(xs[:, None] - xs[None, :])
    return np.minimum(d, 1.0 - d)


@dataclass
class SystemInstance:
    """A state space with iteration map, metric, and invariant sampler."""

    kind: str
    descriptor: dict
    alpha: ExactAlpha | None = None
    h: FourierCocycle | None = None
    rational_alpha_warning: bool = False
    _scalar_step: Callable = None
    _scalar_metric: Callable = None
    _bulk_sample: Callable = None
    _bulk_step: Callable = None
    _bulk_metric: Callable = None
    horizon: int | None = None

    # -- scalar API -------------------------------------------------------
    def step(self, state):
        return self._scalar_step(state)

    def metric(self, s, t) -> float:
        return float(self._scalar_metric(s, t))

    # -- bulk API (used by the covering machinery) ------------------------
    def sample(self, count: int, seed: int):
        """Bulk payload of `count` invariant-measure samples."""
        return self._bulk_sample(count, seed)

    def step_bulk(self, states):
        return self._bulk_step(states)

    def pairwise_distance(self, states) -> np.ndarray:
        return self._bulk_metric(states)

    def bulk_size(self, states) -> int:
        if self.kind == "shift":
            return states[0].shape[0]
        if self.kind == "group_skew" and isinstance(states, tuple):
            return states[0].shape[0]
        return np.asarray(states).shape[0]

    def states_list(self, states) -> list:
        """Bulk payload as a list of scalar states."""
        if self.kind == "shift":
            mat, pos = states
            return [(mat[i], pos) for i in range(mat.shape[0])]
        if self.kind == "group_skew" and isinstance(states, tuple):
            g, y = states
            return [(int(g[i]), float(y[i])) for i in range(len(g))]
        arr = np.asarray(states)
        return [arr[i].copy() if arr.ndim > 1 else float(arr[i])
                for i in range(arr.shape[0])]

    def bulk_from_list(self, items: Sequence):
        if self.kind == "shift":
            pos = items[0][1]
            if any(p != pos for (_, p) in items):
                raise DomainError("shift states must share a common position")
            return (np.stack([m for (m, _) in items]), pos)
        if self.kind == "group_skew" and self.descriptor.get("group") != "circle":
            return (np.array([g for (g, _) in items], dtype=np.int64),
                    np.array([y for (_, y) in items], dtype=np.float64))
        return np.asarray(items, dtype=np.float64)


# ---------------------------------------------------------------------------
# Builders per kind
# ---------------------------------------------------------------------------

def _alpha_float(alpha: ExactAlpha) -> float:
    return alpha.as_float()


def _make_rotation(descriptor: dict) -> SystemInstance:
    alpha = parse_alpha(descriptor["alpha"])
    a = _alpha_float(alpha)
    warn = isinstance(alpha, (RationalAlpha, ZeroAlpha))
    if warn:
        warnings.warn("rational alpha: rotation is periodic; the disjointness "
                      "theorems here assume irrational alpha")

    def sampler(count, seed):
        return np.random.default_rng(seed).random(count)

    sys = SystemInstance(
        kind="rotation", descriptor=descriptor, alpha=alpha,
        rational_alpha_warning=warn,
        _scalar_step=lambda x: (x + a) % 1.0,
        _scalar_metric=lambda x, y: float(circle_dist(x, y)),
        _bulk_sample=sampler,
        _bulk_step=lambda xs: np.mod(xs + a, 1.0),
        _bulk_metric=circle_dist_matrix,
    )
    return sys


def _torus_metric_matrix(states: np.ndarray) -> np.ndarray:
    dx = circle_dist_matrix(states[:, 0])
    dy = circle_dist_matrix(states[:, 1])
    return np.maximum(dx, dy)


def _make_skew2(descriptor: dict) -> SystemInstance:
    alpha = parse_alpha(descriptor["alpha"])
    a = _alpha_float(alpha)
    h = _h_from_descriptor(descriptor)
    warn = isinstance(alpha, (RationalAlpha, ZeroAlpha))
    if warn:
        warnings.warn("rational alpha in a skew product: outside the scope "
                      "of the irrational-rotation results")

    def scalar_step(state):
        x, y = state
        return np.array([(x + a) % 1.0, (y + h.evaluate(x)) % 1.0])

    def bulk_step(states):
        out = np.empty_like(states)
        out[:, 0] = np.mod(states[:, 0] + a, 1.0)
        out[:, 1] = np.mod(states[:, 1] + h.evaluate(states[:, 0]), 1.0)
        return out

    def sampler(count, seed):
        if descriptor.get("sampler") == "orbit":
            return _orbit_bulk_sample(scalar_step, bulk_step,
                                      descriptor, count)
        return np.random.default_rng(seed).random((count, 2))

    return SystemInstance(
        kind="skew2", descriptor=descriptor, alpha=alpha, h=h,
        rational_alpha_warning=warn,
        _scalar_step=scalar_step,
        _scalar_metric=lambda s, t: float(max(circle_dist(s[0], t[0]),
                                              circle_dist(s[1], t[1]))),
        _bulk_sample=sampler,
        _bulk_step=bulk_step,
        _bulk_metric=_torus_metric_matrix,
    )


def _orbit_bulk_sample(scalar_step, bulk_step, descriptor, count):
    """Birkhoff sampling along one orbit: burn in, then stride."""
    x0 = np.asarray(descriptor.get("x0", [0.1, 0.2]), dtype=np.float64)
    burn = int(descriptor.get("burn_in", ORBIT_BURN_IN))
    stride = int(descriptor.get("stride", ORBIT_STRIDE))
    state = x0.copy()
    for _ in range(burn):
        state = scalar_step(state)
    out = np.empty((count,) + state.shape)
    for i in range(count):
        out[i] = state
        for _ in range(stride):
            state = scalar_step(state)
    return out


def _make_group_skew(descriptor: dict) -> SystemInstance:
    group = descriptor.get("group", "circle")
    if group == "circle":
        sys = _make_skew2(descriptor)
        sys.kind = "group_skew"
        return sys
    q = int(group["q"]) if isinstance(group, dict) else int(group)
    if q < 1:
        raise DomainError(f"cyclic group order must be >= 1, got {q}")
    a = int(descriptor["a"]) % q
    if math.gcd(a, q) != 1:
        warnings.warn(f"a={a} does not generate Z/{q}: rotation not minimal")
    h = _h_from_descriptor(descriptor)
    h_table = h.evaluate(np.arange(q) / q)   # h sampled on the group points

    def scalar_step(state):
        g, y = state
        return ((g + a) % q, (y + h_table[g]) % 1.0)

    def bulk_step(states):
        g, y = states
        return ((g + a) % q, np.mod(y + h_table[g], 1.0))

    def metric_matrix(states):
        g, y = states
        dg = circle_dist_matrix(g / q)
        dy = circle_dist_matrix(y)
        return np.maximum(dg, dy)

    def sampler(count, seed):
        rng = np.random.default_rng(seed)
        return (rng.integers(0, q, count), rng.random(count))

    return SystemInstance(
        kind="group_skew", descriptor=descriptor, h=h,
        _scalar_step=scalar_step,
        _scalar_metric=lambda s, t: float(max(circle_dist(s[0] / q, t[0] / q),
                                              circle_dist(s[1], t[1]))),
        _bulk_sample=sampler,
        _bulk_step=bulk_step,
        _bulk_metric=metric_matrix,
    )


def _make_shift(descriptor: dict) -> SystemInstance:
    weights = np.asarray(descriptor["weights"], dtype=np.float64)
    if len(weights) > MAX_ALPHABET:
        raise DomainError(f"alphabet size {len(weights)} exceeds {MAX_ALPHABET}")
    if abs(weights.sum() - 1.0) > 1e-12 or np.any(weights < 0):
        raise DomainError("Bernoulli weights must be nonnegative and sum to 1")
    horizon = int(descriptor.get("horizon", 64))

    def shift_metric(s, t):
        (m1, p1), (m2, p2) = s, t
        pos = p1
        if p1 != p2:
            raise DomainError("shift metric needs states at a common position")
        w1, w2 = m1[pos:], m2[pos:]
        diff = np.nonzero(w1 != w2)[0]
        if len(diff) == 0:
            return 2.0 ** -(len(w1))   # agree through the horizon
        return 2.0 ** -int(diff[0])

    def sampler(count, seed):
        rng = np.random.default_rng(seed)
        mat = rng.choice(len(weights), size=(count, horizon),
                         p=weights).astype(np.int8)
        return (mat, 0)

    def bulk_step(states):
        mat, pos = states
        if pos + 1 >= mat.shape[1]:
            raise DomainError(f"shift horizon {mat.shape[1]} exhausted")
        return (mat, pos + 1)

    def metric_matrix(states):
        mat, pos = states
        window = mat[:, pos:]
        p, w = window.shape
        # distance 2^-(first differing offset); right-to-left recurrence
        val = np.full((p, p), 2.0 ** -w)
        for j in range(w - 1, -1, -1):
            diff = window[:, j][:, None] != window[:, j][None, :]
            val = np.where(diff, 2.0 ** -j, val)
        return val

    return SystemInstance(
        kind="shift", descriptor=descriptor, horizon=horizon,
        _scalar_step=lambda s: (s[0], s[1] + 1),
        _scalar_metric=shift_metric,
        _bulk_sample=sampler,
        _bulk_step=bulk_step,
        _bulk_metric=metric_matrix,
    )


def _h_from_descriptor(descriptor: dict) -> FourierCocycle:
    h_spec = descriptor.get("h", [])
    if isinstance(h_spec, FourierCocycle):
        return h_spec
    tau = descriptor.get("tau", 1)
    pairs = [(int(m), complex(re, im)) for (m, re, im) in h_spec]
    return cocycle_from_pairs(pairs, tau=tau)


_BUILDERS = {
    "rotation": _make_rotation,
    "skew2": _make_skew2,
    "skew": _make_skew2,
    "group_skew": _make_group_skew,
    "shift": _make_shift,
}


_REQUIRED_FIELDS = {
    "rotation": ("alpha",),
    "skew2": ("alpha",),
    "skew": ("alpha",),
    "group_skew": (),
    "shift": ("weights",),
}


def make_system(descriptor: dict) -> SystemInstance:
    """Build a system from a descriptor such as
    {"kind": "skew2", "alpha": "sqrt2-1", "h": [[m, re, im], ...]}.
    """
    kind = descriptor.get("kind")
    if kind not in _BUILDERS:
        raise DomainError(
            f"unknown system kind {kind!r}; expected one of {sorted(_BUILDERS)}")
    for name in _REQUIRED_FIELDS[kind]:
        if name not in descriptor:
            raise DomainError(
                f"system descriptor of kind {kind!r} is missing field {name!r}")
    if kind == "group_skew":
        group = descriptor.get("group", "circle")
        needed = ("alpha",) if group == "circle" else ("a",)
        for name in needed:
            if name not in descriptor:
                raise DomainError(
                    f"group_skew descriptor is missing field {name!r}")
    return _BUILDERS[kind](dict(descriptor))


# ---------------------------------------------------------------------------
# Function-family metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionFamilyMetric:
    """d'(x,y) = sum_l |g_l(x) - g_l(y)| / (2^l (2||g_l|| + 1)), truncated."""

    functions: tuple[Callable, ...]
    norms: tuple[float, ...]
    truncation_slack: float

    def __call__(self, x, y) -> float:
        total = 0.0
        for ell, (g, norm) in enumerate(zip(self.functions, self.norms), start=1):
            total += abs(g(x) - g(y)) / (2 ** ell * (2 * norm + 1))
        return total


def function_family_metric(functions: Sequence[Callable],
                           l_max: int | None = None,
                           norms: Sequence[float] | None = None,
                           norm_grid: int = 4096) -> FunctionFamilyMetric:
    """Truncated separating-family metric from continuous functions.

    Sup-norms may be supplied; otherwise they are estimated on a circle
    grid (adequate for the trigonometric families used here).  The
    truncation slack sum_{l > L} 2^-l = 2^-L is recorded.
    """
    fns = tuple(functions)[: l_max if l_max else None]
    if not fns:
        raise DomainError("need at least one function")
    if norms is None:
        xs = np.arange(norm_grid) / norm_grid
        norms = tuple(float(np.max(np.abs([g(x) for x in xs]))) for g in fns)
    else:
        norms = tuple(float(v) for v in norms)
    return FunctionFamilyMetric(functions=fns, norms=norms,
                                truncation_slack=2.0 ** -len(fns))


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------

def conjugate_system(system: SystemInstance, pi: Callable, pi_inverse: Callable,
                     new_metric: Callable | None = None,
                     check_samples: int = 200, seed: int = 0,
                     tol: float = 1e-9) -> SystemInstance:
    """System with step' = pi o step o pi^{-1}, sampler pushed forward.

    pi and pi_inverse must act on bulk state arrays and be mutually inverse
    on sampled states to within `tol` (checked, else ConjugacyError).  The
    metric is supplied independently or inherited.
    """
    probe = system.sample(check_samples, seed)
    round_trip = pi_inverse(pi(probe))
    d_pair = _max_pointwise_distance(system, probe, round_trip)
    probe2 = pi(probe)
    round_trip2 = pi(pi_inverse(probe2))
    d_pair2 = _max_pointwise_distance(system, probe2, round_trip2)
    resid = max(d_pair, d_pair2)
    if resid > tol:
        raise ConjugacyError(
            f"pi and pi_inverse fail to invert within {tol} (residual {resid:.3g})")

    metric_matrix = new_metric if new_metric is not None else system._bulk_metric

    conj = SystemInstance(
        kind=system.kind, descriptor={**system.descriptor, "conjugated": True},
        alpha=system.alpha, h=system.h,
        rational_alpha_warning=system.rational_alpha_warning,
        _scalar_step=lambda s: pi(system._bulk_step(
            pi_inverse(np.asarray(s)[None, ...])))[0],
        _scalar_metric=system._scalar_metric,
        _bulk_sample=lambda n, sd: pi(system._bulk_sample(n, sd)),
        _bulk_step=lambda arr: pi(system._bulk_step(pi_inverse(arr))),
        _bulk_metric=metric_matrix,
    )
    return conj


def _max_pointwise_distance(system: SystemInstance, a, b) -> float:
    la, lb = system.states_list(a), system.states_list(b)
    return max(system.metric(x, y) for x, y in zip(la, lb))


def factor_map_residual(src: SystemInstance, dst: SystemInstance,
                        pi_map: Callable, sample_count: int = 1000,
                        seed: int = 0) -> float:
    """Max over samples of d(pi(T s), T_dst(pi s)): the intertwining defect."""
    states = src.sample(sample_count, seed)
    lhs = pi_map(src.step_bulk(states))
    rhs = dst.step_bulk(pi_map(states))
    return _max_pointwise_distance(dst, lhs, rhs)
