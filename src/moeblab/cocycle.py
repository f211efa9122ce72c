"""Fourier cocycles, coboundary splits, and Birkhoff-sum block estimates.

A cocycle h on the circle is carried as a finite coefficient map
m -> hhat(m) with the smoothness hypothesis replaced by the checkable
envelope |hhat(m)| <= C |m|^{-tau1}, tau1 = 2/tau + 6.  Splitting h along
the resonance set M gives h = h1 + (psi o R_alpha - psi) with

    psi(x) = sum_{m not in M u {0}} hhat(m) e(mx) / (e(m alpha) - 1),

whose denominators stay away from zero by the small-denominator case
analysis (either q_k does not divide m, giving ||m alpha|| >= 1/(2|m|),
or m = j q_k at a non-resonant level, giving ||m alpha|| >= j/(q_k+q_{k+1})).

All phases e(m alpha), and e(m n alpha) inside Birkhoff sums, are reduced
mod 1 by exact rational arithmetic before any floating evaluation, so a
phase that is tiny-but-nonzero never degrades into trig noise near 2*pi.
"""

from __future__ import annotations

import bisect
import cmath
import copy
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from ._kernels import frac, twice_re
from .contfrac import (ContinuedFraction, ExactAlpha, ResonanceData,
                       MAX_BITS, _centered_parts, _norm_parts, _split_parts)
from .errors import DomainError, ParameterError, ResonanceError, _rational, admit

ENVELOPE_SLACK = 1 + 1e-9


def tau1_exponent(tau: Fraction | float) -> Fraction:
    return 2 / _rational(tau, "tau") + 6


def e_minus_one_exact(alpha: ExactAlpha, m: int) -> complex:
    """e(m*alpha) - 1 with an exactly reduced phase (m may be a huge
    integer, such as a frequency times a Birkhoff length).

    `_e_minus_one` of the unreduced pair t = u/den of `_centered_parts`,
    which is exactly 0 only when m*alpha is an exact integer: `u / den` is
    correctly rounded, so it equals float(centered_fractional(alpha, m)).
    """
    return _e_minus_one(*_centered_parts(alpha, m))


def _e_minus_one(u: int, den: int) -> complex:
    """e(t) - 1 for the centered fractional part t = u/den, as
    2i sin(pi t) e^{i pi t}, which keeps full relative accuracy when t is
    tiny; exactly 0 only when u = 0."""
    if u == 0:
        return 0j
    tf = u / den
    return 2j * math.sin(math.pi * tf) * cmath.exp(1j * math.pi * tf)


# ---------------------------------------------------------------------------
# Cocycle data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierCocycle:
    """Real-valued trigonometric data: finite map m -> hhat(m).

    Conjugate symmetry hhat(-m) = conj(hhat(m)) is enforced so evaluations
    are real; coefficients must respect |hhat(m)| <= C |m|^{-tau1}.
    """

    coefficients: Mapping[int, complex]
    decay_constant: float
    tau: Fraction

    def __post_init__(self):
        coeffs = dict(self.coefficients)
        t1 = float(self.tau1)
        for m, c in coeffs.items():
            conj = coeffs.get(-m)
            if conj is None or abs(conj - complex(c).conjugate()) > 1e-12:
                raise DomainError(
                    f"conjugate symmetry fails at m={m}: hhat(-m) != conj(hhat(m))")
            if m != 0 and abs(c) > self.decay_constant * abs(m) ** (-t1) * ENVELOPE_SLACK:
                raise DomainError(
                    f"|hhat({m})| = {abs(c):.3g} violates the decay envelope "
                    f"C|m|^-tau1 = {self.decay_constant * abs(m) ** (-t1):.3g}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def tau1(self) -> Fraction:
        return tau1_exponent(self.tau)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coefficients))

    @property
    def mean(self) -> float:
        """hhat(0), the space average of h."""
        return complex(self.coefficients.get(0, 0.0)).real

    def lipschitz_bound(self) -> float:
        """sum 2 pi |m| |hhat(m)|, an upper bound for the Lipschitz constant."""
        return sum(2 * math.pi * abs(m) * abs(c)
                   for m, c in self.coefficients.items())

    def evaluate(self, x):
        """h(x) for scalar or ndarray x, exactly real via the m>0 half-sum."""
        x = np.asarray(x, dtype=np.float64)
        total = np.full(x.shape, self.mean, dtype=np.float64)
        for m, c in self.coefficients.items():
            if m > 0:
                total += twice_re(c, m, x)
        return total if total.shape else float(total)

    def restrict(self, keep: Callable[[int], bool]) -> "FourierCocycle":
        """The coefficients at the frequencies `keep` selects.  They are
        already checked, so only the symmetry of the selection is."""
        kept = {m: c for m, c in self.coefficients.items() if keep(m)}
        for m in kept:
            if -m not in kept:
                raise DomainError(f"restriction keeps m={m} but not -m")
        out = copy.copy(self)
        object.__setattr__(out, "coefficients", kept)
        return out


def cocycle_from_pairs(pairs: Iterable[tuple[int, complex]],
                       tau: Fraction | float = 1,
                       decay_constant: float | None = None) -> FourierCocycle:
    """Build a cocycle from (m, hhat(m)) pairs, symmetrising from m >= 0.

    Missing negative frequencies are filled in by conjugation.  When no
    envelope constant is supplied, the smallest valid one is computed.
    """
    tau = _rational(tau, "tau")
    coeffs: dict[int, complex] = {}
    for m, c in pairs:
        coeffs[int(m)] = complex(c)
    for m in list(coeffs):
        if -m not in coeffs:
            coeffs[-m] = coeffs[m].conjugate()
    if decay_constant is None:
        t1 = float(tau1_exponent(tau))
        decay_constant = max((abs(c) * abs(m) ** t1
                              for m, c in coeffs.items() if m != 0), default=1.0)
        decay_constant = max(decay_constant, 1e-300)
    return FourierCocycle(coeffs, float(decay_constant), tau)


def envelope_cocycle(freq_bound: int, decay_constant: float = 1.0,
                     tau: Fraction | float = 1) -> FourierCocycle:
    """The extremal real even cocycle hhat(m) = C |m|^{-tau1} on |m| <= bound,
    with mean 0.  Its coefficients and a split's copy of them (590 bytes a
    unit of the bound measured) are refused past the memory cap first."""
    tau = _rational(tau, "tau")
    admit(600 * freq_bound, f"an envelope cocycle of bound {freq_bound}")
    t1 = float(tau1_exponent(tau))
    coeffs = {0: 0j}
    for m in range(1, freq_bound + 1):
        c = decay_constant * m ** (-t1)
        coeffs[m] = complex(c)
        coeffs[-m] = complex(c)
    return FourierCocycle(coeffs, decay_constant, tau)


# ---------------------------------------------------------------------------
# Coboundary split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailCaseRow:
    """Small-denominator classification of one tail frequency m."""

    m: int
    case: int              # 1: q_k does not divide m; 2: m = j q_k, k not in E
    level: int             # the k with q_k <= |m| < q_{k+1}
    norm_lower_bound: Fraction
    certified: bool


@dataclass(frozen=True)
class CocycleSplit:
    """h = h1 + (psi o R_alpha - psi) with h1 carried on M u {0}."""

    h1: FourierCocycle
    tail: FourierCocycle
    alpha: ExactAlpha
    resonance: ResonanceData
    psi_coefficients: Mapping[int, complex]    # the tail's m > 0 only
    case_rows: tuple[TailCaseRow, ...]

    def psi(self, x):
        """psi(x) for scalar or ndarray x."""
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros(x.shape, dtype=np.float64)
        for m, c in self.psi_coefficients.items():
            total += twice_re(c, m, x)
        return total if total.shape else float(total)


def split_cocycle(h: FourierCocycle, res: ResonanceData) -> CocycleSplit:
    """Partition h into the resonant part h1 (support in M u {0}) and the
    coboundary tail, with the psi series built on the tail.

    Each frequency m > 0 walks the precision ladder once (`_split_parts`)
    for both the centered phase of psi's denominator and the near end of
    ||m alpha|| that its case row certifies.  Raises ResonanceError when a
    tail frequency satisfies e(m alpha) = 1 exactly (rational alpha), and
    refuses supports at or beyond the last computed convergent
    denominator, where the case analysis is blind.
    """
    alpha = res.alpha
    m_set = res.M
    top_q = res.qs[-1]
    support = [m for m in h.support if m != 0]
    if any(abs(m) > res.truncation_bound for m in support):
        raise ParameterError(
            "cocycle support exceeds the resonance truncation bound "
            f"{res.truncation_bound}")
    rational = alpha.is_rational
    if not rational and support and max(abs(m) for m in support) >= top_q:
        raise ParameterError(
            f"support reaches q_{{K+1}} = {top_q}; expand alpha deeper to "
            "classify all tail frequencies")

    h1 = h.restrict(lambda m: m == 0 or m in m_set)
    tail = h.restrict(lambda m: m != 0 and m not in m_set)

    psi_coeffs: dict[int, complex] = {}
    rows = []
    e_set = set(res.E)
    for m in tail.support:
        if m < 0:
            continue          # h is real, so psi reads the m > 0 half only
        centered, near = _split_parts(alpha, m)
        den = _e_minus_one(*centered)
        if den == 0:
            raise ResonanceError(
                f"e({m}*alpha) = 1 exactly; {m}*alpha is an integer and the "
                "coboundary series is undefined at this frequency")
        psi_coeffs[m] = tail.coefficients[m] / den
        if not rational:
            # the two-case small-denominator diagnostic needs the infinite
            # expansion; rational alpha has exact norms and no case split
            rows.append(_classify_tail(alpha, res, e_set, m, near))

    return CocycleSplit(h1=h1, tail=tail, alpha=alpha, resonance=res,
                        psi_coefficients=psi_coeffs, case_rows=tuple(rows))


def _classify_tail(alpha: ExactAlpha, res: ResonanceData, e_set: set[int],
                   m: int, near: tuple[int, int]) -> TailCaseRow:
    """The case row of tail frequency m.  `near` is the unreduced near end
    of `_norm_parts(alpha, m)`'s first yield."""
    qs = res.qs
    k = bisect.bisect_right(qs, m)   # last level with q_k <= m
    qk = qs[k - 1]
    if m % qk != 0:
        lower = (1, 2 * m)
        case = 1
    else:
        j = m // qk
        assert k not in e_set or j > res.a(k)   # else m would be in M
        lower = (j, qk + (qs[k] if k < len(qs) else qk))
        case = 2
    # ||m alpha|| >= lower, by cross-multiplication on the unreduced end
    num, den = near
    certified = num * lower[1] >= lower[0] * den
    if case == 1 and not certified:
        # the claim is unconditional; failure here means the enclosure is
        # too loose, so refine once at top precision before giving up
        num, den = next(_norm_parts(alpha, m, bits=MAX_BITS))[0]
        certified = num * lower[1] >= lower[0] * den
    # positional: a frozen dataclass takes keywords slower, once per tail m
    return TailCaseRow(m, case, k, Fraction(*lower), certified)


def coboundary_residual(split: CocycleSplit, h: FourierCocycle,
                        xs: np.ndarray) -> float:
    """max over xs of |psi(x + alpha) - psi(x) - (h(x) - h1(x))|."""
    alpha_f = split.alpha.as_float()
    lhs = split.psi(frac(xs + alpha_f)) - split.psi(xs)
    rhs = h.evaluate(xs) - split.h1.evaluate(xs)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Birkhoff sums
# ---------------------------------------------------------------------------

def birkhoff_deviation_grid(h1: FourierCocycle, alpha: ExactAlpha, n: int,
                            grid_size: int) -> tuple[float, float]:
    """(sup-bound, grid-max) of |H_n(x) - n hhat(0)| over the circle.

    The x-grid maximum is topped up with the Lipschitz slack
    sum 2 pi |m| |c_m| / (2 grid_size) of the deviation's own coefficients,
    turning the grid scan into a certified sup bound.
    """
    xs = np.arange(grid_size) / grid_size
    total = np.zeros(grid_size, dtype=np.float64)
    lip = 0.0
    for m in h1.support:
        if m <= 0:
            continue
        den = e_minus_one_exact(alpha, m)
        if den == 0:
            raise ResonanceError(f"resonant frequency m={m} for this alpha")
        c = h1.coefficients[m] * e_minus_one_exact(alpha, m * n) / den
        total += twice_re(c, m, xs)
        lip += 2 * (2 * math.pi * abs(m) * abs(c))
    grid_max = float(np.max(np.abs(total)))
    return grid_max + lip / (2 * grid_size), grid_max


@dataclass(frozen=True)
class BlockEstimateRow:
    t: int
    q_t: int
    deviation_sup: float     # certified sup_x |H_{q_t}(x) - q_t hhat(0)|
    deviation_grid: float
    bound_power: float       # q_t^{-(1/tau + 2)}
    ratio: float


def block_estimate_check(h1: FourierCocycle, cf: ContinuedFraction,
                         res: ResonanceData,
                         grid_size: int = 512) -> list[BlockEstimateRow]:
    """Deviation of H_{q_t} from q_t hhat(0) against q_t^{-(1/tau+2)}, t in E.

    The ratio column is reported, never asserted: the implied constant is
    whatever the fixture exhibits, and the point is that it stays bounded
    across the observed resonant indices.
    """
    if grid_size < 256:
        raise ParameterError(f"grid_size must be >= 256, got {grid_size}")
    if not res.E:
        warnings.warn("resonance set E is empty within the computed depth; "
                      "no block estimates to check")
        return []
    exponent = float(1 / res.tau + 2)
    rows = []
    for t in res.E:
        q_t = cf.q(t)
        dev_sup, dev_grid = birkhoff_deviation_grid(h1, cf.alpha, q_t, grid_size)
        bound = math.exp(-exponent * math.log(q_t))
        rows.append(BlockEstimateRow(
            t=t, q_t=q_t, deviation_sup=dev_sup, deviation_grid=dev_grid,
            bound_power=bound,
            ratio=dev_sup / bound if bound > 0 else math.inf))
    return rows

