"""Continued fractions with exact arithmetic, convergents, and resonance sets.

Alpha must be exact: a rational p/q, a quadratic irrational (a + b*sqrt(d))/c
given by an integer quadruple, or an explicit partial-quotient list.  Floating
input is rejected outright; the small-denominator phenomena downstream are
catastrophically sensitive to rounding in alpha.

Convergent indexing follows the classical convention

    p_1 = 0, q_1 = 1;  p_2 = 1, q_2 = a_1;
    p_{k+1} = a_k p_k + p_{k-1},  q_{k+1} = a_k q_k + q_{k-1},

so an expansion of depth K carries convergents p_k/q_k for k = 1 .. K+1.

Expansion and all strict-inequality certification go through rational
interval enclosures of alpha.  Certification starts at width 2^-256 and
doubles the bits on demand up to 2^-4096 before giving up with a precision
error; expansion doubles them until it has the quotients asked for.  The
enclosures stay exact (dyadic rounding would widen them); phases m*alpha
mod 1 are reduced in integers on their numerators and denominators, with
results equal to Fraction arithmetic on the same enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

from .errors import DomainError, PrecisionError, _integer, _rational, admit

DEFAULT_BITS = 256
MAX_BITS = 4096


# ---------------------------------------------------------------------------
# Exact alpha representations
# ---------------------------------------------------------------------------

class ExactAlpha:
    """Base class: an exactly represented number in [0, 1)."""

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational interval [lo, hi] containing the value, width <= 2^-bits
        when the representation permits."""
        raise NotImplementedError

    def as_float(self) -> float:
        lo, hi = self.enclosure(64)
        return float((lo + hi) / 2)

    @property
    def is_rational(self) -> bool:
        return False


@dataclass(frozen=True)
class RationalAlpha(ExactAlpha):
    """A rational alpha in [0, 1).  Value 0, the identity rotation, is
    accepted by system builders; continued-fraction expansion rejects it."""

    value: Fraction

    def __post_init__(self):
        if not 0 <= self.value < 1:
            raise DomainError(f"alpha={self.value} outside [0, 1)")

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        return (self.value, self.value)

    @property
    def is_rational(self) -> bool:
        return True

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class QuadraticAlpha(ExactAlpha):
    """(a + b*sqrt(d)) / c with integer a, b, c and d a positive nonsquare."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.c == 0 or self.b == 0:
            raise DomainError("quadratic alpha needs c != 0 and b != 0")
        if self.d <= 1 or math.isqrt(self.d) ** 2 == self.d:
            raise DomainError(f"d={self.d} must be a positive nonsquare")
        lo, hi = self.enclosure(64)
        if not (lo > 0 and hi < 1):
            raise DomainError(f"alpha=({self.a}+{self.b}*sqrt({self.d}))/{self.c} "
                              "outside (0, 1)")

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        # sqrt(d) in [s, s+1] / 2^t with s = isqrt(d * 4^t); this t makes the
        # width |b| / (|c| 2^t) at most 2^-bits
        t = bits + abs(self.b).bit_length() + abs(self.c).bit_length() + 8
        s = math.isqrt(self.d << (2 * t))
        lo, hi = sorted(Fraction((self.a << t) + self.b * r, self.c << t)
                        for r in (s, s + 1))
        return lo, hi

    def __str__(self) -> str:
        return f"({self.a}+{self.b}*sqrt({self.d}))/{self.c}"


@dataclass(frozen=True)
class QuotientAlpha(ExactAlpha):
    """A number known only through a finite prefix of partial quotients.

    The true value lies strictly between p_{K+1}/q_{K+1} and
    (p_{K+1}+p_K)/(q_{K+1}+q_K); that interval is the best possible
    enclosure, so precision is limited by the supplied depth.
    """

    quotients: tuple[int, ...]

    def __post_init__(self):
        if not self.quotients:
            raise DomainError("quotient list must be nonempty")
        if any(int(a) < 1 for a in self.quotients):
            raise DomainError("partial quotients must be positive integers")

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        # the prefix pins the value to this interval and no further;
        # certification loops detect when its width is insufficient
        ps, qs = _convergents(self.quotients)
        end1 = Fraction(ps[-1], qs[-1])
        end2 = Fraction(ps[-1] + ps[-2], qs[-1] + qs[-2])
        return (min(end1, end2), max(end1, end2))

    def as_float(self) -> float:
        ps, qs = _convergents(self.quotients)
        return ps[-1] / qs[-1]

    def __str__(self) -> str:
        shown = ",".join(str(a) for a in self.quotients[:8])
        more = ",..." if len(self.quotients) > 8 else ""
        return f"[0;{shown}{more}]"


SQRT2_MINUS_1 = QuadraticAlpha(-1, 1, 1, 2)
GOLDEN = QuadraticAlpha(-1, 1, 2, 5)   # (sqrt(5)-1)/2

AlphaLike = Union[ExactAlpha, Fraction, str, Sequence[int]]


def parse_alpha(spec: AlphaLike) -> ExactAlpha:
    """Accept the exact-alpha formats used by descriptors and the CLI.

    Strings: "sqrt2-1", "golden", "p/q", "quad:a,b,c,d", "quotients:2,17,8".
    A float is rejected with a hint to supply quotients instead.
    """
    if isinstance(spec, ExactAlpha):
        return spec
    if isinstance(spec, bool) or isinstance(spec, float):
        raise DomainError(
            "floating-point alpha rejected (exactness required); pass a "
            "rational 'p/q', a quadratic 'quad:a,b,c,d', or an explicit "
            "'quotients:a1,a2,...' list")
    if isinstance(spec, (int, Fraction)):
        return RationalAlpha(Fraction(spec))
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text == "0":
            return RationalAlpha(Fraction(0))
        if text in ("sqrt2-1", "sqrt2m1"):
            return SQRT2_MINUS_1
        if text in ("golden", "(sqrt5-1)/2"):
            return GOLDEN
        try:
            if text.startswith("quad:"):
                a, b, c, d = (int(x) for x in text[5:].split(","))
                return QuadraticAlpha(a, b, c, d)
            if text.startswith("quotients:"):
                return QuotientAlpha(tuple(int(x) for x in text[10:].split(",")))
            if "/" in text:
                num, den = text.split("/")
                return RationalAlpha(Fraction(int(num), int(den)))
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"field 'alpha' {spec!r} is not a well-formed p/q, "
                              "quad:a,b,c,d or quotients:a1,... spec") from None
        raise DomainError(f"unrecognised alpha spec {spec!r}")
    if isinstance(spec, Iterable):
        return QuotientAlpha(tuple(_integer(a, "alpha") for a in spec))
    raise DomainError(f"unrecognised alpha spec {spec!r}")


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

def _convergents(quotients: Sequence[int]) -> tuple[list[int], list[int]]:
    ps = [0, 1]
    qs = [1, int(quotients[0])]
    for a in quotients[1:]:
        a = int(a)
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
    return ps, qs


def _shared_quotients(lo: Fraction, hi: Fraction) -> tuple[list[int], bool]:
    """The partial quotients that every x in [lo, hi] within (0, 1) shares,
    by Euclid on both ends at once: a continued-fraction cylinder is an
    interval, so a quotient both ends agree on is one of x's.  Finite when
    both remainders reach 0 together, which means lo = hi."""
    quotients = []
    a, b, c, d = lo.denominator, lo.numerator, hi.denominator, hi.numerator
    while b and d and a // b == c // d:
        q = a // b
        quotients.append(q)
        a, b, c, d = b, a - q * b, d, c - q * d
    return quotients, b == d == 0


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients a_1..a_K plus convergents p_k/q_k for k = 1..K+1."""

    alpha: ExactAlpha
    quotients: tuple[int, ...]
    ps: tuple[int, ...]
    qs: tuple[int, ...]
    finite: bool   # expansion terminated exactly (alpha rational)

    @property
    def depth(self) -> int:
        return len(self.quotients)

    def p(self, k: int) -> int:
        """Numerator p_k, 1-based, defined for k = 1 .. depth+1."""
        return self.ps[k - 1]

    def q(self, k: int) -> int:
        return self.qs[k - 1]

    def a(self, k: int) -> int:
        """Partial quotient a_k, 1-based."""
        return self.quotients[k - 1]


def expand(alpha: AlphaLike, depth: int) -> ContinuedFraction:
    """Expand alpha to (at most) `depth` partial quotients.

    Rational alpha terminates early and is flagged finite; the terminal
    convergent then equals alpha exactly.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    alpha = parse_alpha(alpha)
    if isinstance(alpha, RationalAlpha) and alpha.value == 0:
        raise DomainError("alpha = 0 has no continued-fraction expansion here")

    if isinstance(alpha, QuotientAlpha):
        quotients, finite = list(alpha.quotients[:depth]), False
    else:
        # rational or quadratic: from enclosures of doubling precision
        bits, quotients, finite, last = DEFAULT_BITS // 2, [], False, None
        while not finite and len(quotients) < depth:
            bits *= 2
            enclosure = alpha.enclosure(bits)
            if enclosure == last:
                raise PrecisionError(
                    f"the enclosure of {alpha} did not narrow from {bits // 2} "
                    f"to {bits} bits, after {len(quotients)} quotients")
            last = enclosure
            quotients, finite = _shared_quotients(*enclosure)
        finite = finite and len(quotients) <= depth
        quotients = quotients[:depth]
    ps, qs = _convergents(quotients)

    cf = ContinuedFraction(alpha=alpha, quotients=tuple(quotients),
                           ps=tuple(ps), qs=tuple(qs), finite=finite)
    _check_determinants(cf)
    return cf


def _check_determinants(cf: ContinuedFraction) -> None:
    """Guard the convergents at O(1): the recurrence's first rows, and the
    last determinant p_{K+1} q_K - p_K q_{K+1} = (-1)^{K+1}.  Each step of
    the recurrence negates the determinant, so from p_1 = 0, q_1 = 1,
    p_2 = 1, q_2 = a_1 every one is +-1 by construction."""
    k = cf.depth
    if cf.ps[:2] != (0, 1) or cf.qs[:2] != (1, cf.quotients[0]):
        raise AssertionError(f"convergent start {cf.ps[:2]}, {cf.qs[:2]}")
    det = cf.p(k + 1) * cf.q(k) - cf.p(k) * cf.q(k + 1)
    if det != (-1) ** (k + 1):
        raise AssertionError(f"convergent determinant {det} at k={k}")


# ---------------------------------------------------------------------------
# Certified circle norms ||m alpha||
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _enclosure_ints(alpha: ExactAlpha, bits: int) -> tuple[int, ...]:
    """(a, b, c, d, ad + cb, 2bd) for the enclosure [a/b, c/d] in lowest terms."""
    lo, hi = alpha.enclosure(bits)
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return a, b, c, d, a * d + c * b, 2 * b * d


def _reductions(alpha: ExactAlpha, m: int,
                bits: int) -> Iterator[tuple[int, ...]]:
    """m*[a/b, c/d] less r = floor(mid + 1/2), its midpoint's nearest integer,
    at `bits` and each doubling up to MAX_BITS, as integers
    (t_lo, den_lo, t_hi, den_hi, u, den): the ends are t_lo/den_lo <=
    t_hi/den_hi (swapped for m < 0) and mid - r = u/den, with den = 2bd."""
    b_now = bits
    while True:
        a, b, c, d, s, den = _enclosure_ints(alpha, b_now)
        n = m * s
        r = (2 * n + den) // (2 * den)
        t_a, t_c = m * a - r * b, m * c - r * d
        if m > 0:
            yield t_a, b, t_c, d, n - r * den, den
        else:
            yield t_c, d, t_a, b, n - r * den, den
        if b_now >= MAX_BITS:
            return
        b_now *= 2


def _fits_centered(t_lo: int, den_lo: int, t_hi: int, den_hi: int) -> bool:
    """A rung fits `centered_fractional` when its ends fit [-1/2, 1/2), or
    straddle +-1/2 narrower than 1/4; either way the midpoint
    representative, in [-1/2, 1/2) by the choice of r, stands for it."""
    return ((-den_lo <= 2 * t_lo and 2 * t_hi < den_hi)
            or 4 * (t_hi * den_lo - t_lo * den_hi) < den_lo * den_hi)


def _fits_norm(t_lo: int, den_lo: int, t_hi: int, den_hi: int) -> bool:
    """A rung fits `circle_norm_interval` when its ends fit [-1/2, 1/2]."""
    return -den_lo <= 2 * t_lo and 2 * t_hi <= den_hi


def _near_far(t_lo: int, den_lo: int, t_hi: int,
              den_hi: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends of {|t| : t in [t_lo/den_lo, t_hi/den_hi]}, the one nearer
    to 0 first.  The ends are ordered, so their signs decide; only the far
    end of an interval that straddles 0 takes a comparison."""
    if t_lo > 0:
        return (t_lo, den_lo), (t_hi, den_hi)
    if t_hi < 0:
        return (-t_hi, den_hi), (-t_lo, den_lo)
    if -t_lo * den_hi > t_hi * den_lo:
        return (0, 1), (-t_lo, den_lo)
    return (0, 1), (t_hi, den_hi)


def _unreduced(m: int) -> PrecisionError:
    return PrecisionError(f"cannot reduce {m}*alpha mod 1 at {MAX_BITS} bits")


def _uncertified(m: int) -> PrecisionError:
    return PrecisionError(f"cannot certify ||{m}*alpha|| at {MAX_BITS} bits")


def _centered_parts(alpha: ExactAlpha, m: int,
                    bits: int = DEFAULT_BITS) -> tuple[int, int]:
    """`centered_fractional` as the unreduced pair (u, den), den = 2bd, at
    the first rung of the `_reductions` ladder that fits."""
    for t_lo, den_lo, t_hi, den_hi, u, den in _reductions(alpha, m, bits):
        if _fits_centered(t_lo, den_lo, t_hi, den_hi):
            return u, den
    raise _unreduced(m)


def centered_fractional(alpha: ExactAlpha, m: int,
                        bits: int = DEFAULT_BITS) -> Fraction:
    """m*alpha mod 1, reduced to [-1/2, 1/2), as an exact rational.

    The result inherits the enclosure width (~2^-bits) around the true
    value; the reduction is centered so that values near an integer come
    out tiny instead of as 1 - tiny.  The fit is decided in integers by
    `_fits_centered`, so it equals the Fraction arithmetic on the same
    enclosure.  `cocycle.e_minus_one_exact`, `cocycle.split_cocycle` and
    `complexity._birkhoff_blocks` read the unreduced pair (u, den) instead
    and skip the gcd on the large denominator 2bd: int `u / den` is
    correctly rounded, as is `float(Fraction(u, den))`, so the floats they
    compute are equal.
    """
    return Fraction(*_centered_parts(alpha, m, bits))


def _norm_parts(alpha: ExactAlpha, m: int, bits: int = DEFAULT_BITS
                ) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """The ends of `circle_norm_interval` as unreduced (num, den) pairs,
    near end first, at each rung of the `_reductions` ladder, from `bits`
    up to MAX_BITS, that `_fits_norm`.  `_near_far` picks the near end by
    signs; its pair can differ from a cross-multiplication's only when the
    two ends are equal, and then its value cannot.  Raises PrecisionError
    when no rung fits."""
    fitted = False
    for t_lo, den_lo, t_hi, den_hi, _u, _den in _reductions(alpha, m, bits):
        if _fits_norm(t_lo, den_lo, t_hi, den_hi):
            fitted = True
            yield _near_far(t_lo, den_lo, t_hi, den_hi)
    if not fitted:
        raise _uncertified(m)


def _split_parts(alpha: ExactAlpha, m: int) -> tuple[tuple[int, int],
                                                     tuple[int, int]]:
    """`_centered_parts(alpha, m)` and the near end of the first yield of
    `_norm_parts(alpha, m)`, from one walk of the ladder: it goes on until
    both fit tests have passed, which is most often at the first rung.
    Raises the PrecisionError of `_centered_parts` before that of
    `_norm_parts`."""
    centered = near = None
    rungs = _reductions(alpha, m, DEFAULT_BITS)
    for t_lo, den_lo, t_hi, den_hi, u, den in rungs:
        if centered is None and _fits_centered(t_lo, den_lo, t_hi, den_hi):
            centered = u, den
        if near is None and _fits_norm(t_lo, den_lo, t_hi, den_hi):
            near = _near_far(t_lo, den_lo, t_hi, den_hi)[0]
        if centered is not None and near is not None:
            return centered, near
    raise _unreduced(m) if centered is None else _uncertified(m)


def circle_norm_interval(alpha: ExactAlpha, m: int,
                         bits: int = DEFAULT_BITS) -> tuple[Fraction, Fraction]:
    """Certified interval for ||m*alpha|| (distance to nearest integer),
    equal to the Fraction arithmetic on the same enclosure: the first
    interval `_norm_parts` yields, at the lowest precision from `bits`
    that fits.  `cocycle.split_cocycle` reads the unreduced near end of
    that yield from its own walk of the ladder (`_split_parts`)."""
    lo, hi = next(_norm_parts(alpha, m, bits))
    return Fraction(*lo), Fraction(*hi)


@dataclass(frozen=True)
class ApproxRow:
    """One row of the best-approximation report for index k."""

    k: int
    norm_lo: float
    norm_hi: float
    lower_bound: Fraction    # 1/(q_{k+1}+q_k)
    upper_bound: Fraction    # 1/q_{k+1}
    certified: bool          # both strict inequalities certified
    boundary: bool           # k = 1 rows sit at the bound's boundary


def best_approx_check(cf: ContinuedFraction) -> list[ApproxRow]:
    """Check 1/(q_{k+1}+q_k) < ||q_k alpha|| < 1/q_{k+1} for each k.

    Each row walks the `_norm_parts` ladder once and decides at the first
    precision that decides.  For a finite (rational) expansion the terminal
    index is excluded: there ||q_K alpha|| equals 1/q_{K+1} exactly.  A
    quotient-prefix alpha likewise stops one index early, where its
    enclosure runs out of information.  The k = 1 row can sit on the lower
    bound's boundary (golden-ratio-type alpha) and is flagged rather than
    certified.
    """
    rows = []
    top = cf.depth - 1 if (cf.finite or isinstance(cf.alpha, QuotientAlpha)) \
        else cf.depth
    for k in range(1, top + 1):
        qk, qk1 = cf.q(k), cf.q(k + 1)
        lower = Fraction(1, qk1 + qk)
        upper = Fraction(1, qk1)
        for lo, hi in _norm_parts(cf.alpha, qk):
            n_lo, n_hi = Fraction(*lo), Fraction(*hi)
            # certified, or genuinely violated; else too wide to decide
            certified = n_lo > lower and n_hi < upper
            if certified or n_hi <= lower or n_lo >= upper:
                break
        else:
            if k > 1:
                raise PrecisionError(
                    f"cannot certify strict bounds at k={k} "
                    f"within {MAX_BITS} bits")
        rows.append(ApproxRow(k=k, norm_lo=float(n_lo), norm_hi=float(n_hi),
                              lower_bound=lower, upper_bound=upper,
                              certified=certified, boundary=(k == 1)))
    return rows


# ---------------------------------------------------------------------------
# Resonance sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceData:
    """Indices k with an abnormally large next denominator, and the set M
    of their convergent-denominator multiples within a frequency bound.

    Carries the alpha and convergent data it was built from so downstream
    consumers provably work with the same expansion."""

    tau: Fraction
    E: tuple[int, ...]
    M: frozenset[int]
    truncation_bound: int
    m_finite_within_depth: bool
    alpha: ExactAlpha
    quotients: tuple[int, ...]
    qs: tuple[int, ...]

    def a(self, k: int) -> int:
        return self.quotients[k - 1]


def resonance_sets(cf: ContinuedFraction, tau: float | Fraction | str,
                   freq_bound: int = 10 ** 6) -> ResonanceData:
    """E = {k > 1 : q_{k+1} > q_k^{1/tau+3}} over the computed depth, and
    M = union over k in E of {+-j*q_k : 1 <= j <= a_k}, truncated to
    [-freq_bound, freq_bound].

    The comparison q_{k+1} > q_k^e is done with exact integer powers of the
    rational exponent e = 1/tau + 3, so boundary cases are decided exactly.
    The finiteness flag is a depth-limited heuristic: no resonance occurs
    in the upper half of the computed range.
    """
    tau = _rational(tau, "tau")
    if freq_bound < 1:
        raise DomainError(f"freq_bound must be >= 1, got {freq_bound}")
    exponent = 1 / tau + 3
    u, v = exponent.numerator, exponent.denominator
    admit((v * cf.qs[-1].bit_length() + u * cf.qs[-2].bit_length()) // 8,
          f"the resonance test q_(k+1)^{v} > q_k^{u} for tau = {tau}")

    members = []
    for k in range(2, cf.depth + 1):
        if cf.q(k + 1) ** v > cf.q(k) ** u:
            members.append(k)

    m_set: set[int] = set()
    for k in members:
        qk, ak = cf.q(k), cf.a(k)
        j = 1
        while j <= ak and j * qk <= freq_bound:
            m_set.add(j * qk)
            m_set.add(-j * qk)
            j += 1

    half = cf.depth // 2
    finite_flag = all(k <= half for k in members)
    return ResonanceData(tau=tau, E=tuple(members), M=frozenset(m_set),
                         truncation_bound=freq_bound,
                         m_finite_within_depth=finite_flag,
                         alpha=cf.alpha, quotients=cf.quotients, qs=cf.qs)
