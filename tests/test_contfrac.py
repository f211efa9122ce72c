import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moeblab import contfrac as cf
from moeblab.errors import DomainError, PrecisionError
from moeblab.fixtures import resonant_alpha


def test_rational_expansion_terminates():
    c = cf.expand("2/7", 10)
    assert c.quotients == (3, 2)
    assert c.finite
    assert Fraction(c.ps[-1], c.qs[-1]) == Fraction(2, 7)


def test_sqrt2_fixture():
    c = cf.expand("sqrt2-1", 12)
    assert c.quotients == (2,) * 12
    assert c.qs[:5] == (1, 2, 5, 12, 29)


def test_golden_fixture():
    c = cf.expand("golden", 12)
    assert c.quotients == (1,) * 12
    assert c.qs[:5] == (1, 1, 2, 3, 5)     # Fibonacci


def test_float_alpha_rejected():
    with pytest.raises(DomainError, match="quotients"):
        cf.expand(0.414213, 5)


def test_alpha_outside_unit_interval():
    with pytest.raises(DomainError):
        cf.expand("9/7", 5)
    with pytest.raises(DomainError):
        cf.parse_alpha("quad:1,1,1,2")   # 1 + sqrt(2) > 1
    for value in (Fraction(1), Fraction(-1, 2), 1, -1):
        with pytest.raises(DomainError, match=r"outside \[0, 1\)"):
            cf.parse_alpha(value)


@pytest.mark.parametrize("spec", [0, "0", " 0 ", Fraction(0)], ids=repr)
def test_zero_alpha_is_the_rational_zero(spec):
    # the identity rotation builds; it has no expansion
    alpha = cf.parse_alpha(spec)
    assert alpha == cf.RationalAlpha(Fraction(0)) and alpha.is_rational
    assert alpha.enclosure(64) == (0, 0) and str(alpha) == "0"
    with pytest.raises(DomainError, match="alpha = 0"):
        cf.expand(spec, 3)


def test_quotient_list_alpha():
    c = cf.expand([2, 8, 2, 2], 4)
    assert c.quotients == (2, 8, 2, 2)
    assert c.qs[2] == 17                   # q_3 = 8*2 + 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6 - 1),
       st.integers(min_value=2, max_value=10 ** 6))
def test_rational_invariants(p, q):
    if p >= q:
        p = p % q
        if p == 0:
            return
    c = cf.expand(Fraction(p, q), 64)
    # recurrence anchors
    assert c.ps[0] == 0 and c.qs[0] == 1
    assert c.ps[1] == 1 and c.qs[1] == c.quotients[0]
    for k in range(1, c.depth + 1):
        if k >= 2:
            assert c.p(k + 1) == c.a(k) * c.p(k) + c.p(k - 1)
            assert c.q(k + 1) == c.a(k) * c.q(k) + c.q(k - 1)
        assert math.gcd(c.p(k), c.q(k)) == 1
        assert abs(c.p(k + 1) * c.q(k) - c.p(k) * c.q(k + 1)) == 1
    assert c.finite
    assert Fraction(c.ps[-1], c.qs[-1]) == Fraction(p, q)


@pytest.mark.parametrize("spec,depth", [("sqrt2-1", 40), ("golden", 40)])
def test_quadratic_invariants(spec, depth):
    c = cf.expand(spec, depth)
    for k in range(2, depth + 1):
        assert c.q(k + 1) == c.a(k) * c.q(k) + c.q(k - 1)
        assert abs(c.p(k + 1) * c.q(k) - c.p(k) * c.q(k + 1)) == 1
        assert c.q(k) >= 2 ** ((k - 2) / 2)


def test_growth_lower_bound_all_fixtures():
    for spec in ("sqrt2-1", "golden"):
        c = cf.expand(spec, 40)
        for k in range(2, 41):
            assert c.q(k) >= 2 ** ((k - 2) / 2)


@pytest.mark.parametrize("alpha", [
    cf.RationalAlpha(Fraction(0)), cf.RationalAlpha(Fraction(2, 7)),
    cf.SQRT2_MINUS_1, resonant_alpha(11)], ids=str)
def test_alpha_hash_is_the_fields_hash(alpha):
    twin = dataclasses.replace(alpha)
    assert twin == alpha and twin is not alpha
    assert hash(alpha) == hash(twin) == hash(dataclasses.astuple(alpha))


@pytest.mark.parametrize("depth", [2, 3, 300])
def test_determinant_guard_refuses_corrupted_convergents(depth):
    c = cf.expand("sqrt2-1", depth)
    cf._check_determinants(c)
    last = dataclasses.replace(c, ps=c.ps[:-1] + (c.ps[-1] + 1,))
    with pytest.raises(AssertionError, match=f"determinant .* at k={depth}"):
        cf._check_determinants(last)
    start = dataclasses.replace(c, qs=(2,) + c.qs[1:])
    with pytest.raises(AssertionError, match="convergent start"):
        cf._check_determinants(start)


def _sign_of_alpha_minus(alpha, u, v):
    """Sign of alpha - u/v for v > 0, decided in exact integers."""
    if isinstance(alpha, cf.RationalAlpha):
        p, q = alpha.value.numerator, alpha.value.denominator
        return (p * v > u * q) - (p * v < u * q)
    a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    x, y = a * v - u * c, b * v          # alpha - u/v = (x + y sqrt d) / (c v)
    dominant = y if x * y >= 0 or x * x < y * y * d else x
    return (1 if dominant > 0 else -1) * (1 if c > 0 else -1)


@st.composite
def _quadratic_alphas(draw):
    b = draw(st.integers(-40, 40).filter(bool))
    c = draw(st.integers(-60, 60).filter(bool))
    d = draw(st.integers(2, 500))
    assume(math.isqrt(d) ** 2 != d)
    r = math.isqrt(b * b * d)
    r = r if b > 0 else -r - 1                   # floor(b sqrt d)
    # a + b sqrt d lands in (j, j + 1) times sign(c); j = -1 and j = |c|
    # put alpha outside (0, 1)
    j = draw(st.integers(-1, abs(c)))
    a = j - r if c > 0 else -j - 1 - r
    try:
        return cf.QuadraticAlpha(a, b, c, d)
    except DomainError:
        assume(False)


RATIONAL_ALPHAS = st.fractions(0, 1, max_denominator=10 ** 15).filter(
    lambda v: 0 < v < 1).map(cf.RationalAlpha)


@settings(max_examples=300, deadline=None)
@given(alpha=st.one_of(_quadratic_alphas(), RATIONAL_ALPHAS),
       depth=st.integers(1, 300))
def test_expansion_lies_in_every_cylinder(alpha, depth):
    # [0; a_1..a_k + t] for t in [0, 1) is the set of numbers whose first k
    # quotients are a_1..a_k: alpha lies strictly between its ends
    # p_{k+1}/q_{k+1} (t = 0) and (p_{k+1}+p_k)/(q_{k+1}+q_k) (t = 1)
    # for every k, and a finite expansion ends at alpha
    c = cf.expand(alpha, depth)
    assert all(a >= 1 for a in c.quotients)
    assert len(c.quotients) == depth or c.finite
    (p0, q0), (p1, q1) = (1, 0), (0, 1)       # p_0/q_0 and p_1/q_1
    for k, a in enumerate(c.quotients, start=1):
        (p0, q0), (p1, q1) = (p1, q1), (a * p1 + p0, a * q1 + q0)
        near = _sign_of_alpha_minus(alpha, p1, q1)
        if c.finite and k == c.depth:
            assert near == 0, k
        else:
            assert near * _sign_of_alpha_minus(alpha, p1 + p0, q1 + q0) == -1, k
    assert (c.ps[-1], c.qs[-1]) == (p1, q1)


@pytest.mark.parametrize("lo,hi,shared", [
    ("2/7", "2/7", ([3, 2], True)),
    ("2/3", "7/10", ([1, 2], False)),    # lo ends the cylinder [2/3, 3/4)
    ("3/10", "1/3", ([3], False)),       # hi ends the cylinder (1/4, 1/3]
    ("1/3", "1/2", ([], False)),
])
def test_shared_quotients_stop_where_the_ends_part(lo, hi, shared):
    # one end running out alone is not a rational alpha
    assert cf._shared_quotients(Fraction(lo), Fraction(hi)) == shared


def _ref_expand(alpha, depth):
    """The body that restarted Euclid at every doubling, kept as the
    reference."""
    alpha = cf.parse_alpha(alpha)
    if isinstance(alpha, cf.QuotientAlpha):
        quotients, finite = list(alpha.quotients[:depth]), False
    else:
        bits, quotients, finite, last = cf.DEFAULT_BITS // 2, [], False, None
        while not finite and len(quotients) < depth:
            bits *= 2
            enclosure = alpha.enclosure(bits)
            if enclosure == last:
                raise PrecisionError(
                    f"the enclosure of {alpha} did not narrow from {bits // 2} "
                    f"to {bits} bits, after {len(quotients)} quotients")
            last = enclosure
            quotients, finite = cf._shared_quotients(*enclosure)
        finite = finite and len(quotients) <= depth
        quotients = quotients[:depth]
    ps, qs = cf._convergents(quotients)
    return tuple(quotients), tuple(ps), tuple(qs), finite


def _expansion(alpha, depth):
    c = cf.expand(alpha, depth)
    return c.quotients, c.ps, c.qs, c.finite


@pytest.mark.parametrize("depth", [1, 2, 299, 300, 301, 3000])
@pytest.mark.parametrize("spec", [
    "sqrt2-1", "golden", "2/7", "355/1131",
    resonant_alpha(9), resonant_alpha(11)], ids=str)
def test_expand_resumes_euclid_as_a_restart_would(spec, depth):
    assert _expansion(spec, depth) == _ref_expand(spec, depth)


@dataclass(frozen=True)
class _Jumping(cf.ExactAlpha):
    """golden's enclosures up to 256 bits, sqrt(2)-1's above: the second
    enclosure leaves the cylinder of the quotients the first one shared."""

    def enclosure(self, bits):
        return (cf.GOLDEN if bits <= cf.DEFAULT_BITS
                else cf.SQRT2_MINUS_1).enclosure(bits)


def test_expand_restarts_when_the_enclosure_leaves_the_cylinder():
    assert len(cf._shared_quotients(*_Jumping().enclosure(cf.DEFAULT_BITS))[0]) < 300
    got = _expansion(_Jumping(), 300)
    assert got == _ref_expand(_Jumping(), 300)
    assert got[0] == (2,) * 300


@pytest.mark.parametrize("spec,head,period", [
    ("quad:-2,1,1,7", (), (1, 1, 1, 4)),          # sqrt(7) - 2
    ("quad:-3,1,1,13", (), (1, 1, 1, 1, 6)),      # sqrt(13) - 3
    ("quad:-1,-1,-3,2", (1,), (4, 8)),            # (1 + sqrt(2)) / 3
    ("quad:3,-1,1,5", (1, 3), (4,)),              # 3 - sqrt(5)
])
def test_pinned_quadratic_expansions(spec, head, period):
    depth = 200
    want = (head + period * depth)[:depth]
    assert cf.expand(spec, depth).quotients == want


# ---------------------------------------------------------------------------
# Best approximation bounds
# ---------------------------------------------------------------------------

def test_best_approx_sqrt2_row2():
    c = cf.expand("sqrt2-1", 10)
    rows = cf.best_approx_check(c)
    row = rows[1]
    assert row.k == 2
    assert abs(row.norm_lo - 0.17157) < 1e-4
    assert row.lower_bound == Fraction(1, 7)
    assert row.upper_bound == Fraction(1, 5)
    assert row.certified


def test_best_approx_certifies_k_ge_2():
    for spec in ("sqrt2-1", "golden", [2, 17, 8, 34, 8]):
        c = cf.expand(spec, 5 if isinstance(spec, list) else 25)
        rows = cf.best_approx_check(c)
        assert all(r.certified for r in rows if r.k >= 2)


def test_best_approx_golden_k1_boundary():
    c = cf.expand("golden", 10)
    rows = cf.best_approx_check(c)
    assert rows[0].boundary
    assert not rows[0].certified          # ||alpha|| = 0.381... < 1/2


def test_best_approx_rational_below_terminal():
    c = cf.expand("2/7", 10)              # depth 2, terminal convergent exact
    rows = cf.best_approx_check(c)
    assert [r.k for r in rows] == [1]


def _ref_best_approx_check(c, bits=cf.DEFAULT_BITS):
    # the body the one-walk ladder replaced: a second doubling loop around
    # circle_norm_interval, kept as the reference
    rows = []
    top = c.depth - 1 if (c.finite or isinstance(c.alpha, cf.QuotientAlpha)) \
        else c.depth
    for k in range(1, top + 1):
        qk, qk1 = c.q(k), c.q(k + 1)
        lower = Fraction(1, qk1 + qk)
        upper = Fraction(1, qk1)
        b = bits
        while True:
            n_lo, n_hi = cf.circle_norm_interval(c.alpha, qk, b)
            if n_lo > lower and n_hi < upper:
                certified = True
                break
            if n_hi <= lower or n_lo >= upper:
                certified = False
                break
            if b >= cf.MAX_BITS:
                if k > 1:
                    raise PrecisionError(
                        f"cannot certify strict bounds at k={k} "
                        f"within {cf.MAX_BITS} bits")
                certified = False
                break
            b *= 2
        rows.append(cf.ApproxRow(k=k, norm_lo=float(n_lo),
                                 norm_hi=float(n_hi), lower_bound=lower,
                                 upper_bound=upper, certified=certified,
                                 boundary=(k == 1)))
    return rows


def _rows_or_error(fn, c):
    try:
        # every field, the float norms by repr
        return [repr(dataclasses.astuple(r)) for r in fn(c)]
    except PrecisionError as exc:
        return ("PrecisionError", str(exc))


@pytest.mark.parametrize("spec,depth", [
    ("sqrt2-1", 300), ("golden", 300), ("2/7", 10),
    ([2, 17, 8, 34, 8], 5),
    ([1, 1], 2),          # only k = 1, flagged
    ([1, 2, 1], 3),       # k = 2 runs out of prefix
])
def test_best_approx_equals_the_doubling_loop(spec, depth):
    c = cf.expand(spec, depth)
    got = _rows_or_error(cf.best_approx_check, c)
    assert got == _rows_or_error(_ref_best_approx_check, c)
    if isinstance(spec, list) and len(spec) == 3:
        assert got == ("PrecisionError",
                       "cannot certify strict bounds at k=2 within 4096 bits")


def test_best_approx_walks_the_ladder_once_per_row(monkeypatch):
    walks = []
    reductions = cf._reductions

    def counted(alpha, m, bits):
        walks.append(m)
        return reductions(alpha, m, bits)

    monkeypatch.setattr(cf, "_reductions", counted)
    for spec in ("sqrt2-1", "golden"):
        walks.clear()
        rows = cf.best_approx_check(cf.expand(spec, 300))
        assert len(rows) == 300
        assert walks == [cf.expand(spec, 300).q(k) for k in range(1, 301)]


def test_nearby_fractions_are_convergents():
    # |alpha - p/q| < 1/(2 q^2) forces p/q to be a convergent; scan all q
    for spec in ("sqrt2-1", "golden"):
        c = cf.expand(spec, 40)
        alpha_lo, alpha_hi = c.alpha.enclosure(128)
        mid = (alpha_lo + alpha_hi) / 2
        convergent_set = set(zip(c.ps, c.qs))
        hits = 0
        for q in range(1, 10 ** 4 + 1):
            p = round(mid * q)
            if p == 0 or math.gcd(p, q) != 1:
                continue
            if abs(Fraction(p, q) - mid) < Fraction(1, 2 * q * q):
                assert (p, q) in convergent_set, (p, q)
                hits += 1
        assert hits >= 5          # every convergent denominator <= 10^4 hits


# ---------------------------------------------------------------------------
# Resonance sets
# ---------------------------------------------------------------------------

def test_resonance_golden():
    c = cf.expand("golden", 10)
    res = cf.resonance_sets(c, 1, 100)
    assert res.E == (2,)
    assert res.M == frozenset({1, -1})
    assert res.m_finite_within_depth


def test_resonance_quotient_jump():
    c = cf.expand([2, 8, 2, 2, 2, 2, 2, 2], 8)
    res = cf.resonance_sets(c, 1, 100)
    assert 2 in res.E                      # q_3 = 17 > q_2^4 = 16


def test_resonance_exact_boundary():
    # q_3 = 16 = q_2^4 exactly is NOT a resonance (strict inequality)
    c = cf.expand([2, 8, 2, 2], 4)
    assert c.q(3) == 17
    c2 = cf.expand([2, 7, 2, 2], 4)        # q_3 = 15 < 16
    res2 = cf.resonance_sets(c2, 1, 100)
    assert 2 not in res2.E


def test_resonance_monotone_in_tau():
    c = cf.expand([2, 17, 8, 34, 8], 5)
    smaller = cf.resonance_sets(c, Fraction(1, 2), 10 ** 6)   # exponent 5
    larger = cf.resonance_sets(c, 4, 10 ** 6)                 # exponent 3.25
    assert set(smaller.E) <= set(larger.E)


def test_resonance_truncation():
    c = cf.expand([2, 17, 8, 34, 8], 5)
    res = cf.resonance_sets(c, 1, 10)
    assert all(abs(m) <= 10 for m in res.M)


def test_resonance_rejects_bad_tau():
    c = cf.expand("golden", 5)
    with pytest.raises(DomainError):
        cf.resonance_sets(c, 0, 100)


# ---------------------------------------------------------------------------
# Exact phase reduction
# ---------------------------------------------------------------------------

def test_centered_fractional_rational():
    alpha = cf.parse_alpha("3/8")
    assert cf.centered_fractional(alpha, 8) == 0
    assert cf.centered_fractional(alpha, 1) == Fraction(3, 8)
    assert cf.centered_fractional(alpha, 2) == Fraction(-1, 4)   # 3/4 -> -1/4


def test_centered_fractional_near_integer():
    # q_k * alpha is within 1/q_{k+1} of an integer; the reduction must
    # return the tiny signed value, not 1 - tiny
    c = cf.expand("sqrt2-1", 30)
    alpha = c.alpha
    for k in (5, 10, 20):
        t = cf.centered_fractional(alpha, c.q(k))
        assert abs(t) < Fraction(1, c.q(k + 1))
        assert t != 0


def test_circle_norm_interval_certifies():
    c = cf.expand("sqrt2-1", 20)
    lo, hi = cf.circle_norm_interval(c.alpha, c.q(10))
    assert 0 < lo <= hi
    assert Fraction(1, c.q(11) + c.q(10)) < lo and hi < Fraction(1, c.q(11))


# the Fraction bodies the integer reduction replaced, kept as the reference
@functools.lru_cache(maxsize=None)
def _ref_enclosure(alpha, bits):
    return alpha.enclosure(bits)


def _ref_centered_fractional(alpha, m, bits):
    if m == 0:
        return Fraction(0)
    b = bits
    while True:
        lo, hi = _ref_enclosure(alpha, b)
        x_lo, x_hi = m * lo, m * hi
        if x_lo > x_hi:
            x_lo, x_hi = x_hi, x_lo
        mid = (x_lo + x_hi) / 2
        r = (mid + Fraction(1, 2)).__floor__()
        t_lo, t_hi = x_lo - r, x_hi - r
        if Fraction(-1, 2) <= t_lo and t_hi < Fraction(1, 2):
            return (t_lo + t_hi) / 2
        if t_hi - t_lo < Fraction(1, 4):
            t = (t_lo + t_hi) / 2
            while t >= Fraction(1, 2):
                t -= 1
            while t < Fraction(-1, 2):
                t += 1
            return t
        if b >= cf.MAX_BITS:
            raise PrecisionError(
                f"cannot reduce {m}*alpha mod 1 at {cf.MAX_BITS} bits")
        b *= 2


def _ref_circle_norm_interval(alpha, m, bits):
    if m == 0:
        return (Fraction(0), Fraction(0))
    b = bits
    while True:
        lo, hi = _ref_enclosure(alpha, b)
        x_lo, x_hi = m * lo, m * hi
        if x_lo > x_hi:
            x_lo, x_hi = x_hi, x_lo
        r = ((x_lo + x_hi) / 2 + Fraction(1, 2)).__floor__()
        t_lo, t_hi = x_lo - r, x_hi - r
        if Fraction(-1, 2) <= t_lo and t_hi <= Fraction(1, 2):
            if t_lo <= 0 <= t_hi:
                return (Fraction(0), max(-t_lo, t_hi))
            mags = sorted((abs(t_lo), abs(t_hi)))
            return (mags[0], mags[1])
        if b >= cf.MAX_BITS:
            raise PrecisionError(
                f"cannot certify ||{m}*alpha|| at {cf.MAX_BITS} bits")
        b *= 2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionError as exc:
        return ("PrecisionError", str(exc))



RATIONAL_355_1131 = cf.parse_alpha("355/1131")
PHASE_ALPHAS = (cf.SQRT2_MINUS_1, cf.GOLDEN, resonant_alpha(9),
                resonant_alpha(11), RATIONAL_355_1131)
# 2^e + u for e up to 4000: every size, past what 2^-4096 enclosures resolve
HUGE = st.builds(lambda e, u, sign: sign * ((1 << e) + u),
                 st.integers(0, 4000), st.integers(0, 2 ** 64),
                 st.sampled_from((1, -1)))
SMALL = st.integers(1, 2 ** 20).flatmap(lambda m: st.sampled_from((m, -m)))


def _assert_same_reduction(alpha, m, bits):
    assert _outcome(cf.centered_fractional, alpha, m, bits) == \
        _outcome(_ref_centered_fractional, alpha, m, bits)
    assert _outcome(cf.circle_norm_interval, alpha, m, bits) == \
        _outcome(_ref_circle_norm_interval, alpha, m, bits)


@settings(max_examples=400, deadline=None)
@given(alpha=st.sampled_from(PHASE_ALPHAS), data=st.data(),
       bits=st.sampled_from((64, 256, 1024)))
def test_integer_reduction_equals_fraction_reduction(alpha, data, bits):
    # the integer reduction returns equal Fractions, and raises the same
    # PrecisionError, as Fraction arithmetic on the same enclosures
    huge_ok = isinstance(alpha, cf.QuotientAlpha)
    m = data.draw(st.one_of(SMALL, HUGE) if huge_ok else SMALL, label="m")
    _assert_same_reduction(alpha, m, bits)


@pytest.mark.parametrize("alpha,m,settles_at", [
    (cf.SQRT2_MINUS_1, (1 << 100) + 1, 128),
    (cf.GOLDEN, -(1 << 300), 512),
    (resonant_alpha(9), 1 << 2000, None),       # the prefix runs out
    (resonant_alpha(11), -(1 << 3999) - 5, None),
], ids=["sqrt2-1", "golden", "depth9", "depth11"])
def test_integer_reduction_escalation_paths(alpha, m, settles_at):
    _assert_same_reduction(alpha, m, 64)
    if settles_at is None:
        with pytest.raises(PrecisionError):
            cf.centered_fractional(alpha, m, 64)
    else:
        # 64 bits is too coarse, so the reduction doubles up to settles_at
        assert cf.centered_fractional(alpha, m, 64) == \
            cf.centered_fractional(alpha, m, settles_at)
        assert cf.circle_norm_interval(alpha, m, 64) == \
            cf.circle_norm_interval(alpha, m, settles_at)


@dataclass(frozen=True)
class _FixedEnclosure(cf.ExactAlpha):
    """An enclosure that never narrows, of width exactly 1/4 at m = 1."""

    lo: Fraction = Fraction(1, 4)
    hi: Fraction = Fraction(1, 2)

    def enclosure(self, bits):
        return (self.lo, self.hi)

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class _CountedFixedEnclosure(_FixedEnclosure):
    """A fixed enclosure that records the precisions it is asked for and
    fails after eight, so an expansion that never stops fails fast."""

    calls: list = dataclasses.field(default_factory=list, compare=False)

    def enclosure(self, bits):
        self.calls.append(bits)
        assert len(self.calls) <= 8, "enclosure asked for again and again"
        return super().enclosure(bits)


def _first_norm_values(alpha, m, bits):
    near, far = next(cf._norm_parts(alpha, m, bits))
    return Fraction(*near), Fraction(*far)


_SMALL_FRACTIONS = st.fractions(0, 1, max_denominator=64)


@settings(max_examples=300, deadline=None)
@given(ends=st.tuples(_SMALL_FRACTIONS, _SMALL_FRACTIONS),
       m=st.integers(-40, 40), bits=st.sampled_from((64, 256)))
def test_sign_decided_norm_equals_the_fraction_reference(ends, m, bits):
    # wide fixed enclosures put m*[lo, hi] less r across 0 or wholly below
    # it, where the signs alone pick the near end
    alpha = _FixedEnclosure(min(ends), max(ends))
    rung = next(cf._reductions(alpha, m, bits))
    assume(rung[0] <= 0)            # straddling 0, or on its negative side
    assert _outcome(_first_norm_values, alpha, m, bits) == \
        _outcome(_ref_circle_norm_interval, alpha, m, bits)


def test_expand_refuses_an_enclosure_that_stops_narrowing():
    # (1/4, 1/2) shares no quotient: a_1 is 2, 3 or 4
    alpha = _CountedFixedEnclosure()
    with pytest.raises(PrecisionError, match="did not narrow"):
        cf.expand(alpha, 3)
    assert alpha.calls == [cf.DEFAULT_BITS, 2 * cf.DEFAULT_BITS]


@pytest.mark.parametrize("alpha", [
    cf.parse_alpha("quotients:1,1"), cf.parse_alpha("quotients:1,2"),
    cf.parse_alpha("3/8"), _FixedEnclosure()], ids=str)
def test_integer_reduction_on_boundaries(alpha):
    # shallow prefixes, an even denominator and a fixed interval put
    # enclosure ends exactly on +-1/2 and widths on either side of and at
    # 1/4, where the fit tests decide
    for m in range(-64, 65):
        _assert_same_reduction(alpha, m, 64)


@settings(max_examples=100, deadline=None)
@given(j=st.integers(-2 ** 20, 2 ** 20).filter(bool),
       bits=st.sampled_from((64, 256, 1024)))
def test_integer_reduction_exact_zero_for_rational(j, bits):
    m = j * RATIONAL_355_1131.value.denominator
    assert cf.centered_fractional(RATIONAL_355_1131, m, bits) == 0
    assert cf.circle_norm_interval(RATIONAL_355_1131, m, bits) == (0, 0)
    _assert_same_reduction(RATIONAL_355_1131, m, bits)


def test_quotient_alpha_depth_limits_certification():
    shallow = cf.parse_alpha([2, 2])
    with pytest.raises(PrecisionError):
        # ||m alpha|| for large m cannot be pinned by a depth-2 prefix
        cf.circle_norm_interval(shallow, 10 ** 6)
