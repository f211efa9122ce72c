import bisect
import cmath
import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeblab import cocycle as cc
from moeblab import complexity as cx
from moeblab import contfrac as cf
from moeblab import fixtures as fx
from moeblab.errors import (DomainError, ParameterError, PrecisionError,
                            ResonanceError)

from birkhoff_reference import _ref_birkhoff_sum


# ---------------------------------------------------------------------------
# Cocycle data validation
# ---------------------------------------------------------------------------

def test_conjugate_symmetry_enforced():
    with pytest.raises(DomainError, match="conjugate symmetry"):
        cc.FourierCocycle({1: 0.5 + 0j, -1: 0.4 + 0j}, 1.0, Fraction(1))


def test_envelope_enforced():
    with pytest.raises(DomainError, match="envelope"):
        cc.FourierCocycle({2: 1.0 + 0j, -2: 1.0 + 0j}, 1.0, Fraction(1))


def test_from_pairs_symmetrises_and_fits_constant():
    h = cc.cocycle_from_pairs([(1, 0.25j), (3, 0.001)], tau=1)
    assert h.coefficients[-1] == -0.25j
    assert abs(h.coefficients[1]) <= h.decay_constant * 1.0 ** -8 * (1 + 1e-9)


def test_evaluate_real_trig():
    # h(x) = 0.3 cos(2 pi x) via hhat(+-1) = 0.15, and 0.3 sin(2 pi x) via
    # hhat(1) = -0.15i, hhat(-1) = 0.15i
    for coeff, trig in ((0.15, np.cos), (-0.15j, np.sin)):
        h = cc.cocycle_from_pairs([(1, coeff)], tau=1)
        assert h.coefficients[1] == coeff
        for k in (7, 9):
            xs = np.linspace(0, 1, k, endpoint=False)
            assert np.allclose(h.evaluate(xs), 0.3 * trig(2 * np.pi * xs),
                               atol=1e-12), (coeff, k)
        assert h.lipschitz_bound() == pytest.approx(2 * 2 * math.pi * 0.15)


def test_fixture_reads_one_tau_in_resonance_data_and_cocycle():
    # a float tau is read by its repr on both sides, not by its binary value
    _, res, h = fx.resonant_fixture(depth=9, freq_bound=16, tau=0.1)
    assert res.tau == h.tau == Fraction(1, 10)


@pytest.mark.parametrize("tau", [True, "abc", 0, -1], ids=str)
def test_cocycle_builders_refuse_a_tau_that_is_not_a_positive_rational(tau):
    for build in (lambda: cc.cocycle_from_pairs([(1, 0.1)], tau=tau),
                  lambda: cc.envelope_cocycle(4, tau=tau),
                  lambda: cc.tau1_exponent(tau)):
        with pytest.raises(DomainError, match="'tau' must be"):
            build()


def test_envelope_cocycle_shape():
    h = cc.envelope_cocycle(16, decay_constant=2.0, tau=1)
    assert h.coefficients[4] == pytest.approx(2.0 * 4 ** -8)
    assert h.mean == 0.0
    assert len(h.support) == 33


def test_restrict_checks_only_the_symmetry_of_the_selection(monkeypatch):
    h = cc.envelope_cocycle(16, decay_constant=2.0, tau=1)
    checks = []
    post_init = cc.FourierCocycle.__post_init__
    monkeypatch.setattr(cc.FourierCocycle, "__post_init__",
                        lambda self: checks.append(self) or post_init(self))
    low = h.restrict(lambda m: abs(m) <= 4)
    assert checks == []
    assert low == cc.FourierCocycle(
        {m: c for m, c in h.coefficients.items() if abs(m) <= 4},
        h.decay_constant, h.tau)
    assert h.restrict(lambda m: False).support == ()
    for keep in (lambda m: m >= 0, lambda m: m != -3):
        with pytest.raises(DomainError, match="but not -m"):
            h.restrict(keep)


# ---------------------------------------------------------------------------
# Coboundary split
# ---------------------------------------------------------------------------

def test_split_single_frequency_m_empty():
    c, res, _ = fx.m_empty_fixture()
    h = cc.cocycle_from_pairs([(1, 0.5)], tau=1)
    split = cc.split_cocycle(h, res)
    assert split.h1.support in ((), (0,)) and split.h1.mean == 0.0
    assert set(split.tail.support) == {-1, 1}
    # closed form: psi(x) = Re(e(x)/(e(alpha)-1)) for hhat(1) = 1/2
    alpha_f = res.alpha.as_float()
    x = 0.3
    expected = (np.exp(2j * np.pi * x) / (np.exp(2j * np.pi * alpha_f) - 1)).real
    assert split.psi(x) == pytest.approx(expected, abs=1e-9)


def test_split_support_inside_m_gives_zero_psi(resonant):
    c, res, _, _ = resonant
    h = cc.cocycle_from_pairs([(0, 0.2), (2, 0.001), (4, 0.0005j)], tau=1)
    split = cc.split_cocycle(h, res)
    assert split.tail.support == ()
    assert split.psi(0.37) == 0.0


@pytest.mark.parametrize("fixture", ["m_empty", "m_pm1", "resonant"])
def test_coboundary_identity(fixture, resonant, rng):
    if fixture == "m_empty":
        _, res, h = fx.m_empty_fixture()
    elif fixture == "m_pm1":
        _, res, h = fx.m_pm1_fixture()
    else:
        _, res, h, _ = resonant
    split = cc.split_cocycle(h, res)
    xs = rng.random(1000)
    assert cc.coboundary_residual(split, h, xs) < 1e-9


def test_split_rejects_rational_resonance():
    c = cf.expand("2/7", 5)
    res = cf.resonance_sets(c, 1, 100)
    h = cc.cocycle_from_pairs([(7, 1e-9)], tau=1)   # e(7 * 2/7) = 1
    with pytest.raises(ResonanceError):
        cc.split_cocycle(h, res)


def test_split_rejects_support_beyond_depth():
    c = cf.expand("sqrt2-1", 6)                      # q_7 = 169
    res = cf.resonance_sets(c, 1, 10 ** 6)
    h = cc.cocycle_from_pairs([(200, 1e-18)], tau=1)
    with pytest.raises(ParameterError, match="deeper"):
        cc.split_cocycle(h, res)


def test_tail_case_classification(resonant):
    _, res, h, split = resonant
    rows = {r.m: r for r in split.case_rows}
    # 3 is not a multiple of any convergent denominator above 1 in window
    assert rows[3].case in (1, 2)
    assert all(r.certified for r in split.case_rows)
    case1 = [r for r in split.case_rows if r.case == 1]
    case2 = [r for r in split.case_rows if r.case == 2]
    assert case1 and case2
    for r in case1:
        assert r.norm_lower_bound == Fraction(1, 2 * r.m)


# ---------------------------------------------------------------------------
# Birkhoff sums
# ---------------------------------------------------------------------------

def test_birkhoff_zero_steps():
    h = cc.cocycle_from_pairs([(1, 0.15)], tau=1)
    assert _ref_birkhoff_sum(h, cf.SQRT2_MINUS_1, 0.42, 0) == 0.0


def test_birkhoff_constant():
    h = cc.cocycle_from_pairs([(0, 0.7)], tau=1)
    assert _ref_birkhoff_sum(h, cf.SQRT2_MINUS_1, 0.1, 9) == pytest.approx(6.3)


def test_birkhoff_closed_form_matches_direct():
    h = cc.cocycle_from_pairs([(1, 0.15)], tau=1)   # 0.3 cos(2 pi x)
    alpha = cf.SQRT2_MINUS_1
    a = alpha.as_float()
    x0 = 0.1
    direct = sum(0.3 * math.cos(2 * math.pi * ((x0 + i * a) % 1.0))
                 for i in range(12))
    closed = _ref_birkhoff_sum(h, alpha, x0, 12)
    assert closed == pytest.approx(direct, abs=1e-12)


def test_birkhoff_random_fixtures_long(rng):
    h = cc.cocycle_from_pairs([(1, 0.1 - 0.05j), (2, 0.002)], tau=1)
    alpha = cf.GOLDEN
    a = alpha.as_float()
    for _ in range(3):
        x0 = float(rng.random())
        n = int(rng.integers(100, 10 ** 4))
        direct = float(np.sum(h.evaluate(np.mod(x0 + np.arange(n) * a, 1.0))))
        assert _ref_birkhoff_sum(h, alpha, x0, n) == pytest.approx(direct, abs=1e-10)


def test_birkhoff_rational_resonant_frequency():
    # alpha = 1/3 and m = 3: e(m alpha) = 1, term contributes n * hhat(3) e(3x)
    h = cc.cocycle_from_pairs([(3, 0.25)], tau=1)
    alpha = cf.parse_alpha("1/3")
    x0, n = 0.2, 7
    direct = sum(0.5 * math.cos(2 * math.pi * 3 * ((x0 + i / 3) % 1.0))
                 for i in range(n))
    assert _ref_birkhoff_sum(h, alpha, x0, n) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# Block estimates
# ---------------------------------------------------------------------------

def test_block_estimate_constant_h1(resonant):
    c, res, _, _ = resonant
    h1 = cc.cocycle_from_pairs([(0, 0.3)], tau=1)
    rows = cc.block_estimate_check(h1, c, res)
    assert rows and all(r.deviation_sup == 0.0 for r in rows)


def test_block_estimate_resonant_rows(resonant):
    c, res, _, split = resonant
    rows = cc.block_estimate_check(split.h1, c, res, grid_size=512)
    assert [r.t for r in rows] == [2, 6, 8]
    ratios = [r.ratio for r in rows]
    assert max(ratios) < 1.0              # constant recorded, comfortably finite
    assert rows[0].deviation_sup == pytest.approx(0.0158, abs=2e-3)


def test_block_estimate_grid_refinement(resonant):
    c, res, _, split = resonant
    r256 = cc.block_estimate_check(split.h1, c, res, grid_size=256)
    r512 = cc.block_estimate_check(split.h1, c, res, grid_size=512)
    for a, b in zip(r256, r512):
        slack = (a.deviation_sup - a.deviation_grid)   # lipschitz part at 256
        assert abs(a.deviation_grid - b.deviation_grid) <= 10 * slack + 1e-15


def test_block_estimate_empty_e_warns():
    c, res, h = fx.m_empty_fixture()
    split = cc.split_cocycle(h, res)
    with pytest.warns(UserWarning, match="empty"):
        rows = cc.block_estimate_check(split.h1, c, res)
    assert rows == []


def test_block_estimate_grid_minimum():
    c, res, h = fx.m_pm1_fixture()
    split = cc.split_cocycle(h, res)
    with pytest.raises(ParameterError):
        cc.block_estimate_check(split.h1, c, res, grid_size=128)


# ---------------------------------------------------------------------------
# Integer phase pairs: each caller equals its Fraction formula
# ---------------------------------------------------------------------------

def _ref_e_minus_one_exact(alpha, m):
    t = cf.centered_fractional(alpha, m)
    if t == 0:
        return 0j
    tf = float(t)
    return 2j * math.sin(math.pi * tf) * cmath.exp(1j * math.pi * tf)


def _ref_classify_tail(alpha, res, m):
    qs = res.qs
    k = bisect.bisect_right(qs, m)
    qk = qs[k - 1]
    if m % qk != 0:
        lower, case = Fraction(1, 2 * m), 1
    else:
        lower, case = Fraction(m // qk, qk + (qs[k] if k < len(qs) else qk)), 2
    certified = cf.circle_norm_interval(alpha, m)[0] >= lower
    retried = case == 1 and not certified
    if retried:
        certified = cf.circle_norm_interval(alpha, m, bits=4096)[0] >= lower
    return lower, certified, retried


def _ref_birkhoff_block(h1, alpha, i_vals, xs):
    ms = np.array([m for m in h1.support if m > 0], dtype=np.int64)
    cs = np.array([h1.coefficients[m] for m in ms], dtype=np.complex128)
    dens = np.array([np.exp(2j * np.pi * float(cf.centered_fractional(alpha, int(m)))) - 1.0
                     for m in ms], dtype=np.complex128)
    e_mx = np.exp(2j * np.pi * ms[:, None] * xs[None, :])
    out = np.empty((len(i_vals), len(xs)), dtype=np.float64)
    for row, i in enumerate(i_vals):
        if i == 0:
            out[row] = 0.0
            continue
        t_i = float(cf.centered_fractional(alpha, i))
        coeff = cs * (np.exp(2j * np.pi * ms * t_i) - 1.0) / dens
        out[row] = i * h1.mean + 2.0 * (coeff[:, None] * e_mx).real.sum(axis=0)
    return out


def _bits(z):
    """Real and imaginary parts exactly, -0.0 told apart from 0.0."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except PrecisionError as exc:
        return ("PrecisionError", str(exc))


RATIONAL_355_1131 = cf.parse_alpha("355/1131")
PHASE_ALPHAS = (cf.SQRT2_MINUS_1, cf.GOLDEN, fx.resonant_alpha(9),
                fx.resonant_alpha(11), RATIONAL_355_1131)
# 2^e + u for e up to 4000: every size, past what 2^-4096 enclosures resolve
HUGE = st.builds(lambda e, u, sign: sign * ((1 << e) + u),
                 st.integers(0, 4000), st.integers(0, 2 ** 64),
                 st.sampled_from((1, -1)))
SMALL = st.integers(1, 2 ** 20).flatmap(lambda m: st.sampled_from((m, -m)))


@settings(max_examples=400, deadline=None)
@given(alpha=st.sampled_from(PHASE_ALPHAS), data=st.data())
def test_e_minus_one_exact_equals_fraction_formula(alpha, data):
    # u / den and float(Fraction(u, den)) are both correctly rounded, so
    # the two agree bit for bit, PrecisionError included
    huge_ok = isinstance(alpha, cf.QuotientAlpha)
    m = data.draw(st.one_of(SMALL, HUGE) if huge_ok else SMALL, label="m")
    assert _outcome(cc.e_minus_one_exact, alpha, m) == \
        _outcome(_ref_e_minus_one_exact, alpha, m)


@settings(max_examples=50, deadline=None)
@given(j=st.integers(-2 ** 20, 2 ** 20).filter(bool))
def test_e_minus_one_exact_zero_for_rational(j):
    m = j * RATIONAL_355_1131.value.denominator
    assert _bits(cc.e_minus_one_exact(RATIONAL_355_1131, m)) == _bits(0j)


def test_split_rejects_355_1131_resonance():
    c = cf.expand(RATIONAL_355_1131, 20)
    res = cf.resonance_sets(c, 1, 5000)
    h = cc.cocycle_from_pairs([(1, 1e-3), (2262, 1e-30)], tau=1)
    with pytest.raises(ResonanceError, match="2262"):
        cc.split_cocycle(h, res)


def test_classify_tail_equals_fraction_comparison(resonant):
    _, res, _, split = resonant
    assert len(split.case_rows) == len([m for m in split.tail.support if m > 0])
    for row in split.case_rows:
        lower, certified, _ = _ref_classify_tail(res.alpha, res, row.m)
        assert (row.norm_lower_bound, row.certified) == (lower, certified), row.m


@dataclass(frozen=True)
class _LooseBelowTop(cf.ExactAlpha):
    """The depth-9 resonant alpha with its enclosures widened by 2^-20 below
    4096 bits: too loose for the default-bits case-1 check at some m, exact
    enough at the 4096-bit retry."""

    base: cf.ExactAlpha = fx.resonant_alpha(9)

    def enclosure(self, bits):
        lo, hi = self.base.enclosure(bits)
        pad = Fraction(0) if bits >= cf.MAX_BITS else Fraction(1, 2 ** 20)
        return lo - pad, hi + pad


def test_classify_tail_takes_the_4096_bit_retry(resonant):
    _, res, _, split = resonant
    loose, e_set = _LooseBelowTop(), set(res.E)
    retried = []
    for row in split.case_rows:
        lower, certified, took_retry = _ref_classify_tail(loose, res, row.m)
        got = cc._classify_tail(loose, res, e_set, row.m,
                                next(cf._norm_parts(loose, row.m))[0])
        assert (got.norm_lower_bound, got.certified) == (lower, certified), row.m
        if took_retry:
            retried.append((row.case, certified))
    # the retry certifies case-1 rows the loose enclosure could not
    assert (1, True) in retried
    assert all(case == 1 for case, _ in retried)


def test_birkhoff_block_equals_fraction_formula(resonant, rng):
    c, res, _, split = resonant
    n_t = c.q(8) ** 3
    i_vals = list(range(300)) + sorted(int(r * n_t) for r in rng.random(64))
    point_sets = (rng.random(50), rng.random(3))
    refs = [_ref_birkhoff_block(split.h1, c.alpha, i_vals, xs).tobytes()
            for xs in point_sets]
    # whatever the block height, the blocks of each set stack to the reference
    for rows in (1, 37, len(i_vals)):
        blocks = cx._birkhoff_blocks(split.h1, c.alpha, i_vals, point_sets, rows)
        got = [np.concatenate(parts).tobytes() for parts in zip(*blocks)]
        assert got == refs, rows


# ---------------------------------------------------------------------------
# One ladder walk per tail frequency: the split equals the two-walk body
# ---------------------------------------------------------------------------

def _ref_first_norm(alpha, m, bits=cf.DEFAULT_BITS):
    """The first yield of `_norm_parts` as it was, its near end picked by
    cross-multiplication."""
    for t_lo, den_lo, t_hi, den_hi, _u, _den in cf._reductions(alpha, m, bits):
        if -den_lo <= 2 * t_lo and 2 * t_hi <= den_hi:
            near, far = (abs(t_lo), den_lo), (abs(t_hi), den_hi)
            if near[0] * far[1] > far[0] * near[1]:
                near, far = far, near
            return ((0, 1) if t_lo <= 0 <= t_hi else near), far
    raise PrecisionError(f"cannot certify ||{m}*alpha|| at {cf.MAX_BITS} bits")


def _ref_tail_row(alpha, res, e_set, m):
    qs = res.qs
    k = bisect.bisect_right(qs, m)
    qk = qs[k - 1]
    if m % qk != 0:
        lower, case = (1, 2 * m), 1
    else:
        lower, case = (m // qk, qk + (qs[k] if k < len(qs) else qk)), 2
    (num, den), _hi = _ref_first_norm(alpha, m)
    certified = num * lower[1] >= lower[0] * den
    if case == 1 and not certified:
        (num, den), _hi = _ref_first_norm(alpha, m, bits=cf.MAX_BITS)
        certified = num * lower[1] >= lower[0] * den
    return cc.TailCaseRow(m=m, case=case, level=k,
                          norm_lower_bound=Fraction(*lower), certified=certified)


def _ref_split_cocycle(h, res):
    """The split as it was: psi's denominator and the case row each walk
    the ladder, checks and refusals included."""
    alpha, m_set, top_q = res.alpha, res.M, res.qs[-1]
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
    psi_coeffs, rows, e_set = {}, [], set(res.E)
    for m in tail.support:
        if m < 0:
            continue
        den = cc.e_minus_one_exact(alpha, m)
        if den == 0:
            raise ResonanceError(
                f"e({m}*alpha) = 1 exactly; {m}*alpha is an integer and the "
                "coboundary series is undefined at this frequency")
        psi_coeffs[m] = tail.coefficients[m] / den
        if not rational:
            rows.append(_ref_tail_row(alpha, res, e_set, m))
    return cc.CocycleSplit(h1=h1, tail=tail, alpha=alpha, resonance=res,
                           psi_coefficients=psi_coeffs, case_rows=tuple(rows))


def _assert_same_split(h, res):
    got, want = cc.split_cocycle(h, res), _ref_split_cocycle(h, res)
    assert (got.h1, got.tail) == (want.h1, want.tail)
    assert [(m, _bits(c)) for m, c in got.psi_coefficients.items()] == \
        [(m, _bits(c)) for m, c in want.psi_coefficients.items()]
    assert got.case_rows == want.case_rows
    return got


def test_split_equals_two_walks_on_the_lemma54_config():
    # the lemma54 experiment's split: resonant depth 11, freq bound 16384
    _, res, h = fx.resonant_fixture(depth=11, freq_bound=16384)
    split = _assert_same_split(h, res)
    assert len(split.case_rows) == 16367


def test_split_equals_two_walks_on_the_depth9_fixture(resonant):
    _, res, h, _ = resonant
    _assert_same_split(h, res)


@pytest.mark.parametrize("spec", ["sqrt2-1", "golden"])
def test_split_equals_two_walks_on_quadratic_alphas(spec):
    res = cf.resonance_sets(cf.expand(spec, 20), 1, 10 ** 6)
    split = _assert_same_split(cc.envelope_cocycle(3000), res)
    assert len(split.case_rows) == 3000 - (spec == "golden")


def test_split_equals_two_walks_on_a_loose_enclosure(resonant):
    # the loose enclosure fails the norm fit at 256 bits for some m, so the
    # walk goes on past the rung where the centered fit passed, and some
    # case-1 row takes the 4096-bit retry
    _, res, h, _ = resonant
    loose = _LooseBelowTop()
    split = _assert_same_split(h, dataclasses.replace(res, alpha=loose))
    first = {row.m: next(cf._reductions(loose, row.m, cf.DEFAULT_BITS))
             for row in split.case_rows}
    walked_on = [m for m, rung in first.items()
                 if cf._fits_centered(*rung[:4]) and not cf._fits_norm(*rung[:4])]

    def uncertified_at_256(m):
        num, den = _ref_first_norm(loose, m)[0]
        return num * 2 * m < den          # ||m alpha|| >= 1/(2m) not shown

    retried = [row.m for row in split.case_rows
               if row.case == 1 and uncertified_at_256(row.m)]
    assert walked_on and retried
    for m in walked_on:
        centered, near = cf._split_parts(loose, m)
        assert centered == cf._centered_parts(loose, m)
        assert Fraction(*near) == Fraction(*_ref_first_norm(loose, m)[0])


def test_split_refuses_355_1131_as_the_two_walks_do():
    c = cf.expand(RATIONAL_355_1131, 20)
    res = cf.resonance_sets(c, 1, 5000)
    h = cc.cocycle_from_pairs([(1, 1e-3), (2262, 1e-30)], tau=1)
    messages = []
    for split in (cc.split_cocycle, _ref_split_cocycle):
        with pytest.raises(ResonanceError) as caught:
            split(h, res)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("e(2262*alpha) = 1 exactly")
