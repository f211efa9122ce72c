import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeblab import numtheory as nt
from moeblab.errors import DomainError, SizingError

from test_admissions import MIB, refused_peak, traced_peak


# ---------------------------------------------------------------------------
# Mobius sieve
# ---------------------------------------------------------------------------

def test_mu_definition_examples(table_100k):
    assert int(table_100k.values[1]) == 1
    assert int(table_100k.values[12]) == 0       # 12 = 2^2 * 3
    assert int(table_100k.values[30]) == -1      # three distinct primes


def test_sieve_matches_trial_division_sample(table_100k):
    for n in range(1, 20001):
        assert int(table_100k.values[n]) == nt.mu_by_factorization(n), n


def test_segment_boundaries():
    # values straddling the segment size must agree with direct factorization
    block = nt.SIEVE_BLOCK
    table = nt.build_mobius_table(block + 64)
    for n in range(block - 3, block + 4):
        assert int(table.values[n]) == nt.mu_by_factorization(n), n


MU_ORACLE = [0] + [nt.mu_by_factorization(n) for n in range(1, 3001)]


@settings(max_examples=150, deadline=None)
@given(n_max=st.integers(min_value=1, max_value=3000),
       block=st.integers(min_value=1, max_value=300))
def test_sieve_independent_of_segment_size(n_max, block):
    # wherever the segment boundaries fall, the values are those of trial
    # division
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nt, "SIEVE_BLOCK", block)
        table = nt.build_mobius_table(n_max)
    assert table.values.tolist() == MU_ORACLE[: n_max + 1]


def test_sieve_scratch_is_narrow():
    # below 2^31 each block's products and entries are int32: beside the
    # values, 9 bytes an entry of a block (products, entries and the int8
    # flip), where int64 scratch took about 15
    n_max = 4 * nt.SIEVE_BLOCK
    peak = traced_peak(lambda: nt.build_mobius_table(n_max))
    assert peak < n_max + 10 * nt.SIEVE_BLOCK, peak


def test_stream_equals_the_table():
    n_max = 2 * nt.SIEVE_BLOCK + 3
    segments = list(nt.mobius_segments(n_max))
    assert [len(mu) for mu in segments] == [nt.SIEVE_BLOCK, nt.SIEVE_BLOCK, 3]
    assert all(mu.dtype == np.int8 for mu in segments)
    assert np.array_equal(np.concatenate(segments),
                          nt.build_mobius_table(n_max).values[1:])


@settings(max_examples=300, deadline=None)
@given(cuts=st.lists(st.integers(0, 40), max_size=12),
       width=st.integers(1, 60), data=st.data())
def test_windows_are_slices_of_the_joined_stream(cuts, width, data):
    # wherever the blocks are cut, each window is the slice of the joined
    # stream at its start, and a view of the one block that holds it
    overlap = data.draw(st.integers(0, width - 1))
    joined = np.arange(sum(cuts))
    offsets = np.cumsum([0] + cuts)
    blocks = [joined[a:b] for a, b in zip(offsets, offsets[1:])]
    got = list(nt.windows(blocks, width, overlap))
    n = len(joined)
    starts = range(0, max(n - overlap, 1), width - overlap) if n else ()
    assert [w.tolist() for w in got] == [joined[s: s + width].tolist()
                                         for s in starts]
    for w, s in zip(got, starts):
        inside = any(a <= s and s + len(w) <= b
                     for a, b in zip(offsets, offsets[1:]))
        assert np.shares_memory(w, joined) == inside, (s, len(w))


@pytest.mark.parametrize("width, overlap", [(3, 3), (3, -1), (0, 0)])
def test_windows_need_an_overlap_below_the_width(width, overlap):
    with pytest.raises(DomainError, match="overlap < width"):
        next(nt.windows([np.zeros(10)], width, overlap))


@pytest.mark.parametrize("n_max", [2 ** 31, 2 ** 40])
def test_stream_refused_before_allocation(n_max):
    # one segment's scratch fits the cap, but int32 entries end at 2^31
    assert refused_peak(lambda: nt.mobius_segments(n_max), "reaches 2") < MIB


def test_mertens_values_read_the_blocks_up_to_the_last_n():
    first, second = ([1, -1, -1], [0, -1])          # mu(1..3), mu(4..5)
    blocks = iter([np.array(first, dtype=np.int8),
                   np.array(second, dtype=np.int8)])
    assert nt.mertens_values(blocks, [1, 3]) == [1, -1]
    assert next(blocks).tolist() == second          # left unread
    assert nt.mertens_values([np.array(first + second, dtype=np.int8)],
                             [2, 4, 5]) == [0, -1, -2]
    with pytest.raises(SizingError, match="known up to 5"):
        nt.mertens_values(nt.mobius_segments(5), [6])
    with pytest.raises(DomainError):
        nt.mertens_values(nt.mobius_segments(5), [3, 2])
    assert nt.mertens_values(nt.mobius_segments(5), []) == []


def _ref_build_mobius_table(n_max: int) -> nt.MobiusTable:
    """The former two-pass sieve: an int64 residual divided by each base
    prime and a separate p^2 mask."""
    base_primes = nt._simple_prime_sieve(math.isqrt(n_max))
    values = np.zeros(n_max + 1, dtype=np.int8)
    for lo in range(1, n_max + 1, nt.SIEVE_BLOCK):
        hi = min(lo + nt.SIEVE_BLOCK, n_max + 1)
        residual = np.arange(lo, hi, dtype=np.int64)
        sign = np.ones(hi - lo, dtype=np.int8)
        zero = np.zeros(hi - lo, dtype=bool)
        for p in base_primes:
            p = int(p)
            start = (-lo) % p
            sign[start::p] = -sign[start::p]
            residual[start::p] //= p
            p2 = p * p
            if p2 < hi:
                start2 = (-lo) % p2
                zero[start2::p2] = True
        sign[residual > 1] = -sign[residual > 1]
        sign[zero] = 0
        values[lo:hi] = sign
    values[0] = 0
    return nt.MobiusTable(limit=n_max, values=values)


@pytest.mark.parametrize("n_max", [
    1, 2, 3, 4, 960, 961, nt.SIEVE_BLOCK - 1, nt.SIEVE_BLOCK,
    nt.SIEVE_BLOCK + 1, 2 * nt.SIEVE_BLOCK + 3, 10 ** 6 + 7])
def test_sieve_equals_two_pass_reference(n_max):
    table = nt.build_mobius_table(n_max)
    ref = _ref_build_mobius_table(n_max)
    assert table.values.dtype == ref.values.dtype
    assert np.array_equal(table.values, ref.values)


def _ref_running_product_table(n_max: int) -> nt.MobiusTable:
    """The former segment loop: an unsigned int32 product of the base
    primes, a separate int8 sign flipped per prime and zeroed per p^2, and
    a masked flip where the product is below the entry."""
    base_primes = nt._simple_prime_sieve(math.isqrt(n_max))
    values = np.zeros(n_max + 1, dtype=np.int8)
    for lo in range(1, n_max + 1, nt.SIEVE_BLOCK):
        hi = min(lo + nt.SIEVE_BLOCK, n_max + 1)
        prod = np.ones(hi - lo, dtype=np.int32)
        sign = values[lo:hi]
        sign[:] = 1
        for p in base_primes.tolist():
            start = (-lo) % p
            np.negative(sign[start::p], out=sign[start::p])
            prod[start::p] *= p
            if p * p < hi:
                sign[(-lo) % (p * p):: p * p] = 0
        seg = np.arange(lo, hi, dtype=np.int32)
        np.negative(sign, out=sign, where=prod < seg)
    return nt.MobiusTable(limit=n_max, values=values)


def _assert_tables_equal(table, ref):
    assert table.values.dtype == ref.values.dtype
    assert np.array_equal(table.values, ref.values)


@pytest.mark.parametrize("n_max", [
    1, 2, 3, 4, 960, 961, nt.SIEVE_BLOCK - 1, nt.SIEVE_BLOCK,
    nt.SIEVE_BLOCK + 1, 2 * nt.SIEVE_BLOCK + 3, 10 ** 6 + 7])
def test_sieve_equals_running_product_reference(n_max):
    _assert_tables_equal(nt.build_mobius_table(n_max),
                         _ref_running_product_table(n_max))


@settings(max_examples=100, deadline=None)
@given(n_max=st.integers(min_value=1, max_value=3000),
       block=st.integers(min_value=1, max_value=300))
def test_sieve_equals_running_product_reference_at_any_block(n_max, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nt, "SIEVE_BLOCK", block)
        table = nt.build_mobius_table(n_max)
        ref = _ref_running_product_table(n_max)
    _assert_tables_equal(table, ref)


def test_multiplicativity_on_random_coprime_pairs(table_100k, rng):
    limit = table_100k.limit
    checked = 0
    while checked < 10 ** 4:
        m = int(rng.integers(1, 1000))
        n = int(rng.integers(1, limit // max(m, 1)))
        if math.gcd(m, n) != 1:
            continue
        mu = table_100k.values
        assert int(mu[m * n]) == int(mu[m]) * int(mu[n])
        checked += 1


def test_mertens_small_values(table_100k):
    assert nt.mertens_values([table_100k.values[1:]], [1, 2, 10]) == [1, 0, -1]


def test_mertens_million(table_1m):
    assert nt.mertens_values([table_1m.values[1:]], [10 ** 6]) == [212]


def test_mertens_range_error(table_100k):
    with pytest.raises(SizingError):
        nt.mertens_values([table_100k.values[1:]], [table_100k.limit + 1])


def test_build_rejects_bad_sizes():
    with pytest.raises(SizingError):
        nt.build_mobius_table(0)
    # the values of 2^31 - 2^22 fit the cap, but not with one segment's
    # int32 scratch; refused before anything is allocated
    for n_max in (2 ** 31 - 2 ** 22, 2 ** 31, 2 ** 40):
        assert refused_peak(lambda: nt.build_mobius_table(n_max)) < MIB


def test_prime_list():
    primes = nt._simple_prime_sieve(10 ** 5)
    assert primes[0] == 2 and primes[1] == 3
    assert int(primes[-1]) == 99991
    assert len(primes) == 9592            # pi(10^5)
    assert np.all(np.diff(primes) > 0)


def test_mu_is_minus_one_on_primes(table_100k):
    assert np.all(table_100k.values[nt._simple_prime_sieve(10 ** 5)] == -1)


def test_table_is_read_only():
    t = nt.build_mobius_table(100)
    with pytest.raises(ValueError):
        t.values[1] = 0
    assert int(t.values[1]) == 1


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=1, max_value=10 ** 6))
def test_factor_is_an_ascending_prime_factorization(n):
    factors = nt._factor(n)
    assert math.prod(p ** e for p, e in factors) == n
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})
    assert all(e >= 1 for _, e in factors)
    assert all(p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))
               for p, _ in factors)


def _ref_primitive_root(p: int, e: int) -> int:
    """The former primitive root search, with its own trial division."""
    phi_p = p - 1
    factors = set()
    m = phi_p
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    g = None
    for cand in range(2, p):
        if all(pow(cand, phi_p // f, p) != 1 for f in factors):
            g = cand
            break
    assert g is not None
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _ref_unit_group_components(q: int):
    """The former decomposition, factoring q by its own trial division."""
    comps = []
    m = q
    for p in range(2, q + 1):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            comps.append((p, e))
    if m > 1:
        comps.append((m, 1))

    out = []
    for p, e in comps:
        pe = p ** e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                out.append((pe, [(3, 2)]))
            else:
                out.append((pe, [(pe - 1, 2), (3, 1 << (e - 2))]))
        else:
            g = _ref_primitive_root(p, e)
            out.append((pe, [(g, pe // p * (p - 1))]))
    return out


def _ref_dirichlet_characters(q: int) -> nt.CharacterTable:
    """The former table: q = 1 on its own, and hand-written odometers over
    each component's exponents and over the global exponent tuples."""
    if q == 1:
        chi = nt.DirichletCharacter(1, 0, np.ones(1, dtype=np.complex128), True)
        return nt.CharacterTable(1, (chi,))

    components = _ref_unit_group_components(q)
    gens = []
    orders = []
    joint_tables = []
    for pe, comp_gens in components:
        for _, d in comp_gens:
            gens.append((pe, d))
            orders.append(d)
        table = {}
        exps = [0] * len(comp_gens)
        while True:
            v = 1
            for (g, _), k in zip(comp_gens, exps):
                v = (v * pow(g, k, pe)) % pe
            table[v] = tuple(exps)
            for gi in range(len(comp_gens) - 1, -1, -1):
                exps[gi] += 1
                if exps[gi] < comp_gens[gi][1]:
                    break
                exps[gi] = 0
            else:
                break
        joint_tables.append((pe, len(comp_gens), table))

    units = [a for a in range(q) if math.gcd(a, q) == 1]
    dlogs = np.zeros((len(units), len(gens)), dtype=np.int64)
    for ui, a in enumerate(units):
        col = 0
        for pe, n_gens, table in joint_tables:
            for k in table[a % pe]:
                dlogs[ui, col] = k
                col += 1

    phi_q = int(np.prod(orders)) if orders else 1
    chars = []
    exps = [0] * len(gens)
    for index in range(phi_q):
        values = np.zeros(q, dtype=np.complex128)
        for ui, a in enumerate(units):
            angle = sum(exps[gi] * int(dlogs[ui, gi]) / orders[gi]
                        for gi in range(len(gens)))
            values[a] = np.exp(2j * np.pi * angle)
        chars.append(nt.DirichletCharacter(
            q, index, values, is_principal=all(e == 0 for e in exps)))
        for gi in range(len(gens) - 1, -1, -1):
            exps[gi] += 1
            if exps[gi] < orders[gi]:
                break
            exps[gi] = 0
    assert len(chars) == phi_q
    return nt.CharacterTable(q, tuple(chars))


@pytest.mark.parametrize("q", range(1, nt.DEFAULT_CHARACTER_CAP + 1))
def test_characters_equal_the_odometer_reference(q):
    # same generators, same index order, same values to the bit
    assert nt._unit_group_components(q) == _ref_unit_group_components(q)
    table, ref = nt.dirichlet_characters(q), _ref_dirichlet_characters(q)
    assert table.modulus == ref.modulus == q
    assert [(c.modulus, c.index, c.is_principal, c.values.dtype,
             c.values.tobytes()) for c in table.characters] \
        == [(c.modulus, c.index, c.is_principal, c.values.dtype,
             c.values.tobytes()) for c in ref.characters]


def test_characters_q1():
    table = nt.dirichlet_characters(1)
    assert table.phi == 1
    chi = table.characters[0]
    assert chi.is_principal
    assert all(chi(n) == 1 for n in range(1, 10))


def test_characters_q3():
    table = nt.dirichlet_characters(3)
    assert table.phi == 2
    nonprincipal = [c for c in table.characters if not c.is_principal]
    assert len(nonprincipal) == 1
    assert abs(nonprincipal[0](2) - (-1)) < 1e-12


def test_characters_q4():
    table = nt.dirichlet_characters(4)
    assert table.phi == 2
    chi = [c for c in table.characters if not c.is_principal][0]
    assert abs(chi(3) - (-1)) < 1e-12
    assert chi(2) == 0


@pytest.mark.parametrize("q", list(range(1, 51)))
def test_character_orthogonality(q):
    table = nt.dirichlet_characters(q)
    units = [a for a in range(q) if math.gcd(a, q) == 1] or [0]
    phi = len(units)
    assert table.phi == phi
    for c1 in table.characters:
        for c2 in table.characters:
            s = sum(c1.values[a] * np.conj(c2.values[a]) for a in units) / phi
            expected = 1.0 if c1.index == c2.index else 0.0
            assert abs(s - expected) < 1e-12


def test_character_values_are_roots_of_unity():
    for q in (5, 8, 12, 45):
        table = nt.dirichlet_characters(q)
        phi = table.phi
        for chi in table.characters:
            for a in range(q):
                if math.gcd(a, q) == 1:
                    assert abs(chi(a) ** phi - 1) < 1e-9


def test_character_cap():
    with pytest.raises(SizingError):
        nt.dirichlet_characters(101)


# ---------------------------------------------------------------------------
# Non-pretentiousness scan
# ---------------------------------------------------------------------------

def _ref_pretentious_scan(n_max, big_q, t_grid):
    """The former scan, with the twist recomputed for every (chi, t)."""
    ps = nt._simple_prime_sieve(n_max)
    pf = ps.astype(np.float64)
    logp = np.log(pf)
    inv_p = 1.0 / pf
    rows = []
    for q in range(1, big_q + 1):
        for chi in nt.dirichlet_characters(q).characters:
            chi_p = chi.values[ps % q]
            for t in (float(t) for t in t_grid):
                g = chi_p * np.exp(1j * t * logp)
                dist = float(np.sum((1.0 + g.real) * inv_p))
                rows.append(nt.PretentiousRow(q, chi.index, t, dist))
    return rows


@pytest.mark.parametrize("big_q", [1, 5, 12])
@pytest.mark.parametrize("n_max,grid", [
    (10 ** 5, nt.default_t_grid(10 ** 5, 9)),
    (3000, [0.0, -1.5, 2.25, 1e-3])], ids=["default-grid", "hand-grid"])
def test_pretentious_scan_equals_per_character_reference(big_q, n_max, grid):
    rows = nt.pretentious_scan(n_max, big_q, grid)
    ref = _ref_pretentious_scan(n_max, big_q, grid)
    assert [(r.q, r.chi_index, r.t.hex(), r.distance_sq.hex()) for r in rows] \
        == [(r.q, r.chi_index, r.t.hex(), r.distance_sq.hex()) for r in ref]


def test_pretentious_scan_reads_every_prime_up_to_n():
    # a scan once read the primes of a table sieved to 10^4 and gave
    # 4.96611989446712 here
    rows = nt.pretentious_scan(10 ** 6, 1, [0.0])
    assert rows == _ref_pretentious_scan(10 ** 6, 1, [0.0])
    assert rows[0].distance_sq == 5.774656199135345


def _min_distance(n_max, big_q, grid):
    """Grid-restricted M(mu; N, Q): the least distance of the scan."""
    return min(r.distance_sq for r in nt.pretentious_scan(n_max, big_q, grid))


def test_non_pretentious_reduces_to_plain_distance():
    value = _min_distance(10, 1, [0.0])
    assert abs(value - 2 * (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)) < 1e-12


def test_non_pretentious_is_a_min():
    grid = nt.default_t_grid(1000, 21)
    value = _min_distance(1000, 2, grid)
    principal_at_zero = _min_distance(1000, 1, [0.0])
    assert value <= principal_at_zero + 1e-15


def test_non_pretentious_grows_with_n():
    # fixed grid and Q: the grid minimum is nondecreasing in N
    grid = list(nt.default_t_grid(100, 51))
    values = [_min_distance(n, 2, grid)
              for n in (10 ** 2, 10 ** 4, 10 ** 6)]
    assert values[0] <= values[1] <= values[2]
    assert values[2] > values[0] + 0.5   # visible growth, Eq.-style divergence


def test_non_pretentious_empty_grid():
    with pytest.raises(DomainError):
        _min_distance(100, 1, [])


def test_default_t_grid_contains_zero():
    grid = nt.default_t_grid(10 ** 4)
    assert 0.0 in grid
    assert grid.min() == -grid.max()
