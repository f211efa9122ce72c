import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeblab import numtheory as nt
from moeblab.errors import DomainError, SizingError


# ---------------------------------------------------------------------------
# Mobius sieve
# ---------------------------------------------------------------------------

def test_mu_definition_examples(table_100k):
    assert table_100k.mu(1) == 1
    assert table_100k.mu(12) == 0       # 12 = 2^2 * 3
    assert table_100k.mu(30) == -1      # three distinct primes


def test_sieve_matches_trial_division_sample(table_100k):
    for n in range(1, 20001):
        assert table_100k.mu(n) == nt.mu_by_factorization(n), n


def test_segment_boundaries():
    # values straddling the segment size must agree with direct factorization
    block = nt.SIEVE_BLOCK
    table = nt.build_mobius_table(block + 64)
    for n in range(block - 3, block + 4):
        assert table.mu(n) == nt.mu_by_factorization(n), n


MU_ORACLE = [0] + [nt.mu_by_factorization(n) for n in range(1, 3001)]


@settings(max_examples=150, deadline=None)
@given(n_max=st.integers(min_value=1, max_value=3000),
       block=st.integers(min_value=1, max_value=300))
def test_sieve_independent_of_segment_size(n_max, block):
    # wherever the segment boundaries fall, values and primes are those of
    # trial division and an unsegmented sieve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nt, "SIEVE_BLOCK", block)
        table = nt.build_mobius_table(n_max)
    assert table.values.tolist() == MU_ORACLE[: n_max + 1]
    assert table.primes.dtype == np.int64
    assert table.primes.tolist() == nt._simple_prime_sieve(n_max).tolist()


def test_multiplicativity_on_random_coprime_pairs(table_100k, rng):
    limit = table_100k.limit
    checked = 0
    while checked < 10 ** 4:
        m = int(rng.integers(1, 1000))
        n = int(rng.integers(1, limit // max(m, 1)))
        if math.gcd(m, n) != 1:
            continue
        assert table_100k.mu(m * n) == table_100k.mu(m) * table_100k.mu(n)
        checked += 1


def test_mertens_small_values(table_100k):
    assert nt.mertens(table_100k, 1) == 1
    assert nt.mertens(table_100k, 2) == 0
    assert nt.mertens(table_100k, 10) == -1   # direct sum of the first ten mu


def test_mertens_million(table_1m):
    assert nt.mertens(table_1m, 10 ** 6) == 212


def test_mertens_range_error(table_100k):
    with pytest.raises(SizingError):
        nt.mertens(table_100k, table_100k.limit + 1)


def test_build_rejects_bad_sizes():
    with pytest.raises(SizingError):
        nt.build_mobius_table(0)
    with pytest.raises(SizingError):
        nt.build_mobius_table(10 ** 6, memory_cap=10 ** 4)


def test_prime_list(table_100k):
    primes = table_100k.primes
    assert primes[0] == 2 and primes[1] == 3
    assert int(primes[-1]) == 99991
    assert len(primes) == 9592            # pi(10^5)
    assert np.all(np.diff(primes) > 0)


def test_mu_is_minus_one_on_primes(table_100k):
    assert np.all(table_100k.values[table_100k.primes] == -1)


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------

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
# Pretentious distance
# ---------------------------------------------------------------------------

def test_distance_mu_to_itself_vanishes(table_100k):
    f = nt.mobius_on_primes(table_100k)
    assert nt.pretentious_distance_sq(f, f, 1000) == 0.0


def test_distance_mu_to_one():
    d = nt.pretentious_distance_sq(lambda n: -1, lambda n: 1, 10)
    assert abs(d - 2 * (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)) < 1e-12


def test_distance_unimodular_equal_functions():
    f = lambda n: np.exp(2j * np.pi * 0.37)
    assert nt.pretentious_distance_sq(f, f, 100) < 1e-15


def test_distance_symmetry_and_monotonicity():
    f = lambda n: -1
    g = lambda n: np.exp(1j * 0.3 * math.log(n))
    d_fg = nt.pretentious_distance_sq(f, g, 500)
    d_gf = nt.pretentious_distance_sq(g, f, 500)
    assert abs(d_fg - d_gf) < 1e-12
    values = [nt.pretentious_distance_sq(f, g, n) for n in (10, 100, 1000)]
    assert values[0] <= values[1] <= values[2]


def test_distance_rejects_unbounded():
    with pytest.raises(DomainError):
        nt.pretentious_distance_sq(lambda n: 2.0, lambda n: 1, 10)


# ---------------------------------------------------------------------------
# Non-pretentiousness scan
# ---------------------------------------------------------------------------

def test_non_pretentious_reduces_to_plain_distance(table_100k):
    value = nt.mobius_non_pretentious(table_100k, 10, 1, [0.0])
    assert abs(value - 2 * (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)) < 1e-12


def test_non_pretentious_is_a_min(table_100k):
    grid = nt.default_t_grid(1000, 21)
    value = nt.mobius_non_pretentious(table_100k, 1000, 2, grid)
    principal_at_zero = nt.mobius_non_pretentious(table_100k, 1000, 1, [0.0])
    assert value <= principal_at_zero + 1e-15


def test_non_pretentious_grows_with_n(table_1m):
    # fixed grid and Q: the grid minimum is nondecreasing in N
    grid = list(nt.default_t_grid(100, 51))
    values = [nt.mobius_non_pretentious(table_1m, n, 2, grid)
              for n in (10 ** 2, 10 ** 4, 10 ** 6)]
    assert values[0] <= values[1] <= values[2]
    assert values[2] > values[0] + 0.5   # visible growth, Eq.-style divergence


def test_non_pretentious_empty_grid(table_100k):
    with pytest.raises(DomainError):
        nt.mobius_non_pretentious(table_100k, 100, 1, [])


def test_default_t_grid_contains_zero():
    grid = nt.default_t_grid(10 ** 4)
    assert 0.0 in grid
    assert grid.min() == -grid.max()
