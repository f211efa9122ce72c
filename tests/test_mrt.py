import math
import re

import numpy as np
import pytest

from moeblab import mrt
from moeblab import numtheory as nt
from moeblab.errors import DomainError, ParameterError, SizingError

from test_admissions import traced_peak

PRIMES_SMALL = nt._simple_prime_sieve(200)


@pytest.fixture(scope="module")
def ladder_11_17():
    return mrt.build_ladder(11, 17, 10 ** 4, 10 ** 4)


def brute_force_member(n: int, level_primes) -> bool:
    return all(any(n % int(p) == 0 for p in level) for level in level_primes)


# ---------------------------------------------------------------------------
# Ladder construction
# ---------------------------------------------------------------------------

def test_ladder_example(ladder_11_17):
    assert ladder_11_17.depth == 1
    assert ladder_11_17.levels == ((11.0, 17.0),)


def test_ladder_boundary_q1_accepted():
    n0 = 10 ** 4
    q1 = math.exp(math.sqrt(math.log(n0)))
    ladder = mrt.build_ladder(11, q1, n0, n0)
    assert ladder.depth >= 1


@pytest.mark.parametrize("p1,q1,n0,n,fragment", [
    (9, 17, 10 ** 4, 10 ** 4, "P1 > 10"),
    (18, 17, 10 ** 4, 10 ** 4, "P1 < Q1"),
    (11, 17, 50, 10 ** 4, "sqrt(N) <= N0"),
    (11, 45, 10 ** 4, 10 ** 4, "exp(sqrt(log N0))"),
])
def test_ladder_errors_name_inequality(p1, q1, n0, n, fragment):
    with pytest.raises(ParameterError, match=re.escape(fragment)):
        mrt.build_ladder(p1, q1, n0, n)


def test_higher_level_log_formula():
    # log P_2 = 2^8 (log Q1) log P1 and log Q_2 = 2^10 (log Q1)^2
    lp, lq = mrt._log_level(2, math.log(11), math.log(17))
    assert abs(lp - 2 ** 8 * math.log(17) * math.log(11)) / lp < 1e-9
    assert abs(lq - 2 ** 10 * math.log(17) ** 2) / lq < 1e-9
    lp3, lq3 = mrt._log_level(3, math.log(11), math.log(17))
    assert lp3 > lq and lq3 > lp3          # disjoint and increasing in logs


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def _ref_in_typical_set(n: int, ladder: mrt.MrtLadder, primes) -> bool:
    """True iff n has at least one prime factor in every ladder level."""
    if not 1 <= n <= ladder.n:
        raise DomainError(f"n={n} outside [1, {ladder.n}]")
    primes = np.asarray(primes)
    top = ladder.levels[-1][1]
    if len(primes) == 0 or primes[-1] < math.floor(top):
        raise DomainError(
            f"prime list must cover ceil(Q_J) = {math.ceil(top)}")
    for p_j, q_j in ladder.levels:
        level = primes[(primes >= p_j) & (primes <= q_j)]
        if not any(n % int(p) == 0 for p in level):
            return False
    return True


def test_membership_examples(ladder_11_17):
    assert _ref_in_typical_set(13, ladder_11_17, PRIMES_SMALL)
    assert not _ref_in_typical_set(8, ladder_11_17, PRIMES_SMALL)
    assert _ref_in_typical_set(22, ladder_11_17, PRIMES_SMALL)


def test_membership_needs_prime_coverage(ladder_11_17):
    with pytest.raises(DomainError):
        _ref_in_typical_set(13, ladder_11_17, [2, 3, 5])


def test_membership_matches_bruteforce(ladder_11_17):
    level_primes = ladder_11_17.level_primes()
    mask = mrt.typical_set_mask(ladder_11_17, 10 ** 4)
    for n in range(1, 10 ** 4 + 1):
        assert mask[n] == brute_force_member(n, level_primes), n
        assert mask[n] == _ref_in_typical_set(n, ladder_11_17, PRIMES_SMALL), n


def test_one_is_never_a_member(ladder_11_17):
    assert not _ref_in_typical_set(1, ladder_11_17, PRIMES_SMALL)


# ---------------------------------------------------------------------------
# Complement density
# ---------------------------------------------------------------------------

def test_complement_counts(ladder_11_17):
    stats = mrt.complement_density(ladder_11_17,
                                   mrt.typical_set_mask(ladder_11_17, 10 ** 4))
    brute = sum(1 for n in range(1, 10 ** 4 + 1)
                if not any(n % p == 0 for p in (11, 13, 17)))
    assert stats.complement_count == brute
    assert stats.member_count + stats.complement_count == stats.n
    assert abs(stats.density_bound - math.log(11) / math.log(17)) < 1e-12


def test_complement_frozen_example_100(ladder_11_17):
    # multiples of 11, 13, 17 up to 100: 9 + 7 + 5 with no overlaps -> 21
    mask = mrt.typical_set_mask(ladder_11_17, 100)
    assert int(mask[1:].sum()) == 21
    assert 100 - int(mask[1:].sum()) == 79


def test_complement_ratio_nonincreasing_in_q1():
    ratios = []
    for q1 in (13, 15, 17):
        ladder = mrt.build_ladder(11, q1, 10 ** 4, 10 ** 4)
        mask = mrt.typical_set_mask(ladder, 10 ** 4)
        ratios.append(mrt.complement_density(ladder, mask).complement_ratio)
    assert ratios[0] >= ratios[1] >= ratios[2]


# ---------------------------------------------------------------------------
# Bilinear average
# ---------------------------------------------------------------------------

def test_bilinear_l1_is_squarefree_density(ladder_11_17, table_100k):
    mask = mrt.typical_set_mask(ladder_11_17, 10 ** 4)
    avg = mrt.bilinear_mobius_average(mask, 10 ** 4, 1)
    count = sum(1 for n in range(1, 10 ** 4 + 1)
                if mask[n] and int(table_100k.values[n]) != 0)
    assert avg == pytest.approx(count / 10 ** 4, abs=1e-14)


def test_bilinear_matches_bruteforce_small(table_100k):
    ladder = mrt.build_ladder(11, 17, 4000, 4000)
    n, ell = 4000, 3
    mask = mrt.typical_set_mask(ladder, n)
    mu = table_100k.values
    total = 0.0
    for l1 in range(ell):
        for l2 in range(ell):
            inner = sum(int(mu[m + l1]) * int(mu[m + l2])
                        for m in range(1, n + 1) if mask[m])
            total += abs(inner)
    expected = total / (n * ell * ell)
    got = mrt.bilinear_mobius_average(mask, n, ell)
    assert got == pytest.approx(expected, abs=1e-12)


def test_bilinear_swap_symmetry(table_100k):
    # the (l1, l2) double sum equals twice the strict upper triangle plus
    # the diagonal; verified through the Gram matrix it is assembled from
    ladder = mrt.build_ladder(11, 17, 4000, 4000)
    n, ell = 4000, 4
    mask = mrt.typical_set_mask(ladder, n)[1: n + 1].astype(np.float64)
    shifts = np.stack([table_100k.values[1 + l: n + 1 + l].astype(np.float64)
                       for l in range(ell)])
    gram = (shifts * mask) @ shifts.T
    assert np.allclose(gram, gram.T, atol=1e-12)
    full = np.abs(gram).sum()
    tri = 2 * np.abs(np.triu(gram, 1)).sum() + np.abs(np.diag(gram)).sum()
    assert full == pytest.approx(tri, abs=1e-12)


def test_bilinear_empty_set_gives_zero():
    # [14, 16] contains no prime, so the typical set is empty
    ladder = mrt.MrtLadder(p1=14, q1=16, n0=10 ** 3, n=10 ** 3,
                           log_levels=((math.log(14), math.log(16)),))
    mask = mrt.typical_set_mask(ladder, 10 ** 3)
    assert mrt.bilinear_mobius_average(mask, 10 ** 3, 2) == 0.0


def test_bilinear_range_check(ladder_11_17):
    # L = 10^5: its 12 L^2 bytes of Grams are refused before mu is sieved
    with pytest.raises(SizingError, match="over the cap"):
        mrt.bilinear_mobius_average(None, 10 ** 4, 10 ** 5)
    with pytest.raises(DomainError, match="N=101 exceeds the mask's range 100"):
        mrt.bilinear_mobius_average(mrt.typical_set_mask(ladder_11_17, 100), 101, 2)


@pytest.mark.parametrize("ell", [1, 2])
def test_bilinear_refuses_n_below_1(monkeypatch, ell):
    # refused by N itself, before the Gram is admitted or mu is sieved
    monkeypatch.setattr(mrt, "admit", None)
    monkeypatch.setattr(mrt, "mobius_segments", None)
    with pytest.raises(DomainError, match="^N must be >= 1, got 0$"):
        mrt.bilinear_mobius_average(None, 0, ell)


def _ref_bilinear_mobius_average(table, mask, n, ell):
    """The former one-shot Gram of the (L, N) float64 shifted slices."""
    mask = np.ones(n) if mask is None else mask[1: n + 1].astype(np.float64)
    shifts = np.empty((ell, n), dtype=np.float64)
    for l in range(ell):
        shifts[l] = table.values[1 + l: n + 1 + l]
    gram = (shifts * mask) @ shifts.T
    return float(np.sum(np.abs(gram)) / (n * ell * ell))


@pytest.fixture(scope="module")
def bench_mask():
    # the typical set of the benchmark's mrt-bilinear experiment
    return mrt.typical_set_mask(mrt.build_ladder(11, 17, 10 ** 4, 10 ** 6), 10 ** 6)


CHUNK = mrt.BILINEAR_CHUNK


@pytest.mark.parametrize("with_ladder", [False, True], ids=["all", "typical"])
@pytest.mark.parametrize("ell", [1, 2, 20])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_bilinear_chunked_gram_equals_reference(table_1m, bench_mask,
                                                n, ell, with_ladder):
    mask = bench_mask if with_ladder else None
    got = mrt.bilinear_mobius_average(mask, n, ell)
    assert got.hex() == _ref_bilinear_mobius_average(table_1m, mask, n, ell).hex()


@pytest.mark.parametrize("block", [7, CHUNK + 1])
@pytest.mark.parametrize("with_ladder", [False, True], ids=["all", "typical"])
@pytest.mark.parametrize("ell", [1, 2, 20])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK + 1, 3 * CHUNK + 5])
def test_bilinear_gram_independent_of_the_sieve_block(table_1m, bench_mask, sieve_block,
                                                      n, ell, with_ladder, block):
    # the overlapping windows re-cut the sieve's segments wherever they fall
    mask = bench_mask if with_ladder else None
    sieve_block(block)
    got = mrt.bilinear_mobius_average(mask, n, ell)
    assert got.hex() == _ref_bilinear_mobius_average(table_1m, mask, n, ell).hex()


def test_bilinear_peak_memory_is_chunk_sized(bench_mask):
    # the (L, N) float64 shifts and their masked copy peaked at 313 MiB
    peak = traced_peak(lambda: mrt.bilinear_mobius_average(bench_mask,
                                                           10 ** 6, 20))
    assert peak < 24 << 20, peak


def test_bilinear_full_set_reduction(table_100k):
    # ladder check disabled: L=1 average is exactly squarefree count / N
    n = 10 ** 4
    avg = mrt.bilinear_mobius_average(None, n, 1)
    count = sum(1 for m in range(1, n + 1) if int(table_100k.values[m]) != 0)
    assert avg == count / n


def test_degenerate_ladder_complement_is_one():
    # a single level holding every prime <= N: only n = 1 lacks a factor
    n = 2000
    ladder = mrt.MrtLadder(p1=2, q1=float(n), n0=n, n=n,
                           log_levels=((math.log(2), math.log(n)),))
    stats = mrt.complement_density(ladder, mrt.typical_set_mask(ladder, n))
    assert stats.complement_count == 1
