"""Mobius sieve, Mertens sums, Dirichlet characters, pretentious distance.

The Mobius function is mu(1) = 1, mu(n) = (-1)^k when n is a product of k
distinct primes, and mu(n) = 0 when a square divides n.  The sieve reads
mu off one signed int32 product per entry, (-1)^k times the k base primes
that divide it, zeroed at a square; an entry whose product is below it
has one more prime factor.  The sieve yields mu in consecutive segments
(`mobius_segments`), which ordered readers such as `mertens_values` take
one at a time; `build_mobius_table` keeps them as one table.  The
pretentious distance between 1-bounded multiplicative functions f, g is
the prime sum

    sum_{p <= N} (1 - Re(f(p) conj(g(p)))) / p,

used here directly as the squared distance (every downstream consumer
squares the printed form, so we never take the root).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, SizingError, admit

SIEVE_BLOCK = 1 << 20           # segment length; bounds transient memory
FINISH_CHUNK = 1 << 16          # segment entries finished at once, in cache
DEFAULT_CHARACTER_CAP = 100


# ---------------------------------------------------------------------------
# Mobius sieve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobiusTable:
    """Exact mu(n) for 1 <= n <= limit.

    values is indexed directly by n (entry 0 is unused and set to 0).
    Immutable after construction; safe to share across threads.
    """

    limit: int
    values: np.ndarray   # int8, length limit + 1

    def mu(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise DomainError(f"n={n} outside sieve range [1, {self.limit}]")
        return int(self.values[n])


def _prime_count_bound(n: int) -> int:
    """An upper bound on pi(n): pi(n) < 1.25506 n / ln n for n >= 2."""
    return math.ceil(1.25506 * n / math.log(n)) if n >= 2 else 0


def _simple_prime_sieve(n: int) -> np.ndarray:
    """Primes <= n, ascending int64, by plain Eratosthenes: every prime list
    in the package.  Its bool flags and int64 primes (`_prime_count_bound`)
    are refused past the memory cap before either is allocated."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    admit(n + 1 + 8 * _prime_count_bound(n), f"primes <= {n}")
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    return np.nonzero(is_prime)[0].astype(np.int64, copy=False)


def mobius_segments(n_max: int, held: int = 0) -> Iterator[np.ndarray]:
    """mu(n) for n = 1..n_max as consecutive int8 segments of SIEVE_BLOCK
    entries, the last one possibly shorter; each segment is a new array.

    Each segment keeps one signed product (-1)^k p_1 ... p_k over the k
    base primes p <= isqrt(n_max) that divide each entry: one strided
    multiply by -p per base prime, and multiples of p^2 are zeroed.  The
    segment is then finished FINISH_CHUNK entries at a time: the sign of
    the product is written into it, and the product is taken in absolute
    value.  A squarefree n has a prime factor above isqrt(n_max), and then
    exactly one, when its product is below n (one more flip, an int8
    multiply by 1 - 2 [product < n]).  A product divides its entry, so the
    products and the entries are int32, exactly, and n_max >= 2^31 is
    refused.  A segment's scratch, with `held` bytes of the caller's, is
    refused past the memory cap; both checks run here, before the first
    segment is asked for and anything is allocated.
    """
    if n_max < 1:
        raise SizingError(f"n_max must be >= 1, got {n_max}")
    # int32 products, the segment and the one a reader holds; per entry
    # finished at once, an int32 entry, the int8 flip beside the last one
    # and numpy's casting buffer; the base primes as Python ints
    block = min(n_max, SIEVE_BLOCK)
    admit(held + 6 * block + 7 * min(block, FINISH_CHUNK)
          + 40 * _prime_count_bound(math.isqrt(n_max)), f"n_max={n_max}")
    if n_max >= 1 << 31:
        raise SizingError(f"n_max={n_max} reaches 2^31, past the sieve's "
                          "int32 products and entries")
    base_primes = _simple_prime_sieve(math.isqrt(n_max)).tolist()
    return (_sieve_segment(lo, min(lo + SIEVE_BLOCK, n_max + 1), base_primes)
            for lo in range(1, n_max + 1, SIEVE_BLOCK))


def _sieve_segment(lo: int, hi: int, base_primes: list[int]) -> np.ndarray:
    """mu(n) for lo <= n < hi as a new int8 array (`mobius_segments`)."""
    prod = np.ones(hi - lo, dtype=np.int32)
    for p in base_primes:
        prod[(-lo) % p:: p] *= -p
        if p * p < hi:
            prod[(-lo) % (p * p):: p * p] = 0
    mu = np.empty(hi - lo, dtype=np.int8)
    for start in range(0, hi - lo, FINISH_CHUNK):
        part = prod[start: start + FINISH_CHUNK]
        sign = mu[start: start + FINISH_CHUNK]
        np.sign(part, out=sign, casting="unsafe")
        np.abs(part, out=part)
        flip = np.less(part, np.arange(lo + start, lo + start + len(part),
                                       dtype=np.int32)).view(np.int8)
        flip *= -2
        flip += 1
        sign *= flip
    return mu


def build_mobius_table(n_max: int) -> MobiusTable:
    """mu(n) for n <= n_max, filled from `mobius_segments`; its int8
    values are admitted with the sieve's scratch."""
    segments = mobius_segments(n_max, held=n_max + 1)
    values = np.zeros(n_max + 1, dtype=np.int8)
    hi = 1
    for mu in segments:
        lo, hi = hi, hi + len(mu)
        values[lo:hi] = mu
        del mu      # dropped before the next segment is sieved
    values.flags.writeable = False
    return MobiusTable(limit=n_max, values=values)


def _factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (p, e) by trial division."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def mu_by_factorization(n: int) -> int:
    """mu(n) from the factorization (the sieve's reference)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return math.prod(-1 if e == 1 else 0 for _, e in _factor(n))


def mertens_values(blocks: Iterable[np.ndarray],
                   ns: Sequence[int]) -> list[int]:
    """Mertens values M(n) = sum_{m <= n} mu(m) at the ascending ns, from
    mu(1), mu(2), ... in consecutive blocks (`mobius_segments`, or a
    table's values as one block), read up to the last n only."""
    ns = list(ns)
    if ns != sorted(ns) or ns and ns[0] < 1:
        raise DomainError(f"Mertens points must ascend from 1 on, got {ns}")
    out, total, lo = [], 0, 1          # total = M(lo - 1)
    blocks = iter(blocks)
    while len(out) < len(ns):
        block = next(blocks, None)
        if block is None:
            raise SizingError(
                f"n={ns[len(out)]} is past mu, known up to {lo - 1}")
        hi = lo + len(block)
        while len(out) < len(ns) and ns[len(out)] < hi:
            part = block[: ns[len(out)] - lo + 1]
            out.append(total + int(np.sum(part, dtype=np.int64)))
        total += int(np.sum(block, dtype=np.int64))
        lo = hi
    return out


def mertens(table: MobiusTable, n: int) -> int:
    """Mertens function M(n), read from the table's values as one block."""
    return mertens_values([table.values[1:]], [n])[0]


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirichletCharacter:
    """One character mod q, stored as its value table on residues 0..q-1."""

    modulus: int
    index: int
    values: np.ndarray   # complex128, length q; 0 off the units
    is_principal: bool

    def __call__(self, n: int) -> complex:
        return complex(self.values[n % self.modulus])


@dataclass(frozen=True)
class CharacterTable:
    modulus: int
    characters: tuple[DirichletCharacter, ...]

    @property
    def phi(self) -> int:
        return len(self.characters)


def _primitive_root(p: int, e: int) -> int:
    """Primitive root mod p^e for odd prime p: the least one mod p, or g + p
    when g does not generate mod p^2 (then g + p generates mod every p^e)."""
    factors = _factor(p - 1)
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // f, p) != 1 for f, _ in factors))
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _unit_group_components(q: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Cyclic decomposition of (Z/qZ)* by prime power: (p^e, [(gen, order)]).

    Odd p^e is cyclic on a primitive root; 2^e for e >= 3 needs the pair
    (-1, 3) with orders (2, 2^{e-2})."""
    out = []
    for p, e in _factor(q):
        pe = p ** e
        if p > 2:
            out.append((pe, [(_primitive_root(p, e), pe // p * (p - 1))]))
        elif e == 2:
            out.append((pe, [(3, 2)]))
        elif e > 2:
            out.append((pe, [(pe - 1, 2), (3, 1 << (e - 2))]))
    return out


def dirichlet_characters(q: int) -> CharacterTable:
    """All phi(q) Dirichlet characters mod q on the generators of
    `_unit_group_components`, flattened in prime order with orders d_i.

    Character `index` is the index-th exponent tuple k, 0 <= k_i < d_i, in
    lexicographic order with the last generator fastest, so index 0 is the
    principal character.  On a unit with discrete logs l its value is
    exp(2 pi i sum_i k_i l_i / d_i), the float sum taken in generator order.
    chi_index in the pretentious rows and in every bundle is this index.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if q > DEFAULT_CHARACTER_CAP:
        raise SizingError(
            f"q={q} exceeds character modulus cap {DEFAULT_CHARACTER_CAP}")

    components = _unit_group_components(q)
    orders = [d for _, gens in components for _, d in gens]
    logs = []           # per component: (p^e, residue -> exponent tuple)
    for pe, gens in components:
        exps = itertools.product(*(range(d) for _, d in gens))
        logs.append((pe, {math.prod(pow(g, k, pe) for (g, _), k in
                                    zip(gens, ks)) % pe: ks for ks in exps}))
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    dlogs = [sum((log[a % pe] for pe, log in logs), ()) for a in units]
    chars = []
    for index, exps in enumerate(itertools.product(*map(range, orders))):
        values = np.zeros(q, dtype=np.complex128)
        for a, dlog in zip(units, dlogs):
            angle = sum(k * l / d for k, l, d in zip(exps, dlog, orders))
            values[a] = np.exp(2j * np.pi * angle)
        chars.append(DirichletCharacter(q, index, values,
                                        is_principal=not any(exps)))
    return CharacterTable(q, tuple(chars))


# ---------------------------------------------------------------------------
# Pretentious distance
# ---------------------------------------------------------------------------

def default_t_grid(n_max: int, count: int = 201) -> np.ndarray:
    """count equispaced points in [-log n_max, log n_max], with 0 included."""
    if count < 0:
        raise DomainError(f"t grid count must be >= 0, got {count}")
    span = math.log(max(n_max, 2))
    grid = np.linspace(-span, span, count)
    return np.union1d(grid, [0.0])


@dataclass(frozen=True)
class PretentiousRow:
    q: int
    chi_index: int
    t: float
    distance_sq: float


def pretentious_scan(
    n_max: int,
    big_q: int,
    t_grid: Sequence[float],
) -> list[PretentiousRow]:
    """Distance of mu to every twisted character chi(n) n^{it} on the grid.

    Vectorised over the primes <= n_max: with f = mu, f(p) = -1, so the
    summand is (1 + Re(chi(p) p^{it})) / p.  The twist p^{it} is computed
    once per t and shared by every character, whose prime values chi(p)
    are held for the whole scan.  Rows come out in (q, chi, t) order.
    Those held values, 16 pi(N) sum_{q <= Q} phi(q) bytes, one t's
    temporaries and the output, a float64 distance and a row object per
    (character, t), are refused past the memory cap from len(t_grid),
    before the grid is copied and the primes are sieved, with pi(N)
    bounded by `_prime_count_bound`.
    """
    if len(t_grid) == 0:
        raise DomainError("t_grid must be nonempty")
    if big_q < 1:
        raise DomainError(f"Q must be >= 1, got {big_q}")
    if big_q > DEFAULT_CHARACTER_CAP:
        raise SizingError(
            f"Q={big_q} exceeds character modulus cap {DEFAULT_CHARACTER_CAP}")
    characters = sum(math.gcd(a, q) == 1 for q in range(1, big_q + 1)
                     for a in range(q))
    # complex128: chi(p) per character, the twist and one product; 8 bytes:
    # the primes as ints and floats, their logs and inverses, two summands;
    # per (character, t) the float64 distance and a row with its list entry
    # (about 140 bytes measured), per t its float in the copied grid
    admit(_prime_count_bound(n_max) * (16 * (characters + 2) + 48)
          + len(t_grid) * (152 * characters + 32),
          f"a scan of {characters} characters and {len(t_grid)} t values "
          f"over the primes <= {n_max}")
    t_values = [float(t) for t in t_grid]
    ps = _simple_prime_sieve(n_max)
    if len(ps) == 0:
        raise DomainError(f"no primes <= {n_max}")
    pf = ps.astype(np.float64)
    logp = np.log(pf)
    inv_p = 1.0 / pf
    chars = [chi for q in range(1, big_q + 1)
             for chi in dirichlet_characters(q).characters]
    chi_ps = [chi.values[ps % chi.modulus] for chi in chars]
    dist = np.empty((len(chars), len(t_values)))
    for k, t in enumerate(t_values):
        twist = np.exp(1j * t * logp)
        for i, chi_p in enumerate(chi_ps):
            g = chi_p * twist
            dist[i, k] = np.sum((1.0 + g.real) * inv_p)
    return [PretentiousRow(chi.modulus, chi.index, t, float(d))
            for chi, row in zip(chars, dist) for t, d in zip(t_values, row)]
