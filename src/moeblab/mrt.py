"""Typical-factorization sets and bilinear Mobius averages.

The ladder of intervals [P_j, Q_j] is defined for j > 1 by

    P_j = exp(j^{4j} (log Q_1)^{j-1} log P_1),
    Q_j = exp(j^{4j+2} (log Q_1)^j),

and the typical set S consists of n <= N having at least one prime factor
in every level up to the largest J with Q_J <= exp(sqrt(log N_0)).  All
level arithmetic is carried in log scale: P_2 already overflows any native
float for realistic Q_1, yet only levels small enough to survive the
Q_J cap are ever materialised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, ParameterError, admit
from .numtheory import _simple_prime_sieve, mobius_segments, windows

LEVEL_CAP = 64   # Q_J grows doubly fast; desk N never admits J > 3
BILINEAR_CHUNK = 1 << 16   # float32 sums of at most 2^16 terms of +-1 are exact


@dataclass(frozen=True)
class MrtLadder:
    """Interval ladder [P_j, Q_j], j = 1..J, stored in log scale."""

    p1: float
    q1: float
    n0: int
    n: int
    log_levels: tuple[tuple[float, float], ...]

    @property
    def depth(self) -> int:
        return len(self.log_levels)

    @property
    def levels(self) -> tuple[tuple[float, float], ...]:
        """(P_j, Q_j) as floats; safe because kept levels obey the Q_J cap.

        Level 1 is returned as the exact endpoints supplied, not an
        exp(log) roundtrip, so integer boundary primes are never lost."""
        out = [(self.p1, self.q1)]
        out.extend((math.exp(a), math.exp(b)) for a, b in self.log_levels[1:])
        return tuple(out)

    def level_primes(self) -> list[np.ndarray]:
        """Primes inside each interval [P_j, Q_j]."""
        top = math.ceil(math.exp(self.log_levels[-1][1])) if self.log_levels else 2
        top = max(top, math.ceil(self.q1))
        primes = _simple_prime_sieve(top)
        out = []
        for p_j, q_j in self.levels:
            out.append(primes[(primes >= p_j) & (primes <= q_j)])
        return out


def _log_level(j: int, log_p1: float, log_q1: float) -> tuple[float, float]:
    if j == 1:
        return (log_p1, log_q1)
    lp = (4 * j) * math.log(j) + (j - 1) * math.log(log_q1) + math.log(log_p1)
    lq = (4 * j + 2) * math.log(j) + j * math.log(log_q1)
    # these are logs of log P_j / log Q_j; exponentiate once
    return (math.exp(lp), math.exp(lq))


def build_ladder(p1: float, q1: float, n0: int, n: int) -> MrtLadder:
    """Build the ladder, taking J maximal with Q_J <= exp(sqrt(log N_0)).

    Every violated precondition is named in the raised error.
    """
    if not p1 > 10:
        raise ParameterError(f"require P1 > 10, got P1={p1}")
    if not p1 < q1:
        raise ParameterError(f"require P1 < Q1, got P1={p1}, Q1={q1}")
    if not q1 <= n:
        raise ParameterError(f"require Q1 <= N, got Q1={q1}, N={n}")
    if not (math.isqrt(n) <= n0 <= n):
        raise ParameterError(f"require sqrt(N) <= N0 <= N, got N0={n0}, N={n}")
    cap = math.sqrt(math.log(n0))
    if math.log(q1) > cap * (1 + 1e-12):
        raise ParameterError(
            f"require Q1 <= exp(sqrt(log N0)): log Q1 = {math.log(q1):.6g} "
            f"> sqrt(log N0) = {cap:.6g}")

    log_p1, log_q1 = math.log(p1), math.log(q1)
    levels = []
    for j in range(1, LEVEL_CAP + 1):
        lp, lq = _log_level(j, log_p1, log_q1)
        if lq > cap * (1 + 1e-12):
            break
        levels.append((lp, lq))
    if not levels:
        raise ParameterError("no ladder level survives the Q_J cap")
    return MrtLadder(p1=p1, q1=q1, n0=n0, n=n, log_levels=tuple(levels))


def typical_set_mask(ladder: MrtLadder, n: int) -> np.ndarray:
    """Boolean membership of 1..n in the typical set (index 0 unused); it
    and one level's hits are refused past the memory cap first."""
    if not 0 <= n <= ladder.n:
        raise DomainError(f"n={n} outside the ladder range [0, {ladder.n}]")
    admit(2 * (n + 1), f"the typical-set mask of 1..{n}")
    mask = np.ones(n + 1, dtype=bool)
    mask[0] = False
    for level in ladder.level_primes():
        hit = np.zeros(n + 1, dtype=bool)
        for p in level:
            hit[int(p):: int(p)] = True
        mask &= hit
    return mask


@dataclass(frozen=True)
class TypicalSetStats:
    """Exact membership counts plus the reference density ratio.

    density_bound is log P1 / log Q1, the complement bound with its
    (unknown) absolute constant set to 1; it is reported for comparison,
    never asserted against.
    """

    n: int
    member_count: int
    complement_count: int
    density_bound: float

    @property
    def complement_ratio(self) -> float:
        return self.complement_count / self.n


def complement_density(ladder: MrtLadder, mask: np.ndarray) -> TypicalSetStats:
    """Exact member/non-member counts from the typical set's mask of 1..N."""
    members = int(np.count_nonzero(mask[1:]))
    return TypicalSetStats(
        n=ladder.n,
        member_count=members,
        complement_count=ladder.n - members,
        density_bound=math.log(ladder.p1) / math.log(ladder.q1),
    )


def _admit_gram(n: int, ell: int) -> None:
    """Refuse N < 1, L < 1, and past the cap the working set of
    `bilinear_mobius_average`: the float64 Gram, a chunk's float32 Gram,
    (L, chunk) rows and int8 and float32 mu window.  The `mrt-bilinear`
    experiment calls it before it builds its mask."""
    if n < 1:
        raise DomainError(f"N must be >= 1, got {n}")
    if ell < 1:
        raise DomainError(f"L must be >= 1, got {ell}")
    admit(12 * ell * ell + (4 * ell + 5) * min(n, BILINEAR_CHUNK) + 5 * ell,
          f"bilinear Gram of L={ell}, N={n}")


def bilinear_mobius_average(mask: np.ndarray | None, n: int, ell: int) -> float:
    """(1/(N L^2)) sum_{l1,l2 < L} |sum_{m in [1,N] cap S} mu(m+l1) mu(m+l2)|.

    The inner sums over all (l1, l2) pairs form one L x L Gram matrix of
    shifted mu slices, each multiplied by the typical-set mask
    (mask^2 = mask).  It is built from m-chunks of BILINEAR_CHUNK: a chunk's
    L shifted slices are the float32 views of one window of the sieve's
    stream, overlapping the next by L - 1, masked or made contiguous, and
    their Gram rows @ rows.T, which numpy hands to BLAS as a symmetric
    rank-k update, adds into a float64 total.  Every partial sum is an
    integer, at most BILINEAR_CHUNK < 2^24 in a chunk and N < 2^53 in
    total, so the result is exact.  `mask` is the membership of 0..N or
    further (`typical_set_mask`); None means S = [1, N].
    Working set: see `_admit_gram`; mu is sieved after it is admitted
    (`mobius_segments`, which admits its own scratch).
    """
    _admit_gram(n, ell)
    if mask is not None and n >= len(mask):
        raise DomainError(f"N={n} exceeds the mask's range {len(mask) - 1}")
    gram = np.zeros((ell, ell))
    mu = windows(mobius_segments(n + ell - 1), BILINEAR_CHUNK + ell - 1, ell - 1)
    for lo, window in zip(range(1, n + 1, BILINEAR_CHUNK), mu):
        hi = min(lo + BILINEAR_CHUNK, n + 1)
        shifts = sliding_window_view(window.astype(np.float32), hi - lo)
        rows = (np.ascontiguousarray(shifts) if mask is None
                else shifts * mask[lo:hi])
        gram += rows @ rows.T
        del rows          # before the next chunk's rows are allocated
    return float(np.sum(np.abs(gram)) / (n * ell * ell))

