"""Canonical fixtures shared by experiments, the CLI presets, and tests.

The resonant rotation number starts from the quotient prefix [2, 17, 8, 34]
(which already forces one abnormally large denominator jump at k = 2 for
tau = 1, since q_3 = 35 > q_2^4 = 16) and then alternates a small filler
quotient with q_k^3 + 1 at even indices, so the jump q_{k+1} > q_k^4
recurs forever: the resonance set E meets every even k >= 6 in depth.
"""

from __future__ import annotations

from fractions import Fraction

from .cocycle import FourierCocycle, cocycle_from_pairs, envelope_cocycle
from .contfrac import (ContinuedFraction, QuotientAlpha, ResonanceData,
                       SQRT2_MINUS_1, GOLDEN, _convergents, expand,
                       resonance_sets)

RESONANT_PREFIX = (2, 17, 8, 34)
FILLER_QUOTIENT = 8


def resonant_quotients(depth: int) -> tuple[int, ...]:
    """Quotient prefix of the canonical resonant alpha, to `depth` terms."""
    quots = list(RESONANT_PREFIX[:depth])
    while len(quots) < depth:
        k = len(quots) + 1          # index of the quotient being appended
        qs_now = _convergents(quots)[1]
        if k >= 6 and k % 2 == 0:
            quots.append(qs_now[k - 1] ** 3 + 1)   # forces k into E at tau=1
        else:
            quots.append(FILLER_QUOTIENT)
    return tuple(quots[:depth])


def resonant_alpha(depth: int = 9) -> QuotientAlpha:
    return QuotientAlpha(resonant_quotients(depth))


def resonant_fixture(depth: int = 9, freq_bound: int = 4096,
                     tau: Fraction | int = 1,
                     decay_constant: float = 1.0
                     ) -> tuple[ContinuedFraction, ResonanceData, FourierCocycle]:
    """(expansion, resonance data, envelope cocycle) of the resonant alpha."""
    cf = expand(resonant_alpha(depth), depth)
    res = resonance_sets(cf, tau, freq_bound)
    h = envelope_cocycle(freq_bound, decay_constant=decay_constant, tau=tau)
    return cf, res, h


def m_empty_fixture(depth: int = 20, tau: Fraction | int = 1
                    ) -> tuple[ContinuedFraction, ResonanceData, FourierCocycle]:
    """alpha = sqrt(2)-1: bounded quotients, E empty, M empty."""
    cf = expand(SQRT2_MINUS_1, depth)
    res = resonance_sets(cf, tau, 10 ** 6)
    h = cocycle_from_pairs([(0, 0.0), (1, 0.15), (2, 0.05 + 0.02j)], tau=tau)
    return cf, res, h


def m_pm1_fixture(depth: int = 20, tau: Fraction | int = 1
                  ) -> tuple[ContinuedFraction, ResonanceData, FourierCocycle]:
    """alpha = (sqrt(5)-1)/2: E = {2}, M = {+-1}."""
    cf = expand(GOLDEN, depth)
    res = resonance_sets(cf, tau, 10 ** 6)
    h = cocycle_from_pairs(
        [(0, 0.0), (1, 0.2), (2, 0.04), (3, 0.01j), (4, 0.002)], tau=tau)
    return cf, res, h
