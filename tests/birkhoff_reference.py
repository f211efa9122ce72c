"""The closed-form Birkhoff sum: the reference the cocycle and skew
product tests compare stepped and summed orbits against."""

from __future__ import annotations

import cmath
import math

from moeblab.cocycle import FourierCocycle, e_minus_one_exact
from moeblab.contfrac import ExactAlpha, parse_alpha
from moeblab.errors import DomainError


def _ref_birkhoff_sum(h1: FourierCocycle, alpha: ExactAlpha | object, x: float,
                      n: int) -> float:
    """H_n(x) = sum_{i<n} h1(x + i alpha) by the geometric closed form.

    Frequencies with e(m alpha) = 1 exactly (rational alpha) contribute
    n * hhat(m) e(mx), which is what direct term-by-term summation gives.
    H_0 is identically 0.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    alpha = parse_alpha(alpha)
    if n == 0:
        return 0.0
    total = n * h1.mean
    for m in h1.support:
        if m <= 0:
            continue
        c = h1.coefficients[m]
        den = e_minus_one_exact(alpha, m)
        e_mx = cmath.exp(2j * math.pi * (m * x))
        if den == 0:
            term = n * c * e_mx
        else:
            term = c * e_mx * e_minus_one_exact(alpha, m * n) / den
        total += 2.0 * term.real
    return float(total)
