"""The certified phase ladder of `moeblab.contfrac` in Fraction arithmetic
on `alpha.enclosure(bits)`: the reference the integer rungs, their readers
and the split's case rows are tested against.  Nothing here reads the
integer reduction."""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from moeblab import contfrac as cf
from moeblab.errors import PrecisionError
from moeblab.fixtures import resonant_alpha

HALF = Fraction(1, 2)


@functools.lru_cache(maxsize=None)
def _ref_enclosure(alpha, bits):
    return alpha.enclosure(bits)


def _ref_ends(alpha, m, bits):
    """m*[lo, hi], ordered, less r, the nearest integer to its midpoint
    (halves up): the ends (t_lo, t_hi) of one rung."""
    x_lo, x_hi = sorted(m * end for end in _ref_enclosure(alpha, bits))
    r = math.floor((x_lo + x_hi) / 2 + HALF)
    return x_lo - r, x_hi - r


def _ref_rung(alpha, m, bits):
    """(centered, norm) at one rung: the midpoint of the ends when they fit
    [-1/2, 1/2) or lie closer than 1/4, and the interval of |t| when they
    fit [-1/2, 1/2]; each None where it does not fit."""
    t_lo, t_hi = _ref_ends(alpha, m, bits)
    centered = norm = None
    if (-HALF <= t_lo and t_hi < HALF) or t_hi - t_lo < Fraction(1, 4):
        centered = (t_lo + t_hi) / 2
    if -HALF <= t_lo and t_hi <= HALF:
        norm = ((Fraction(0), max(-t_lo, t_hi)) if t_lo <= 0 <= t_hi
                else tuple(sorted((abs(t_lo), abs(t_hi)))))
    return centered, norm


# the Fraction bodies the integer reduction replaced
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


@dataclass(frozen=True)
class _LooseBelowTop(cf.ExactAlpha):
    """The depth-9 resonant alpha with its enclosures widened by 2^-20 below
    4096 bits: too loose for the default-bits case-1 check at some m, exact
    enough at the 4096-bit retry."""

    base: cf.ExactAlpha = resonant_alpha(9)

    def enclosure(self, bits):
        lo, hi = self.base.enclosure(bits)
        pad = Fraction(0) if bits >= cf.MAX_BITS else Fraction(1, 2 ** 20)
        return lo - pad, hi + pad
