"""The band sums of a skew product as dense dbar_n matrices: the reference
the band tests of the kernels and of the dbar balls read."""

import numpy as np

from moeblab import _kernels as kn


def band_dense(stops, sums, n=1, fill=0.0):
    """The band's dbar_n as a (p, p) matrix, `fill` off the band."""
    p = len(sums)
    out = np.full((p, p), fill)
    for rows, cols in kn.band_strips(stops, p):
        block = sums[rows, :len(cols)] / n
        out[rows, cols] = block
        out[cols, rows] = block.T
    return out


def band_dbar(system, states, ns):
    """(n, dbar_n) in cloud order from the band sums of a skew product's
    balls at reach 1/2, where the band holds every pair."""
    for n, order, stops, sums in system._band_sums(states, ns, 0.5, 0):
        inv = np.argsort(order)
        yield n, band_dense(stops, sums, n)[np.ix_(inv, inv)]
