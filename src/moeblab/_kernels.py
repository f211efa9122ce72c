"""Hot-loop kernels: pairwise averaged-metric accumulation, reduction mod
1 and trig evaluation.  The torus kernel sweeps the upper triangle in
strips of TORUS_BLOCK rows, so its scratch is O(TORUS_BLOCK * p) and each
strip stays in cache."""

from __future__ import annotations

import numpy as np

TORUS_BLOCK = 64     # strip height of accumulate_torus, measured at p = 1000, 2000


def frac(v):
    """v mod 1, bit-equal to np.mod(v, 1.0): both round v - floor(v) once."""
    return v - np.floor(v)


def _phase(m, x):
    # 2 pi m x; w.real, a zero signed like m, signs a zero phase as 2j*pi*m*x does
    w = 2j * np.pi * m
    return w.imag * np.asarray(x, dtype=np.float64) + w.real


def unit(m, x):
    """e(m x) from cos and sin, bit-equal to np.exp(2j*np.pi*m*x) for finite
    x; a scalar for 0-d x, as numpy rounds scalar complex products apart."""
    theta = _phase(m, x)
    out = np.empty(np.shape(theta), dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out[()]


def twice_re(c, m, x):
    """2 Re(c e(m x)), bit-equal to 2.0 * (c * np.exp(2j*np.pi*m*x)).real for
    finite x: one cos for real c, one sin for imaginary c, unless |c| < 2^-960
    (a product may underflow to a zero whose sign the dropped term decides)."""
    c = complex(c)
    if abs(c) >= 2.0 ** -960 and c.imag == 0:
        return 2.0 * (c.real * np.cos(_phase(m, x)))
    if abs(c) >= 2.0 ** -960 and c.real == 0:
        return 2.0 * (c.real - c.imag * np.sin(_phase(m, x)))
    return 2.0 * (c * unit(m, x)).real


def accumulate_circle(xs: np.ndarray, dsum: np.ndarray) -> None:
    """dsum[i,j] += sum over steps of ||x_i - x_j||, upper triangle."""
    for row in xs:
        d = np.abs(row[:, None] - row[None, :])
        np.minimum(d, 1.0 - d, out=d)
        dsum += np.triu(d, 1)


def accumulate_torus(ys: np.ndarray, dx: np.ndarray, dsum: np.ndarray) -> None:
    """dsum[i,j] += sum over fibre rows y of max(dx[i,j], ||y_i - y_j||).

    ys is (steps, p); dx is the fixed, exactly symmetric (p, p) base distance
    of a skew product over an isometry; dsum is symmetric on entry and is
    accumulated in place.  Each strip [r0, r1) of the upper triangle takes
    every step on columns r0: while it stays in cache, then is mirrored
    below the diagonal.  |y_i - y_j| and |y_j - y_i| are the same float, so
    the mirror is exact: dsum stays exactly symmetric with a zero diagonal.
    """
    p = ys.shape[1]
    d = np.empty((TORUS_BLOCK, p))
    e = np.empty((TORUS_BLOCK, p))
    for r0 in range(0, p, TORUS_BLOCK):
        r1 = min(p, r0 + TORUS_BLOCK)
        dd, ee = d[:r1 - r0, :p - r0], e[:r1 - r0, :p - r0]
        strip, dxs = dsum[r0:r1, r0:], dx[r0:r1, r0:]
        for row in ys:
            np.subtract(row[r0:r1, None], row[None, r0:], out=dd)
            np.abs(dd, out=dd)
            np.subtract(1.0, dd, out=ee)
            np.minimum(dd, ee, out=dd)
            np.maximum(dd, dxs, out=dd)
            np.add(strip, dd, out=strip)
        dsum[r1:, r0:r1] = dsum[r0:r1, r1:].T


def assign_nearest_circle(coords: np.ndarray, ctraj: np.ndarray,
                          n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center on the circle for each of the first n_total points.

    coords holds the points and ctraj the (m, 1) center positions: the
    one-step trajectories of an isometry, whose dbar_L is the circle
    distance itself.  Returns, per point, the center index minimising
    min(|x - c|, 1 - |x - c|) and that distance, with the lower index
    winning an exact tie, as np.argmin would.

    With the centers sorted, the float |x - c| is monotone on each side of
    x, so the float distance first rises and then falls there and is least
    at an end of the side: the cyclic neighbours of x and the first and
    last centers are the only candidates.  A tie with a center that is not
    a candidate needs two centers less than 2^-52 apart; equal positions
    are handled.  O(N log m) time and O(N + m) memory.
    """
    if ctraj.ndim != 2 or ctraj.shape[1] != 1:
        raise ValueError(f"center positions must have shape (m, 1), "
                         f"got {ctraj.shape}")
    x = coords[:n_total]
    m_count = ctraj.shape[0]
    order = np.argsort(ctraj[:, 0], kind="stable")
    cs = ctraj[order, 0]
    lowest = order[np.searchsorted(cs, cs)]   # lowest index at each position
    k = np.searchsorted(cs, x)                # cs[:k] < x <= cs[k:]
    pos = np.stack([np.zeros_like(k), np.maximum(k - 1, 0),
                    np.minimum(k, m_count - 1), np.full_like(k, m_count - 1)])
    d = np.abs(x - cs[pos])
    np.minimum(d, 1.0 - d, out=d)
    d_out = d.min(axis=0)
    j_out = np.where(d == d_out, lowest[pos], m_count).min(axis=0)
    return j_out, d_out
