"""Hot-loop kernels: pairwise averaged-metric accumulation, reduction mod
1, the circle distance and trig evaluation.  The torus kernel sweeps a
band of pairs in strips of TORUS_BLOCK rows, so its scratch is
O(TORUS_BLOCK * width) and each strip stays in cache."""

from __future__ import annotations

import numpy as np

TORUS_BLOCK = 64     # strip height of accumulate_torus, measured at p = 1000, 2000


def frac(v):
    """v mod 1, bit-equal to np.mod(v, 1.0): both round v - floor(v) once."""
    return v - np.floor(v)


def circle_dist(u, v):
    """||u - v|| on the circle R/Z, elementwise with broadcasting: both sides
    reduced mod 1, then |u - v| folded into [0, 1/2].  The reduction is the
    identity on [0, 1); unreduced positions would give negative distances."""
    d = np.abs(frac(np.asarray(u, dtype=np.float64))
               - frac(np.asarray(v, dtype=np.float64)))
    return np.minimum(d, 1.0 - d)


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


def band_stops(x: np.ndarray, reach: float) -> np.ndarray:
    """The band of the ascending circle points x in [0, 1) at `reach`: per
    strip of TORUS_BLOCK rows, the exclusive end of its cyclic column run.

    Row i takes the columns i+1, i+2, ... (mod p) while the forward arc
    from x_i stays within reach + 2^-50; the margin covers the rounding of
    the arcs and of the circle distances of the pairs, so every pair whose
    float circle distance is below `reach` is held by at least one of its
    rows.  A strip's run is the longest of its rows', capped at p columns.
    """
    p = len(x)
    starts = np.arange(0, p, TORUS_BLOCK)
    ext = np.concatenate([x, x + 1.0])
    ends = np.searchsorted(ext, x + (reach + 2.0 ** -50), side="right")
    return np.minimum(np.maximum.reduceat(ends, starts), starts + 1 + p)


def band_strips(stops: np.ndarray, p: int):
    """(rows, cyclic columns) of each strip of a band of p points."""
    for r0, stop in zip(range(0, p, TORUS_BLOCK), stops):
        yield slice(r0, min(p, r0 + TORUS_BLOCK)), np.arange(r0 + 1, stop) % p


def accumulate_torus(ys: np.ndarray, stops: np.ndarray, dx: np.ndarray,
                     sums: np.ndarray) -> None:
    """sums[i, c] += sum over fibre rows y of max(dx[i, c], ||y_i - y_j||)
    for each pair (i, j) of the band, j the c-th column of row i's strip.

    ys is (steps, p); stops are the band's strip ends (`band_stops`); dx,
    the fixed base distance of a skew product over an isometry, and sums
    are (p, width) in the same layout.  Each strip takes every step on its
    columns while it stays in cache; the steps of a pair are added in
    order, so its sum is the same float as a dense sweep's.  A pair held by
    both of its rows gets the same sum twice: |y_i - y_j| and |y_j - y_i|
    are the same float and dx is exactly symmetric.
    """
    for rows, cols in band_strips(stops, ys.shape[1]):
        if not len(cols):
            continue
        dxs, strip = dx[rows, :len(cols)], sums[rows, :len(cols)]
        yc = ys[:, cols]
        d = np.empty(dxs.shape)
        e = np.empty(dxs.shape)
        for row, col in zip(ys[:, rows], yc):
            np.subtract(row[:, None], col[None, :], out=d)
            np.abs(d, out=d)
            np.subtract(1.0, d, out=e)
            np.minimum(d, e, out=d)
            np.maximum(d, dxs, out=d)
            np.add(strip, d, out=strip)


def band_matrix(sums: np.ndarray, stops: np.ndarray, n: int, eps: np.ndarray,
                order: np.ndarray) -> np.ndarray:
    """The balls sums[i, c] / n < eps[k] of the band of the points sorted
    by `order`, for eps of shape (k, 1, 1): a C-contiguous (k, p, p) bool
    array in the points' own order, False off the band, True on the
    diagonal.  Beside it, one row-permuted copy is made."""
    p = len(sums)
    balls = np.zeros((len(eps), p, p), dtype=bool)
    for rows, cols in band_strips(stops, p):
        block = sums[rows, :len(cols)] / n < eps
        balls[:, rows, cols] = block
        balls[:, cols, rows] = np.swapaxes(block, 1, 2)
    true_diagonal(balls)
    inv = np.argsort(order)
    permuted = np.take(balls, inv, axis=1)
    # mode="clip": with the default mode, take buffers `out` in a copy
    return np.take(permuted, inv, axis=2, out=balls, mode="clip")


def true_diagonal(balls: np.ndarray) -> np.ndarray:
    """balls, True on the diagonal, as every (k, p, p) ball array is.  A
    generator that yields it keeps no name for the balls, so once the
    caller drops them, they are freed."""
    p = balls.shape[-1]
    balls[:, np.arange(p), np.arange(p)] = True
    return balls


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
