"""Hot-loop kernels for pairwise averaged-metric accumulation."""

from __future__ import annotations

import numpy as np


def accumulate_circle(xs: np.ndarray, dsum: np.ndarray) -> None:
    """dsum[i,j] += sum over steps of ||x_i - x_j||, upper triangle."""
    for row in xs:
        d = np.abs(row[:, None] - row[None, :])
        np.minimum(d, 1.0 - d, out=d)
        dsum += np.triu(d, 1)


def accumulate_torus(ys: np.ndarray, dx: np.ndarray, dsum: np.ndarray) -> None:
    """dsum[i,j] += sum over fibre rows y of max(dx[i,j], ||y_i - y_j||).

    ys is (steps, p); dx is the fixed (p, p) base-distance matrix of a skew
    product over an isometry.  The full symmetric matrix is accumulated in
    place: |y_i - y_j| and |y_j - y_i| are the same float, so dsum stays
    exactly symmetric with a zero diagonal.
    """
    p = ys.shape[1]
    d = np.empty((p, p))
    e = np.empty((p, p))
    for row in ys:
        np.subtract(row[:, None], row[None, :], out=d)
        np.abs(d, out=d)
        np.subtract(1.0, d, out=e)
        np.minimum(d, e, out=d)
        np.maximum(d, dx, out=d)
        np.add(dsum, d, out=dsum)


def assign_nearest_circle(coords: np.ndarray, ctraj: np.ndarray,
                          n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """For each n < n_total, the center index minimising the L-step averaged
    circle distance (coords holds the sliding orbit, ctraj the (m, L)
    center trajectories); returns (argmin, min)."""
    j_out = np.empty(n_total, dtype=np.int64)
    d_out = np.empty(n_total)
    m_count, ell = ctraj.shape
    chunk = max(1, (1 << 23) // max(m_count, 1))
    for lo in range(0, n_total, chunk):
        hi = min(n_total, lo + chunk)
        dsum = np.zeros((m_count, hi - lo))
        for l in range(ell):
            seg = coords[lo + l: hi + l]
            d = np.abs(seg[None, :] - ctraj[:, l][:, None])
            np.minimum(d, 1.0 - d, out=d)
            dsum += d
        j_out[lo:hi] = np.argmin(dsum, axis=0)
        d_out[lo:hi] = np.min(dsum, axis=0) / ell
    return j_out, d_out
