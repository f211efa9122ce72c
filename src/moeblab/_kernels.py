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
