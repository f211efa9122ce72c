"""Concrete systems: rotations, skew products over rotations, shifts.

One class per kind writes its step, its distance d on state rows, its
seeded invariant draw and the eps-balls of the averaged metric
(`dbar_balls`) once; `SystemInstance` derives the scalar and pairwise
forms of d and the nearest covering centers of an orbit, so the dbar
oracle, the covering code and the block tracer measure with one d.  A
kind adds what its structure gives: trig coordinates (`coords`), which
only observables read, and the closed-form orbit in bulk states
(`orbit`), from which `SystemInstance` derives the orbit in coordinates
(`orbit_coords`) and the orbit sampler.
A bulk payload is one ndarray with one row per state: a (P,) array of
circle positions, (P, 2) rows [g, y] on G x T^1 for a skew product, or
the (P, w) windows of symbols ahead of each state for a shift.  The skew
product over a rotation of G = T^1 or G = Z/q is one implementation,
`TorusSkew`, of which `GroupSkew` supplies only the Z/q base rotation.

Samplers draw Haar measure where it is invariant by fibered structure
(always, for skews over rotations); "sampler": "orbit" takes Birkhoff
samples from the closed-form orbit instead (burn-in 10^4, stride 7).
"""

from __future__ import annotations

import math
import numbers
import warnings
from typing import Iterator

import numpy as np

from ._kernels import (TORUS_BLOCK, accumulate_torus, assign_nearest_circle,
                       band_matrix, band_stops, band_strips, circle_dist, frac,
                       true_diagonal)
from .cocycle import FourierCocycle, cocycle_from_pairs
from .contfrac import ExactAlpha, parse_alpha
from .errors import DomainError, SizingError, _integer, _real, admit

ORBIT_BURN_IN = 10 ** 4
ORBIT_STRIDE = 7
MAX_ALPHABET = 16
# keeps the table of h on Z/q within 128 MiB, g exact as a float, and
# g0 + n a within int64 for every n < 2^39
MAX_GROUP_ORDER = 1 << 24
STEP_CHUNK = 256
# rows of a closed-form orbit chunk: the orbit sampler's and harness.CHUNK
ORBIT_CHUNK = 1 << 15
# entries of each (m, chunk) sum of the generic nearest-center search
CENTER_SUM_ENTRIES = 1 << 23
# offsets of shift exponents held at once: with the 149 offsets looked
# ahead of a block, an exponent stays below 256
SHIFT_BLOCK = 64
# 2^-e in float32 for e = 0..255: 0 from e = 150 on, as repeated halving
_UNDERFLOW = 150
_HALVINGS = np.zeros(256, dtype=np.float32)
_HALVINGS[:_UNDERFLOW] = 2.0 ** -np.arange(_UNDERFLOW)


class SystemInstance:
    """A state space with iteration map, metric, and invariant sampler.

    Subclasses implement `step_bulk`, `distance(s, t)`, d of the state
    rows s and t elementwise with broadcasting, `_draw(count, rng)`, the
    invariant measure's draw, and `dbar_balls(states, ns, eps)`, which
    yields (n, balls) for the ascending positive ns: balls[k, i, j] is
    dbar_n(x_i, x_j) < eps[k], a C-contiguous (len(eps), p, p) bool array
    in cloud order, True on the diagonal, and no array yielded is held
    once the next n is asked for.  `step`, `metric`, `pairwise_distance`,
    `nearest_centers` and `sample` are derived here.  Bulk states are an
    ndarray with one row per state, so `len(states)`, `states[index]` and
    `np.array(items)` serve every kind.
    A kind with a closed-form orbit writes `orbit(x0, n_max, chunk)` and
    `coords`; `orbit_coords` and the "orbit" sampler are derived from them.
    `nearest_centers(orbit, ctraj, n_total)` reads the orbit states
    orbit[k] = T^{k+1} x0 (at least N + L - 1 rows) and the (m, L) center
    state trajectories ctraj[j, l] = T^l c_j, and returns per n = 1..N the
    index of the center nearest to T^n x0 in dbar_L, the lower index
    winning a tie, and that distance.
    """

    kind: str
    orbit_x0 = None     # the start of "sampler": "orbit" without "x0"

    def __init__(self, descriptor: dict, alpha: ExactAlpha | None = None,
                 h: FourierCocycle | None = None):
        self.descriptor = descriptor
        self.alpha = alpha
        self.h = h

    def states_list(self, states) -> list:
        """Bulk payload as a list of scalar states, copied."""
        return list(np.array(states))

    def step(self, state):
        """T(state), the bulk step of a one-state payload."""
        return self.step_bulk(np.asarray(state)[None])[0]

    def metric(self, s, t) -> float:
        """d(s, t) of two states."""
        s, t = np.asarray(s), np.asarray(t)
        if s.shape != t.shape:
            raise DomainError(f"{self.kind} states of shapes {s.shape} and "
                              f"{t.shape} have no distance")
        return float(self.distance(s, t))

    def pairwise_distance(self, states) -> np.ndarray:
        """The (P, P) matrix d(states[i], states[j]) of a bulk payload."""
        return self.distance(states[:, None], states[None, :])

    def sample(self, count: int, seed: int):
        """`count` states of the invariant draw or, with "sampler":
        "orbit", of the orbit of "x0" (default `orbit_x0`); a kind with no
        orbit start, such as the shift, whose window shrinks, refuses it."""
        desc = self.descriptor
        sampler = desc.get("sampler")
        if sampler is None:
            return self._draw(count, np.random.default_rng(seed))
        if sampler != "orbit" or self.orbit_x0 is None:
            raise DomainError(
                f"system kind {self.kind!r} has no sampler {sampler!r}")
        x0 = desc.get("x0", self.orbit_x0)
        self._check_start(x0)
        x0 = np.asarray(x0, dtype=np.float64)
        # rows n = burn_in + i stride, n = 0 being x0; a negative takes no step
        burn_in = max(0, _integer(desc.get("burn_in", ORBIT_BURN_IN), "burn_in"))
        stride = max(0, _integer(desc.get("stride", ORBIT_STRIDE), "stride"))
        ns = burn_in + stride * np.arange(count)
        rows = np.empty((count, len(x0)))
        rows[ns == 0] = x0
        lo = 1
        for chunk in self.orbit(x0, int(ns[-1]) if count else 0, ORBIT_CHUNK):
            pick = slice(*np.searchsorted(ns, [lo, lo + len(chunk)]))
            rows[pick] = chunk[ns[pick] - lo]
            lo += len(chunk)
        return rows

    def _check_start(self, x0) -> None:
        """Refuse an orbit start off the state space, before any step: here
        one that is not finite numbers, in each kind one of the wrong shape."""
        for value in x0 if isinstance(x0, list) else np.ravel(x0).tolist():
            _real(value, "x0")

    def _admit(self, nbytes: int, p: int, n_max: int) -> None:
        """Refuse dbar balls of p states up to n_max whose working set of
        `nbytes` passes the memory cap, before anything is allocated."""
        admit(nbytes, f"dbar balls of {p} {self.kind} states up to n={n_max}")

    # -- structure --------------------------------------------------------
    def coords(self, states) -> np.ndarray:
        """Bulk states as a (P, d) array of circle or torus coordinates,
        read only: it may be the payload itself."""
        raise DomainError(f"system kind {self.kind!r} has no trig coordinates")

    def orbit(self, x0, n_max: int, chunk: int) -> Iterator[np.ndarray]:
        """Yield the bulk states T^n x0 for n = 1..n_max in successive
        payloads of `chunk` rows, the last one possibly shorter."""
        raise DomainError(
            f"correlation orbits need trig coordinates; system kind "
            f"{self.kind!r} is not supported")

    def orbit_coords(self, x0, n_max: int, chunk: int) -> Iterator[np.ndarray]:
        """The `coords` of each chunk of `orbit`; the start is checked
        before the first chunk is asked for."""
        self._check_start(x0)
        return map(self.coords, self.orbit(x0, n_max, chunk))

    def nearest_centers(self, orbit: np.ndarray, ctraj: np.ndarray,
                        n_total: int) -> tuple[np.ndarray, np.ndarray]:
        """Generic form: the L-step average of `distance`, with
        T^l (T^n x0) = orbit[n + l - 1], chunked over n to bound the
        (m, chunk) buffer."""
        m_count, ell = ctraj.shape[:2]
        j_all = np.empty(n_total, dtype=np.int64)
        dmin = np.empty(n_total)
        chunk = max(1, CENTER_SUM_ENTRIES // max(m_count, 1))
        for lo in range(0, n_total, chunk):
            hi = min(n_total, lo + chunk)
            dsum = np.zeros((m_count, hi - lo))
            for l_off in range(ell):
                seg = orbit[lo + l_off: hi + l_off]
                for j in range(m_count):
                    dsum[j] += self.distance(seg, ctraj[j, l_off])
            dbar = dsum / ell
            j_all[lo:hi] = np.argmin(dbar, axis=0)
            dmin[lo:hi] = np.min(dbar, axis=0)
        return j_all, dmin


class Rotation(SystemInstance):
    """x -> x + alpha on the circle, an isometry of the circle metric."""

    kind = "rotation"

    def __init__(self, descriptor: dict):
        alpha = parse_alpha(descriptor["alpha"])
        if alpha.is_rational:
            warnings.warn("rational alpha: rotation is periodic; the "
                          "disjointness theorems here assume irrational alpha")
        super().__init__(descriptor, alpha=alpha)
        self.a = alpha.as_float()

    def _draw(self, count, rng):
        return rng.random(count)

    def _check_start(self, x0) -> None:
        super()._check_start(x0)
        if np.ndim(x0) != 0:
            raise DomainError(f"a rotation orbit starts at one circle point, "
                              f"got x0 = {x0!r}")

    def step_bulk(self, xs):
        return frac(xs + self.a)

    distance = staticmethod(circle_dist)

    def dbar_balls(self, states, ns, eps):
        """An isometry keeps dbar_n = d for every n: the distance is
        thresholded once, on strips of TORUS_BLOCK rows written straight
        into the balls, and the same read-only balls are yielded for each
        n.  Working set: the balls and one strip's distance and its
        scratch, 24 bytes a strip entry.  Admitted: that, or 24 p^2 bytes
        if more, the whole distance matrix and its scratch, so a cloud
        refused before the strips is refused still."""
        eps = np.asarray(eps, dtype=np.float64)[:, None, None]
        p = len(states)
        strip = min(p, TORUS_BLOCK)
        self._admit(max(24 * p, len(eps) * p + 24 * strip) * p, p, max(ns))
        balls = np.empty((len(eps), p, p), dtype=bool)
        for r0 in range(0, p, TORUS_BLOCK):
            rows = slice(r0, r0 + TORUS_BLOCK)
            np.less(self.distance(states[rows, None], states[None, :]), eps,
                    out=balls[:, rows])
        balls.flags.writeable = False
        yield from ((n, balls) for n in ns)

    def coords(self, xs) -> np.ndarray:
        return np.asarray(xs, dtype=np.float64)[:, None]

    def orbit(self, x0, n_max, chunk):
        for lo in range(1, n_max + 1, chunk):
            ns = np.arange(lo, min(lo + chunk, n_max + 1), dtype=np.float64)
            yield frac(float(x0) + ns * self.a)

    def nearest_centers(self, orbit, ctraj, n_total):
        """dbar_L(T^n x0, c) = ||x_n - c||, so only the first center
        positions enter, through the sorted circle search."""
        return assign_nearest_circle(orbit, ctraj[:, :1], n_total)


class TorusSkew(SystemInstance):
    """(g, y) -> (g + a, y + h(g)) on G x T^1 under the sup metric, over a
    minimal rotation of a compact abelian group G; a state is the row
    [g, y].  Here G = T^1 and a = alpha (the circle form of `group_skew`
    is this system with that kind); `GroupSkew` is G = Z/q.

    The base rotation enters only through `_advance(g, i)` = g + i a,
    `_h(g)`, the fibre increment, `coords`, with g as a circle point,
    `_base_distance(g, h)`, elementwise with broadcasting, and `_check_g`.
    """

    orbit_x0 = (0.1, 0.2)

    def __init__(self, descriptor: dict, kind: str = "skew2"):
        alpha = parse_alpha(descriptor["alpha"])
        if alpha.is_rational:
            warnings.warn("rational alpha in a skew product: outside the "
                          "scope of the irrational-rotation results")
        super().__init__(descriptor, alpha=alpha, h=_h_from_descriptor(descriptor))
        self.kind = kind
        self.a = alpha.as_float()

    def _advance(self, x, i):
        return frac(x + i * self.a)

    def _h(self, x):
        return self.h.evaluate(x)

    _base_distance = staticmethod(circle_dist)

    def _draw(self, count, rng):
        return rng.random((count, 2))

    def _check_start(self, x0) -> None:
        if np.shape(np.array(x0, dtype=object)) != (2,):
            raise DomainError(f"a {self.kind} orbit starts at one row [g, y], "
                              f"got x0 = {x0!r}")
        self._check_g(x0[0])
        super()._check_start(x0)

    def _check_g(self, g) -> None:
        """Refuse a group coordinate g that is not on G; on T^1 every number is."""

    def step_bulk(self, states):
        out = np.empty(states.shape)     # float rows, also for integral g
        out[:, 0] = self._advance(states[:, 0], 1)
        out[:, 1] = frac(states[:, 1] + self._h(states[:, 0]))
        return out

    def distance(self, s, t):
        """max(base distance of g, circle distance of y) of rows [g, y]."""
        return np.maximum(self._base_distance(s[..., 0], t[..., 0]),
                          circle_dist(s[..., 1], t[..., 1]))

    def coords(self, states) -> np.ndarray:
        """Over T^1 the rows [g, y] are their own coordinates."""
        return np.asarray(states, dtype=np.float64)

    def orbit(self, x0, n_max, chunk):
        """Closed form: the rows [g0 + n a, y0 + H_n], H_n the Birkhoff sum
        of the increments h(g_0), ..., h(g_{n-1}), carried unreduced from
        chunk to chunk as a float into each chunk's first increment: y_n is
        ((y0 + h(g_0)) + ...) + h(g_{n-1}) wherever the chunks are cut."""
        y = float(x0[1])
        for lo in range(1, n_max + 1, chunk):
            # steps in the type of a: float over T^1, int (exact) over Z/q
            ns = np.arange(lo - 1, min(lo + chunk, n_max + 1), dtype=type(self.a))
            g = self._advance(x0[0], ns)
            ys = self._h(g[:-1])
            ys[0] += y
            y = float(np.cumsum(ys, out=ys)[-1])
            yield np.column_stack([g[1:], frac(ys)])

    def _band_sums(self, states, ns, reach: float, held: int):
        """Yield (n, order, stops, sums) for the ascending ns: the band sums
        of every pair whose base distance is below `reach`, in strips of
        TORUS_BLOCK rows of the cloud sorted by base point (`band_stops`).

        The base rotation is an isometry, so the base distance dx of a pair
        is the same at every step and each step adds max(dx, ||y_i - y_j||)
        >= dx.  Each strip's dx comes from the exact `_base_distance`, and
        the steps of a pair are added in order, so a band sum is the float a
        dense sweep gives.  Against step-wise recomputation of the rotated
        base coordinates dbar_n differs by float rounding alone (a few
        1e-15).  The reach is capped at 1/2: no base distance exceeds it,
        and the forward half circle of each row holds every pair.

        The working set: dx and the sums, (p, width) for the widest strip,
        STEP_CHUNK fibre rows, a strip's scratch and `held` bytes of the
        caller's.  The band holds at least the diagonal, so the set at
        width 1 is admitted before the base points are sorted (about 56
        bytes a state), and the set at the band's width after.
        """
        p = len(states)

        def admit(width):
            self._admit(16 * p * width + held + 8 * STEP_CHUNK * p
                        + 8 * (STEP_CHUNK + 2 * TORUS_BLOCK) * width,
                        p, max(ns))

        admit(1)
        g = states[:, 0]
        x = frac(self.coords(states)[:, 0])
        order = np.argsort(x, kind="stable")
        stops = band_stops(x[order], min(reach, 0.5))
        width = int(np.max(stops - np.arange(0, p, TORUS_BLOCK))) - 1
        admit(width)
        gs = g[order]
        dx = np.zeros((p, width))
        for rows, cols in band_strips(stops, p):
            dx[rows, :len(cols)] = self._base_distance(gs[rows, None],
                                                       gs[None, cols])
        sums = np.zeros((p, width))
        y = frac(states[:, 1])
        ys = np.empty((STEP_CHUNK, p))
        done = 0
        for n in ns:
            while done < n:
                chunk = min(STEP_CHUNK, n - done)
                for s in range(chunk):
                    ys[s] = y[order]
                    y = frac(y + self._h(self._advance(g, done + s)))
                accumulate_torus(ys[:chunk], stops, dx, sums)
                done += chunk
            yield n, order, stops, sums

    def dbar_balls(self, states, ns, eps):
        """The balls from the band at reach r = max(eps) (1 + n_max 2^-52).

        A pair off the band has dx >= r, and each of its n step terms is
        >= dx.  In floats the first addition (to 0) is exact; each later
        one and the division by n lose at most a factor 1 + 2^-53, so
        dbar_1 >= dx and dbar_n >= dx (1 + 2^-53)^-n.  r is a rounded
        product: r >= max(eps), and r (1 + 2^-53) >= max(eps) (1 + n 2^-52).
        As (1 + 2^-53)^(n+1) <= 1 + n 2^-52 for 2 <= n < 2^50, dbar_n >=
        max(eps) at every n: the dense mean puts the pair in no ball
        either, and every ball equals the dense threshold bit for bit.  At
        r >= 1/2 no pair is off the band.  Beside the band's, the working
        set is the balls in sorted order and their row-permuted copy.
        """
        eps = np.asarray(eps, dtype=np.float64)[:, None, None]
        p = len(states)
        reach = float(eps.max()) * (1.0 + max(ns) * 2.0 ** -52)
        for n, order, stops, sums in self._band_sums(states, ns, reach,
                                                     2 * len(eps) * p * p):
            yield n, band_matrix(sums, stops, n, eps, order)


class GroupSkew(TorusSkew):
    """The skew product over g -> g + a on G = Z/q.  A state is [g, y], g an
    integral float, exact for q <= MAX_GROUP_ORDER; the metric reads g by
    min(k, q - k)/q exactly, the trig coordinates as the circle point g/q."""

    kind = "group_skew"
    orbit_x0 = (0, 0.2)

    def __init__(self, descriptor: dict):
        q = _integer(descriptor["group"]["q"], "group.q")
        if q < 1:
            raise DomainError(f"cyclic group order must be >= 1, got {q}")
        if q > MAX_GROUP_ORDER:
            raise SizingError(
                f"cyclic group order {q} exceeds {MAX_GROUP_ORDER}, the cap "
                "on the table of h over Z/q")
        a = _integer(descriptor["a"], "a") % q
        if math.gcd(a, q) != 1:
            warnings.warn(f"a={a} does not generate Z/{q}: rotation not minimal")
        h = _h_from_descriptor(descriptor)
        # TorusSkew.__init__ parses an alpha; the Z/q rotation is by an integer
        SystemInstance.__init__(self, descriptor, h=h)
        self.q = q
        self.a = a
        self.h_table = h.evaluate(np.arange(q) / q)   # h on the group points

    def _advance(self, g, i):
        return (g + i * self.a) % self.q

    def _h(self, g):
        return self.h_table[np.asarray(g, dtype=np.int64)]

    def _base_distance(self, g, h):
        """Exactly min(k, q - k)/q with k = (g - h) mod q; for g and h in
        Z/q the floor of the rounded (g - h)/q is exact, and faster than %."""
        k = g - h
        k = k - self.q * np.floor(k / self.q)
        return np.minimum(k, self.q - k) / self.q

    def _check_g(self, g) -> None:
        if not (isinstance(g, numbers.Real) and float(g).is_integer()
                and 0 <= g < self.q):
            raise DomainError(f"group coordinate {g} of x0 is not an "
                              f"element of Z/{self.q}")

    def coords(self, states) -> np.ndarray:
        return np.column_stack([states[:, 0] / self.q, states[:, 1]])

    def _draw(self, count, rng):
        return np.column_stack([rng.integers(0, self.q, count),
                                rng.random(count)])


class Shift(SystemInstance):
    """The left shift on sequences over a finite alphabet with Bernoulli
    measure; d = 2^-(first differing offset).  A state is the window of
    symbols ahead of it, sampled `horizon` symbols long; a step drops the
    first symbol, so a bulk payload is a (P, w) symbol matrix."""

    kind = "shift"

    def __init__(self, descriptor: dict):
        weights = descriptor["weights"]
        if not isinstance(weights, list):
            raise DomainError(f"field 'weights' must be a list, got {weights!r}")
        weights = np.array([_real(w, "weights") for w in weights])
        if len(weights) > MAX_ALPHABET:
            raise DomainError(f"alphabet size {len(weights)} exceeds {MAX_ALPHABET}")
        if abs(weights.sum() - 1.0) > 1e-12 or np.any(weights < 0):
            raise DomainError("Bernoulli weights must be nonnegative and sum to 1")
        super().__init__(descriptor)
        self.weights = weights
        self.horizon = _integer(descriptor.get("horizon", 64), "horizon")
        if self.horizon < 1:
            raise DomainError(f"shift horizon must be >= 1, got {self.horizon}")

    def _draw(self, count, rng):
        return rng.choice(len(self.weights), size=(count, self.horizon),
                          p=self.weights).astype(np.int8)

    def step_bulk(self, states):
        if states.shape[1] <= 1:
            raise DomainError(f"shift window of {states.shape[1]} symbols exhausted")
        return states[:, 1:]

    def distance(self, s, t):
        """2^-j for the first offset j where the windows differ, else 2^-w."""
        return 2.0 ** -np.logical_and.accumulate(s == t, axis=-1).sum(axis=-1)

    def dbar_balls(self, states, ns, eps):
        """The float32 means of `_dbar_means` thresholded."""
        eps = np.asarray(eps, dtype=np.float64)[:, None, None]
        p = len(states)
        for n, mean in self._dbar_means(states, ns, len(eps) * p * p):
            yield n, true_diagonal(mean < eps)

    def _dbar_means(self, states, ns, held):
        """Yield (n, dbar_n pairwise matrix) for the ascending positive ns,
        once their working set and `held` bytes of the caller's are
        admitted.  Two passes per block of SHIFT_BLOCK offsets below n_max.
        Pass 1, right to left over the window transposed to (w, p) and
        chunked over rows, keeps per pair and offset j one byte e_j, the
        distance to the next differing offset.  It starts 149 offsets past
        the block, with a virtual difference there: the e_j this shortens
        stay >= 150, where 2^-e is 0 in float32.  Pass 2 adds 2^-e_j in
        ascending j into one float32 running sum, the additions of a
        cumulative sum, and yields each n's float32 mean in one reused
        matrix; a float64 eps compares with it exactly.  Working set: the
        (block, p, p) bytes, two float32 (p, p) matrices, and per pair of a
        chunk of rows two bytes and the 8-byte index `np.take` makes of
        each byte."""
        p, w = states.shape
        n_max = max(ns)
        if n_max > w:
            raise DomainError(f"shift window of {w} symbols too short for n={n_max}")
        block = min(n_max, SHIFT_BLOCK)
        chunk = min(p, max(1, (1 << 19) // p))
        self._admit((block + 8) * p * p + 10 * chunk * p + held, p, n_max)
        cols = np.ascontiguousarray(states.T)
        expo = np.empty((block, p, p), dtype=np.uint8)
        run = np.zeros((p, p), dtype=np.float32)
        term = np.empty((p, p), dtype=np.float32)
        for start in range(0, n_max, block):
            end = min(n_max, start + block)
            top = min(w, end + _UNDERFLOW - 1)
            for lo in range(0, p, chunk):
                hi = min(p, lo + chunk)
                same = np.empty((hi - lo, p), dtype=bool)
                e = np.zeros((hi - lo, p), dtype=np.uint8)
                for j in range(top - 1, start - 1, -1):
                    np.equal(cols[j, lo:hi, None], cols[j], out=same)
                    np.add(e, 1, out=e)
                    np.multiply(e, same, out=e)
                    if j < end:
                        expo[j - start, lo:hi] = e
            for j in range(start, end):
                for lo in range(0, p, chunk):
                    np.take(_HALVINGS, expo[j - start, lo:lo + chunk],
                            out=term[lo:lo + chunk], mode="clip")
                np.add(run, term, out=run)
                if j + 1 in ns:
                    np.divide(run, np.float32(j + 1), out=term)
                    yield j + 1, term


def _h_from_descriptor(descriptor: dict) -> FourierCocycle:
    rows = _fourier_rows(descriptor.get("h", []), "h", (3,))
    return cocycle_from_pairs((m, c) for (m,), c in rows)


def _fourier_rows(spec, name: str, sizes: tuple) -> Iterator[tuple]:
    """Field `name`'s rows [m, ..., re, im] of one of `sizes` entries as
    (integer frequencies, coefficient); a non-list is refused as a row."""
    for row in spec if isinstance(spec, list) else [spec]:
        if not isinstance(row, (list, tuple)) or len(row) not in sizes:
            raise DomainError(f"field {name!r} row {row!r} must be [m, ..., re, "
                              f"im] of {' or '.join(map(str, sizes))} entries")
        yield (tuple(_integer(m, name) for m in row[:-2]),
               complex(_real(row[-2], name), _real(row[-1], name)))


def _make_group_skew(descriptor: dict) -> SystemInstance:
    group = descriptor.get("group", "circle")
    circle = group == "circle"
    if not circle and not (isinstance(group, dict) and "q" in group):
        raise DomainError(f"group_skew field 'group' must be \"circle\" or "
                          f"{{\"q\": q}}, got {group!r}")
    name = "alpha" if circle else "a"
    if name not in descriptor:
        raise DomainError(f"group_skew descriptor is missing field {name!r}")
    return TorusSkew(descriptor, kind="group_skew") if circle else GroupSkew(descriptor)


# kind -> (builder, required descriptor fields)
_KINDS = {
    "rotation": (Rotation, ("alpha",)),
    "skew2": (TorusSkew, ("alpha",)),
    "group_skew": (_make_group_skew, ()),
    "shift": (Shift, ("weights",)),
}


def make_system(descriptor: dict) -> SystemInstance:
    """Build a system from a descriptor such as
    {"kind": "skew2", "alpha": "sqrt2-1", "h": [[m, re, im], ...]}.
    """
    if not isinstance(descriptor, dict):
        raise DomainError(f"a system descriptor is an object, got {descriptor!r}")
    kind = descriptor.get("kind")
    if kind not in _KINDS:
        raise DomainError(
            f"unknown system kind {kind!r}; expected one of {sorted(_KINDS)}")
    builder, required = _KINDS[kind]
    for name in required:
        if name not in descriptor:
            raise DomainError(
                f"system descriptor of kind {kind!r} is missing field {name!r}")
    return builder(dict(descriptor))

