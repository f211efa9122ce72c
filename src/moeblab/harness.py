"""End-to-end experiments: Mobius-orbit correlations and block tracing.

Observables are finite trigonometric polynomials on the circle or torus;
general continuous test functions enter through their truncated Fourier
data.  Correlation sums stream over the orbit in one pass with compensated
accumulation; the block tracer reproduces the two-scale decomposition of
the running average into L-blocks anchored at covering centers, and
reports what it measures: the cover, the share of orbit points assigned
to a center, and how far the block average lies from the orbit average.
Orbit points find their centers through the system's `nearest_centers`,
on states in the system's own metric; trig coordinates serve only to
evaluate observables.  No system kind is special-cased here.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Iterable, NewType, Sequence, get_args,
                    get_origin)

import numpy as np

from . import __version__
from ._kernels import unit
from .complexity import complexity_profile, greedy_cover, sample_cloud
from .dynamics import (CENTER_SUM_ENTRIES, ORBIT_CHUNK, SystemInstance,
                       _fourier_rows, _integer, _real, make_system)
from .errors import DomainError, ParameterError, SizingError, admit
from .numtheory import (MobiusTable, build_mobius_table, default_t_grid,
                        mertens_values, mobius_segments, pretentious_scan)

CHUNK = ORBIT_CHUNK


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigObservable:
    """f(x) = sum_k c_k e(<k, x>) with finitely many integer frequencies.

    Frequencies are tuples: (m,) on the circle, (m1, m2) on the torus or
    a cyclic-group skew (the group coordinate g enters as g/q).
    """

    coefficients: dict[tuple[int, ...], complex]

    def sup_bound(self) -> float:
        return float(sum(abs(c) for c in self.coefficients.values()))

    def lipschitz_bound(self) -> float:
        """Against the sup metric: sum_k 2 pi (|k_1|+...+|k_d|) |c_k|."""
        return float(sum(2 * math.pi * sum(abs(m) for m in k) * abs(c)
                         for k, c in self.coefficients.items()))

    def bulk(self, coords: np.ndarray) -> np.ndarray:
        """Evaluate on an (n, d) array of torus coordinates."""
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        out = np.zeros(coords.shape[0], dtype=np.complex128)
        for freqs, c in self.coefficients.items():
            phase = sum(m * coords[:, axis] for axis, m in enumerate(freqs) if m)
            # not *, which numpy may run as unit(...) * c: a different imag part
            out += np.multiply(c, unit(1, phase))
        return out

    def __call__(self, state) -> complex:
        coords = np.atleast_1d(np.asarray(state, dtype=np.float64))
        return complex(self.bulk(coords[None, :])[0])


def parse_observable(spec) -> TrigObservable:
    """[[m, re, im], ...] on the circle or [[m1, m2, re, im], ...] on T^2."""
    if isinstance(spec, TrigObservable):
        return spec
    coeffs: dict[tuple[int, ...], complex] = {}
    for key, c in _fourier_rows(spec, "f", (3, 4)):
        coeffs[key] = coeffs.get(key, 0) + c
    if not coeffs:
        raise DomainError("observable needs at least one coefficient")
    if len({len(k) for k in coeffs}) != 1:
        raise DomainError("observable frequencies must share one dimension")
    return TrigObservable(coeffs)


# ---------------------------------------------------------------------------
# Correlation series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationSeries:
    checkpoints: tuple[int, ...]
    values: tuple[complex, ...]    # (1/N_i) sum_{n<=N_i} mu(n) f(T^n x0)
    sup_f: float


def correlation_sum(mu_blocks: Iterable[np.ndarray], system: SystemInstance,
                    f: TrigObservable | Sequence, x0,
                    checkpoints: Sequence[int]) -> CorrelationSeries:
    """Streaming (1/N) sum mu(n) f(T^n x0) at ascending checkpoints.

    mu(1), mu(2), ... come in consecutive blocks: the sieve's segments
    (`mobius_segments`) or a table's values as one block; they are re-cut
    to the orbit's chunks.  One pass over the orbit; each chunk is
    pairwise-summed and folded into a Kahan-compensated running total, so
    accumulation error stays near rounding even at N = 10^6.  f is
    evaluated only where mu(n) != 0; the zero terms stay in the chunk, so
    the summation order is unchanged.
    """
    f = parse_observable(f)
    cps = sorted(int(n) for n in checkpoints)
    if not cps or cps[0] < 1:
        raise DomainError("checkpoints must be positive")
    n_max = cps[-1]
    chunks = system.orbit_coords(x0, n_max, CHUNK)     # checks x0, no step yet
    dim = system.coords(np.asarray(x0, dtype=np.float64)[None]).shape[1]
    f_dim = len(next(iter(f.coefficients)))
    if f_dim != dim:
        raise DomainError(f"observable frequencies of {f_dim} entries on "
                          f"{system.kind!r}, which has {dim} coordinates")

    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j          # Kahan compensation
    values = []
    next_cp = 0
    blocks = iter(mu_blocks)
    ahead = np.empty(0, dtype=np.int8)      # mu from n = lo on, not yet summed
    lo = 1
    for coords in chunks:
        hi = lo + len(coords)
        while len(ahead) < hi - lo:
            block = next(blocks, None)
            if block is None:
                raise SizingError(f"checkpoint {n_max} is past mu, known "
                                  f"up to {lo + len(ahead) - 1}")
            ahead = np.concatenate([ahead, block]) if len(ahead) else block
        mu, ahead = ahead[: hi - lo], ahead[hi - lo:]
        nz = np.flatnonzero(mu != 0)      # twice as fast on a bool mask
        terms = np.zeros(hi - lo, dtype=np.complex128)
        terms[nz] = mu[nz] * f.bulk(coords.take(nz, axis=0))
        while next_cp < len(cps) and cps[next_cp] < hi:
            cp = cps[next_cp]
            part = complex(np.sum(terms[: cp - lo + 1]))
            values.append((_kahan(total, comp, part)[0]) / cp)
            next_cp += 1
        total, comp = _kahan(total, comp, complex(np.sum(terms)))
        lo = hi
    assert len(values) == len(cps)
    return CorrelationSeries(checkpoints=tuple(cps), values=tuple(values),
                             sup_f=f.sup_bound())


def _kahan(total: complex, comp: complex, term: complex) -> tuple[complex, complex]:
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


# ---------------------------------------------------------------------------
# Block-decomposition tracer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockTrace:
    ell: int
    epsilon: float
    epsilon1: float
    cover_count: int           # m = S_L(d, rho, eps1) greedy estimate
    assigned_fraction: float
    assignment_valid: bool
    anchor_diff: float
    block_avg_magnitude: float


def block_decomposition_trace(table: MobiusTable, system: SystemInstance,
                              f: TrigObservable | Sequence, x0,
                              ell: int, epsilon: float,
                              n_total: int, cloud_size: int = 512,
                              seed: int = 0) -> BlockTrace:
    """Trace the block decomposition at scale L over the first N orbit points.

    The covering radius eps1 is chosen below eps^2 and small enough that
    the observable moves by less than eps across sqrt(eps1) in the metric.
    The trace reports measured values only; it asserts no bound on them.
    """
    f = parse_observable(f)
    if ell < 2:
        raise ParameterError(f"L must be >= 2, got {ell}")
    if n_total < 1:
        raise ParameterError(f"N must be >= 1, got {n_total}")
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must lie in (0,1), got {epsilon}")
    if n_total + ell > table.limit + 1:
        raise SizingError(
            f"need mu up to N+L-1 = {n_total + ell - 1}, limit {table.limit}")
    if f.sup_bound() > 1 + 1e-9:
        raise DomainError("observable must be bounded by 1")

    # the orbit rows T^1 x0 .. T^{N+L} x0, as chunks and concatenated, the
    # nearest-center search's scratch and the center trajectories and their
    # coordinates; a system with no closed-form orbit is rejected here.
    # Measured with the rows: the sorted circle search 156 bytes a point
    # (rotation), the generic one 48 and three (m, chunk) float sums
    dim = next(system.orbit_coords(x0, 1, 1)).shape[1]
    nbytes = (16 * dim + 144) * (n_total + ell) + 16 * dim * cloud_size * ell
    if type(system).nearest_centers is SystemInstance.nearest_centers:
        nbytes += 24 * min(cloud_size * n_total, CENTER_SUM_ENTRIES)
    admit(nbytes, f"block trace of N={n_total}, L={ell}")

    orbit_avg = correlation_sum([table.values[1:]], system, f, x0,
                                [n_total]).values[0]

    lip = max(f.lipschitz_bound(), 1e-9)
    epsilon1 = min(epsilon ** 2, (epsilon / lip) ** 2) / 2

    cloud = sample_cloud(system, cloud_size, seed)
    (_, balls), = system.dbar_balls(cloud.states, [ell], [epsilon1])
    cover = greedy_cover(balls[0], cloud.weights, epsilon1)
    centers = list(cover.centers)
    m_count = len(centers)

    # the center orbits as states, ctraj[j, l] = T^l c_j
    ctraj = np.empty((m_count, ell) + cloud.states.shape[1:])
    ctraj[:, 0] = cloud.states[centers]
    for l_off in range(1, ell):
        ctraj[:, l_off] = system.step_bulk(ctraj[:, l_off - 1])
    j_all, dmin = _assign_to_centers(system, x0, ctraj, n_total)
    assigned = dmin < epsilon1
    j_used = np.where(assigned, j_all, 0)     # unassigned fall back to center 0

    # f along the L-orbit of each center
    f_center = f.bulk(system.coords(ctraj.reshape(
        m_count * ell, *ctraj.shape[2:]))).reshape(m_count, ell)

    # mu summed over each center's block l steps ahead; float sums of
    # integers below 2^53 are exact, and the j-then-l order of the
    # complex accumulation is kept
    mu = table.values
    mu_sums = np.array([np.bincount(j_used, minlength=m_count,
                                    weights=mu[1 + l_off: n_total + 1 + l_off])
                        for l_off in range(ell)])
    block_total = 0.0 + 0.0j
    for j in np.flatnonzero(np.bincount(j_used, minlength=m_count)):
        for l_off in range(ell):
            block_total += float(mu_sums[l_off, j]) * f_center[j, l_off]
    block_avg = complex(block_total / (n_total * ell))

    return BlockTrace(
        ell=ell, epsilon=epsilon, epsilon1=epsilon1, cover_count=m_count,
        assigned_fraction=float(np.mean(assigned)),
        assignment_valid=bool(np.all(dmin[assigned] < epsilon1)),
        anchor_diff=float(abs(orbit_avg - block_avg)),
        block_avg_magnitude=float(abs(block_avg)))


def _assign_to_centers(system: SystemInstance, x0, ctraj: np.ndarray,
                       n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest covering center in dbar_L for each orbit point T^n x0,
    n = 1..N, given the (m, L) center state trajectories ctraj: the
    system's `nearest_centers` on the orbit states T^1 x0 .. T^{N+L} x0."""
    orbit = np.concatenate(
        list(system.orbit(x0, n_total + ctraj.shape[1], CHUNK)))
    return system.nearest_centers(orbit, ctraj, n_total)


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

@dataclass
class ReportBundle:
    out_dir: Path
    csv_path: Path
    summary_path: Path
    svg_path: Path | None
    summary: dict


def run_experiment(config: dict, out_root: str | Path = "runs") -> ReportBundle:
    """Dispatch a registered experiment and write CSV + JSON (+ SVG).

    Identical configs and seeds produce byte-identical CSV/JSON/SVG; only
    the timestamped directory name varies between runs.  Runs stamped in
    the same second get the suffixes -1, -2, ... in the order they start.
    """
    name, params = config.get("experiment"), config.get("params", {})
    seed = config.get("seed", 0)
    rows, summary, series = experiment_rows(name, params, seed)

    out_dir = _new_bundle_dir(Path(out_root),
                              f"{name}-{time.strftime('%Y%m%dT%H%M%S')}")
    csv_path = out_dir / "series.csv"
    csv_path.write_text(_csv_text(rows))
    summary_full = {
        "experiment": name, "seed": seed, "params": params,
        "version": __version__, "summary": summary,
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary_full, sort_keys=True, indent=2,
                                       default=_json_default) + "\n")
    svg_path = None
    if series:
        svg_path = out_dir / "plot.svg"
        write_line_svg(svg_path, series)
    return ReportBundle(out_dir=out_dir, csv_path=csv_path,
                        summary_path=summary_path, svg_path=svg_path,
                        summary=summary_full)


def _new_bundle_dir(root: Path, base: str) -> Path:
    """Create and return root/base, or the first free root/base-1, base-2, ...

    The stamp has one-second resolution, so runs in the same second would
    otherwise share a directory; mkdir without exist_ok claims a name
    atomically, also across processes.
    """
    root.mkdir(parents=True, exist_ok=True)
    suffix = 0
    while True:
        path = root / (f"{base}-{suffix}" if suffix else base)
        try:
            path.mkdir()
            return path
        except FileExistsError:
            suffix += 1


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _csv_text(rows: list[dict]) -> str:
    """Rows sharing one set of keys as CSV with a header line ("" if none)."""
    if not rows:
        return ""
    cols = list(rows[0])
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_csv_cell(r[c]) for c in cols))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

# an experiment field refused below 1 by `_read`, with the field's name
PositiveInt = NewType("PositiveInt", int)


def experiment_rows(name: str, params: dict, seed=0) -> tuple[list, dict, list]:
    """Run experiment `name` with `seed`, an integer >= 0, on its fields:
    its parameters after `seed`, each read from `params` by `_read` and
    required where it has no default.  Other keys of `params` are ignored."""
    if name not in _EXPERIMENTS:
        raise ParameterError(
            f"unknown experiment {name!r}; known: " + ", ".join(sorted(_EXPERIMENTS)))
    if not isinstance(params, dict):
        raise ParameterError(f"config 'params' must be an object, got {params!r}")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    run, fields = _EXPERIMENTS[name], {}
    for field in list(inspect.signature(run, eval_str=True).parameters.values())[1:]:
        if field.name in params:
            fields[field.name] = _read(params[field.name], field.annotation, field.name)
        elif field.default is field.empty:
            raise ParameterError(f"config params missing required field {field.name!r}")
    return run(seed, **fields)


def _read(value, kind, name: str):
    """A field by its annotation (`int`, `PositiveInt`, `float`, a non-empty
    `list` of one, `SystemInstance`); any other goes as given to the code
    that checks it."""
    if kind is int:
        return _integer(value, name)
    if kind is PositiveInt:
        value = _integer(value, name)
        if value < 1:
            raise DomainError(f"field {name!r} must be a positive integer, "
                              f"got {value}")
        return value
    if kind is float:
        return _real(value, name)
    if kind is SystemInstance:
        return make_system(value)
    if get_origin(kind) is list:
        if not isinstance(value, list) or not value:
            raise DomainError(f"field {name!r} must be a non-empty list, got {value!r}")
        return [_read(v, get_args(kind)[0], name) for v in value]
    return value


def _exp_sieve_check(seed, *, limit: PositiveInt):
    decades = [10 ** k for k in range(1, 20) if 10 ** k <= limit]
    values = mertens_values(mobius_segments(limit), decades)
    rows = [{"n": n, "mertens": m} for n, m in zip(decades, values)]
    summary = {"limit": limit, "mertens": {str(r["n"]): r["mertens"] for r in rows}}
    series = [("mertens", [(float(r["n"]), float(abs(r["mertens"]) + 1)) for r in rows])]
    return rows, summary, series


def _exp_lemma54(seed, *, alpha, depth: int, tau=1, freq_bound: int = 4096,
                 decay_constant: float = 1.0, grid: int = 512):
    from .cocycle import block_estimate_check, envelope_cocycle, split_cocycle
    from .contfrac import expand, resonance_sets
    cf = expand(alpha, depth)
    res = resonance_sets(cf, tau, freq_bound)
    h = envelope_cocycle(freq_bound, decay_constant, res.tau)
    split = split_cocycle(h, res)
    rows_raw = block_estimate_check(split.h1, cf, res, grid)
    rows = [{"t": r.t, "q_t": r.q_t, "deviation": r.deviation_sup,
             "bound_power": r.bound_power, "ratio": r.ratio} for r in rows_raw]
    summary = {"E": list(res.E), "constant": max((r["ratio"] for r in rows), default=None),
               "m_finite_within_depth": res.m_finite_within_depth}
    series = [("ratio", [(float(r["t"]), max(r["ratio"], 1e-300)) for r in rows])]
    return rows, summary, series


def _exp_covering_profile(seed, *, system: SystemInstance, samples: int,
                          eps: list[float], ns: list[PositiveInt],
                          tau: float = 1.0):
    cloud = sample_cloud(system, samples, seed)
    profiles = complexity_profile(cloud, eps, ns, tau)
    rows = [{"epsilon": p.epsilon, "n": r.n, "Sn": r.s_n, "method": r.method,
             "covered_mass": r.covered_mass}
            for p in profiles for r in p.rows]
    summary = {str(p.epsilon): {
        "classification": p.classification.kind,
        "poly_exponent": p.classification.poly_exponent,
        "exp_rate": p.classification.exp_rate,
        "entropy_rate": p.classification.entropy_rate,
        "liminf_witness": p.classification.liminf_witness,
    } for p in profiles}
    series = [(f"eps={p.epsilon}", [(float(r.n), float(r.s_n)) for r in p.rows])
              for p in profiles]
    return rows, summary, series


def _exp_correlation(seed, *, system: SystemInstance, f, x0,
                     checkpoints: list[PositiveInt]):
    series_data = correlation_sum(mobius_segments(max(checkpoints)), system,
                                  f, x0, checkpoints)
    rows = [{"N": n, "re": v.real, "im": v.imag, "abs": abs(v)}
            for n, v in zip(series_data.checkpoints, series_data.values)]
    summary = {"abs": {str(r["N"]): r["abs"] for r in rows},
               "sup_f": series_data.sup_f}
    series = [("abs", [(float(r["N"]), max(r["abs"], 1e-300)) for r in rows])]
    return rows, summary, series


def _exp_mrt_bilinear(seed, *, p1: float, q1: float, n0: int, bign: int,
                      ell: int, csv_rows: int = 10000):
    from .mrt import (bilinear_mobius_average, build_ladder,
                      complement_density, typical_set_mask)
    ladder = build_ladder(p1, q1, n0, bign)
    table = build_mobius_table(bign + ell)
    stats = complement_density(ladder)
    avg = bilinear_mobius_average(table, ladder, bign, ell)
    mask = typical_set_mask(ladder, min(bign, csv_rows))
    rows = [{"n": i, "in_set": int(mask[i])} for i in range(1, len(mask))]
    summary = {"N": bign, "L": ell, "bilinear_avg": avg,
               "complement_ratio": stats.complement_ratio,
               "complement_count": stats.complement_count,
               "density_bound_c1": stats.density_bound}
    return rows, summary, []


def _exp_block_trace(seed, *, system: SystemInstance, f, x0, L: int,
                     epsilon: float, N: int, cloud: int = 512):
    if N < 1:                       # before the sieve up to N + L
        raise ParameterError(f"N must be >= 1, got {N}")
    table = build_mobius_table(N + L)
    trace = block_decomposition_trace(table, system, f, x0, L, epsilon, N,
                                      cloud_size=cloud, seed=seed)
    rows = [{"quantity": "anchor_diff", "observed": trace.anchor_diff},
            {"quantity": "block_avg_magnitude", "observed": trace.block_avg_magnitude}]
    summary = {
        "L": trace.ell, "epsilon": trace.epsilon, "epsilon1": trace.epsilon1,
        "cover_count": trace.cover_count,
        "assigned_fraction": trace.assigned_fraction,
        "assignment_valid": trace.assignment_valid,
        "anchor_diff": {"observed": trace.anchor_diff},
        "block_avg": {"observed": trace.block_avg_magnitude},
    }
    return rows, summary, []


def _exp_pretentious(seed, *, limit: int, bigq: int, tgrid: int = 201):
    scan = pretentious_scan(limit, bigq, default_t_grid(limit, tgrid))
    rows = [{"q": r.q, "chi_index": r.chi_index, "t": r.t,
             "distance_sq": r.distance_sq} for r in scan]
    best = min(scan, key=lambda r: r.distance_sq)
    summary = {"min_distance_sq": best.distance_sq,
               "argmin": {"q": best.q, "chi_index": best.chi_index, "t": best.t}}
    return rows, summary, []


_EXPERIMENTS: dict[str, Callable] = {
    "sieve-check": _exp_sieve_check,
    "lemma54": _exp_lemma54,
    "covering-profile": _exp_covering_profile,
    "correlation": _exp_correlation,
    "mrt-bilinear": _exp_mrt_bilinear,
    "block-trace": _exp_block_trace,
    "pretentious": _exp_pretentious,
}


# ---------------------------------------------------------------------------
# Minimal SVG line charts
# ---------------------------------------------------------------------------

def write_line_svg(path: Path,
                   series: list[tuple[str, list[tuple[float, float]]]]) -> None:
    """Hand-rolled 640x400 polyline chart; log-scaled axes suit decay curves."""
    width, height, pad = 640, 400, 50
    pts_all = [(x, y) for _, pts in series for (x, y) in pts if y > 0 and x > 0]
    if not pts_all:
        path.write_text("<svg xmlns='http://www.w3.org/2000/svg'/>\n")
        return
    xs = [math.log10(x) for x, _ in pts_all]
    ys = [math.log10(y) for _, y in pts_all]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return pad + (math.log10(x) - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (math.log10(y) - y_lo) / y_span * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
             f"height='{height}' viewBox='0 0 {width} {height}'>",
             f"<rect width='{width}' height='{height}' fill='white'/>",
             f"<line x1='{pad}' y1='{height-pad}' x2='{width-pad}' "
             f"y2='{height-pad}' stroke='black'/>",
             f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height-pad}' "
             f"stroke='black'/>"]
    for idx, (label, pts) in enumerate(series):
        pos = [(sx(x), sy(y)) for x, y in pts if x > 0 and y > 0]
        if not pos:
            continue
        joined = " ".join(f"{px:.2f},{py:.2f}" for px, py in pos)
        color = colors[idx % len(colors)]
        parts.append(f"<polyline points='{joined}' fill='none' "
                     f"stroke='{color}' stroke-width='1.5'/>")
        parts.append(f"<text x='{width-pad+4}' y='{pad + 14*idx + 10}' "
                     f"font-size='11' fill='{color}'>{label}</text>")
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
