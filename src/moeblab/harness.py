"""End-to-end experiments: Mobius-orbit correlations and block tracing.

Observables are finite trigonometric polynomials on the circle or torus;
general continuous test functions enter through their truncated Fourier
data.  Correlation sums stream over the orbit in one pass with compensated
accumulation; the block tracer reproduces the two-scale decomposition of
the running average into L-blocks anchored at covering centers, reporting
observed-versus-claimed discrepancy ratios (the claims hold only for
"sufficiently large" horizons, so they are diagnostics, never assertions).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from ._kernels import assign_nearest_circle
from .complexity import greedy_cover, _iter_dbar, sample_cloud
from .dynamics import SystemInstance, circle_dist, make_system
from .errors import DomainError, ParameterError, SizingError
from .numtheory import (MobiusTable, build_mobius_table, default_t_grid,
                        mertens, mobius_non_pretentious)

CHUNK = 1 << 15


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

    @property
    def dimension(self) -> int:
        return len(next(iter(self.coefficients)))

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
            phase = np.zeros(coords.shape[0])
            for axis, m in enumerate(freqs):
                if m:
                    phase = phase + m * coords[:, axis]
            out += c * np.exp(2j * np.pi * phase)
        return out

    def __call__(self, state) -> complex:
        coords = np.atleast_1d(np.asarray(state, dtype=np.float64))
        return complex(self.bulk(coords[None, :])[0])


def parse_observable(spec) -> TrigObservable:
    """[[m, re, im], ...] on the circle or [[m1, m2, re, im], ...] on T^2."""
    if isinstance(spec, TrigObservable):
        return spec
    coeffs: dict[tuple[int, ...], complex] = {}
    for row in spec:
        if len(row) == 3:
            key, c = (int(row[0]),), complex(row[1], row[2])
        elif len(row) == 4:
            key, c = (int(row[0]), int(row[1])), complex(row[2], row[3])
        else:
            raise DomainError(f"observable row {row!r} must have 3 or 4 entries")
        coeffs[key] = coeffs.get(key, 0) + c
    if not coeffs:
        raise DomainError("observable needs at least one coefficient")
    if len({len(k) for k in coeffs}) != 1:
        raise DomainError("observable frequencies must share one dimension")
    return TrigObservable(coeffs)


# ---------------------------------------------------------------------------
# Orbit coordinates
# ---------------------------------------------------------------------------

def _orbit_coords(system: SystemInstance, x0, n_from: int, n_to: int,
                  carry: dict) -> np.ndarray:
    """Coordinates of T^n x0 for n in [n_from, n_to), as an (k, d) array.

    Rotations and torus skews stream in closed form (x-coordinate exact in
    n, y-coordinate by carried Birkhoff accumulation); cyclic-group skews
    map g to g/q.  Shift systems have no trig coordinates and are rejected,
    and so are conjugated systems, whose orbit the closed form does not give.
    """
    if system.descriptor.get("conjugated"):
        raise DomainError(
            f"correlation orbits are streamed in closed form for unconjugated "
            f"systems only; this {system.kind!r} system is conjugated")
    ns = np.arange(n_from, n_to, dtype=np.float64)
    if system.kind == "rotation":
        a = system.alpha.as_float()
        x = np.mod(float(x0) + ns * a, 1.0)
        return x[:, None]
    if system.kind in ("skew2", "group_skew") and system.alpha is not None:
        a = system.alpha.as_float()
        x0v, y0v = float(x0[0]), float(x0[1])
        if "y" not in carry:
            carry["y"] = y0v
            carry["n"] = 1
        if carry["n"] != n_from:
            raise AssertionError("orbit chunks must be consumed in order")
        x_prev = np.mod(x0v + (ns - 1.0) * a, 1.0)
        h_vals = system.h.evaluate(x_prev)
        y = carry["y"] + np.cumsum(h_vals)
        carry["y"] = float(y[-1])
        carry["n"] = n_to
        x = np.mod(x0v + ns * a, 1.0)
        return np.column_stack([x, np.mod(y, 1.0)])
    if system.kind == "group_skew":
        group = system.descriptor["group"]
        q = int(group["q"]) if isinstance(group, dict) else int(group)
        a = int(system.descriptor["a"]) % q
        g0, y0v = int(x0[0]), float(x0[1])
        h_vals = system.h.evaluate(np.arange(q) / q)
        if "y" not in carry:
            carry["y"] = y0v
            carry["n"] = 1
        if carry["n"] != n_from:
            raise AssertionError("orbit chunks must be consumed in order")
        steps = np.arange(n_from, n_to, dtype=np.int64)
        g_prev = (g0 + (steps - 1) * a) % q
        y = carry["y"] + np.cumsum(h_vals[g_prev])
        carry["y"] = float(y[-1])
        carry["n"] = n_to
        g_now = (g0 + steps * a) % q
        return np.column_stack([g_now / q, np.mod(y, 1.0)])
    raise DomainError(
        f"correlation orbits need trig coordinates; system kind "
        f"{system.kind!r} is not supported")


# ---------------------------------------------------------------------------
# Correlation series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationSeries:
    descriptor: dict
    observable: TrigObservable
    x0: object
    checkpoints: tuple[int, ...]
    values: tuple[complex, ...]    # (1/N_i) sum_{n<=N_i} mu(n) f(T^n x0)
    sup_f: float


def correlation_sum(table: MobiusTable, system: SystemInstance,
                    f: TrigObservable | Sequence, x0,
                    checkpoints: Sequence[int]) -> CorrelationSeries:
    """Streaming (1/N) sum mu(n) f(T^n x0) at ascending checkpoints.

    One pass over the orbit; each chunk is pairwise-summed and folded into
    a Kahan-compensated running total, so accumulation error stays near
    rounding even at N = 10^6.
    """
    f = parse_observable(f)
    cps = sorted(int(n) for n in checkpoints)
    if not cps or cps[0] < 1:
        raise DomainError("checkpoints must be positive")
    n_max = cps[-1]
    if n_max > table.limit:
        raise SizingError(
            f"checkpoint {n_max} exceeds sieve limit {table.limit}")

    carry: dict = {}
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j          # Kahan compensation
    values = []
    next_cp = 0
    mu = table.values
    for lo in range(1, n_max + 1, CHUNK):
        hi = min(lo + CHUNK, n_max + 1)
        coords = _orbit_coords(system, x0, lo, hi, carry)
        terms = mu[lo:hi].astype(np.float64) * f.bulk(coords)
        while next_cp < len(cps) and cps[next_cp] < hi:
            cp = cps[next_cp]
            part = complex(np.sum(terms[: cp - lo + 1]))
            values.append((_kahan(total, comp, part)[0]) / cp)
            next_cp += 1
        total, comp = _kahan(total, comp, complex(np.sum(terms)))
    assert len(values) == len(cps)
    return CorrelationSeries(descriptor=dict(system.descriptor),
                             observable=f, x0=x0,
                             checkpoints=tuple(cps), values=tuple(values),
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
    delta: float
    w_param: float             # W = L^delta
    epsilon: float
    epsilon1: float
    cover_count: int           # m = S_L(d, rho, eps1) greedy estimate
    cover_budget: float        # eps^3 L^{delta/20} / 2 (with D = 1)
    schedule: dict[str, bool]
    assigned_fraction: float
    assignment_valid: bool
    orbit_average: complex           # (1/N) sum mu(n) f(T^n x0)
    block_average: complex           # the two-scale right side
    anchor_diff: float
    anchor_tolerance: float           # 5 eps
    block_avg_magnitude: float
    block_avg_tolerance: float           # 3 eps


def block_decomposition_trace(table: MobiusTable, system: SystemInstance,
                              f: TrigObservable | Sequence, x0,
                              ell: int, delta: float, epsilon: float,
                              n_total: int, cloud_size: int = 512,
                              seed: int = 0) -> BlockTrace:
    """Trace the block decomposition at scale L over the first N orbit points.

    The covering radius eps1 is chosen below eps^2 and small enough that
    the observable moves by less than eps across sqrt(eps1) in the metric.
    Schedule inequalities relating W = L^delta to L and N are reported,
    not enforced: their regime is unreachable at desk scale and the
    thresholds carry no effective constants.
    """
    f = parse_observable(f)
    if not 0 < delta < 1 / 500:
        raise ParameterError(f"delta must lie in (0, 1/500), got {delta}")
    if ell < 2:
        raise ParameterError(f"L must be >= 2, got {ell}")
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must lie in (0,1), got {epsilon}")
    if n_total + ell > table.limit + 1:
        raise SizingError(
            f"need mu up to N+L-1 = {n_total + ell - 1}, limit {table.limit}")
    if f.sup_bound() > 1 + 1e-9:
        raise DomainError("observable must be bounded by 1 for the traced claims")

    # first, as it also rejects systems with no closed-form orbit
    orbit_avg = _plain_orbit_average(table, system, f, x0, n_total)

    w_param = ell ** delta
    log_l = math.log(ell)
    schedule = {
        "W >= 10": w_param >= 10,
        "W >= log^20(L)": w_param >= log_l ** 20,
        "W <= L^(1/500)": w_param <= ell ** (1 / 500),
        "W <= (log N)^(1/125)": w_param <= math.log(n_total) ** (1 / 125),
    }
    q_cap = max(1, math.floor(w_param))
    m_mu = mobius_non_pretentious(table, n_total, q_cap,
                                  default_t_grid(n_total, 41))
    schedule["W <= exp(M(mu;N,W)/3)"] = w_param <= math.exp(m_mu / 3)

    lip = max(f.lipschitz_bound(), 1e-9)
    epsilon1 = min(epsilon ** 2, (epsilon / lip) ** 2) / 2

    cloud = sample_cloud(system, cloud_size, seed)
    _, dbar_l = next(iter(_iter_dbar(cloud, [ell])))
    cover = greedy_cover(dbar_l < epsilon1, cloud.weights, epsilon1,
                         uniform=cloud.uniform)
    centers = list(cover.centers)
    m_count = len(centers)
    budget = epsilon ** 3 * ell ** (delta / 20) / 2.0
    schedule["m < eps^3 L^(delta/20) / (2 D), D=1"] = m_count < budget

    cloud_states = cloud.system.states_list(cloud.states)
    trajectories = []
    for i in centers:
        sts = [cloud_states[i]]
        for _ in range(ell - 1):
            sts.append(system.step(sts[-1]))
        trajectories.append(sts)
    ctraj = np.array(trajectories, dtype=np.float64).reshape(m_count, ell, -1)
    j_all, dmin = _assign_to_centers(system, x0, ctraj, n_total)
    assigned = dmin < epsilon1
    j_used = np.where(assigned, j_all, 0)     # unassigned fall back to center 0

    # f along the L-orbit of each center
    f_center = f.bulk(ctraj.reshape(m_count * ell, -1)).reshape(m_count, ell)

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

    anchor = float(abs(orbit_avg - block_avg))
    block_mag = float(abs(block_avg))
    return BlockTrace(
        ell=ell, delta=delta, w_param=w_param, epsilon=epsilon,
        epsilon1=epsilon1, cover_count=m_count, cover_budget=budget,
        schedule=schedule,
        assigned_fraction=float(np.mean(assigned)),
        assignment_valid=bool(np.all(dmin[assigned] < epsilon1)),
        orbit_average=orbit_avg, block_average=block_avg,
        anchor_diff=anchor, anchor_tolerance=5 * epsilon,
        block_avg_magnitude=block_mag, block_avg_tolerance=3 * epsilon)


def _plain_orbit_average(table, system, f, x0, n_total) -> complex:
    series = correlation_sum(table, system, f, x0, [n_total])
    return series.values[0]


def _assign_to_centers(system: SystemInstance, x0, ctraj: np.ndarray,
                       n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest covering center in dbar_L for each orbit point T^n x0,
    n = 1..N, given the (m, L, d) center trajectories ctraj.

    When `system.isometric` holds (an unconjugated rotation), the step is an
    isometry and dbar_L(T^n x0, c) = ||x_n - c||, so only the orbit up to N
    and the center positions enter, through the sorted circle search of
    `assign_nearest_circle`.  Otherwise the L-step average is accumulated,
    exploiting T^l (T^n x0) = orbit[n + l].
    """
    m_count, ell, _ = ctraj.shape
    n_orbit = n_total if system.isometric else n_total + ell
    carry: dict = {}
    coords = np.concatenate(
        [_orbit_coords(system, x0, lo, min(lo + CHUNK, n_orbit + 1), carry)
         for lo in range(1, n_orbit + 1, CHUNK)], axis=0)
    # coords[k] = T^{k+1} x0
    if system.isometric:
        return assign_nearest_circle(coords[:, 0], ctraj[:, :1, 0], n_total)

    # torus path, chunked over n to bound the (m, chunk) buffer
    j_all = np.empty(n_total, dtype=np.int64)
    dmin = np.empty(n_total)
    chunk = max(1, (1 << 23) // max(m_count, 1))
    for lo in range(0, n_total, chunk):
        hi = min(n_total, lo + chunk)
        dsum = np.zeros((m_count, hi - lo))
        for l_off in range(ell):
            seg = coords[lo + l_off: hi + l_off]
            for j in range(m_count):
                d = circle_dist(seg[:, 0], ctraj[j, l_off, 0])
                for axis in range(1, coords.shape[1]):
                    d = np.maximum(d, circle_dist(seg[:, axis],
                                                  ctraj[j, l_off, axis]))
                dsum[j] += d
        dbar = dsum / ell
        j_all[lo:hi] = np.argmin(dbar, axis=0)
        dmin[lo:hi] = np.min(dbar, axis=0)
    return j_all, dmin


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
    if "experiment" not in config:
        raise ParameterError(
            "config must name an 'experiment'; known: " + ", ".join(sorted(_EXPERIMENTS)))
    name = config["experiment"]
    if name not in _EXPERIMENTS:
        raise ParameterError(
            f"unknown experiment {name!r}; known: " + ", ".join(sorted(_EXPERIMENTS)))
    params = dict(config.get("params", {}))
    seed = int(config.get("seed", 0))
    rows, summary, series = _EXPERIMENTS[name](params, seed)

    out_dir = _new_bundle_dir(Path(out_root),
                              f"{name}-{time.strftime('%Y%m%dT%H%M%S')}")
    csv_path = out_dir / "series.csv"
    _write_csv(csv_path, rows)
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


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    cols = list(rows[0])
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_csv_cell(r[c]) for c in cols))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _require(params: dict, *names: str) -> None:
    for nm in names:
        if nm not in params:
            raise ParameterError(f"config params missing required field {nm!r}")


def _exp_sieve_check(params: dict, seed: int):
    _require(params, "limit")
    limit = int(params["limit"])
    table = build_mobius_table(limit)
    decades = [10 ** k for k in range(1, 20) if 10 ** k <= limit]
    rows = [{"n": n, "mertens": mertens(table, n)} for n in decades]
    summary = {"limit": limit, "mertens": {str(r["n"]): r["mertens"] for r in rows}}
    series = [("mertens", [(float(r["n"]), float(abs(r["mertens"]) + 1)) for r in rows])]
    return rows, summary, series


def _exp_lemma54(params: dict, seed: int):
    from .cocycle import block_estimate_check, envelope_cocycle, split_cocycle
    from .contfrac import expand, resonance_sets
    _require(params, "alpha", "depth")
    tau = params.get("tau", 1)
    freq_bound = int(params.get("freq_bound", 4096))
    cf = expand(params["alpha"], int(params["depth"]))
    res = resonance_sets(cf, tau, freq_bound)
    h = envelope_cocycle(freq_bound, float(params.get("decay_constant", 1.0)), tau)
    split = split_cocycle(h, res)
    rows_raw = block_estimate_check(split.h1, cf, res,
                                    int(params.get("grid", 512)))
    rows = [{"t": r.t, "q_t": r.q_t, "deviation": r.deviation_sup,
             "bound_power": r.bound_power, "ratio": r.ratio} for r in rows_raw]
    summary = {"E": list(res.E), "constant": max((r["ratio"] for r in rows), default=None),
               "m_finite_within_depth": res.m_finite_within_depth}
    series = [("ratio", [(float(r["t"]), max(r["ratio"], 1e-300)) for r in rows])]
    return rows, summary, series


def _exp_covering_profile(params: dict, seed: int):
    from .complexity import complexity_profile
    _require(params, "system", "samples", "eps", "ns")
    system = make_system(params["system"])
    cloud = sample_cloud(system, int(params["samples"]), seed)
    profiles = complexity_profile(cloud, [float(e) for e in params["eps"]],
                                  [int(n) for n in params["ns"]],
                                  float(params.get("tau", 1.0)))
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


def _exp_correlation(params: dict, seed: int):
    _require(params, "system", "f", "x0", "checkpoints")
    system = make_system(params["system"])
    table = build_mobius_table(max(int(n) for n in params["checkpoints"]))
    x0 = params["x0"]
    if isinstance(x0, list):
        x0 = np.asarray(x0, dtype=np.float64)
    series_data = correlation_sum(table, system, params["f"], x0,
                                  [int(n) for n in params["checkpoints"]])
    rows = [{"N": n, "re": v.real, "im": v.imag, "abs": abs(v)}
            for n, v in zip(series_data.checkpoints, series_data.values)]
    summary = {"abs": {str(r["N"]): r["abs"] for r in rows},
               "sup_f": series_data.sup_f}
    series = [("abs", [(float(r["N"]), max(r["abs"], 1e-300)) for r in rows])]
    return rows, summary, series


def _exp_mrt_bilinear(params: dict, seed: int):
    from .mrt import (bilinear_mobius_average, build_ladder,
                      complement_density, typical_set_mask)
    _require(params, "p1", "q1", "n0", "bign", "ell")
    n = int(params["bign"])
    ladder = build_ladder(float(params["p1"]), float(params["q1"]),
                          int(params["n0"]), n)
    ell = int(params["ell"])
    table = build_mobius_table(n + ell)
    stats = complement_density(ladder, table)
    avg = bilinear_mobius_average(table, ladder, n, ell)
    mask = typical_set_mask(ladder, min(n, int(params.get("csv_rows", 10000))))
    rows = [{"n": i, "in_set": int(mask[i])} for i in range(1, len(mask))]
    summary = {"N": n, "L": ell, "bilinear_avg": avg,
               "complement_ratio": stats.complement_ratio,
               "complement_count": stats.complement_count,
               "density_bound_c1": stats.density_bound}
    return rows, summary, []


def _exp_block_trace(params: dict, seed: int):
    _require(params, "system", "f", "x0", "L", "delta", "epsilon", "N")
    system = make_system(params["system"])
    n_total = int(params["N"])
    table = build_mobius_table(n_total + int(params["L"]))
    x0 = params["x0"]
    if isinstance(x0, list):
        x0 = np.asarray(x0, dtype=np.float64)
    trace = block_decomposition_trace(
        table, system, params["f"], x0, int(params["L"]),
        float(params["delta"]), float(params["epsilon"]), n_total,
        cloud_size=int(params.get("cloud", 512)), seed=seed)
    rows = [
        {"quantity": "anchor_diff", "observed": trace.anchor_diff,
         "claimed": trace.anchor_tolerance,
         "ratio": trace.anchor_diff / trace.anchor_tolerance},
        {"quantity": "block_avg_magnitude", "observed": trace.block_avg_magnitude,
         "claimed": trace.block_avg_tolerance,
         "ratio": trace.block_avg_magnitude / trace.block_avg_tolerance},
    ]
    summary = {
        "L": trace.ell, "delta": trace.delta, "W": trace.w_param,
        "epsilon": trace.epsilon, "epsilon1": trace.epsilon1,
        "cover_count": trace.cover_count, "cover_budget": trace.cover_budget,
        "schedule": trace.schedule,
        "assigned_fraction": trace.assigned_fraction,
        "assignment_valid": trace.assignment_valid,
        "anchor_diff": {"observed": trace.anchor_diff, "claimed": trace.anchor_tolerance},
        "block_avg": {"observed": trace.block_avg_magnitude, "claimed": trace.block_avg_tolerance},
        "note": "claims hold for sufficiently large horizons; rows are "
                "observed/claimed diagnostics, not assertions",
    }
    return rows, summary, []


def _exp_pretentious(params: dict, seed: int):
    from .numtheory import pretentious_scan
    _require(params, "limit", "bigq")
    limit = int(params["limit"])
    table = build_mobius_table(limit)
    grid = default_t_grid(limit, int(params.get("tgrid", 201)))
    scan = pretentious_scan(table, limit, int(params["bigq"]), grid)
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

def write_line_svg(path: Path, series: list[tuple[str, list[tuple[float, float]]]],
                   width: int = 640, height: int = 400,
                   logx: bool = True, logy: bool = True) -> None:
    """Hand-rolled polyline chart; log-scaled axes suit decay curves."""
    pad = 50
    pts_all = [(x, y) for _, pts in series for (x, y) in pts if y > 0 and x > 0]
    if not pts_all:
        path.write_text("<svg xmlns='http://www.w3.org/2000/svg'/>\n")
        return
    fx = math.log10 if logx else float
    fy = math.log10 if logy else float
    xs = [fx(x) for x, _ in pts_all]
    ys = [fy(y) for _, y in pts_all]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return pad + (fx(x) - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (fy(y) - y_lo) / y_span * (height - 2 * pad)

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
