"""Workload definitions: seeded configs and the operations that run them.

A workload is an ordered list of operations.  Each operation is either one
registered experiment run through ``harness.run_experiment`` or one library
call.  Configs are plain JSON-able dicts drawn from the workload seed, so
the same seed always gives the same configs; the program sees only them.

Running an operation returns its *outputs*: the plain values the checker
compares (``checks.py``), extracted after the timed call returns.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
WORKLOADS = ("covering", "mobius-orbit", "certified")

CLOUD = 1000
SKEW_H = [[1, 0.0, -0.15]]            # h(x) = 0.3 sin(2 pi x)
GROUP_H = [[1, 0.05, 0.0]]
SKEW2 = {"kind": "skew2", "alpha": "sqrt2-1", "h": SKEW_H}


@dataclass(frozen=True)
class Operation:
    name: str
    kind: str        # "experiment" (config for run_experiment) or a call name
    config: dict


def _doubling(top: int) -> list[int]:
    return [2 ** k for k in range(top.bit_length()) if 2 ** k <= top]


def _seed31(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def build(workload: str, seed: int) -> list[Operation]:
    """The operations of `workload` for `seed`, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "covering":
        return _covering(rng)
    if workload == "mobius-orbit":
        return _mobius_orbit(rng)
    if workload == "certified":
        return _certified(rng)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _experiment(name: str, experiment: str, seed: int, params: dict) -> Operation:
    return Operation(name, "experiment",
                     {"experiment": experiment, "seed": seed, "params": params})


def _covering(rng: random.Random) -> list[Operation]:
    systems = [
        ("rotation", {"kind": "rotation", "alpha": "sqrt2-1"}, _doubling(256)),
        ("skew2", SKEW2, _doubling(128)),
        ("group_skew", {"kind": "group_skew", "group": {"q": 12}, "a": 5,
                        "h": GROUP_H}, _doubling(128)),
        ("shift", {"kind": "shift", "weights": [0.5, 0.5], "horizon": 64},
         list(range(1, 15))),
    ]
    return [_experiment(f"covering-profile/{label}", "covering-profile",
                        _seed31(rng),
                        {"system": system, "samples": CLOUD, "eps": [0.1, 0.2],
                         "ns": ns})
            for label, system, ns in systems]


def _mobius_orbit(rng: random.Random) -> list[Operation]:
    corr_x0 = [rng.random(), rng.random()]
    trace_x0 = rng.random()
    trace_seed = _seed31(rng)
    return [
        _experiment("sieve-check", "sieve-check", 0, {"limit": 10 ** 7}),
        _experiment("correlation", "correlation", 0, {
            "system": SKEW2, "f": [[0, 1, 1.0, 0.0]], "x0": corr_x0,
            "checkpoints": [10 ** k for k in range(1, 8)]}),
        _experiment("block-trace", "block-trace", trace_seed, {
            "system": {"kind": "rotation", "alpha": "sqrt2-1"},
            "f": [[1, 1.0, 0.0]], "x0": trace_x0, "L": 64, "delta": 0.001,
            "epsilon": 0.3, "N": 10 ** 4, "cloud": CLOUD}),
        _experiment("mrt-bilinear", "mrt-bilinear", 0, {
            "p1": 11, "q1": 17, "n0": 10 ** 4, "bign": 10 ** 6, "ell": 20}),
        _experiment("pretentious", "pretentious", 0, {
            "limit": 10 ** 6, "bigq": 3, "tgrid": 51}),
    ]


def _certified(rng: random.Random) -> list[Operation]:
    from moeblab.fixtures import resonant_quotients

    # the resonant alpha at depth 11 has E = {2, 6, 8, 10}
    quotients = ",".join(str(a) for a in resonant_quotients(11))
    ops = [
        _experiment("lemma54", "lemma54", 0, {
            "alpha": "quotients:" + quotients, "depth": 11,
            "freq_bound": 16384, "grid": 512, "tau": 1}),
        Operation("grid-cover/fixture", "resonant_fixture",
                  {"depth": 9, "freq_bound": 4096, "grid": 512}),
    ]
    # one grid-cover call per t in E of the depth-9 fixture
    ops += [Operation(f"grid-cover/t={t}", "grid_cover_check",
                      {"t": t, "epsilon": 0.2, "sample_points": 2000,
                       "seed": _seed31(rng)})
            for t in (2, 6, 8)]
    ops += [Operation(f"best-approx/{alpha}", "best_approx_check",
                      {"alpha": alpha, "depth": 300})
            for alpha in ("sqrt2-1", "golden")]
    return ops


# ---------------------------------------------------------------------------
# Running an operation
# ---------------------------------------------------------------------------

def execute(op: Operation, ctx: dict, out_root: Path):
    """Run one operation and return its raw result.

    Library functions are looked up on their modules at call time, so a
    tracer that swaps module attributes sees every call.  `ctx` carries
    results between the operations of one pass (the grid-cover calls use
    the fixture built by the operation before them).
    """
    from moeblab import cocycle, complexity, contfrac, fixtures, harness

    cfg = op.config
    if op.kind == "experiment":
        return harness.run_experiment(cfg, out_root=out_root)
    if op.kind == "resonant_fixture":
        cf, res, h = fixtures.resonant_fixture(depth=cfg["depth"],
                                               freq_bound=cfg["freq_bound"])
        split = cocycle.split_cocycle(h, res)
        rows = cocycle.block_estimate_check(split.h1, cf, res, cfg["grid"])
        ctx["fixture"] = (cf, res, split.h1, max(r.ratio for r in rows))
        return ctx["fixture"]
    if op.kind == "grid_cover_check":
        cf, res, h1, c_cert = ctx["fixture"]
        return complexity.grid_cover_check(
            cf, res, h1, epsilon=cfg["epsilon"], c_cert=c_cert, t=cfg["t"],
            sample_points=cfg["sample_points"], seed=cfg["seed"])
    if op.kind == "best_approx_check":
        return contfrac.best_approx_check(contfrac.expand(cfg["alpha"],
                                                          cfg["depth"]))
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def outputs(op: Operation, raw) -> dict:
    """The plain values of `raw` that the checker compares."""
    if op.kind == "resonant_fixture":
        _, res, _, c_cert = raw
        return {"E": list(res.E), "c_cert": c_cert}
    if op.kind == "grid_cover_check":
        return {"t": raw.t, "q_t": raw.q_t, "grid_count": raw.grid_count,
                "lipschitz_l": raw.lipschitz_l, "k_tilde": raw.k_tilde,
                "certificate_ok": raw.certificate_ok,
                "sampled_ok": raw.sampled_ok,
                "sampled_max_dbar": raw.sampled_max_dbar}
    if op.kind == "best_approx_check":
        return {"rows": [[r.k, r.certified] for r in raw]}

    experiment = op.config["experiment"]
    summary = raw.summary["summary"]
    rows = _read_csv(raw.csv_path)
    if experiment == "covering-profile":
        return {"rows": [[float(r["epsilon"]), int(r["n"]), int(r["Sn"]),
                          float(r["covered_mass"])] for r in rows],
                "labels": {eps: s["classification"] for eps, s in summary.items()}}
    if experiment == "sieve-check":
        return {"mertens": summary["mertens"]}
    if experiment == "correlation":
        return {"values": [[int(r["N"]), float(r["re"]), float(r["im"])]
                           for r in rows],
                "sup_f": summary["sup_f"]}
    if experiment == "block-trace":
        return {key: summary[key] for key in
                ("cover_count", "assigned_fraction", "assignment_valid")} | {
                    "anchor_diff": summary["anchor_diff"]["observed"]}
    if experiment == "mrt-bilinear":
        return {"bilinear_avg": summary["bilinear_avg"]}
    if experiment == "pretentious":
        return {"min_distance_sq": summary["min_distance_sq"]}
    if experiment == "lemma54":
        return {"E": summary["E"], "constant": summary["constant"]}
    raise ValueError(f"no output extraction for experiment {experiment!r}")
