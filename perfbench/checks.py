"""Output checks behind the benchmark's error count.

Two kinds of check run on every operation:

* invariants that hold for any seed: rotation S_n is constant in n, every
  cover carries mass > 1 - eps with at most as many centers as cloud
  points, |corr| <= sup|f|, the grid cover is certified and covers every
  sampled point;
* comparison against ``reference.json``, recorded from the seed commit at
  the default seed.  Outputs that do not depend on the seed (Mertens
  values, the bilinear average, the lemma54 constant, ...) are compared on
  every seed; seed-dependent ones only on the default seed.

Covering classification labels are recorded but never checked: the label
of a cloud-saturated shift profile is known to be wrong and is expected to
change.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# stated tolerances; everything not listed here is compared exactly
ABS_TOL = {"corr": 1e-9, "anchor_diff": 1e-9, "assigned_fraction": 1e-12,
           "covered_mass": 1e-12}
REL_TOL = {"bilinear_avg": 1e-9, "min_distance_sq": 1e-9, "constant": 1e-9,
           "c_cert": 1e-9}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _close_abs(key: str, got: float, want: float) -> bool:
    return abs(got - want) <= ABS_TOL[key]


def _close_rel(key: str, got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL[key] * abs(want)


def check(op, out: dict, ref: dict, same_seed: bool) -> list[str]:
    """Failure messages for one operation's outputs (empty when correct).

    `ref` holds the reference outputs of the operation with the same name;
    `same_seed` says whether they were recorded from the same configs.
    """
    kind = op.config["experiment"] if op.kind == "experiment" else op.kind
    return _CHECKS[kind](op, out, ref, same_seed)


def _covering(op, out, ref, same_seed):
    bad = []
    samples = op.config["params"]["samples"]
    by_eps: dict[float, set] = {}
    for eps, n, s_n, mass in out["rows"]:
        if not 1 <= s_n <= samples:
            bad.append(f"eps={eps} n={n}: S_n={s_n} outside [1, {samples}]")
        if not mass > 1 - eps:
            bad.append(f"eps={eps} n={n}: covered mass {mass} <= 1 - eps")
        by_eps.setdefault(eps, set()).add(s_n)
    if op.config["params"]["system"]["kind"] == "rotation":
        bad += [f"rotation S_n not constant at eps={eps}: {sorted(v)}"
                for eps, v in by_eps.items() if len(v) != 1]
    if same_seed:
        got = [row[:3] for row in out["rows"]]
        want = [row[:3] for row in ref["rows"]]
        if got != want:
            bad.append(f"S_n rows differ from the reference: {got} != {want}")
        elif not all(_close_abs("covered_mass", g[3], w[3])
                     for g, w in zip(out["rows"], ref["rows"])):
            bad.append("covered masses differ from the reference")
    return bad


def _sieve(op, out, ref, same_seed):
    if out["mertens"] != ref["mertens"]:
        return [f"Mertens values {out['mertens']} != {ref['mertens']}"]
    return []


def _correlation(op, out, ref, same_seed):
    sup_f = out["sup_f"]
    bad = [f"|corr| = {math.hypot(re, im)} > sup|f| = {sup_f} at N={n}"
           for n, re, im in out["values"] if math.hypot(re, im) > sup_f]
    if same_seed:
        for (n, re, im), (_, re0, im0) in zip(out["values"], ref["values"]):
            if not (_close_abs("corr", re, re0) and _close_abs("corr", im, im0)):
                bad.append(f"corr at N={n} is {re}+{im}j, reference {re0}+{im0}j")
        if len(out["values"]) != len(ref["values"]):
            bad.append("correlation checkpoints differ from the reference")
    return bad


def _block_trace(op, out, ref, same_seed):
    bad = []
    cloud = op.config["params"]["cloud"]
    if not 1 <= out["cover_count"] <= cloud:
        bad.append(f"cover_count {out['cover_count']} outside [1, {cloud}]")
    if not 0 <= out["assigned_fraction"] <= 1:
        bad.append(f"assigned_fraction {out['assigned_fraction']} outside [0, 1]")
    if not out["assignment_valid"]:
        bad.append("an assigned point lies outside its center's ball")
    if not 0 <= out["anchor_diff"] <= 2:      # both averages lie in the unit disc
        bad.append(f"anchor_diff {out['anchor_diff']} outside [0, 2]")
    if same_seed:
        if out["cover_count"] != ref["cover_count"]:
            bad.append(f"cover_count {out['cover_count']} != {ref['cover_count']}")
        for key in ("assigned_fraction", "anchor_diff"):
            if not _close_abs(key, out[key], ref[key]):
                bad.append(f"{key} {out[key]} != reference {ref[key]}")
    return bad


def _scalar(key, low, high):
    """A seed-independent scalar in (low, high], equal to the reference."""
    def check_scalar(op, out, ref, same_seed):
        bad = []
        if not low < out[key] <= high:
            bad.append(f"{key} {out[key]} outside ({low}, {high}]")
        if not _close_rel(key, out[key], ref[key]):
            bad.append(f"{key} {out[key]} != reference {ref[key]}")
        return bad
    return check_scalar


def _resonant(key):
    """The resonance set E and a positive constant, both as recorded."""
    scalar = _scalar(key, 0, math.inf)

    def check_resonant(op, out, ref, same_seed):
        bad = scalar(op, out, ref, same_seed)
        if out["E"] != ref["E"]:
            bad.append(f"E = {out['E']} != reference {ref['E']}")
        return bad
    return check_resonant


def _grid_cover(op, out, ref, same_seed):
    bad = []
    if out["grid_count"] != out["lipschitz_l"] ** 2 * out["q_t"] * out["k_tilde"]:
        bad.append(f"grid_count {out['grid_count']} != L^2 q_t k")
    if out["grid_count"] != ref["grid_count"]:
        bad.append(f"grid_count {out['grid_count']} != reference {ref['grid_count']}")
    if not out["certificate_ok"]:
        bad.append(f"grid certificate fails at t={out['t']}")
    if not out["sampled_ok"]:        # the worst sampled point sits near eps/6
        bad.append(f"a sampled point lies {out['sampled_max_dbar']} from the grid")
    return bad


def _best_approx(op, out, ref, same_seed):
    bad = [f"k={k}: best-approximation bounds not certified"
           for k, certified in out["rows"] if k >= 2 and not certified]
    if out["rows"] != ref["rows"]:
        bad.append("best-approximation rows differ from the reference")
    return bad


_CHECKS = {
    "covering-profile": _covering,
    "sieve-check": _sieve,
    "correlation": _correlation,
    "block-trace": _block_trace,
    "mrt-bilinear": _scalar("bilinear_avg", 0, 1),
    "pretentious": _scalar("min_distance_sq", 0, math.inf),
    "lemma54": _resonant("constant"),
    "resonant_fixture": _resonant("c_cert"),
    "grid_cover_check": _grid_cover,
    "best_approx_check": _best_approx,
}
