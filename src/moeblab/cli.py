"""Command-line interface.

Subcommands mirror the library modules: `mobius` (sieve, Mertens,
pretentious scan), `mrt` (typical sets and bilinear averages), `contfrac`
(expansion and resonance data), `cocycle` (coboundary split and block
estimates), `complexity` (covering profiles), and `run` (experiment
configs producing CSV/JSON/SVG bundles).

Exit codes: 0 success, 2 parameter/usage errors, 3 assertion failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import MoebLabError, ParameterError


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        args.func(args)
        return 0
    except MoebLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moeblab",
        description="Covering complexity of dynamical systems and "
                    "Mobius-orbit correlation experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("mobius", help="Mobius sieve, Mertens, pretentious scan")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--mertens", type=int, default=None, metavar="N")
    p.add_argument("--pretentious", action="store_true")
    p.add_argument("--bigq", type=int, default=2)
    p.add_argument("--tgrid", type=int, default=201)
    p.add_argument("--values", type=int, default=0, metavar="K",
                   help="print CSV rows n,mu for n <= K")
    p.set_defaults(func=_cmd_mobius)

    p = sub.add_parser("mrt", help="typical-factorization sets and bilinear averages")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--q1", type=float, required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--bign", type=int, required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--members", type=int, default=0, metavar="K",
                   help="print CSV rows n,in_set for n <= K")
    p.set_defaults(func=_cmd_mrt)

    p = sub.add_parser("contfrac", help="expansion, convergents, resonance sets")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=str)
    group.add_argument("--quotients", type=str, metavar="A1,A2,...")
    p.add_argument("--tau", type=str, default="1")
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--freq-bound", type=int, default=10**6)
    p.set_defaults(func=_cmd_contfrac)

    p = sub.add_parser("cocycle", help="coboundary split and block estimates")
    p.add_argument("--coeffs", type=str, required=True,
                   help="CSV file of rows m,re,im")
    p.add_argument("--alpha", type=str, required=True)
    p.add_argument("--tau", type=str, default="1")
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--freq-bound", type=int, default=10**6)
    p.add_argument("--check-lemma54", action="store_true")
    p.add_argument("--grid", type=int, default=512)
    p.set_defaults(func=_cmd_cocycle)

    p = sub.add_parser("complexity", help="covering-number profiles")
    p.add_argument("--system", type=str, required=True, help="descriptor JSON file")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--eps", type=str, default="0.1,0.2")
    p.add_argument("--ns", type=str, default="1,2,4,8,16,32,64,128,256,512,1024,2048,4096")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("run", help="run an experiment config (JSON)")
    p.add_argument("config", type=str)
    p.add_argument("--out", type=str, default="runs")
    p.set_defaults(func=_cmd_run)
    return parser


def _cmd_mobius(args) -> None:
    from .harness import _csv_text, experiment_rows
    from .numtheory import build_mobius_table, mertens_values, mobius_segments
    if args.values:
        table = build_mobius_table(args.limit)
        print("n,mu")
        for n in range(1, min(args.values, table.limit) + 1):
            print(f"{n},{table.mu(n)}")
    if args.mertens is not None:       # the sieve's segments, up to N only
        value, = mertens_values(mobius_segments(args.limit), [args.mertens])
        print(f"mertens({args.mertens}) = {value}")
    if args.pretentious:
        rows, _, _ = experiment_rows("pretentious", {
            "limit": args.limit, "bigq": args.bigq, "tgrid": args.tgrid})
        print(_csv_text(rows), end="")


def _cmd_mrt(args) -> None:
    from .harness import _csv_text, experiment_rows
    params = {"p1": args.p1, "q1": args.q1, "n0": args.n0, "bign": args.bign,
              "ell": args.ell, "csv_rows": max(args.members, 0)}
    rows, summary, _ = experiment_rows("mrt-bilinear", params)
    if args.members > 0:
        print(_csv_text(rows), end="")
    print(json.dumps(summary, sort_keys=True))


def _cmd_contfrac(args) -> None:
    from .contfrac import best_approx_check, expand, resonance_sets
    cf = expand(args.alpha or "quotients:" + args.quotients, args.depth)
    res = resonance_sets(cf, args.tau, args.freq_bound)
    rows = best_approx_check(cf)
    out = {
        "alpha": str(cf.alpha),
        "quotients": list(cf.quotients),
        "convergents": [[p, q] for p, q in zip(cf.ps, cf.qs)],
        "finite": cf.finite,
        "E": list(res.E),
        "M": sorted(res.M),
        "m_finite_within_depth": res.m_finite_within_depth,
        "best_approx": [
            {"k": r.k, "norm": [r.norm_lo, r.norm_hi],
             "lower": str(r.lower_bound), "upper": str(r.upper_bound),
             "certified": r.certified, "boundary": r.boundary}
            for r in rows],
    }
    print(json.dumps(out, sort_keys=True, default=str))


def _cmd_cocycle(args) -> None:
    from .cocycle import block_estimate_check, cocycle_from_pairs, split_cocycle
    from .contfrac import expand, resonance_sets
    from .dynamics import _fourier_rows
    lines = [line.strip() for line in _read(args.coeffs, "--coeffs").splitlines()]
    coeffs = _fourier_rows([_numbers(line, "--coeffs") for line in lines
                            if line and not line.startswith("m,")],
                           "--coeffs", (3,))
    cf = expand(args.alpha, args.depth)
    res = resonance_sets(cf, args.tau, args.freq_bound)
    h = cocycle_from_pairs(((m, c) for (m,), c in coeffs), tau=res.tau)
    split = split_cocycle(h, res)
    print(f"# support(h1) = {list(split.h1.support)}")
    print(f"# tail frequencies = {len(split.tail.support)}")
    if args.check_lemma54:
        rows = block_estimate_check(split.h1, cf, res, args.grid)
        print("t,q_t,deviation,bound_power")
        for r in rows:
            print(f"{r.t},{r.q_t},{r.deviation_sup!r},{r.bound_power!r}")


def _cmd_complexity(args) -> None:
    from .harness import _csv_text, experiment_rows
    params = {"system": _read(args.system, "--system", json.loads),
              "samples": args.samples, "eps": _numbers(args.eps, "--eps"),
              "ns": _numbers(args.ns, "--ns"), "tau": args.tau}
    rows, summary, _ = experiment_rows("covering-profile", params, args.seed)
    print(_csv_text(rows), end="")
    print(json.dumps(summary, sort_keys=True))


def _numbers(text: str, flag: str) -> list[float]:
    """A flag's numbers, checked by the field reader: 2.5 for an int is refused."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ParameterError(
            f"{flag} must be comma-separated numbers, got {text!r}") from None


def _read(path: str, flag: str, parse=str):
    """The file a flag names, read as text and handed to `parse`."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as exc:   # a decode or JSON error is a ValueError
        raise ParameterError(f"cannot read the {flag} file: {exc}") from None


def _cmd_run(args) -> None:
    from .harness import run_experiment
    config = _read(args.config, "config", json.loads)
    bundle = run_experiment(config, out_root=args.out)
    print(f"wrote {bundle.out_dir}")


if __name__ == "__main__":
    sys.exit(main())
