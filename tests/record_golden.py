"""Record the golden bundles: every file each case of CONFIGS writes.

    PYTHONPATH=src python3 tests/record_golden.py

Small configs of all seven experiments, with `covering-profile` on every
system kind and `correlation` and `block-trace` on more than one.  Each
case's `series.csv`, `summary.json` and `plot.svg` (where the experiment
draws one) go to `tests/golden/<case>/`, replacing what is there, and
`tests/test_golden_bundles.py` compares a fresh run with them byte for
byte.  Re-record only for a change that is meant to move a bundle, and
review the diff of the files before committing them.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from moeblab import fixtures as fx
from moeblab import harness as hx

GOLDEN = Path(__file__).with_name("golden")

ROTATION = {"kind": "rotation", "alpha": "sqrt2-1"}
SKEW2 = {"kind": "skew2", "alpha": "sqrt2-1", "h": [[1, 0.0, -0.15]]}
GROUP12 = {"kind": "group_skew", "group": {"q": 12}, "a": 5,
           "h": [[1, 0.05, 0.0]]}
GROUP_CIRCLE = {"kind": "group_skew", "group": "circle", "alpha": "golden",
                "h": [[1, 0.05, 0.0]]}
SHIFT = {"kind": "shift", "weights": [0.5, 0.5], "horizon": 32}

DOUBLING = [1, 2, 4, 8, 16]


def _covering(system, ns):
    return {"experiment": "covering-profile", "seed": 3,
            "params": {"system": system, "samples": 150, "eps": [0.1, 0.2],
                       "ns": ns}}


def _correlation(system, f, x0):
    return {"experiment": "correlation", "seed": 0,
            "params": {"system": system, "f": f, "x0": x0,
                       "checkpoints": [100, 1000, 5000]}}


def _block_trace(system, f, x0, epsilon):
    return {"experiment": "block-trace", "seed": 2,
            "params": {"system": system, "f": f, "x0": x0, "L": 16,
                       "epsilon": epsilon, "N": 4000, "cloud": 100}}


CONFIGS = {
    "sieve-check": {"experiment": "sieve-check", "params": {"limit": 10 ** 4}},
    "lemma54": {"experiment": "lemma54",
                "params": {"alpha": "quotients:" + ",".join(
                    str(q) for q in fx.resonant_quotients(9)),
                    "depth": 9, "freq_bound": 512, "tau": 1}},
    "covering-rotation": _covering(ROTATION, DOUBLING),
    "covering-skew2": _covering(SKEW2, DOUBLING),
    "covering-group12": _covering(GROUP12, DOUBLING),
    "covering-shift": _covering(SHIFT, [1, 2, 3, 4, 5, 6]),
    "correlation-skew2": _correlation(SKEW2, [[1, 1, 0.5, 0.0]], [0.1, 0.2]),
    "correlation-group12": _correlation(GROUP12, [[1, 1, 0.5, 0.0]], [3, 0.2]),
    "mrt-bilinear": {"experiment": "mrt-bilinear",
                     "params": {"p1": 11, "q1": 17, "n0": 10 ** 4,
                                "bign": 10 ** 4, "ell": 2, "csv_rows": 50}},
    "block-trace-rotation": _block_trace(ROTATION, [[1, 1.0, 0.0]], 0.1, 0.3),
    "block-trace-skew2": _block_trace(SKEW2, [[1, 1, 0.05, 0.0]], [0.1, 0.2],
                                      0.5),
    "block-trace-group12": _block_trace(GROUP12, [[1, 1, 0.05, 0.0]], [3, 0.2],
                                        0.5),
    "block-trace-group-circle": _block_trace(GROUP_CIRCLE, [[1, 1, 0.05, 0.0]],
                                             [0.1, 0.2], 0.5),
    "pretentious": {"experiment": "pretentious",
                    "params": {"limit": 10 ** 4, "bigq": 2, "tgrid": 21}},
}


def bundle_files(name: str, out_root: Path) -> dict[str, bytes]:
    """File name -> bytes of the bundle case `name` writes under out_root."""
    bundle = hx.run_experiment(CONFIGS[name], out_root=out_root)
    return {path.name: path.read_bytes()
            for path in sorted(bundle.out_dir.iterdir())}


def main() -> int:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    with tempfile.TemporaryDirectory() as out_root:
        for name in sorted(CONFIGS):
            case = GOLDEN / name
            case.mkdir(parents=True)
            for file_name, data in bundle_files(name, Path(out_root)).items():
                (case / file_name).write_bytes(data)
    print(f"wrote {len(CONFIGS)} cases under {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
