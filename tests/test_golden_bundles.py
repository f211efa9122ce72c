"""Golden bundles: sha256 of every file each registered experiment writes.

Small configs of all seven experiments, with `covering-profile` on every
system kind and `correlation` and `block-trace` on more than one.  A
refactor must leave every `summary.json`, `series.csv` and `plot.svg`
byte-identical.  The digests were recorded with Python 3.11 and numpy
2.4.6 on x86-64; a numpy or libm whose transcendental functions round
differently changes them.  A failing case prints the digests it got.
"""

import hashlib

import pytest

from moeblab import fixtures as fx
from moeblab import harness as hx

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
                       "delta": 0.001, "epsilon": epsilon, "N": 4000,
                       "cloud": 100}}


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

GOLDEN = {
    "block-trace-group-circle": {
        "series.csv":
            "40a40382edb64a57e90716a78b49eafa5a6be81eaa821906b216a4fbee341e67",
        "summary.json":
            "d3ac0442603e5adabe7e9005c92bf04bfe1bcfed8efd30e4a89d6a7c3925c41c",
    },
    "block-trace-group12": {
        "series.csv":
            "8dffecffa77f71a791b8c8a16f13d8bb024c899eee262ce0e810d34e9a80ae45",
        "summary.json":
            "cd0e709ccb07dfe9f3918bfc6fff0916c89f6a627229095c32393dfdfe5a7b55",
    },
    "block-trace-rotation": {
        "series.csv":
            "5a387803004d4ee51dbe304d5537ab986edac3dc951544c7b1484f536c9c7bb8",
        "summary.json":
            "3445387a3316565ad208b83f1dede1c178d6178f8f591298aa9097ae29c86256",
    },
    "block-trace-skew2": {
        "series.csv":
            "ae0a5f3f4a736b5ccb8c53a09884306d5715a5208372af3eb34ea335800bba50",
        "summary.json":
            "4a0e84b6c302500618ffe6d207cb74ac05da25b42256271b7b60bdc79afb3b29",
    },
    "correlation-group12": {
        "plot.svg":
            "0b6b8957623aba05c268efc9e1b27dcb600197b26878595df83049168d7048e2",
        "series.csv":
            "e19c9772bead2caa9237dc33683351cd99b0589632522a644a5c96a85533b47f",
        "summary.json":
            "8fd087f91a4f0e3564d586e105753b7fdef3ba299e19cb221b64cebb064f6529",
    },
    "correlation-skew2": {
        "plot.svg":
            "f5f403c5c95ccb60f265085ce6b80f34fd2d230c8746e3910b26a2347d7309db",
        "series.csv":
            "9c0a28027904a501ab9f46762d15d53d246364a885760a2e1c7aa1aaa7de8e46",
        "summary.json":
            "69b932d547682e27194a259134fc36d54470450fea09286c42b76f6cc63cac09",
    },
    "covering-group12": {
        "plot.svg":
            "48fccb790a983e33eba1209e5a5b921dcb96988291f998baa2fced8d31e3d2da",
        "series.csv":
            "3e9c8ddf8cc881e45d2c97e996920143c0175f265de5dc8b3d7311501318a17b",
        "summary.json":
            "a13e05035ccb452f0b7d594f675b3e758acf92bcd9c9094e67e0bec4dfcf139f",
    },
    "covering-rotation": {
        "plot.svg":
            "5c311aaf8c5409d05e6bc9f4af5fc1535a24d36eb57bb6ff559687b17e2bf2d2",
        "series.csv":
            "b593f2996987fcfaa47b034a2de02425958f7320c378cb139712a3b602ccdd8f",
        "summary.json":
            "c1c89a68f9058c8f0d7978065a94d030c861e1935e45b1da66416f1da57b2de6",
    },
    "covering-shift": {
        "plot.svg":
            "2db49546721f2dca6ca5d7f1abfce24d2f58c498a1f26e0bbfba5bbc647d3f1b",
        "series.csv":
            "455559d328aa25d73c0236b5b6fdb206abfafee06ff05daf7052e067d779bfe3",
        "summary.json":
            "0ffbbe0ff511c42fbd5ab851acb606dd45bfccf52f3012f517dcde7ce5669e4f",
    },
    "covering-skew2": {
        "plot.svg":
            "1b569c825768ac0da48b553da41ea9e11d5dd85c204a6ad24305222846f4c7b8",
        "series.csv":
            "b0b3dd6f1f20fb18968cb679e7f5d8a7a8872f464d02b34b03aff33365312096",
        "summary.json":
            "370343c3910a94594cdffa214ed1a213a99d3bde484ba2221872ee87839dfa6d",
    },
    "lemma54": {
        "plot.svg":
            "90df351502b73cbbdd9cd284137d2ae0d4e4d30fab34c179eaab0b9d0320d41b",
        "series.csv":
            "6be715acd0cd10f4b5ed365b0b0bfb6ad1ed4f3c075ebef341135444e81ce678",
        "summary.json":
            "74aff4c7119ccf224922f11c386efa7c87e6ed0600924319f147c5451da91d21",
    },
    "mrt-bilinear": {
        "series.csv":
            "9c21cef09dd6de884192db5d7f2cf3a24c5f48cda9b89d91f274da445b4851e6",
        "summary.json":
            "47766103a306870b1728b710e81590847bdb979f88727a0248d36bb48dda4b9f",
    },
    "pretentious": {
        "series.csv":
            "3b3e0606f33eafbc6198247b302154899eaf6d72ecf076981b7947a4b8c80f02",
        "summary.json":
            "b6bcb5c2aac630817b26df421da8b991f0a6d41ba07465a0c6d6369f293bb994",
    },
    "sieve-check": {
        "plot.svg":
            "3a953d7cfc333d32a1c329f5f599ab55bff4dfc5342c07356d1946328e78806a",
        "series.csv":
            "85ab7ff411168cac02424058c61c9329fb55e18259681a2dd4d1274190f706fe",
        "summary.json":
            "0865ca39befcb95e2441e06ec27ecbcededa7ffbe07526795bded38605dc97c0",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bundle_bytes_unchanged(name, tmp_path):
    bundle = hx.run_experiment(CONFIGS[name], out_root=tmp_path)
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(bundle.out_dir.iterdir())}
    assert got == GOLDEN[name], got
