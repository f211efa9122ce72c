import json
from fractions import Fraction

import pytest

from moeblab.cli import main
from moeblab.numtheory import mu_by_factorization

from test_admissions import MIB, traced_peak


def test_mobius_values_and_mertens(capsys):
    assert main(["mobius", "--limit", "50", "--values", "6",
                 "--mertens", "10"]) == 0
    out = capsys.readouterr().out
    assert "1,1" in out and "4,0" in out
    assert "mertens(10) = -1" in out


def test_mobius_values_read_the_stream_up_to_k(capsys):
    # not the table up to the limit, 2 GB here: the stream up to K = 30
    peak = traced_peak(lambda: main(["mobius", "--limit", "2000000000",
                                     "--values", "30"]))
    assert capsys.readouterr().out.splitlines() == ["n,mu"] + [
        f"{n},{mu_by_factorization(n)}" for n in range(1, 31)]
    assert peak < 4 * MIB, peak


def test_mobius_pretentious(capsys):
    assert main(["mobius", "--limit", "100", "--pretentious",
                 "--bigq", "2", "--tgrid", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "q,chi_index,t,distance_sq"


def test_mrt_summary(capsys):
    assert main(["mrt", "--p1", "11", "--q1", "17", "--n0", "10000",
                 "--bign", "10000", "--ell", "1", "--members", "5"]) == 0
    out = capsys.readouterr().out
    assert "n,in_set" in out
    summary = json.loads(out.splitlines()[-1])
    assert summary["N"] == 10000 and 0 < summary["bilinear_avg"] < 1


def test_mrt_parameter_exit_code(capsys):
    assert main(["mrt", "--p1", "9", "--q1", "17", "--n0", "10000",
                 "--bign", "10000"]) == 2
    assert "P1 > 10" in capsys.readouterr().err


def test_contfrac_json(capsys):
    assert main(["contfrac", "--alpha", "golden", "--depth", "8",
                 "--tau", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["quotients"] == [1] * 8
    assert data["E"] == [2]
    assert data["M"] == [-1, 1]


def test_contfrac_quotient_input(capsys):
    assert main(["contfrac", "--quotients", "2,8,2,2", "--depth", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert 2 in data["E"]


def test_cocycle_lemma54(tmp_path, capsys):
    from moeblab.fixtures import resonant_quotients
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("m,re,im\n0,0.0,0.0\n2,0.00390625,0.0\n4,0.0000152587890625,0.0\n")
    quots = ",".join(str(q) for q in resonant_quotients(9))
    assert main(["cocycle", "--coeffs", str(coeffs),
                 "--alpha", f"quotients:{quots}", "--depth", "9",
                 "--check-lemma54", "--freq-bound", "512"]) == 0
    out = capsys.readouterr().out
    assert "t,q_t,deviation,bound_power" in out
    assert "\n2," in out


def test_complexity_profile(tmp_path, capsys):
    desc = tmp_path / "system.json"
    desc.write_text(json.dumps({"kind": "rotation", "alpha": "sqrt2-1"}))
    assert main(["complexity", "--system", str(desc), "--samples", "150",
                 "--eps", "0.2", "--ns", "1,2,4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "epsilon,n,Sn,method,covered_mass" in out
    assert "bounded" in out


def test_run_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "sieve-check", "params": {"limit": 500}}))
    assert main(["run", str(config), "--out", str(tmp_path / "runs")]) == 0
    out_dir = capsys.readouterr().out.strip().split()[-1]
    assert (tmp_path / "runs").exists()
    assert "sieve-check" in out_dir


def test_run_unknown_experiment(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"experiment": "nope"}))
    assert main(["run", str(config)]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == 2


ROTATION = {"kind": "rotation", "alpha": "sqrt2-1"}
SKEW2 = {"kind": "skew2", "alpha": "sqrt2-1", "h": [[1, 0.0, -0.15]]}
ORBIT_SAMPLED = dict(SKEW2, sampler="orbit", burn_in=10, stride=3)
SHIFT = {"kind": "shift", "weights": [0.5, 0.5]}


def _correlation(system, f, x0):
    return {"experiment": "correlation",
            "params": {"system": system, "f": f, "x0": x0,
                       "checkpoints": [100]}}


def _block_trace(**params):
    return {"experiment": "block-trace",
            "params": dict({"system": ROTATION, "f": [[1, 1.0, 0.0]],
                            "x0": 0.1, "L": 16, "epsilon": 0.3, "N": 1000,
                            "cloud": 50}, **params)}


def _covering(system, samples=20):
    return {"experiment": "covering-profile",
            "params": {"system": system, "samples": samples, "eps": [0.2],
                       "ns": [1, 2]}}


def _with(config, **params):
    return dict(config, params=dict(config["params"], **params))


CORRELATION = _correlation(ROTATION, [[1, 1.0, 0.0]], 0.1)
LEMMA54 = {"experiment": "lemma54",
           "params": {"alpha": "golden", "depth": 9, "freq_bound": 16,
                      "grid": 256}}
PRETENTIOUS = {"experiment": "pretentious",
               "params": {"limit": 1000, "bigq": 2, "tgrid": 5}}
MRT = {"experiment": "mrt-bilinear",
       "params": {"p1": 11, "q1": 17, "n0": 10 ** 4, "bign": 10 ** 4, "ell": 1}}


# each died with a traceback (ZeroDivisionError, IndexError, TypeError or
# a numpy ValueError), ran on a truncated value, or ran on part of x0
REFUSED = {
    "covering-no-samples": (_covering(ROTATION, samples=0), "one sample"),
    "trace-no-cloud": (_block_trace(cloud=0), "one sample"),
    "trace-no-orbit": (_block_trace(N=0), "N must be >= 1"),
    "torus-f-on-rotation": (_correlation(ROTATION, [[1, 1, 1.0, 0.0]], 0.1),
                            "2 entries"),
    "row-x0-on-rotation": (_correlation(ROTATION, [[1, 1.0, 0.0]],
                                        [0.1, 0.2]), "one circle point"),
    "scalar-x0-on-skew": (_correlation(SKEW2, [[0, 1, 1.0, 0.0]], 0.1),
                          "one row"),
    "long-x0-on-skew": (_correlation(SKEW2, [[0, 1, 1.0, 0.0]],
                                     [0.1, 0.2, 0.3]), "one row"),
    "trace-torus-f-on-rotation": (_block_trace(f=[[1, 1, 1.0, 0.0]]),
                                  "2 entries"),
    "trace-row-x0-on-rotation": (_block_trace(x0=[0.1, 0.2]),
                                 "one circle point"),
    "fractional-horizon": (_covering(dict(SHIFT, horizon=12.5)),
                           "'horizon' must be an integer"),
    "bool-horizon": (_covering(dict(SHIFT, horizon=True)),
                     "'horizon' must be an integer"),
    "zero-horizon": (_covering(dict(SHIFT, horizon=0)), "horizon must be >= 1"),
    "negative-horizon": (_covering(dict(SHIFT, horizon=-2)),
                         "horizon must be >= 1"),
    "fractional-stride": (_covering(dict(ORBIT_SAMPLED, stride=2.7)),
                          "'stride' must be an integer"),
    "bool-stride": (_covering(dict(ORBIT_SAMPLED, stride=True)),
                    "'stride' must be an integer"),
    "fractional-burn-in": (_covering(dict(ORBIT_SAMPLED, burn_in=0.5)),
                           "'burn_in' must be an integer"),
    "long-x0-sampled": (_covering(dict(ORBIT_SAMPLED, x0=[0.1, 0.2, 0.3])),
                        "one row"),
    # each field of an experiment is read by its declared type
    "fractional-seed": (dict(_covering(ROTATION), seed=1.7),
                        "'seed' must be an integer"),
    "negative-seed": (dict(_covering(ROTATION), seed=-1), "seed must be >= 0"),
    "fractional-samples": (_covering(ROTATION, samples=50.9),
                           "'samples' must be an integer"),
    "fractional-ns": (_with(_covering(ROTATION), ns=[1, 2.5, 4]),
                      "'ns' must be an integer"),
    "fractional-checkpoint": (_with(CORRELATION, checkpoints=[100.7, 1000]),
                              "'checkpoints' must be an integer"),
    "no-checkpoints": (_with(CORRELATION, checkpoints=[]),
                       "'checkpoints' must be a non-empty list"),
    "fractional-L": (_block_trace(L=16.9), "'L' must be an integer"),
    "fractional-N": (_block_trace(N=1000.5), "'N' must be an integer"),
    "fractional-cloud": (_block_trace(cloud=64.2), "'cloud' must be an integer"),
    "bool-limit": ({"experiment": "sieve-check", "params": {"limit": True}},
                   "'limit' must be an integer"),
    "fractional-bigq": ({"experiment": "pretentious",
                         "params": {"limit": 1000, "bigq": 3.9}},
                        "'bigq' must be an integer"),
    "fractional-bign": (_with(MRT, bign=10000.9), "'bign' must be an integer"),
    "fractional-ell": (_with(MRT, ell=1.5), "'ell' must be an integer"),
    "fractional-depth": ({"experiment": "lemma54",
                          "params": {"alpha": "golden", "depth": 8.7}},
                         "'depth' must be an integer"),
    "scalar-eps": (_with(_covering(ROTATION), eps=0.2),
                   "'eps' must be a non-empty list"),
    "string-eps": (_with(_covering(ROTATION), eps=["abc"]),
                   "'eps' must be a finite number"),
    "list-params": ({"experiment": "sieve-check", "params": [1]},
                    "'params' must be an object"),
    "string-x0": (_with(CORRELATION, x0="abc"), "'x0' must be a finite number"),
    "nan-x0": (_with(CORRELATION, x0=float("nan")),
               "'x0' must be a finite number"),
    "negative-trace-N": (_block_trace(N=-100), "N must be >= 1"),
    "fractional-f-frequency": (_with(CORRELATION, f=[[1.5, 1.0, 0.0]]),
                               "'f' must be an integer"),
    "fractional-h-frequency": (_covering(dict(SKEW2, h=[[1.7, 0.0, -0.1]])),
                               "'h' must be an integer"),
    # numbers inside descriptors, observables and lemma54's tau
    "string-f-coefficient": (_with(CORRELATION, f=[[1, "a", 0]]),
                             "'f' must be a finite number"),
    "nan-f-coefficient": (_with(CORRELATION, f=[[1, float("nan"), 0]]),
                          "'f' must be a finite number"),
    "string-h-coefficient": (_covering(dict(SKEW2, h=[[1, "a", 0]])),
                             "'h' must be a finite number"),
    "short-h-row": (_covering(dict(SKEW2, h=[[1, 0.1]])), "'h' row"),
    "string-h": (_covering({"kind": "group_skew", "group": {"q": 12}, "a": 5,
                            "h": "xyz"}), "'h' row"),
    "string-weights": (_covering(dict(SHIFT, weights=["a"])),
                       "'weights' must be a finite number"),
    "scalar-weights": (_covering(dict(SHIFT, weights=0.5)),
                       "'weights' must be a list"),
    "ragged-x0-on-skew": (_correlation(SKEW2, [[0, 1, 1.0, 0.0]], [[0.1], 0.2]),
                          "'x0' must be a finite number"),
    "ragged-x0-sampled": (_covering(dict(ORBIT_SAMPLED, x0=[[0.1], 0.2])),
                          "'x0' must be a finite number"),
    "short-quad-alpha": (_covering(dict(ROTATION, alpha="quad:1,2")),
                         "'alpha' 'quad:1,2'"),
    "string-quotient-alpha": (_covering(dict(ROTATION, alpha="quotients:1,a")),
                              "'alpha' 'quotients:1,a'"),
    "zero-denominator-alpha": (_covering(dict(ROTATION, alpha="1/0")),
                               "'alpha' '1/0'"),
    "string-quotient-in-list": (_covering(dict(SKEW2, alpha=[2, "a"])),
                                "'alpha' must be an integer"),
    # pretentious and mrt-bilinear values that died with a ValueError
    "zero-bigq": (_with(PRETENTIOUS, bigq=0), "Q must be >= 1"),
    "negative-bigq": (_with(PRETENTIOUS, bigq=-2), "Q must be >= 1"),
    "negative-tgrid": (_with(PRETENTIOUS, tgrid=-1), "count must be >= 0"),
    "negative-csv-rows": (_with(MRT, csv_rows=-5), "n=-5 outside"),
    "string-tau": (_with(LEMMA54, tau="abc"), "'tau' must be a rational"),
    "bool-tau": (_with(LEMMA54, tau=True), "'tau' must be a rational"),
    "binary-tau": (_with(LEMMA54, tau=str(Fraction(0.1))),
                   "the resonance test"),
    # range refusals name the field, not the library argument
    "negative-checkpoint": (_with(CORRELATION, checkpoints=[-5]),
                            "'checkpoints' must be a positive integer"),
    "negative-limit": ({"experiment": "sieve-check", "params": {"limit": -3}},
                       "'limit' must be a positive integer"),
    "negative-ns": (_with(_covering(ROTATION), ns=[-1]),
                    "'ns' must be a positive integer"),
    # the sieve's int32 entries end at 2^31, whatever reads its segments
    "int32-limit": ({"experiment": "sieve-check", "params": {"limit": 2 ** 31}},
                    "reaches 2^31"),
    "int32-checkpoint": (_with(CORRELATION, checkpoints=[2 ** 31]),
                         "reaches 2^31"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_input_exits_2(tmp_path, capsys, case):
    config, message = REFUSED[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_complexity_refuses_no_samples(tmp_path, capsys):
    desc = tmp_path / "system.json"
    desc.write_text(json.dumps(ROTATION))
    assert main(["complexity", "--system", str(desc), "--samples", "0",
                 "--eps", "0.2", "--ns", "1,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "one sample" in err, err


@pytest.mark.parametrize("flags, message", [
    (["--eps", "0.1,abc", "--ns", "1,2"], "--eps must be comma-separated numbers"),
    (["--eps", "0.2", "--ns", "1,2.5"], "'ns' must be an integer")],
    ids=["string-eps", "fractional-ns"])
def test_complexity_refuses_a_flag_that_is_not_its_numbers(tmp_path, capsys,
                                                          flags, message):
    desc = tmp_path / "system.json"
    desc.write_text(json.dumps(ROTATION))
    assert main(["complexity", "--system", str(desc), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("config, field, value", [
    (_covering(ROTATION, samples=50), "samples", 50.0),
    (_block_trace(), "L", 16.0)])
def test_integral_float_field_runs_as_its_integer(tmp_path, config, field,
                                                  value):
    from moeblab.harness import run_experiment
    as_int = run_experiment(config, tmp_path / "int")
    as_float = run_experiment(_with(config, **{field: value}), tmp_path / "float")
    assert as_float.csv_path.read_bytes() == as_int.csv_path.read_bytes()


def test_mobius_pretentious_prints_the_experiment_rows(tmp_path, capsys):
    from moeblab.harness import run_experiment
    assert main(["mobius", "--limit", "1000", "--pretentious", "--bigq", "3",
                 "--tgrid", "11"]) == 0
    bundle = run_experiment({"experiment": "pretentious", "params": {
        "limit": 1000, "bigq": 3, "tgrid": 11}}, tmp_path)
    assert capsys.readouterr().out == bundle.csv_path.read_text()


@pytest.mark.parametrize("flags, message", [
    (["--pretentious", "--bigq", "0"], "Q must be >= 1"),
    (["--pretentious", "--tgrid", "-2"], "count must be >= 0"),
    (["--limit", str(2 ** 40), "--pretentious"], "over the cap"),
    (["--limit", str(10 ** 8), "--pretentious", "--bigq", "100"], "over the cap"),
    (["--pretentious", "--bigq", "100", "--tgrid", "1000000"], "over the cap")],
    ids=["zero-bigq", "negative-tgrid", "primes-over-the-cap",
         "characters-over-the-cap", "rows-over-the-cap"])
def test_mobius_refuses_a_scan_it_cannot_run(capsys, flags, message):
    assert main(["mobius", "--limit", "1000", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("args, message", [
    (["run", "{missing}"], "config file"),
    (["run", "{text}"], "config file"),
    (["complexity", "--system", "{missing}"], "--system file"),
    (["complexity", "--system", "{text}"], "--system file"),
    (["cocycle", "--coeffs", "{missing}", "--alpha", "golden"], "--coeffs file"),
    (["cocycle", "--coeffs", "{text}", "--alpha", "golden"], "--coeffs"),
    (["cocycle", "--coeffs", "{short}", "--alpha", "golden"], "'--coeffs' row"),
    (["cocycle", "--coeffs", "{coeffs}", "--alpha", "golden", "--tau", "abc"],
     "'tau'"),
    (["contfrac", "--quotients", "1,a"], "'alpha' 'quotients:1,a'"),
    (["contfrac", "--alpha", "golden", "--tau", "abc"], "'tau'")],
    ids=["run-missing", "run-not-json", "system-missing", "system-not-json",
         "coeffs-missing", "coeffs-not-numbers", "coeffs-short-row",
         "cocycle-string-tau", "string-quotient", "contfrac-string-tau"])
def test_unreadable_cli_input_exits_2(tmp_path, capsys, args, message):
    files = {"missing": tmp_path / "missing.json", "text": tmp_path / "a.txt",
             "short": tmp_path / "short.csv", "coeffs": tmp_path / "coeffs.csv"}
    files["text"].write_text("m,re,im\nnot, json\n")
    files["short"].write_text("m,re,im\n1,0.1\n")
    files["coeffs"].write_text("m,re,im\n1,0.1,0.0\n")
    args = [arg.format(**files) for arg in args]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_lemma54_reads_a_float_tau_by_its_repr(tmp_path):
    from moeblab.harness import run_experiment
    as_float = run_experiment(_with(LEMMA54, tau=0.1), tmp_path / "float")
    as_text = run_experiment(_with(LEMMA54, tau="1/10"), tmp_path / "text")
    assert as_float.csv_path.read_bytes() == as_text.csv_path.read_bytes()
    assert as_float.summary["summary"] == as_text.summary["summary"]
