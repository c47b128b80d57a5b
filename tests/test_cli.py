import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import iosc
from iosc import errors, ringcount
from iosc.circle import BoxSpec
from iosc.cli import _ser, build_parser, main
from iosc.errors import DEFAULT_BUDGET, BudgetExceeded
from iosc.poly import IdealSpec, Weight, parse_poly
from iosc.ringcount import Region, UnitModP


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_expsum_verify(capsys):
    code, rep = run(
        capsys, "expsum", "--gens", "x1^2", "-n", "1", "-p", "3", "-m", "2", "--verify"
    )
    assert code == 0
    assert rep["result"]["E_counts"] == "2/9"
    assert rep["result"]["verify_moidef"] is True


def test_count_both_methods(capsys):
    code, rep = run(capsys, "count", "--gens", "x1*x2", "-n", "2", "-p", "5", "-m", "1")
    assert code == 0
    assert rep["result"]["count"] == "9"


def test_count_fault_injection_exit4(capsys, monkeypatch):
    real = ringcount._count_naive
    monkeypatch.setattr(ringcount, "_count_naive", lambda *a: real(*a) + 1)
    code = main(["count", "--gens", "x1", "-n", "1", "-p", "3", "-m", "1"])
    assert code == 4


def test_zeta_reconstruct(capsys):
    code, rep = run(
        capsys,
        "zeta",
        "--gens",
        "x1",
        "-n",
        "1",
        "-p",
        "3",
        "--max-order",
        "5",
        "--reconstruct",
    )
    assert code == 0
    dist = rep["result"]["ord_distribution"]["coefficients"]
    assert dist[0] == "2/3" and dist[1] == "2/9"
    assert rep["result"]["series_identity"]["ok"] is True
    rec = rep["result"]["reconstruction"]
    assert rec["flag"] == "ok"
    assert rec["func"]["numer"] == ["2/3"]
    assert rec["func"]["denom"] == ["1/1", "-1/3"]


def test_zeta_theta(capsys):
    code, rep = run(
        capsys, "zeta", "--gens", "x1^2", "-n", "1", "-p", "3", "--max-order", "6", "--theta"
    )
    assert code == 0
    assert rep["result"]["theta"]["verdict"] == "growing"


def test_sseries(capsys):
    code, rep = run(capsys, "sseries", "--gens", "x1*x2", "-n", "2", "--qmax", "6")
    assert code == 0
    terms = rep["result"]["singular_series"]["terms"]
    assert terms[1] == [2, "1/4", "1/2"]


def test_sseries_irreducible(capsys):
    code, rep = run(
        capsys,
        "sseries",
        "--gens",
        "x1*x2",
        "-n",
        "2",
        "--irreducible",
        "--primes",
        "5,7,11,13",
    )
    assert code == 0
    assert rep["result"]["irreducibility"]["verdict"] == "reducible-or-wrong-dimension"


def test_bounds_sigma0_vinogradov(tmp_path, capsys):
    ideal = {
        "n": 4,
        "gens": [
            "x1 + x2 - x3 - x4",
            "x1^2 + x2^2 - x3^2 - x4^2",
            "x1^3 + x2^3 - x3^3 - x4^3",
        ],
    }
    path = tmp_path / "vinogradov.json"
    path.write_text(json.dumps(ideal))
    code, rep = run(capsys, "bounds", "sigma0", "--ideal", str(path))
    assert code == 0
    assert rep["result"]["bound"]["value"] == "4/3"


def test_bounds_thresholds(capsys):
    code, rep = run(capsys, "bounds", "thresholds", "-r", "1", "-R", "1", "-d", "2")
    assert code == 0
    t = rep["result"]["thresholds"]
    assert t["general"] == [6, 9]
    assert t["dominant_term"] == 8


def test_bounds_tau0(capsys):
    code, rep = run(capsys, "bounds", "tau0", "--groups", "2:1:0", "-n", "10")
    assert code == 0
    assert rep["result"]["tau0"] == "5/1"


def test_bounds_moi_fit(capsys):
    data = ",".join(f"5:{m}:{5.0 ** (-2 * m)}" for m in range(2, 6))
    code, rep = run(capsys, "bounds", "moi-fit", "--data", data)
    assert code == 0
    assert abs(rep["result"]["fit"]["sigma_hat"] - 2.0) < 1e-9


def test_circle_count(capsys):
    code, rep = run(
        capsys, "circle", "count", "--gens", "x1^2 + x2^2 - x3^2", "-n", "3", "-B", "1"
    )
    assert code == 0
    assert rep["result"]["count"] == "9"


def test_circle_waring(capsys):
    code, rep = run(
        capsys, "circle", "waring", "--map", "1:x1^2", "-p", "7", "-m", "1", "--ell", "1"
    )
    assert code == 0
    assert rep["result"]["surjective"] is False
    assert rep["result"]["missing_count"] == 3


def test_jet_expand(capsys):
    code, rep = run(
        capsys, "jet", "expand", "--poly", "x1^2", "-n", "1", "--order", "2", "--start", "0"
    )
    assert code == 0
    assert rep["result"]["jets"] == ["x1^2", "2*x1*x2", "x2^2 + 2*x1*x3"]


def test_jet_highpart(capsys):
    code, rep = run(
        capsys, "jet", "highpart-check", "--gens", "x1^2 + x1", "-n", "1", "-m", "2"
    )
    assert code == 0
    assert rep["result"]["highpart_identity"] is True


def test_exit_invalid_input():
    assert main(["expsum", "--gens", "x9", "-n", "1", "-p", "3", "-m", "1"]) == 2
    assert main(["expsum", "-p", "3", "-m", "1"]) == 2
    assert main(["count", "--gens", "1 - 1", "-n", "1", "-p", "3", "-m", "1"]) == 2


@pytest.mark.parametrize("gens", [["3"], ["x1", "3"]])
def test_a_constant_generator_exits_2_and_is_named(gens, capsys):
    argv = ["count", "-n", "2", "-p", "3", "-m", "2"]
    for g in gens:
        argv += ["--gens", g]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "generators must be non-constant, got 3" in err
    assert "group degree" not in err


def test_exit_budget():
    assert (
        main(
            ["count", "--gens", "x1^2", "-n", "1", "-p", "101", "-m", "4",
             "--method", "naive", "--budget", "100"]
        )
        == 3
    )


def test_force_bypasses_budget(capsys):
    code = main(
        ["count", "--gens", "x1^2", "-n", "1", "-p", "7", "-m", "2",
         "--budget", "1", "--force"]
    )
    assert code == 0
    assert "--force" in capsys.readouterr().err


def test_env_budget(monkeypatch):
    monkeypatch.setenv("IOSC_BUDGET", "10")
    assert main(["count", "--gens", "x1^2", "-n", "1", "-p", "7", "-m", "2"]) == 3


def test_round_trip_reruns_identically(capsys):
    argv = ["zeta", "--gens", "x1^2", "-n", "1", "-p", "3", "--max-order", "4"]
    code, rep1 = run(capsys, *argv)
    assert code == 0
    code, rep2 = run(capsys, *[str(a) for a in rep1["config"]["argv"]])
    assert code == 0
    assert rep1["result"] == rep2["result"]


def test_round_trip_with_seed(capsys):
    argv = [
        "circle", "jintegral", "--gens", "x1^2 + x2^2 - x3^2", "-n", "3",
        "--eps", "0.2,0.1", "--seed", "99",
    ]
    code, rep1 = run(capsys, *argv)
    assert code == 0
    code, rep2 = run(capsys, *[str(a) for a in rep1["config"]["argv"]])
    assert code == 0
    assert rep1["result"] == rep2["result"]


def test_csv_output(capsys):
    code = main(
        ["count", "--gens", "x1", "-n", "1", "-p", "3", "-m", "2", "--output", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("key,value")
    assert any("result.count" in line for line in out.splitlines())


def test_output_to_file(tmp_path):
    path = tmp_path / "report.json"
    code = main(
        ["count", "--gens", "x1", "-n", "1", "-p", "3", "-m", "2", "-o", str(path)]
    )
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["result"]["count"] == "1"


def test_grouped_ideal_file(tmp_path, capsys):
    ideal = {
        "n": 1,
        "groups": [{"degree": 2, "gens": ["x1^2"]}],
    }
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(ideal))
    code, rep = run(capsys, "expsum", "--ideal", str(path), "-p", "3", "-m", "2")
    assert code == 0
    assert rep["result"]["E_counts"] == "2/9"


# One argv per subcommand and per choice of `which`; "{ideal}" stands for an
# ideal file.  The last two start a value with a dash, which the echo must
# keep attached to its flag.
ROUND_TRIPS = {
    "expsum": ["expsum", "--gens", "x1^2", "-n", "1", "-p", "3", "-m", "2", "--verify"],
    "count-region": [
        "count", "--gens", "x1*x2", "-n", "2", "-p", "3", "-m", "2",
        "--region", "zero:0-1,full:1-2",
    ],
    "zeta": ["zeta", "--gens", "x1^2", "-n", "1", "-p", "3", "--max-order", "4", "--reconstruct"],
    "zeta-theta": ["zeta", "--gens", "x1^2", "-n", "1", "-p", "3", "--max-order", "4", "--theta"],
    "sseries-qmax": ["sseries", "--gens", "x1*x2", "-n", "2", "--qmax", "6", "--sigma", "3.5"],
    "sseries-irreducible": [
        "sseries", "--gens", "x1*x2", "-n", "2", "--irreducible", "--primes", "5,7",
    ],
    "sseries-weights": ["sseries", "--gens", "x1^2+x2", "-n", "2", "--weights", "1,2", "--qmax", "4"],
    "bounds-sigma0": ["bounds", "sigma0", "--gens", "x1^2+x2^2+x3^2", "-n", "3", "--s", "2:0"],
    "bounds-sigmaw": ["bounds", "sigmaw", "--gens", "x1^3+x2^3+x3^3", "-n", "3"],
    "bounds-birch": ["bounds", "birch", "-n", "10", "--s-dim", "1", "-r", "1", "-d", "3"],
    "bounds-tau0": ["bounds", "tau0", "--groups", "2:1:0", "-n", "10"],
    "bounds-thresholds": ["bounds", "thresholds", "-r", "1", "-R", "2", "-d", "3"],
    "bounds-moi-fit": ["bounds", "moi-fit", "--data", "5:2:0.0016,5:3:0.000064,5:4:2.56e-06"],
    "circle-count": ["circle", "count", "--gens", "x1^2 + x2^2 - x3^2", "-n", "3", "-B", "2"],
    "circle-jintegral": [
        "circle", "jintegral", "--gens", "x1^2 + x2^2 - x3^2", "-n", "3",
        "--sampler", "grid", "--eps", "0.2,0.1",
    ],
    "circle-predict": [
        "circle", "predict", "--gens", "x1^2 + x2^2 - x3^2", "-n", "3", "-B", "3",
        "--qmax", "4", "--seed", "7",
    ],
    "circle-waring": ["circle", "waring", "--map", "1:x1^2", "-p", "7", "-m", "1", "--ell", "2"],
    "jet-expand": ["jet", "expand", "--poly", "x1^2", "-n", "1", "--order", "2", "--start", "1"],
    "jet-highpart": ["jet", "highpart-check", "--gens", "x1^2 + x1", "-n", "1", "-m", "2"],
    "ideal-file": ["expsum", "--ideal", "{ideal}", "-p", "3", "-m", "2"],
    "count-dash-gens": ["count", "--gens=-x1^2+x2", "-n", "2", "-p", "3", "-m", "1"],
    "circle-dash-box": [
        "circle", "count", "--gens", "x1^2 + x2^2 - x3^2", "-n", "3", "-B", "2",
        "--box=-1,1;0,1;-1,1",
    ],
}


@pytest.mark.parametrize("case", list(ROUND_TRIPS))
def test_echoed_argv_reruns_to_the_same_report(case, tmp_path, capsys):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"n": 1, "gens": ["x1^2"]}))
    argv = [a.replace("{ideal}", str(path)) for a in ROUND_TRIPS[case]]
    code, rep1 = run(capsys, *argv)
    assert code == 0
    code, rep2 = run(capsys, *rep1["config"]["argv"])
    assert code == 0
    assert rep2["result"] == rep1["result"]
    assert rep2["config"] == rep1["config"]


@pytest.mark.parametrize("p", ["0", "1", "6"])
def test_circle_waring_rejects_a_bad_modulus(p):
    argv = ["circle", "waring", "--map", "1:x1^2", "--ell", "2", "-m", "1", "-p", p]
    assert main(argv) == 2


@pytest.mark.parametrize("command", ["bounds", "circle", "jet"])
def test_an_unknown_subcommand_is_refused(command, capsys):
    assert main([command, "nosuch"]) == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--reconstruct"]])
def test_zeta_rejects_a_negative_max_order(extra):
    argv = ["zeta", "--gens", "x1^2", "-n", "1", "-p", "3", "--max-order", "-1"]
    assert main(argv + extra) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sseries", "--gens", "x1^2", "-n", "1", "--qmax", "0"],
        ["sseries", "--gens", "x1^2", "-n", "1", "--qmax", "-5"],
        ["circle", "predict", "--gens", "x1^2+x2^2-x3^2", "-n", "3", "-B", "3", "--qmax", "0"],
    ],
)
def test_an_empty_series_range_is_refused(argv):
    assert main(argv) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["circle", "count", "-B", "-5", "--gens", "x1^2+x2^2-x3^2", "-n", "3"],
        ["circle", "predict", "-B", "-3", "--gens", "x1^2+x2^2-x3^2", "-n", "3"],
        ["circle", "waring", "--map", "1:x1^2", "-p", "5", "-m", "1", "--ell", "0"],
    ],
)
def test_a_scale_or_summand_count_below_one_is_refused(argv):
    assert main(argv) == 2


def test_a_prediction_refuses_an_inhomogeneous_ideal_before_any_charge(capsys):
    # refused as input (2), not for its integral's 400,000 points (3)
    argv = ["circle", "predict", "--gens", "x1^2+x2", "-n", "2", "--budget", "1"]
    assert main(argv) == 2
    assert "homogeneous" in capsys.readouterr().err


def test_a_rational_of_any_length_is_written_exactly():
    # 5,001 digits, beyond the interpreter's default limit of 4,300 for
    # int-to-str conversion (Python >= 3.10.7), which is left as found
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert _ser(Fraction(10 ** 5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
    assert _ser(-(10 ** 5000)) == "-1" + "0" * 5000
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# with r = 2 generators, eps^r of 1e-200 underflows to 0 in floating point
@pytest.mark.parametrize("eps", ["0", "-0.1", "0.2,0", "inf", "1e-200"])
@pytest.mark.parametrize("which", ["jintegral", "predict"])
def test_an_epsilon_at_or_below_zero_is_refused(which, eps, capsys):
    argv = ["circle", which, "--gens", "x1^2+x2^2-x3^2", "--gens", "x1*x2-x3^2", "-n", "3",
            "-B", "3", "--eps", eps]
    assert main(argv) == 2
    assert "epsilon must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["count", "jintegral", "predict"])
def test_a_box_bound_with_a_zero_denominator_is_refused(which, capsys):
    argv = ["circle", which, "--gens", "x1", "-n", "1", "--box", "0,1/0"]
    assert main(argv) == 2
    assert "zero denominator" in capsys.readouterr().err


RANKED = [
    ["expsum", "--gens", "x1^2", "-n", "1", "-p", "5", "-m", "2"],
    ["sseries", "--gens", "x1^2+x2^2", "-n", "2", "--qmax", "5"],
    ["sseries", "--gens", "x1^2+x2^2", "-n", "2", "--irreducible", "--primes", "5,7"],
    ["zeta", "--gens", "x1^2", "-n", "1", "-p", "5", "--max-order", "2"],
    ["zeta", "--gens", "x1^2", "-n", "1", "-p", "5", "--max-order", "3", "--theta"],
    ["bounds", "birch", "-n", "3"],
]


@pytest.mark.parametrize("r", ["0", "-1"])
@pytest.mark.parametrize(
    "argv", RANKED, ids=["expsum", "sseries", "irreducible", "zeta", "theta", "birch"]
)
def test_a_rank_below_one_is_refused(argv, r, capsys):
    assert main(argv + ["-r", r]) == 2
    assert "r must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_a_budget_below_one_is_refused(budget, monkeypatch):
    argv = ["count", "--gens", "x1^2", "-n", "1", "-p", "7", "-m", "2"]
    assert main(argv + ["--budget", budget]) == 2
    monkeypatch.setenv("IOSC_BUDGET", budget)
    assert main(argv) == 2


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_fewer_than_one_thread_is_refused(threads):
    argv = ["count", "--gens", "x1^2", "-n", "1", "-p", "3", "-m", "2", "--threads", threads]
    assert main(argv) == 2


# -- the per-process parser ------------------------------------------------------------


def test_importing_the_cli_builds_no_parser():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import iosc.cli\n"
        "print(len(built))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0"]


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    argv = ["count", "--gens", "x1^2", "-n", "1", "-p", "3", "-m", "2"]
    assert main(argv) == 0
    assert len(built) == 8  # iosc and its seven subcommands
    assert main(argv) == 0
    assert len(built) == 8
    capsys.readouterr()


def test_a_call_echoes_only_its_own_options(capsys):
    code, rep = run(capsys, "count", "--gens", "x1", "-n", "1", "-p", "3", "-m", "1")
    assert code == 0
    code, rep = run(capsys, "count", "--gens", "x2", "-n", "2", "-p", "3", "-m", "1")
    assert code == 0
    gens = [a for a in rep["config"]["argv"] if a.startswith("--gens")]
    assert gens == ["--gens=x2"]


def test_a_refused_call_leaves_the_next_report_unchanged(capsys):
    argv = ["circle", "jintegral", "--gens", "x1^2+x2^2-x3^2", "-n", "3", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--threads", "0"]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def subcommand_cases():
    """(command, which, required options) for every subcommand of the
    parser and every choice of its positional `which`."""
    actions = build_parser()._actions
    (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    for command, parser in sub.choices.items():
        positional = [a for a in parser._actions if not a.option_strings]
        options = [a for a in parser._actions if a.option_strings]
        required = [a.option_strings[-1] for a in options if a.required]
        for which in positional[0].choices if positional else [None]:
            name = f"{command}-{which}" if which else command
            yield pytest.param(command, which, required, id=name)


@pytest.mark.parametrize("command, which, required", subcommand_cases())
def test_every_subcommand_exits_cleanly_given_only_an_ideal(
    command, which, required, tmp_path, capsys
):
    # an uncaught exception here is what exit code 1 with a traceback is
    # from the command line; an option a subcommand needs is invalid input
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"n": 1, "gens": ["x1"]}))
    argv = [command] + ([which] if which else []) + ["--ideal", str(ideal)]
    for flag in required:
        argv += [flag, "2"]
    assert main(argv) in (0, 2, 3)


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ["sseries", "--gens", "x1^2", "-n", "1", "--sigma", "nan"],
        ["sseries", "--gens", "x1^2", "-n", "1", "--sigma", "inf"],
        ["sseries", "--gens", "x1^2", "-n", "1", "--sigma", "-inf"],
        ["circle", "predict", "--gens", "x1^2-x2^2", "-n", "2", "-B", "2", "--qmax", "2",
         "--box", "0,0;0,0"],
        ["bounds", "moi-fit", "--data", "2:2:nan,2:3:0.25,2:4:0.125"],
        ["bounds", "moi-fit", "--data", "2:2:inf,2:3:0.25,2:4:0.125"],
        ["bounds", "moi-fit", "--data", "1:2:0.5,1:3:0.25,1:4:0.125"],
        ["bounds", "moi-fit", "--data", "2:2:-0.5,2:3:0.25,2:4:0.125"],
        ["bounds", "moi-fit", "--data", "2:2:0.5,2:2:0.25,2:2:0.125"],
        ["bounds", "tau0", "--groups", "2:1:0"],
        ["bounds", "sigma0", "--gens", "x1^2", "-n", "1", "--s", "3:1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_report_is_strict_json_or_the_input_is_refused(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 2)
    if code == 0:
        json.loads(out, parse_constant=refuse_constant)


def test_a_vanishing_prediction_has_no_ratio(capsys):
    argv = ["circle", "predict", "--gens", "x1^2-x2^2", "-n", "2", "-B", "2", "--qmax", "2",
            "--box", "0,0;0,0"]
    code, rep = run(capsys, *argv)
    assert code == 0
    assert rep["result"]["prediction"]["ratio"] is None
    assert "vanishing-prediction" in rep["result"]["prediction"]["flags"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "tau0", "--groups", "2:1:0"], "bounds tau0 needs -n"),
        (["bounds", "sigma0", "--gens", "x1^2", "-n", "1", "--s", "3:1"], "group degree 2"),
        (["bounds", "moi-fit", "--data", "2:2:-0.5,2:3:0.25,2:4:0.125"], "0 <= |E| < oo"),
    ],
)
def test_a_refused_input_is_named_in_the_message(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


# -- one meter per command ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["zeta", "--gens", "x1^2*x2-x3^2", "-n", "3", "-p", "7", "--max-order", "6",
          "--reconstruct"], 20_000),
        (["count", "--gens", "x1*x2-x3*x4", "-n", "4", "-p", "7", "-m", "2",
          "--method", "both"], 5_764_801),
        (["sseries", "--gens", "x1^2+x2^2-x3^2-x4^2", "--gens", "x1*x3-x2*x4", "-n", "4",
          "--qmax", "30"], 20_000),
        (["expsum", "--gens", "x1^3+x2^3+x3^3+x4^3", "-n", "4", "-p", "7", "-m", "2",
          "--verify"], 5_764_850),
    ],
    ids=["zeta", "count", "sseries", "expsum"],
)
def test_the_budget_bounds_the_sum_of_a_commands_counts(argv, budget, capsys):
    # each charge fits the budget alone; together they charge more (the
    # zeta command's one walk charges 40,335 points, at most 343 per node;
    # the sseries command charges 30,027, at most 14,641 = 11^4 at once,
    # since every box above 2^14 points splits into halves of p^2)
    assert main(argv + ["--budget", str(budget)]) == 3
    assert "budget has" in capsys.readouterr().err


def test_a_character_sum_past_float64_exactness_is_invalid_even_with_force():
    # not a budget: --force cannot lift it
    argv = ["expsum", "--gens", "x1^2", "-n", "1", "-p", "2", "-m", "27", "--verify", "--force"]
    assert main(argv) == 2


def cli(*argv):
    """A command's (exit code, result block) under a budget (None: the default)."""

    def call(budget):
        extra = [] if budget is None else ["--budget", str(budget)]
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            code = main(list(argv) + extra)
        return code, json.loads(stream.getvalue())["result"] if code == 0 else None

    return call


def lib(fn, *args, **kwargs):
    """A public call's (exit code, result) under a budget, 3 when it is refused."""

    def call(budget):
        try:
            return 0, fn(*args, **kwargs, budget=DEFAULT_BUDGET if budget is None else budget)
        except BudgetExceeded:
            return 3, None

    return call


def S(*gens, n):
    return IdealSpec.from_gens([parse_poly(g, n) for g in gens])


SQUARE, CROSS = S("x1^2", n=1), S("x1*x2", n=2)
CONE = S("x1^2 + x2^2 - x3^2", n=3)
FERMAT = S("x1^3+x2^3+x3^3", n=3)

# a case for every subcommand that charges points and for every callable
# exported from iosc with a budget parameter (see the guard below)
METERED = {
    "cli:expsum": cli("expsum", "--gens", "x1^2", "-n", "1", "-p", "3", "-m", "2", "--verify"),
    "cli:count": cli("count", "--gens", "x1*x2", "-n", "2", "-p", "3", "-m", "2"),
    "cli:zeta": cli("zeta", "--gens", "x1^2", "-n", "1", "-p", "3", "--max-order", "4",
                    "--reconstruct"),
    "cli:zeta-theta": cli("zeta", "--gens", "x1^2", "-n", "1", "-p", "3", "--max-order", "4",
                          "--theta"),
    "cli:sseries": cli("sseries", "--gens", "x1*x2", "-n", "2", "--qmax", "6"),
    "cli:sseries-irreducible": cli("sseries", "--gens", "x1*x2", "-n", "2", "--irreducible",
                                   "--primes", "5,7"),
    "cli:bounds-sigma0": cli("bounds", "sigma0", "--gens", "x1^2+x2^2+x3^2", "-n", "3"),
    "cli:bounds-sigmaw": cli("bounds", "sigmaw", "--gens", "x1^3+x2^3+x3^3", "-n", "3"),
    "cli:circle-count": cli("circle", "count", "--gens", "x1^2 + x2^2 - x3^2", "-n", "3",
                            "-B", "2"),
    "cli:circle-jintegral": cli("circle", "jintegral", "--gens", "x1^2 + x2^2 - x3^2", "-n",
                                "3", "--sampler", "grid"),
    "cli:circle-predict": cli("circle", "predict", "--gens", "x1^2 + x2^2 - x3^2", "-n", "3",
                              "-B", "3", "--qmax", "4", "--seed", "7"),
    "cli:circle-waring": cli("circle", "waring", "--map", "1:x1^2", "-p", "7", "-m", "1",
                             "--ell", "2"),
    "cli:jet-expand": cli("jet", "expand", "--poly", "x1^2+x2^3", "-n", "2", "--order", "3"),
    "cli:jet-highpart-check": cli("jet", "highpart-check", "--gens", "x1^2 + x1", "-n", "1",
                                  "-m", "2"),
    "E_charsum": lib(iosc.E_charsum, SQUARE, 1, 3, 2),
    "E_composite": lib(iosc.E_composite, CROSS, 1, 6),
    "E_counts": lib(iosc.E_counts, CROSS, 1, 3, 2),
    "Region.count_mod_p": lib(Region(2, (((0, 2), UnitModP()),)).count_mod_p, 5),
    "bsing_dim": lib(iosc.bsing_dim, CONE),
    "compa_check": lib(iosc.compa_check, SQUARE, 1, 3, 4),
    "count_box_solutions": lib(iosc.count_box_solutions, CONE, BoxSpec.cube(3), 2),
    "count_ff": lib(iosc.count_ff, S("x1^2-x2^3", n=2), 2, 4),
    "count_zpm": lib(iosc.count_zpm, CROSS, 3, 2, method="both"),
    "dim_estimate": lib(iosc.dim_estimate, CROSS),
    "ff_char_sum": lib(iosc.ff_char_sum, parse_poly("x1^3+x2^3", 2), None, 5),
    "highpart_check": lib(iosc.highpart_check, S("x1^2 + x1", n=1), 2),
    "irreducibility_probe": lib(iosc.irreducibility_probe, CROSS, 1, [5, 7]),
    "jet_expand": lib(iosc.jet_expand, parse_poly("x1^2+x2^3", 2), 3),
    "major_arc_prediction": lib(iosc.major_arc_prediction, CONE, BoxSpec.cube(3), 3, 4,
                                [0.2, 0.1], samples=1000),
    "ord_distribution": lib(iosc.ord_distribution, SQUARE, 3, 4),
    "p_adic_density": lib(iosc.p_adic_density, SQUARE, 1, 3, 3),
    "phase_histogram": lib(iosc.phase_histogram, parse_poly("x1^2+x2", 2), 3, 2),
    "poincare_relation": lib(iosc.poincare_relation, SQUARE, 3, 4),
    "pole_report": lib(iosc.pole_report, SQUARE, 1, 3, 6),
    "sigma0": lib(iosc.sigma0, CONE),
    "sigma_tilde0w": lib(iosc.sigma_tilde0w, FERMAT),
    "singular_integral": lib(iosc.singular_integral, CONE, BoxSpec.cube(3), [0.2, 0.1],
                             sampler="grid", grid_resolution=10),
    "singular_series_partial": lib(iosc.singular_series_partial, CROSS, 1, 6),
    "theta_probe": lib(iosc.theta_probe, SQUARE, 1, 3, 4),
    "torus_sum_check": lib(iosc.torus_sum_check, parse_poly("x1*x2", 2), parse_poly("x1", 2),
                           Weight((2, 1)), 5),
    "verify_moidef": lib(iosc.verify_moidef, SQUARE, 1, 3, 2),
    "verify_multiplicativity": lib(iosc.verify_multiplicativity, SQUARE, 1, 2, 3),
    "waring_surjectivity": lib(iosc.waring_surjectivity, [[parse_poly("x1^2", 1)]], 7, 1, 2),
    "zeta_series": lib(iosc.zeta_series, SQUARE, 3, 4),
}

# the dimension ladder drops its largest fields when the meter cannot pay for them
ADAPTIVE = {"cli:bounds-sigma0", "cli:bounds-sigmaw", "bsing_dim", "dim_estimate", "sigma0",
            "sigma_tilde0w"}


@pytest.fixture
def charged(monkeypatch):
    """The points of every charge that succeeds, recorded by rebinding
    charge in every iosc module as bench/tracer.py does."""
    monkeypatch.delenv("IOSC_BUDGET", raising=False)
    real, points = errors.charge, []

    def counted(needed, budget, what="enumeration"):
        real(needed, budget, what)
        points.append(needed)

    for name, module in list(sys.modules.items()):
        if name == "iosc" or name.startswith("iosc."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return points


@pytest.mark.parametrize("case", list(METERED))
def test_a_command_or_call_runs_on_exactly_the_points_it_charges(case, charged):
    call = METERED[case]
    code, result = call(None)
    total = sum(charged)
    assert code == 0 and total >= 2
    charged.clear()
    assert call(total) == (0, result)
    assert sum(charged) == total
    charged.clear()
    code, _ = call(total - 1)
    assert sum(charged) <= total - 1
    if case not in ADAPTIVE:
        assert code == 3


def test_every_budgeted_entry_point_has_a_meter_case():
    # a new public entry point or subcommand with a budget gets a case
    # above, so no per-call budget can come back unnoticed
    names = set()
    for name, obj in vars(iosc).items():
        if name.startswith("_") or not callable(obj):
            continue
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            methods = [(f"{name}.{a}", f) for a, f in vars(obj).items() if callable(f)]
        else:
            methods = [(name, obj)]
        names |= {n for n, f in methods if "budget" in inspect.signature(f).parameters}
    free = {"bounds-birch", "bounds-tau0", "bounds-thresholds", "bounds-moi-fit"}
    commands = {f"cli:{case.id}" for case in subcommand_cases() if case.id not in free}
    assert names and commands
    assert sorted((names | commands) - set(METERED)) == []


def test_jet_expand_charges_its_variables_and_its_term_products(capsys):
    argv = ["jet", "expand", "--poly", "x1^5+x2^5", "-n", "2", "--order", "30"]
    # 62 jet variables of 62 exponents each, then 78,886 term pairs
    assert main(argv + ["--budget", str(62 * 62 - 1)]) == 3
    assert "jet variables" in capsys.readouterr().err
    assert main(argv + ["--budget", str(62 * 62 + 78_885)]) == 3
    assert "jet term products" in capsys.readouterr().err
    assert main(argv + ["--budget", str(62 * 62 + 78_886)]) == 0
    # refused before anything is built
    assert main(["jet", "expand", "--poly", "x1^5+x2^5", "-n", "2", "--order", "100000"]) == 3
