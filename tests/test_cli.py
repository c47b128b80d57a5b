import json
import os

import pytest

from iosc import ringcount
from iosc.cli import main


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


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_fewer_than_one_thread_is_refused(threads):
    argv = ["count", "--gens", "x1^2", "-n", "1", "-p", "3", "-m", "2", "--threads", threads]
    assert main(argv) == 2
