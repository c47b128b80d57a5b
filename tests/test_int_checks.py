"""Every integer parameter of an entry point is checked by errors.check_int
before anything is charged, and no other module words that check again."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from iosc import (
    E_charsum,
    E_composite,
    E_counts,
    IdealSpec,
    bhb_tau0,
    birch_bound,
    bsing_dim,
    compa_check,
    convolution_thresholds,
    count_box_solutions,
    count_ff,
    count_zpm,
    dim_estimate,
    eval_mod,
    ff_char_sum,
    highpart_check,
    irreducibility_probe,
    jet_expand,
    major_arc_prediction,
    moi_fit,
    ord_distribution,
    p_adic_density,
    parse_poly,
    phase_histogram,
    poincare_relation,
    pole_report,
    rational_reconstruct,
    singular_integral,
    singular_series_partial,
    theta_probe,
    torus_sum_check,
    verify_multiplicativity,
    waring_surjectivity,
    zeta_series,
)
from iosc.circle import BoxSpec
from iosc.cli import main
from iosc.errors import Meter
from iosc.gf import GFTable
from iosc.poly import Weight
from iosc.ringcount import LocalData
from iosc.zeta import ord_volumes

SRC = Path(__file__).resolve().parent.parent / "src" / "iosc"
LEFT = 10 ** 6


def S(*gens, n):
    return IdealSpec.from_gens([parse_poly(g, n) for g in gens])


SQUARE = S("x1^2", n=1)
CONE = S("x1^2 + x2^2 - x3^2", n=3)
F2 = parse_poly("x1^2 + x2^2", 2)
SERIES = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]

# (parameter name, first value outside its range, call(v, meter)); the
# value is the one below the range unless the case's name ends in -top,
# and a call with no budget parameter ignores the meter
CASES = {
    # ringcount
    "count_zpm-m": ("m", 0, lambda v, b: count_zpm(SQUARE, 3, v, budget=b)),
    "count_zpm-p": ("p", 1, lambda v, b: count_zpm(SQUARE, v, 2, budget=b)),
    "LocalData.E-r": ("r", 0, lambda v, b: LocalData(SQUARE, 3, None, b).E(v, 2)),
    "LocalData.E-m": ("m", 0, lambda v, b: LocalData(SQUARE, 3, None, b).E(1, v)),
    "count_ff-k": ("k", 0, lambda v, b: count_ff(SQUARE, 3, v, b)),
    "GFTable-k": ("k", 0, lambda v, b: GFTable(3, v)),
    "dim_estimate-maxk": ("maxk", 0, lambda v, b: dim_estimate(SQUARE, maxk=v, budget=b)),
    "bsing_dim-maxk": ("maxk", 0, lambda v, b: bsing_dim(CONE, maxk=v, budget=b)),
    # expsum
    "E_counts-r": ("r", 0, lambda v, b: E_counts(SQUARE, v, 3, 2, budget=b)),
    "E_counts-m": ("m", 0, lambda v, b: E_counts(SQUARE, 1, 3, v, budget=b)),
    "E_charsum-r": ("r", 0, lambda v, b: E_charsum(SQUARE, v, 3, 2, budget=b)),
    "E_charsum-m": ("m", 0, lambda v, b: E_charsum(SQUARE, 1, 3, v, budget=b)),
    "phase_histogram-m": ("m", 0, lambda v, b: phase_histogram(F2, 3, v, budget=b)),
    "ff_char_sum-k": ("k", 0, lambda v, b: ff_char_sum(F2, None, 3, v, budget=b)),
    "ff_char_sum-s": ("s", -2, lambda v, b: ff_char_sum(F2, None, 3, 1, s=v, budget=b)),
    "torus_sum_check-k": (
        "k", 0, lambda v, b: torus_sum_check(F2, None, Weight((1, 2)), 3, v, budget=b)
    ),
    # zeta
    "ord_volumes-M": ("M", -1, lambda v, b: ord_volumes(SQUARE, 3, v, budget=b)),
    "ord_distribution-M": ("M", -1, lambda v, b: ord_distribution(SQUARE, 3, v, budget=b)),
    "zeta_series-M": ("M", -1, lambda v, b: zeta_series(SQUARE, 3, v, budget=b)),
    "poincare_relation-M": ("M", -1, lambda v, b: poincare_relation(SQUARE, 3, v, budget=b)),
    "compa_check-r": ("r", 0, lambda v, b: compa_check(SQUARE, v, 3, 3, budget=b)),
    "compa_check-M": ("M", 1, lambda v, b: compa_check(SQUARE, 1, 3, v, budget=b)),
    "theta_probe-r": ("r", 0, lambda v, b: theta_probe(SQUARE, v, 3, 3, budget=b)),
    "theta_probe-M": ("M", 2, lambda v, b: theta_probe(SQUARE, 1, 3, v, budget=b)),
    "pole_report-r": ("r", 0, lambda v, b: pole_report(SQUARE, v, 3, 4, budget=b)),
    "pole_report-M": ("M", -1, lambda v, b: pole_report(SQUARE, 1, 3, v, budget=b)),
    "pole_report-max_order": (
        "max_order", -1, lambda v, b: pole_report(SQUARE, 1, 3, 4, v, budget=b)
    ),
    "rational_reconstruct-max_order": (
        "max_order", -1, lambda v, b: rational_reconstruct(SERIES, v)
    ),
    # sseries
    "E_composite-r": ("r", 0, lambda v, b: E_composite(SQUARE, v, 6, b)),
    "E_composite-q": ("q", 0, lambda v, b: E_composite(SQUARE, 1, v, b)),
    "verify_multiplicativity-q1": (
        "q1", 0, lambda v, b: verify_multiplicativity(SQUARE, 1, v, 3, b)
    ),
    "verify_multiplicativity-q2": (
        "q2", 0, lambda v, b: verify_multiplicativity(SQUARE, 1, 2, v, b)
    ),
    "singular_series_partial-r": (
        "r", 0, lambda v, b: singular_series_partial(SQUARE, v, 6, budget=b)
    ),
    "singular_series_partial-Qmax": (
        "Qmax", 0, lambda v, b: singular_series_partial(SQUARE, 1, v, budget=b)
    ),
    "p_adic_density-r": ("r", 0, lambda v, b: p_adic_density(SQUARE, v, 3, 2, b)),
    "p_adic_density-M": ("M", 0, lambda v, b: p_adic_density(SQUARE, 1, 3, v, b)),
    "irreducibility_probe-r": ("r", 0, lambda v, b: irreducibility_probe(SQUARE, v, [3], b)),
    # bounds
    "birch_bound-n": ("n", 0, lambda v, b: birch_bound(v, -1, 1, 2)),
    "birch_bound-s": ("s", -2, lambda v, b: birch_bound(4, v, 1, 2)),
    "birch_bound-r": ("r", 0, lambda v, b: birch_bound(4, 0, v, 2)),
    "birch_bound-d": ("d", 1, lambda v, b: birch_bound(4, 0, 1, v)),
    "bhb_tau0-r_i": ("r_i", 0, lambda v, b: bhb_tau0([(2, v, 0)], 4)),
    "convolution_thresholds-r": ("r", 0, lambda v, b: convolution_thresholds(v, 1, 2)),
    "convolution_thresholds-R": ("R", 0, lambda v, b: convolution_thresholds(1, v, 2)),
    "convolution_thresholds-D": ("D", 0, lambda v, b: convolution_thresholds(1, 1, v)),
    "moi_fit-p": ("p", 1, lambda v, b: moi_fit([(5, 2, 0.04), (v, 3, 0.008)])),
    "moi_fit-m": ("m", 0, lambda v, b: moi_fit([(5, 2, 0.04), (5, v, 0.008)])),
    "moi_fit-m_min": ("m_min", 0, lambda v, b: moi_fit([(5, 2, 0.04)], v)),
    # circle
    "count_box_solutions-B": (
        "B", 0, lambda v, b: count_box_solutions(CONE, BoxSpec.cube(3), v, b)
    ),
    "singular_integral-samples": (
        "samples", 0,
        lambda v, b: singular_integral(CONE, BoxSpec.cube(3), [0.2], samples=v, budget=b),
    ),
    "singular_integral-grid_resolution": (
        "grid_resolution", 0,
        lambda v, b: singular_integral(
            CONE, BoxSpec.cube(3), [0.2], sampler="grid", grid_resolution=v, budget=b
        ),
    ),
    "singular_integral-seed": (
        "seed", -1,
        lambda v, b: singular_integral(CONE, BoxSpec.cube(3), [0.2], seed=v, budget=b),
    ),
    "singular_integral-seed-top": (
        "seed", 2 ** 64,
        lambda v, b: singular_integral(CONE, BoxSpec.cube(3), [0.2], seed=v, budget=b),
    ),
    "major_arc_prediction-B": (
        "B", 0,
        lambda v, b: major_arc_prediction(CONE, BoxSpec.cube(3), v, 3, [0.2, 0.1], budget=b),
    ),
    "major_arc_prediction-Qmax": (
        "Qmax", 0,
        lambda v, b: major_arc_prediction(CONE, BoxSpec.cube(3), 4, v, [0.2, 0.1], budget=b),
    ),
    "waring_surjectivity-m": (
        "m", 0, lambda v, b: waring_surjectivity([[parse_poly("x1^2", 1)]], 7, v, 2, b)
    ),
    "waring_surjectivity-ell": (
        "ell", 0, lambda v, b: waring_surjectivity([[parse_poly("x1^2", 1)]], 7, 1, v, b)
    ),
    # poly
    "eval_mod-m": ("m", 0, lambda v, b: eval_mod(parse_poly("x1^2", 1), [3], 5, v)),
    "jet_expand-m": ("m", -1, lambda v, b: jet_expand(parse_poly("x1^2", 1), v, 0, b)),
    "highpart_check-m": ("m", -1, lambda v, b: highpart_check(SQUARE, v, b)),
    "IdealSpec-group degree": (
        "group degree", 0, lambda v, b: IdealSpec(1, [(v, [parse_poly("x1^2", 1)])])
    ),
}


@pytest.mark.parametrize("kind", ["float", "bool", "below"])
@pytest.mark.parametrize("case", CASES)
def test_a_bad_integer_is_named_and_charges_nothing(case, kind):
    name, below, call = CASES[case]
    value = {"float": 2.5, "bool": True, "below": below}[kind]
    meter = Meter(LEFT)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(value, meter)
    assert meter.left == LEFT


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "-p", "5", "--gens", "x1^2-x2^3", "-n", "2", "--max-order", "-1"],
        ["circle", "predict", "--qmax", "0", "--gens", "x1^2+x2^2-x3^2", "-n", "3"],
    ],
    ids=["zeta-max-order", "circle-predict-qmax"],
)
def test_the_cli_refuses_a_bad_order_before_any_count(argv, capsys):
    # with a budget of one point, a charge would exit 3 (budget exceeded)
    assert main(argv + ["--budget", "1"]) == 2
    assert "must be >= " in capsys.readouterr().err


# -- one wording of the integer check ----------------------------------------------


WORDINGS = (" must be an integer", " must be >= ")


def copied_checks(tree: ast.Module) -> list[str]:
    """The string constants, f-string parts included, that word the check."""
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(w in node.value for w in WORDINGS)
    ]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "errors"))
def test_only_errors_words_the_integer_check(module):
    found = copied_checks(ast.parse((SRC / f"{module}.py").read_text()))
    assert found == [], f"{module} words the integer check again: {found}; call errors.check_int"


def test_the_guard_sees_a_copied_check():
    copy = 'def f(m):\n    if m < 1:\n        raise ValueError(f"m must be >= 1, got {m}")\n'
    assert copied_checks(ast.parse(copy)) == ["m must be >= 1, got "]
    assert copied_checks(ast.parse((SRC / "errors.py").read_text()))
