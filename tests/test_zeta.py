import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from iosc.errors import ZeroIdealError
from iosc.poly import IdealSpec, Poly, parse_poly
from iosc.zeta import (
    QSeries,
    RationalFunc,
    compa_check,
    ord_distribution,
    ord_volumes,
    poincare_relation,
    pole_report,
    rational_reconstruct,
    theta_probe,
    zeta_series,
)


def P(text, n):
    return parse_poly(text, n)


def S(*texts, n):
    return IdealSpec.from_gens([P(t, n) for t in texts])


F = Fraction


# -- ord distribution -----------------------------------------------------------


def test_ord_distribution_linear():
    d = ord_distribution(S("x1", n=1), 3, 3)
    assert d.coeffs[0] == F(2, 3)
    assert d.coeffs[1] == F(2, 9)
    assert d.coeffs[2] == F(2, 27)
    assert d.coeffs[3] == F(1, 27)  # tail mass vol{ord >= 3}
    assert d.tail_index == 3


def test_ord_distribution_square():
    d = ord_distribution(S("x1^2", n=1), 3, 3)
    assert d.coeffs[0] == F(2, 3)
    assert d.coeffs[1] == 0
    assert d.coeffs[2] == F(2, 9)


def test_zero_ideal_guard():
    with pytest.raises(ZeroIdealError):
        IdealSpec.from_gens([P("1 - 1", 1)])


def test_total_measure():
    rng = random.Random(8)
    for _ in range(8):
        n = rng.randint(1, 2)
        f = Poly(
            n,
            {
                tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)
                for _ in range(2)
            },
        )
        if f.is_zero() or f.is_constant():
            continue
        spec = IdealSpec.from_gens([f])
        p = rng.choice([2, 3])
        M = 3
        d = ord_distribution(spec, p, M)
        assert sum(d.coeffs) == 1  # c_0..c_{M-1} plus the tail mass


# -- compa identity --------------------------------------------------------------


@pytest.mark.parametrize(
    "gens,n,r,p,M",
    [
        (("x1",), 1, 1, 3, 4),
        (("x1^2",), 1, 1, 2, 4),
        (("x1*x2",), 2, 1, 3, 3),
    ],
)
def test_compa_examples(gens, n, r, p, M):
    res = compa_check(S(*gens, n=n), r, p, M)
    assert res.ok


def test_compa_random_corpus():
    rng = random.Random(4242)
    done = 0
    while done < 12:
        n = rng.randint(1, 2)
        gens = []
        for _ in range(rng.randint(1, 2)):
            f = Poly(
                n,
                {
                    tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)
                    for _ in range(2)
                },
            )
            if not f.is_zero() and not f.is_constant():
                gens.append(f)
        if not gens:
            continue
        spec = IdealSpec.from_gens(gens)
        p = rng.choice([2, 3])
        res = compa_check(spec, spec.r, p, 4)
        assert res.ok, (gens, p)
        done += 1


def test_poincare_relation():
    for gens, n, p in [(("x1",), 1, 3), (("x1^2",), 1, 3), (("x1*x2",), 2, 2)]:
        ok, pser, zser = poincare_relation(S(*gens, n=n), p, 4)
        assert ok


# -- rational reconstruction ---------------------------------------------------------


def test_reconstruct_geometric():
    coeffs = [F(2, 3) * F(1, 3) ** m for m in range(6)]
    rec = rational_reconstruct(coeffs, 2)
    assert rec.flag == "ok"
    assert rec.func.numer == (F(2, 3),)
    assert rec.func.denom == (F(1), F(-1, 3))


def test_reconstruct_constant_one():
    rec = rational_reconstruct([F(1)] * 5, 2)
    assert rec.flag == "ok"
    assert rec.func.numer == (F(1),)
    assert rec.func.denom == (F(1), F(-1))


def test_reconstruct_insufficient_data():
    rng = random.Random(55)
    coeffs = [F(rng.randint(1, 100), rng.randint(1, 9)) for _ in range(5)]
    rec = rational_reconstruct(coeffs, 10)
    assert rec.func is None
    assert rec.flag == "insufficient-data"


def test_reconstruct_no_recurrence_within_bound():
    # primes are not a rational sequence of tiny order
    coeffs = [F(c) for c in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)]
    rec = rational_reconstruct(coeffs, 2)
    assert rec.func is None
    assert rec.flag == "no-recurrence"


def test_reconstruct_roundtrip_random_rational():
    rng = random.Random(77)
    for _ in range(10):
        ddeg = rng.randint(1, 3)
        denom = [F(1)] + [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(ddeg)]
        numer = [F(rng.randint(-3, 3)) for _ in range(rng.randint(1, ddeg))]
        func = RationalFunc(tuple(numer), tuple(denom))
        coeffs = func.expand(2 * (ddeg + 1) + 3)
        rec = rational_reconstruct(coeffs, ddeg + 1)
        assert rec.flag == "ok"
        assert rec.func.expand(len(coeffs) - 1) == coeffs


def _polymul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.lists(small_fractions, min_size=1, max_size=4), st.lists(small_fractions, max_size=3))
def test_reconstruct_returns_the_function_within_its_degree(numer, denom_tail):
    func = RationalFunc(tuple(numer), (F(1), *denom_tail))
    degree = max(len(numer), len(denom_tail))
    rec = rational_reconstruct(func.expand(2 * degree), degree)
    assert rec.flag == "ok" and rec.order <= degree
    # numer / denom == rec.numer / rec.denom as rational functions
    assert _polymul(func.numer, rec.func.denom) == _polymul(rec.func.numer, func.denom)


def test_reconstruct_zeta_of_line():
    z = zeta_series(S("x1", n=1), 3, 6)
    rec = rational_reconstruct(z, 2)
    assert rec.flag == "ok"
    assert rec.func.expand(10)[:7] == list(z.coeffs)
    # (2/3) / (1 - t/3)
    assert rec.func.numer == (F(2, 3),)
    assert rec.func.denom == (F(1), F(-1, 3))


def test_qseries_arithmetic_truncates():
    a = QSeries(3, (F(1), F(2), F(3)))
    b = QSeries(3, (F(1), F(1)))
    assert (a + b).coeffs == (F(2), F(3))
    assert (a * b).coeffs == (F(1), F(3))


# -- theta probe ------------------------------------------------------------------


def test_theta_smooth_point_stabilizes():
    rep = theta_probe(S("x1", n=1), 1, 3, 4)
    assert all(t == 0 for t in rep.terms)
    assert rep.verdict == "decaying"
    assert rep.partial_sums[-1] == 1


def test_theta_square_grows():
    rep = theta_probe(S("x1^2", n=1), 1, 3, 6)
    assert rep.verdict == "growing"
    # partial sums telescope to p^{-m(n-r)} N_m = N_m here
    assert rep.partial_sums[-1] == 27


def test_theta_quadric_cone_decays():
    rep = theta_probe(S("x1^2 + x2^2 + x3^2", n=3), 1, 5, 4)
    assert rep.verdict == "decaying"


def test_theta_normal_crossing_stalls():
    # x1 x2 at p = 3: every term is 2/3, so the last two have ratio 1
    rep = theta_probe(S("x1*x2", n=2), 1, 3, 6)
    assert rep.terms == (F(2, 3),) * 6
    assert rep.verdict == "stalled"


def test_theta_partial_sums_match_density():
    from iosc.ringcount import count_zpm

    spec = S("x1^2 + x2^2 + x3^2", n=3)
    p, r, M = 5, 1, 4
    rep = theta_probe(spec, r, p, M)
    for m in range(1, M + 1):
        nm = count_zpm(spec, p, m)
        assert rep.partial_sums[m] == F(nm, p ** (m * (3 - r)))


# -- pole report ---------------------------------------------------------------------


def test_pole_report_line():
    rep = pole_report(S("x1", n=1), 1, 3, 8, max_order=2)
    assert rep.status == "ok"
    assert rep.multiplicity in (0, 1)


# (1 - t/3)^2 and (1 - t/7)^2 (1 + t/7)
SQUARE_3 = (F(1), F(-2, 3), F(1, 9))
SQUARE_7_TIMES = (F(1), F(-1, 7), F(-1, 49), F(1, 343))


@pytest.mark.parametrize(
    "denom, t0, mult",
    [
        (SQUARE_3, F(3), 2),
        (SQUARE_3, F(1, 3), 0),
        (SQUARE_7_TIMES, F(7), 2),
        (SQUARE_7_TIMES, F(-7), 1),
        (SQUARE_7_TIMES, F(1, 7), 0),
    ],
)
def test_a_denominator_root_is_divided_out_once_per_multiplicity(denom, t0, mult):
    assert RationalFunc((F(1),), denom).denominator_root_multiplicity(t0) == mult


def test_pole_report_abstains_without_data():
    rep = pole_report(S("x1^2 + x2^3", n=2), 1, 2, 4, max_order=1)
    # short series from a genuinely higher-order zeta: must abstain, not lie
    if rep.status == "abstain":
        assert rep.reconstruction.func is None
    else:
        assert rep.multiplicity is not None


# -- truncation order ------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, M: ord_volumes(spec, 3, M),
        lambda spec, M: ord_distribution(spec, 3, M),
        lambda spec, M: zeta_series(spec, 3, M),
        lambda spec, M: poincare_relation(spec, 3, M),
        lambda spec, M: pole_report(spec, 1, 3, M),
    ],
    ids=["ord_volumes", "ord_distribution", "zeta_series", "poincare_relation", "pole_report"],
)
@pytest.mark.parametrize("M", [-1, -2])
def test_negative_order_is_rejected(call, M):
    with pytest.raises(ValueError, match="M must be >= 0"):
        call(S("x1^2", n=1), M)


@pytest.mark.parametrize("M", [2.5, 4.0, True])
def test_a_non_integer_order_is_refused(M):
    # a float M would reach the counts as a float order, and True as 1
    spec = S("x1^2", n=1)
    calls = [ord_volumes, ord_distribution, zeta_series, poincare_relation]
    calls += [lambda spec, p, M: pole_report(spec, 1, p, M),
              lambda spec, p, M: theta_probe(spec, 1, p, M)]
    for call in calls:
        with pytest.raises(ValueError, match="M must be an integer"):
            call(spec, 3, M)


def test_order_zero_is_the_total_volume():
    spec = S("x1^2", n=1)
    assert ord_distribution(spec, 3, 0).coeffs == (F(1),)
    assert zeta_series(spec, 3, 0).coeffs == (F(2, 3),)
