"""Each call counts its local data in one walk per prime, at its top
order, and bad moduli and ranks are refused."""

from collections import Counter

import numpy as np
import pytest

from iosc import cli, ringcount
from iosc.expsum import E_charsum, E_counts, phase_histogram
from iosc.poly import IdealSpec, parse_poly
from iosc.ringcount import (
    Full,
    LocalData,
    Region,
    UnitModP,
    ZeroModP,
    count_ff_raw,
    count_points_raw,
    eval_poly_mod,
)
from iosc.sseries import (
    E_composite,
    irreducibility_probe,
    p_adic_density,
    singular_series_partial,
)
from iosc.zeta import (
    compa_check,
    ord_distribution,
    ord_volumes,
    poincare_relation,
    pole_report,
    theta_probe,
)


def S(*texts, n):
    return IdealSpec.from_gens([parse_poly(t, n) for t in texts])


@pytest.fixture
def counted(monkeypatch):
    """Counter of (p, m, region) over every count_zpm call."""
    calls = Counter()
    orig = ringcount.count_zpm

    def count_zpm(spec, p, m, region=None, *args, **kwargs):
        calls[p, m, region] += 1
        return orig(spec, p, m, region, *args, **kwargs)

    monkeypatch.setattr(ringcount, "count_zpm", count_zpm)
    return calls


def test_zeta_command_counts_each_level_once(counted, capsys):
    argv = ["zeta", "--gens", "x1*x2", "-n", "2", "-p", "3", "--max-order", "4",
            "--reconstruct"]
    assert cli.main(argv) == 0
    # the series identity reads V up to max(2, M) + 1 = 5
    assert counted == {(3, 5, None): 1}


def test_a_zeta_command_walks_the_tree_once(counted, monkeypatch, capsys):
    # N(1..7) from one walk at order 7, charged what a count of order 7
    # alone is charged
    real, points = ringcount.charge, []

    def charge(needed, budget, what="enumeration"):
        points.append(needed)
        real(needed, budget, what)

    monkeypatch.setattr(ringcount, "charge", charge)
    argv = ["zeta", "--gens", "x1^2*x2-x3^2", "-n", "3", "-p", "7", "--max-order", "6",
            "--reconstruct"]
    assert cli.main(argv) == 0
    assert counted == {(7, 7, None): 1}
    walk = sum(points)
    points.clear()
    count_points_raw([parse_poly("x1^2*x2-x3^2", 3)], 3, 7, 7)
    assert walk == sum(points) == 40_335


def test_poincare_relation_counts_each_level_once(counted):
    ok, _, _ = poincare_relation(S("x1*x2", n=2), 3, 4)
    assert ok
    assert counted == {(3, 5, None): 1}


def test_singular_series_counts_each_prime_power_once(counted):
    singular_series_partial(S("x1^2+x2^2", n=2), 1, 12)
    # each prime's largest k with p^k <= 12
    want = [(2, 3), (3, 2), (5, 1), (7, 1), (11, 1)]
    assert counted == {(p, m, None): 1 for p, m in want}


def test_no_count_outlives_its_call(counted):
    spec = S("x1^2-x2^3", n=2)
    assert ord_distribution(spec, 3, 3) == ord_distribution(spec, 3, 3)
    assert E_counts(spec, 1, 3, 2) == E_counts(spec, 1, 3, 2)
    assert counted == {(3, 3, None): 2, (3, 2, None): 2}


def test_count_both_still_runs_the_naive_route(monkeypatch, capsys):
    naive = Counter()
    orig = ringcount._count_naive

    def count_naive(*args):
        naive["calls"] += 1
        return orig(*args)

    monkeypatch.setattr(ringcount, "_count_naive", count_naive)
    argv = ["count", "--gens", "x1*x2", "-n", "2", "-p", "3", "-m", "2", "--method", "both"]
    assert cli.main(argv) == 0
    assert naive["calls"] == 1


def test_local_data_matches_the_public_routes():
    spec = S("x1^2*x2-x3^2", n=3)
    data = LocalData(spec, 3)
    assert data.N(0) == 27
    assert [data.E(1, m) for m in (1, 2, 3)] == [E_counts(spec, 1, 3, m) for m in (1, 2, 3)]


@pytest.mark.parametrize(
    "Z,equations",
    [
        (None, []),
        # over F_3 a coordinate is a unit exactly when its square is 1
        (Region(2, (((0, 1), UnitModP()), ((1, 2), Full()))), ["x1^2-1"]),
        (Region(2, (((0, 2), ZeroModP()),)), ["x1", "x2"]),
    ],
    ids=["None", "Z1", "Z2"],
)
def test_compa_counts_in_the_callers_region(Z, equations):
    # reference: every volume counted in Z cap X, as the identity states it,
    # with Z cap X the reduction locus of X's equations and Z's own
    spec = S("x1^2*x2-x2^3", n=2)
    cap = Region.reduction_in(spec.generators + [parse_poly(e, 2) for e in equations])
    vols = ord_volumes(spec, 3, 5, cap)
    c = [vols[m] - vols[m + 1] for m in range(5)]
    res = compa_check(spec, 1, 3, 4, Z)
    assert res.ok
    assert res.lhs.coeffs == tuple([c[0]] + [c[m] - c[m - 1] / 3 for m in range(1, 5)])


# -- moduli from outside the program ------------------------------------------------

BAD = [(1, 2), (0, 1), (-3, 1), (6, 1), (9, 1), (3, 0), (1 << 31, 1)]


@pytest.mark.parametrize("p,m", BAD)
def test_bad_modulus_is_refused(p, m):
    spec = S("x1^2", n=1)
    f = spec.generators[0]
    calls = [
        lambda: count_points_raw([f], 1, p, m),
        lambda: count_ff_raw([f], 1, p, m),
        lambda: phase_histogram(f, p, m),
        lambda: E_charsum(spec, 1, p, m),
        lambda: LocalData(spec, p).E(1, m),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--gens", "x1^2", "-n", "1", "-p", "1", "-m", "2", "--method", "lift"],
        ["count", "--gens", "x1^2", "-n", "1", "-p", "1", "-m", "2"],
        ["count", "--gens", "x1^2", "-n", "1", "-p", "0", "-m", "2"],
        ["expsum", "--gens", "x1^2", "-n", "1", "-p", "6", "-m", "1", "--verify"],
        ["zeta", "--gens", "x1^2", "-n", "1", "-p", "4", "--max-order", "3"],
        ["sseries", "--gens", "x1^2", "-n", "1", "--irreducible", "--primes", "5,9"],
    ],
)
def test_bad_modulus_exits_2(argv, capsys):
    assert cli.main(argv) == 2


@pytest.mark.parametrize("r", [0, -1])
def test_a_rank_below_one_is_refused(r):
    # no primitive r-tuple exists for r < 1, and p ** r is a float for r < 0
    spec = S("x1^2+x2^2", n=2)
    calls = [
        lambda: LocalData(spec, 5).E(r, 2),
        lambda: E_counts(spec, r, 5, 2),
        lambda: compa_check(spec, r, 5, 2),
        lambda: theta_probe(spec, r, 5, 3),
        lambda: pole_report(spec, r, 5, 4),
        lambda: singular_series_partial(spec, r, 5),
        lambda: E_composite(spec, r, 6),
        lambda: p_adic_density(spec, r, 5, 2),
        lambda: irreducibility_probe(spec, r, [5, 7]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="r must be >= 1"):
            call()


@pytest.mark.parametrize("r", [1.0, 1.5, True])
def test_a_non_integer_rank_is_refused(r):
    # a float r would give float values, and r = True would count as r = 1
    spec = S("x1^2+x2^2", n=2)
    calls = [
        lambda: LocalData(spec, 5).E(r, 2),
        lambda: E_counts(spec, r, 5, 2),
        lambda: compa_check(spec, r, 5, 2),
        lambda: theta_probe(spec, r, 5, 3),
        lambda: pole_report(spec, r, 5, 4),
        lambda: singular_series_partial(spec, r, 5),
        lambda: E_composite(spec, r, 6),
        lambda: p_adic_density(spec, r, 5, 2),
        lambda: irreducibility_probe(spec, r, [5, 7]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="r must be an integer"):
            call()


def test_int64_bound_is_checked():
    f = parse_poly("x1^2", 1)
    q = (1 << 31) - 1
    pts = np.array([[q - 1]], dtype=np.int64)
    assert eval_poly_mod(f, pts, q).tolist() == [1]
    for big in (1 << 31, 3 ** 21):  # int64 would silently wrap at 3^21
        with pytest.raises(ValueError):
            eval_poly_mod(f, np.array([[big - 1]], dtype=np.int64), big)
    # --force lifts the budget, not the int64 bound
    argv = ["count", "--gens", "x1^2", "-n", "1", "-p", "2", "-m", "31",
            "--method", "naive", "--force"]
    assert cli.main(argv) == 2
