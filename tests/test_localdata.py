"""Each local count is computed once per call, and bad moduli are refused."""

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
from iosc.sseries import singular_series_partial
from iosc.zeta import compa_check, ord_distribution, ord_volumes, poincare_relation


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
    assert counted == {(3, m, None): 1 for m in range(1, 6)}


def test_poincare_relation_counts_each_level_once(counted):
    ok, _, _ = poincare_relation(S("x1*x2", n=2), 3, 4)
    assert ok
    assert counted == {(3, m, None): 1 for m in range(1, 6)}


def test_singular_series_counts_each_prime_power_once(counted):
    singular_series_partial(S("x1^2+x2^2", n=2), 1, 12)
    want = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1)]
    assert counted == {(p, m, None): 1 for p, m in want}


def test_no_count_outlives_its_call(counted):
    spec = S("x1^2-x2^3", n=2)
    assert ord_distribution(spec, 3, 3) == ord_distribution(spec, 3, 3)
    assert E_counts(spec, 1, 3, 2) == E_counts(spec, 1, 3, 2)
    assert counted == {(3, 1, None): 4, (3, 2, None): 4, (3, 3, None): 2}


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
