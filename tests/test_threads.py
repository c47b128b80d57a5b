"""Every entry point that folds through ringcount.map_sum gives the same
result on one thread and on two, with the grid cut into many chunks."""

import pytest

from iosc import ringcount
from iosc.circle import BoxSpec, count_box_solutions
from iosc.expsum import E_charsum, ff_char_sum, phase_histogram, torus_sum_check
from iosc.poly import IdealSpec, Weight, parse_poly
from iosc.ringcount import ReductionIn, Region, count_ff, count_zpm, dim_estimate
from iosc.sseries import verify_multiplicativity


def P(text, n):
    return parse_poly(text, n)


def S(*texts, n):
    return IdealSpec.from_gens([P(t, n) for t in texts])


ENTRY_POINTS = {
    "count_zpm-naive": lambda t: count_zpm(
        S("x1*x2-x3^2", n=3), 3, 2, method="naive", threads=t
    ),
    # x1^2*x2 | x3 splits, so every tree node scans the half grids (Z/3)^2
    # and Z/3, in 2 chunks and 1
    "count_zpm-lift": lambda t: count_zpm(
        S("x1^2*x2-x3^2", n=3), 3, 4, method="lift", threads=t
    ),
    "count_ff-k2": lambda t: count_ff(S("x1^2-x2^3", n=2), 3, 2, threads=t),
    "phase_histogram": lambda t: phase_histogram(
        P("x1*x2^2+x2", 2), 3, 2, Region.primitive_then_full(1, 1), threads=t
    ),
    "E_charsum": lambda t: E_charsum(S("x1^2+x2^3", n=2), 1, 3, 2, threads=t),
    "verify_multiplicativity": lambda t: verify_multiplicativity(
        S("x1^2+x2", n=2), 1, 2, 3, threads=t
    ),
    "ff_char_sum": lambda t: ff_char_sum(P("x1^3+x2^3", 2), None, 2, 3, s=0, threads=t),
    "torus_sum_check": lambda t: torus_sum_check(
        P("x1*x2", 2), P("x1", 2), Weight((2, 1)), 3, 2, threads=t
    ),
    # the four variables form one block, so the zero test scans the whole
    # box of 11^4 points: 2,092 chunks of 7, the last one short
    "count_box_solutions": lambda t: count_box_solutions(
        S("x1*x2+x2*x3+x3*x4-x4*x1", n=4), BoxSpec.cube(4), 5, threads=t
    ),
    # two generators never split, so the zero test scans the whole box
    "count_box_solutions-r2": lambda t: count_box_solutions(
        S("x1^2+x2^2-x3^2-x4^2", "x1*x3-x2*x4", n=4), BoxSpec.cube(4), 3, threads=t
    ),
    # F_4 and F_9 as well as F_2 and F_3
    "dim_estimate-k2": lambda t: dim_estimate(
        S("x1^2*x2-x3^2", n=3), primes=(2, 3), maxk=2, threads=t
    ),
    # two groups in Z/3, x1*x2*x3 and the suffix's x4^2, fold in 6 bins
    # within each chunk's 6 rows
    "phase_histogram-fold": lambda t: phase_histogram(P("x1*x2*x3+x4^2", 4), 3, 1, threads=t),
    "Region.count_mod_p": lambda t: Region(
        3, (((0, 2), ReductionIn((P("x1^2+x2^2-1", 2),))), ((2, 3), ReductionIn((P("x1", 1),))))
    ).count_mod_p(7, threads=t),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_one_and_two_threads_agree(name, monkeypatch):
    monkeypatch.setattr(ringcount, "CHUNK", 7)
    one, two = ENTRY_POINTS[name](1), ENTRY_POINTS[name](2)
    assert one == two
    assert one is not False  # the identity checks hold, not just agree
