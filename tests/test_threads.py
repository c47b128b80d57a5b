"""Every entry point that folds through ringcount.map_sum gives the same
result on one thread and on two, with the grid cut into many chunks."""

import pytest

from iosc import ringcount
from iosc.circle import BoxSpec, count_box_solutions
from iosc.expsum import E_charsum, ff_char_sum, phase_histogram, torus_sum_check
from iosc.poly import IdealSpec, Weight, parse_poly
from iosc.ringcount import ReductionIn, Region, count_ff, count_zpm
from iosc.sseries import verify_multiplicativity


def P(text, n):
    return parse_poly(text, n)


def S(*texts, n):
    return IdealSpec.from_gens([P(t, n) for t in texts])


ENTRY_POINTS = {
    "count_zpm-naive": lambda t: count_zpm(
        S("x1*x2-x3^2", n=3), 3, 2, method="naive", threads=t
    ),
    # the lift scans one grid per call, 5 chunks of (Z/3)^3 per tree node
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
    # 61^4 points: above the 2^23 suffix limit, so the prefix is batched
    "count_box_solutions": lambda t: count_box_solutions(
        S("x1^2+x2^2+x3^2-x4^2", n=4), BoxSpec.cube(4), 30, threads=t
    ),
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
