"""Property tests: independent counting routes agree on random small ideals."""

from hypothesis import assume, given, strategies as st

from iosc.poly import Poly
from iosc.ringcount import Region, count_points_raw


@st.composite
def small_ideals(draw):
    """(gens, n, p, m) with a naive grid of at most 729 points.

    Generators may be constant or zero, and one may be squared, so
    non-reduced ideals are drawn too.
    """
    n = draw(st.integers(1, 2))
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    poly = st.dictionaries(monomial, st.integers(-4, 4), max_size=3).map(
        lambda terms: Poly(n, terms)
    )
    gens = draw(st.lists(poly, min_size=1, max_size=2))
    if draw(st.booleans()):
        gens[0] = gens[0] * gens[0]
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    assume((p ** m) ** n <= 729)
    return gens, n, p, m


@given(small_ideals(), st.booleans())
def test_lift_equals_naive(ideal, in_reduction):
    gens, n, p, m = ideal
    region = Region.reduction_in(gens) if in_reduction else None
    lift = count_points_raw(gens, n, p, m, region, method="lift")
    assert lift == count_points_raw(gens, n, p, m, region, method="naive")


@given(small_ideals())
def test_reduction_region_is_implied_at_every_level(ideal):
    # ord_I(x) >= m >= 1 forces x mod p into the zero locus mod p, so
    # restricting to that locus changes no count
    gens, n, p, m = ideal
    region = Region.reduction_in(gens)
    assert count_points_raw(gens, n, p, m, region, method="naive") == count_points_raw(
        gens, n, p, m, method="naive"
    )
