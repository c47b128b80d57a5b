"""Property tests: independent counting routes agree on random small ideals."""

from hypothesis import assume, given, strategies as st

from iosc.poly import Poly
from iosc.ringcount import (
    Full,
    PrimitiveBlock,
    Region,
    UnitModP,
    ZeroModP,
    count_ff_raw,
    count_points_raw,
)


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


@st.composite
def deep_ideals(draw):
    """(gens, n, p, m) at p in {2, 3} and m up to 6, with a grid of at
    most 4096 points.

    Terms have no linear part and coefficients may be divisible by p, so
    zeros are often singular and the residue tree goes several levels deep.
    """
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 6))
    assume((p ** m) ** n <= 4096)
    monomial = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) != 1)
    poly = st.dictionaries(monomial, st.integers(-9, 9), min_size=1, max_size=3).map(
        lambda terms: Poly(n, terms)
    )
    gens = draw(st.lists(poly, min_size=1, max_size=2))
    if draw(st.booleans()):
        gens[0] = gens[0] * draw(poly)
    return gens, n, p, m


@given(deep_ideals())
def test_lift_equals_naive_on_deep_trees(ideal):
    gens, n, p, m = ideal
    lift = count_points_raw(gens, n, p, m, method="lift")
    assert lift == count_points_raw(gens, n, p, m, method="naive")


def product_regions(n):
    """A region over n coordinates: a mode per coordinate, or one
    primitive block over all of them."""
    per_coordinate = st.lists(
        st.sampled_from([Full, ZeroModP, UnitModP]), min_size=n, max_size=n
    ).map(
        lambda modes: Region(
            n, tuple(((i, i + 1), mode()) for i, mode in enumerate(modes))
        )
    )
    return per_coordinate | st.just(Region(n, (((0, n), PrimitiveBlock()),)))


@given(st.one_of(small_ideals(), deep_ideals()), st.data())
def test_lift_equals_naive_in_product_regions(ideal, data):
    gens, n, p, m = ideal
    region = data.draw(product_regions(n))
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


# a fixed non-residue c per p, so that F_{p^2} = F_p[t] / (t^2 - c)
NONRESIDUE = {3: 2, 5: 2, 7: 3}


def weil_restriction(g, n, c):
    """The t^0 and t^1 parts of g(a + b t) mod t^2 - c, in the 2n variables (a, b)."""
    nv = 2 * n + 1
    t = Poly.var(2 * n, nv)
    h = g.eval_poly([Poly.var(j, nv) + Poly.var(n + j, nv) * t for j in range(n)])
    parts = [{}, {}]
    for expo, coeff in h.terms.items():
        e = expo[-1]
        part = parts[e % 2]
        part[expo[:-1]] = part.get(expo[:-1], 0) + coeff * c ** (e // 2)
    return [Poly(2 * n, terms) for terms in parts]


@given(small_ideals(), st.sampled_from(sorted(NONRESIDUE)))
def test_count_ff_degree_2_equals_its_weil_restriction(ideal, p):
    # a table-free route: a point of F_{p^2}^n is a point of F_p^{2n}
    gens, n, _, _ = ideal
    parts = [part for g in gens for part in weil_restriction(g, n, NONRESIDUE[p])]
    assert count_ff_raw(gens, n, p, 2) == count_points_raw(parts, 2 * n, p, 1, method="naive")
