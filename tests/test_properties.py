"""Property tests: independent counting routes agree on random small ideals."""

import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from iosc import ringcount
from iosc.circle import BoxSpec, count_box_solutions
from iosc.expsum import ff_char_sum, residue_histogram, value_histogram
from iosc.gf import GFTable
from iosc.errors import DEFAULT_BUDGET, BudgetExceeded, Meter
from iosc.poly import IdealSpec, Poly, eval_mod, parse_poly
from iosc.ringcount import (
    Full,
    Grid,
    Int64,
    ModQ,
    PrimitiveBlock,
    ReductionIn,
    Region,
    UnitModP,
    ZeroModP,
    ZeroScan,
    _count_naive,
    _full_rank,
    count_ff_raw,
    count_points_raw,
    digits,
    eval_rows,
    factorize,
)


# chunk sizes that cut the box at every axis and leave a short last block
# of prefix points
CHUNKS = [1, 7, 50]


def check_lift(gens, n, p, m, region=None, chunk=ringcount.CHUNK):
    """The lift count, with CHUNK = chunk, against the naive count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringcount, "CHUNK", chunk)
        lift = count_points_raw(gens, n, p, m, region, method="lift")
    assert lift == count_points_raw(gens, n, p, m, region, method="naive")


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
    check_lift(*ideal)


@st.composite
def monomial_unit_ideals(draw):
    """(gens, n, p, m) with 1-2 generators p^k y^a (c + t w(y)), c a unit
    mod p, k in {0, 1, 2}, and a grid of at most 4096 points.

    With t = p a generator is a monomial times a unit, the node the lift
    counts by its valuation sum, and so are its children; a factor p^k
    gives two generators different targets, so one of them drops out
    below the root.  With t = 1 the terms of w are units too, so a node
    that only looks like a monomial times a unit is drawn as well.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    assume((p ** m) ** n <= 4096)
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    unit = st.integers(-9, 9).filter(lambda c: c % p)

    def generator():
        w = Poly(n, draw(st.dictionaries(monomial, st.integers(-3, 3), max_size=2)))
        unit_part = w * draw(st.sampled_from([p, 1])) + draw(unit)
        return Poly(n, {draw(monomial): p ** draw(st.integers(0, 2))}) * unit_part

    return [generator() for _ in range(draw(st.integers(1, 2)))], n, p, m


@given(monomial_unit_ideals())
def test_lift_equals_naive_on_monomials_times_units(ideal):
    gens, n, p, m = ideal
    count_points_raw(gens, n, p, m, method="both")


@st.composite
def offset_ideals(draw):
    """(gens, n, p, M, region) with 1-3 generators p^k g, k in {0, 1, 2},
    and naive grids of at most 4096 points at every order up to M.

    The factors p^k give the generators unequal offsets at the root (3*x1
    at p = 3 has offset 1), and a later generator may share the earlier
    ones' terms, so that a node's zeros of its lowest-offset constraints
    are often zeros of the others too, with a dependent Jacobian.  The
    region, when drawn, is the reduction locus of a random non-constant
    polynomial, so it also cuts the orders up to the least root offset.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    M = draw(st.integers(1, 4))
    assume((p ** M) ** n <= 4096)
    monomial = st.tuples(*[st.integers(0, 2)] * n)
    poly = st.dictionaries(monomial, st.integers(-3, 3), min_size=1, max_size=3).map(
        lambda terms: Poly(n, terms)
    )
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(poly)
        if gens and draw(st.booleans()):
            g = g * gens[-1] if draw(st.booleans()) else g + gens[-1]
        gens.append(g * p ** draw(st.integers(0, 2)))
    region = None
    if draw(st.booleans()):
        region = Region.reduction_in([draw(poly.filter(lambda f: not f.is_constant()))])
    return gens, n, p, M, region


@given(offset_ideals())
def test_one_walk_counts_every_order_as_the_naive_route(ideal):
    gens, n, p, M, region = ideal
    walk = count_points_raw(gens, n, p, M, region, orders=True)
    assert walk == tuple(
        count_points_raw(gens, n, p, m, region, method="naive") for m in range(1, M + 1)
    )


# a node's Jacobian is read across chunk boundaries, for r = 2 too
@pytest.mark.parametrize("chunk", CHUNKS)
@given(deep_ideals())
def test_lift_equals_naive_on_deep_trees_at_every_chunk_size(chunk, ideal):
    check_lift(*ideal, chunk=chunk)


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
    check_lift(*ideal, data.draw(product_regions(ideal[1])))


@pytest.mark.parametrize("chunk", CHUNKS)
@given(st.one_of(small_ideals(), deep_ideals()), st.data())
def test_lift_equals_naive_in_product_regions_at_every_chunk_size(chunk, ideal, data):
    check_lift(*ideal, data.draw(product_regions(ideal[1])), chunk=chunk)


@given(small_ideals())
def test_reduction_region_is_implied_at_every_level(ideal):
    # ord_I(x) >= m >= 1 forces x mod p into the zero locus mod p, so
    # restricting to that locus changes no count
    gens, n, p, m = ideal
    region = Region.reduction_in(gens)
    assert count_points_raw(gens, n, p, m, region, method="naive") == count_points_raw(
        gens, n, p, m, method="naive"
    )


# -- the lift's scan cache ------------------------------------------------------


def check_scans(gens, n, p, m, budget=DEFAULT_BUDGET):
    """The lift's counts N(1..m), each scan it takes from its cache checked
    against a fresh _scan_zeros of the node's own constraints, and the
    (scans, distinct keys, lookups) of the walk.

    A key is the constraints' terms mod p in their order, the constraints
    a node needs and whether it is of order 1; the lift must scan once per
    distinct key.  A lookup is a node walked on a cached scan, and a hit
    is one walked on a scan that an earlier node was walked on.
    """
    real_scan, real_walk = ringcount._scan_zeros, ringcount._Lift.walk
    scans, keys, walked = [], [], []

    def scan_zeros(*args):
        scans.append(args)
        return real_scan(*args)

    def walk(lift, active, lo, hi, disks):
        if any(disks is cached for cached in lift.scans.values()):
            gens = [g for g, _ in active]
            need = [j for j, (_, o) in enumerate(active) if o < lo]
            keys.append((
                tuple(tuple(sorted((a, c % p) for a, c in g.terms.items() if c % p)) for g in gens),
                tuple(need),
                hi == 1,
            ))
            if any(disks is d for d in walked):  # a hit: the node's own scan must agree
                fresh = real_scan(gens, need, lift.grid, None, hi)
                assert disks.keys() == fresh.keys()
                for B, (smooth, sing) in fresh.items():
                    assert disks[B][0] == smooth
                    assert np.asarray(disks[B][1]).tolist() == np.asarray(sing).tolist()
            walked.append(disks)
        return real_walk(lift, active, lo, hi, disks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringcount, "_scan_zeros", scan_zeros)
        mp.setattr(ringcount._Lift, "walk", walk)
        counts = count_points_raw(gens, n, p, m, orders=True, budget=budget)
    return counts, (len(scans), len(set(keys)), len(keys))


@st.composite
def walk_ideals(draw):
    """(gens, n, p, M): 1-2 generators with no constant or linear term, in
    2-3 variables, walked for every order up to M <= 6.

    Every zero at the origin is singular, so the walks go deep and reach
    many nodes that agree mod p but not mod p^2; no naive count bounds
    the grid.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 3))
    M = draw(st.integers(2, 6))
    monomial = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) >= 2)
    poly = st.dictionaries(monomial, st.integers(-9, 9), min_size=1, max_size=3).map(
        lambda terms: Poly(n, terms)
    )
    return draw(st.lists(poly, min_size=1, max_size=2)), n, p, M


@given(walk_ideals())
def test_a_cached_scan_is_the_nodes_own_scan(ideal):
    try:
        _, (scans, keys, _) = check_scans(*ideal, budget=10 ** 6)
    except BudgetExceeded:
        assume(False)
    assert scans == keys


# the pinned ideals: top count N(M), and the (scans, distinct keys,
# lookups) of the walk of every order up to M
PINNED_SCANS = [
    # the umbrella's 775 region-free scanned nodes reduce to 17 keys mod 7
    ("x1^2*x2-x3^2", 3, 7, 10, 421759121858806291, (17, 17, 775)),
    ("x1^2*x2-x3^2", 3, 5, 3, 28125, (5, 5, 5)),
    # closed form at the root: nothing is scanned
    ("x1*x2*x3", 3, 5, 8, 4644775390625, (0, 0, 0)),
    ("x1^2+x1^3", 1, 2, 40, 2 ** 20 + 1, (1, 1, 1)),
    ("x1^2+x2^2-x3^2-x4^2,x1*x3-x2*x4", 4, 5, 2, 4225, (13, 13, 13)),
    ("x1*x2,x2*x3", 3, 5, 4, 468625, (47, 47, 308)),
    ("x1*x2+x3*x4,x1*x3", 4, 3, 3, 6561, (21, 21, 22)),
]


@pytest.mark.parametrize("text, n, p, M, top, walk", PINNED_SCANS)
def test_a_cached_scan_is_the_nodes_own_scan_on_the_pinned_ideals(text, n, p, M, top, walk):
    gens = [parse_poly(g, n) for g in text.split(",")]
    counts, scans = check_scans(gens, n, p, M)
    assert (counts[-1], scans) == (top, walk)


# -- the lift's compiled Taylor shift --------------------------------------------


@st.composite
def shifted_nodes(draw):
    """(constraints, n, p, lo, hi, zeros): a node of 1-2 constraints (h, o)
    in n <= 3 variables, each of degree <= 4 with a coefficient prime to p
    and others that p may divide, all shifted (o < hi - 1), and 2-3 points
    of [0, p)^n to shift them at."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    hi = draw(st.integers(2, 6))
    monomial = st.tuples(*[st.integers(0, 4)] * n).filter(lambda e: 0 < sum(e) <= 4)
    coeff = st.tuples(st.integers(-9, 9), st.integers(0, 2)).map(lambda t: t[0] * p ** t[1])
    poly = st.dictionaries(monomial, coeff, min_size=1, max_size=4).map(lambda t: Poly(n, t))
    active = draw(st.lists(st.tuples(poly, st.integers(0, hi - 2)), min_size=1, max_size=2))
    for h, _ in active:
        assume(any(c % p for c in h.terms.values()))
    # one constraint that is a monomial times a unit is summed, not shifted
    assume(ringcount._unit_monomial(active, p) is None)
    lo = draw(st.integers(1, hi))
    zeros = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n), min_size=2, max_size=3))
    return active, n, p, lo, hi, zeros


def taylor_shift(h, z0, p, q):
    """The coefficients of h(z0 + p y) mod q, the zero ones dropped, by
    Poly arithmetic."""
    n = h.nvars
    shifted = Poly.zero(n)
    for a, c in h.terms.items():
        term = Poly.const(c, n)
        for i, e in enumerate(a):
            term = term * (Poly.const(z0[i], n) + p * Poly.var(i, n)) ** e
        shifted = shifted + term
    return {b: r for b, c in shifted.terms.items() if (r := c % q)}


@given(shifted_nodes())
def test_the_compiled_shift_is_the_taylor_shift(node):
    # the node is walked on the drawn points, all singular for every
    # constraint, so each child keeps every constraint, shifted there and
    # reduced mod p^(hi - o)
    active, n, p, lo, hi, zeros = node
    lift = ringcount._Lift(Meter.of(10 ** 9), n, p)
    seen = []

    def constraints(polys, top, nvars, p):
        seen.append(list(polys))
        return [], top

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringcount, "_constraints", constraints)
        lift.walk(active, lo, hi, {tuple(range(len(active))): (0, np.array(zeros))})
    assert seen == [
        [(taylor_shift(h, z0, p, p ** (hi - o)), o - 1) for h, o in active] for z0 in zeros
    ]


# -- counts are invariant under GL_n(Z) ----------------------------------------


def substitute(gens, a):
    """The gens composed with x -> a x, for an integer n x n matrix a."""
    n = len(a)
    rows = [Poly(n, {tuple(int(k == j) for k in range(n)): c for j, c in enumerate(row) if c})
            for row in a]
    return [g.eval_poly(rows) for g in gens]


@st.composite
def unimodular(draw, n):
    """An n x n integer matrix of determinant +-1: a signed permutation
    times 0-3 transvections x_i += t x_j with |t| <= 2."""
    order = draw(st.permutations(range(n)))
    a = [[draw(st.sampled_from([1, -1])) if j == order[i] else 0 for j in range(n)]
         for i in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        t = draw(st.integers(-2, 2))
        a[i] = [x + t * y for x, y in zip(a[i], a[j])]
    return a


def check_unimodular(gens, n, p, M, a):
    # x -> a x permutes (Z/p^m)^n for every m, so every N(m) stays
    assert round(abs(np.linalg.det(np.array(a, dtype=float)))) == 1
    assert count_points_raw(substitute(gens, a), n, p, M, orders=True) == count_points_raw(
        gens, n, p, M, orders=True
    )


@given(st.one_of(small_ideals(), deep_ideals(), offset_ideals().map(lambda i: i[:4])), st.data())
def test_counts_are_invariant_under_unimodular_changes_of_coordinates(ideal, data):
    gens, n, p, M = ideal
    check_unimodular(gens, n, p, M, data.draw(unimodular(n)))


@pytest.mark.parametrize("text, n, p, M", [case[:4] for case in PINNED_SCANS])
def test_the_pinned_counts_are_invariant_under_a_unimodular_change(text, n, p, M):
    gens = [parse_poly(g, n) for g in text.split(",")]
    # x1 -> -x1 for n = 1; else x1 += x2, then x2 -= 2 x_n, then x_n += x1
    a = [[-1]] if n == 1 else [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for i, j, t in [(0, 1, 1), (1, n - 1, -2), (n - 1, 0, 1)]:
            a[i] = [x + t * y for x, y in zip(a[i], a[j])]
    check_unimodular(gens, n, p, M, a)


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


@st.composite
def box_polys(draw):
    """(polys, n, p, m): polynomials in n <= 4 variables on the box
    (Z/p^m)^n of at most 1024 points; m = 1 is the lift's scan mod p and
    m > 1 the naive scan mod p^m.  Coefficients exceed the modulus, and
    the zero polynomial and constants are drawn too."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 3))
    assume((p ** m) ** n <= 1024)
    monomial = st.tuples(*[st.integers(0, 4)] * n)
    poly = st.dictionaries(monomial, st.integers(-60, 60), max_size=5).map(
        lambda terms: Poly(n, terms)
    )
    return draw(st.lists(poly, min_size=1, max_size=3)), n, p, m


def check_scan(grid, polys, chunk, value_at, axes):
    """Every chunk of a grid scan against the pointwise value_at(f, point):
    values, zero mask, decoded rows and chunk sizes, and that the chunks
    enumerate the box product(*axes) in row-major order."""
    scan = ZeroScan(grid, polys)
    rows = []
    for c in grid.chunks():
        pts = grid.rows(c, np.arange(math.prod(grid.shape(c)))).tolist()
        assert 1 <= len(pts) <= chunk
        vals = [grid.flat(c, v).tolist() for v in scan.compact(c)]
        assert vals == [[value_at(f, pt) for pt in pts] for f in polys]
        zeros = scan.zeros(c)
        assert zeros.tolist() == [all(v[i] == 0 for v in vals) for i in range(len(pts))]
        where = np.flatnonzero(zeros)
        assert grid.rows(c, where).tolist() == [pts[i] for i in where]
        rows += pts
    assert rows == [list(r) for r in itertools.product(*axes)]


def grid_with_chunk(chunk, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringcount, "CHUNK", chunk)
        return Grid(*args)


@pytest.mark.parametrize("chunk", CHUNKS)
@given(case=box_polys())
def test_grid_kernel_equals_pointwise_evaluation(chunk, case):
    polys, n, p, m = case
    grid = grid_with_chunk(chunk, n, p ** m)
    axes = [range(p ** m)] * n
    check_scan(grid, polys, chunk, lambda f, pt: eval_mod(f, pt, p, m), axes)


def field_value(gf, f, point):
    """f at a point of F_q by scalar table lookups, one multiplication per
    unit of degree, and digitwise sums; an integer coefficient c is the
    code c mod p."""
    acc = 0
    for expo, c in f.terms.items():
        t = c % gf.p
        for x, e in zip(point, expo):
            for _ in range(e):
                t = int(gf.mul_table[t, x])
        # digitwise: the XOR of codes at p = 2, which keeps no add table
        acc = acc ^ t if gf.p == 2 else int(gf.add_table[acc, t])
    return acc


@pytest.mark.parametrize("chunk", CHUNKS)
@given(st.sampled_from([(2, 3), (3, 2), (5, 1)]), st.data())
def test_grid_kernel_over_fields_equals_table_lookups(chunk, field, data):
    p, k = field
    n = data.draw(st.integers(1, 3))
    monomial = st.tuples(*[st.integers(0, 4)] * n)
    poly = st.dictionaries(monomial, st.integers(-20, 20), max_size=5).map(
        lambda terms: Poly(n, terms)
    )
    polys = data.draw(st.lists(poly, min_size=1, max_size=3))
    gf = GFTable(p, k)
    grid = grid_with_chunk(chunk, n, gf)
    axes = [range(gf.q)] * n
    check_scan(grid, polys, chunk, lambda f, pt: field_value(gf, f, pt), axes)


@pytest.mark.parametrize("chunk", CHUNKS)
@given(st.data())
def test_grid_kernel_on_integer_boxes_equals_exact_evaluation(chunk, data):
    # lows may be negative, so a decode that drops them is caught
    n = data.draw(st.integers(1, 3))
    lows = data.draw(st.lists(st.integers(-6, 3), min_size=n, max_size=n))
    sizes = data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    poly = st.dictionaries(monomial, st.integers(-60, 60), max_size=5).map(
        lambda terms: Poly(n, terms)
    )
    polys = data.draw(st.lists(poly, min_size=1, max_size=3))
    grid = grid_with_chunk(chunk, n, Int64(), lows, sizes)
    axes = [range(lo, lo + size) for lo, size in zip(lows, sizes)]
    check_scan(grid, polys, chunk, lambda f, pt: f.eval_int(pt), axes)


@st.composite
def box_counts(draw):
    """(gens, sides, B): homogeneous generators in n <= 3 variables, box
    sides with endpoints in [-1, 1] of denominator <= 4, and B <= 6."""
    n = draw(st.integers(1, 3))

    def homogeneous(d):
        monomial = st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(
            lambda vs: tuple(vs.count(j) for j in range(n))
        )
        coeff = st.integers(-5, 5).filter(bool)
        terms = st.dictionaries(monomial, coeff, min_size=1, max_size=3)
        return terms.map(lambda t: Poly(n, t))

    poly = st.integers(1, 3).flatmap(homogeneous)
    gens = draw(st.lists(poly, min_size=1, max_size=2))
    end = st.fractions(-1, 1, max_denominator=4)
    sides = draw(st.lists(st.tuples(end, end).map(sorted), min_size=n, max_size=n))
    return gens, sides, draw(st.integers(1, 6))


@pytest.mark.parametrize("chunk", CHUNKS)
@given(box_counts())
def test_count_box_solutions_equals_brute_force(chunk, case):
    gens, sides, B = case
    n = len(sides)
    brute = sum(
        all(g.eval_int(x) == 0 for g in gens)
        for x in itertools.product(range(-B, B + 1), repeat=n)
        if all(lo <= Fraction(xi, B) <= hi for xi, (lo, hi) in zip(x, sides))
    )
    box = BoxSpec(tuple((lo, hi) for lo, hi in sides))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringcount, "CHUNK", chunk)
        assert count_box_solutions(IdealSpec.from_gens(gens), box, B) == brute


@st.composite
def separable_generators(draw):
    """(f, n, p, m): f a sum of 2-3 random polynomials in disjoint sets of
    variables, with constant terms and coefficients divisible by p, so
    that zeros are often singular; n <= 4, and (p^m)^n <= 4096 points for
    the naive route."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 4))
    assume((p ** m) ** n <= 4096)
    order = draw(st.permutations(range(n)))
    parts = draw(st.integers(2, min(3, n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=parts - 1, max_size=parts - 1)))
    coeff = st.integers(-4, 4).flatmap(lambda c: st.sampled_from([c, c * p]))
    f = Poly.zero(n)
    for lo, hi in zip([0] + cuts, cuts + [n]):
        axes = order[lo:hi]
        monomial = st.tuples(*[st.integers(0, 3)] * len(axes)).map(
            lambda e, axes=axes: tuple(
                e[axes.index(j)] if j in axes else 0 for j in range(n)
            )
        )
        f = f + Poly(n, draw(st.dictionaries(monomial, coeff, min_size=1, max_size=3)))
    return f, n, p, m


@pytest.mark.parametrize("chunk", CHUNKS)
@given(separable_generators())
def test_split_zero_scan_equals_naive(chunk, case):
    # a node of more than CHUNK points splits, so every chunk size mixes
    # split and scanned nodes
    f, n, p, m = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringcount, "CHUNK", chunk)
        count_points_raw([f], n, p, m, method="both")


@st.composite
def separable_ideals(draw):
    """(gens, n, p, m): 2-3 generators a_j(x_A) + b_j(x_B) over the same
    two halves A | B of the variables, with constant terms and, one in
    four, coefficients divisible by p; n <= 4, and (p^m)^n <= 4096 points
    for the naive route.

    Each part has 2-4 terms: the value vectors of a part of one or two
    monomials are often symmetric under v -> -v (y^3, or y^2 at p = 5),
    and then a count that forgets to negate B's vectors is right too.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 4))
    assume((p ** m) ** n <= 4096)
    order = draw(st.permutations(range(n)))
    cut = draw(st.integers(1, n - 1))
    coeff = st.tuples(st.integers(-4, 4), st.integers(0, 3)).map(
        lambda t: t[0] * p if t[1] == 0 else t[0]
    )

    def part(axes):
        monomial = st.tuples(*[st.integers(0, 3)] * len(axes)).map(
            lambda e: tuple(e[axes.index(j)] if j in axes else 0 for j in range(n))
        )
        return Poly(n, draw(st.dictionaries(monomial, coeff, min_size=2, max_size=4)))

    gens = [part(order[:cut]) + part(order[cut:]) for _ in range(draw(st.integers(2, 3)))]
    return gens, n, p, m


@pytest.mark.parametrize("chunk", CHUNKS)
@given(separable_ideals())
def test_a_separable_ideal_counts_as_the_naive_route(chunk, case):
    # order-1 nodes of more than CHUNK points count their zeros as pairs
    # of the halves' value vectors, at the root and below it
    gens, n, p, m = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringcount, "CHUNK", chunk)
        count_points_raw(gens, n, p, m, method="both")


@st.composite
def separable_field_gens(draw):
    """(gens, n, p, k, chunk): 1-5 generators over F_(p^k), p in {2, 3, 5}
    and k <= 3, on a box past the split gate: with CHUNK = chunk, the
    least n >= 2 with q^n above min(CHUNK, SPLIT_POINTS), so CHUNK = 50
    moves the gate down to boxes of a few hundred points.

    The variables fall into 2-3 blocks of a random partition, and each
    generator is a constant plus 1-3 terms in each of 1-2 blocks, so some
    generators sit in one half alone and a variable may be in none.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(1, 3))
    chunk = draw(st.sampled_from([ringcount.CHUNK, 50]))
    q, n = p ** k, 2
    while q ** n <= min(chunk, ringcount.SPLIT_POINTS):
        n += 1
    blocks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    assume(len(set(blocks)) >= 2)
    coeff = st.integers(-4, 4).filter(bool)
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        terms = {(0,) * n: draw(st.integers(-2, 2))}
        for b in draw(st.sets(st.sampled_from(sorted(set(blocks))), min_size=1, max_size=2)):
            axes = [j for j in range(n) if blocks[j] == b]
            monomial = st.tuples(*[st.integers(0, 3)] * len(axes)).map(
                lambda e, axes=axes: tuple(e[axes.index(j)] if j in axes else 0 for j in range(n))
            )
            terms.update(draw(st.dictionaries(monomial, coeff, min_size=1, max_size=3)))
        gens.append(Poly(n, terms))
    return gens, n, p, k, chunk


# a prime q with q^3 past 2^63, so value vectors of three polynomials
# have Python-int codes
Q31 = 2 ** 31 - 1
VALUE = st.one_of(st.sampled_from([0, 1, Q31 - 1]), st.integers(0, Q31 - 1))
VECTORS = st.lists(st.tuples(VALUE, VALUE, VALUE), min_size=1, max_size=30)


@given(VECTORS, VECTORS)
def test_pairs_of_value_vectors_past_int64_codes_are_counted_exactly(a, b):
    # the codes of (v_1, v_2, v_3) in radix q reach q^3 > 2^63, so they are
    # Python ints, and equal codes are equal vectors
    codes = [
        ringcount._codes([np.array(col, dtype=np.int64) for col in zip(*vecs)], Q31)
        for vecs in (a, b)
    ]
    assert all(c.dtype == object for c in codes)
    pairs = sum(u == v for u in a for v in b)
    assert ringcount.count_tally_pairs(ringcount.value_tally(codes[0]), codes[1]) == pairs


FIELDS: dict = {}


@given(separable_field_gens())
def test_a_separable_finite_field_count_equals_the_scan(case):
    # count_ff_raw counts the zeros from two half grids (but for a half of
    # more than CHUNK points) and is charged the whole grid, once; the
    # scan of the whole grid is the reference.  The gate splits every
    # drawn box but one of at most CHUNK points whose gens each use at
    # most one variable.
    gens, n, p, k, chunk = case
    q = p ** k
    one_variable = all(len({j for e in g.terms for j in range(n) if e[j]}) <= 1 for g in gens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringcount, "CHUNK", chunk)
        grid = Grid(n, ModQ(p) if k == 1 else ringcount.shared_field(p, k, FIELDS))
        assert (ringcount.split_halves(gens, grid) is None) == (one_variable and q ** n <= chunk)
        meter = Meter(q ** n)
        assert count_ff_raw(gens, n, p, k, meter, fields=FIELDS) == _count_naive(
            gens, grid, None, 1
        )
    assert meter.left == 0


@pytest.mark.parametrize(
    "text, n, p, m, charges",
    [
        # top order 2: the root scans the halves {x1, x3} and {x2, x4} and
        # pairs their critical points, only (0, 0) in each; the origin's
        # child has no constraint left and is not charged
        ("x1^2+x2^2+x3^2+x4^2", 4, 5, 2, [5 ** 2 + 5 ** 2 + 1 * 1]),
        # p = 2 kills every gradient: C_A and C_B are the whole halves
        # {x1, x3} and {x2}, and no child scans a grid
        ("x1^2+x2^2+x3^2", 3, 2, 2, [2 ** 2 + 2 + 4 * 2]),
        # order 1: the two half grids and no critical point, for any r
        ("x1^2+x2^2+x3^2+x4^2", 4, 5, 1, [5 ** 2 + 5 ** 2]),
        ("x1^2+x2^2+x3^2", 3, 2, 1, [2 ** 2 + 2]),
        ("x1^2+x2^2-x3^2-x4^2,x1*x3-x2*x4", 4, 5, 1, [5 ** 2 + 5 ** 2]),
    ],
)
def test_a_split_node_is_charged_its_halves_and_its_critical_pairs(text, n, p, m, charges):
    gens = [parse_poly(g, n) for g in text.split(",")]
    real, log = ringcount.charge, []

    def charge(needed, budget, what="enumeration"):
        real(needed, budget, what)
        log.append(needed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringcount, "CHUNK", 1)
        mp.setattr(ringcount, "charge", charge)
        with pytest.raises(BudgetExceeded):
            count_points_raw(gens, n, p, m, budget=sum(charges) - 1)
        log.clear()
        lift = count_points_raw(gens, n, p, m, budget=sum(charges))
        assert log == charges
    assert lift == count_points_raw(gens, n, p, m, method="naive")


# -- regions decided on the grid kernel ----------------------------------------


def member(region, point, vanishes):
    """Pointwise membership of a point in a region; vanishes(g, x) says
    whether the polynomial g is zero at the block's point x."""
    for (start, stop), mode in region.blocks:
        x = point[start:stop]
        zero = [vanishes(Poly.var(j, len(x)), x) for j in range(len(x))]
        if isinstance(mode, ZeroModP) and not all(zero):
            return False
        if isinstance(mode, UnitModP) and any(zero):
            return False
        if isinstance(mode, PrimitiveBlock) and all(zero):
            return False
        if isinstance(mode, ReductionIn) and not all(vanishes(g, x) for g in mode.gens):
            return False
    return True


@st.composite
def regions(draw, k):
    """A region over k coordinates: blocks of random sizes, each in one of
    the five modes, with 1-2 random equations for ReductionIn."""
    cut_after = draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))
    cuts = [j + 1 for j, cut in enumerate(cut_after) if cut]
    blocks = []
    for start, stop in zip([0] + cuts, cuts + [k]):
        size = stop - start
        mode = draw(st.sampled_from([Full, ZeroModP, UnitModP, PrimitiveBlock, ReductionIn]))
        if mode is ReductionIn:
            monomial = st.tuples(*[st.integers(0, 3)] * size)
            poly = st.dictionaries(monomial, st.integers(-9, 9), max_size=3).map(
                lambda terms, size=size: Poly(size, terms)
            )
            mode = ReductionIn(tuple(draw(st.lists(poly, min_size=1, max_size=2))))
        else:
            mode = mode()
        blocks.append(((start, stop), mode))
    return Region(k, tuple(blocks))


def check_region(region, grid, p, vanishes):
    """Region.on(grid, p) on every chunk against pointwise membership."""
    inside = region.on(grid, p)
    for c in grid.chunks():
        pts = grid.rows(c, np.arange(math.prod(grid.shape(c)))).tolist()
        ok = inside(c)
        assert (ok is None) == region.is_full
        mask = [True] * len(pts) if ok is None else grid.flat(c, ok).tolist()
        assert mask == [member(region, pt, vanishes) for pt in pts]


@pytest.mark.parametrize("chunk", CHUNKS)
@given(st.data())
def test_region_on_a_residue_grid_equals_pointwise_membership(chunk, data):
    k = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from([2, 3, 5]))
    m = data.draw(st.integers(1, 2))
    assume((p ** m) ** k <= 1000)
    region = data.draw(regions(k))
    grid = grid_with_chunk(chunk, k, p ** m)
    check_region(region, grid, p, lambda g, x: g.eval_int(x) % p == 0)


@pytest.mark.parametrize("chunk", CHUNKS)
@given(st.sampled_from([(2, 3), (3, 2), (5, 1)]), st.data())
def test_region_on_a_field_grid_decided_mod_q_equals_pointwise_membership(chunk, field, data):
    p, k = field
    gf = GFTable(p, k)
    n = data.draw(st.integers(1, 3))
    region = data.draw(regions(n))
    grid = grid_with_chunk(chunk, n, gf)
    check_region(region, grid, gf.q, lambda g, x: field_value(gf, g, x) == 0)


@pytest.mark.parametrize("chunk", CHUNKS)
@given(st.sampled_from([6, 10, 12, 15]), st.integers(1, 2), st.integers(1, 2))
def test_primitive_tuples_at_each_prime_of_a_composite_modulus(chunk, N, r, n):
    assume(N ** (r + n) <= 2000)
    region = Region.primitive_then_full(r, n)
    grid = grid_with_chunk(chunk, r + n, N)
    for p in [2, 3, 5]:
        if N % p == 0:
            check_region(region, grid, p, lambda g, x, p=p: g.eval_int(x) % p == 0)


# -- value tallies over Z/N -----------------------------------------------------


@pytest.mark.parametrize("chunk", CHUNKS)
@given(case=box_polys())
def test_value_histogram_tallies_the_encoded_value_vectors(chunk, case):
    polys, n, p, m = case
    q = p ** m
    assume(q ** len(polys) <= 4096)  # every chunk tallies into q^s bins
    grid = grid_with_chunk(chunk, n, q)
    hist = value_histogram(grid, polys, lambda c: None, threads=1)
    # (v_1, ..., v_s) is tallied at v_1 q^(s-1) + ... + v_s
    tally = Counter(
        sum(eval_mod(f, pt, p, m) * q ** i for i, f in enumerate(reversed(polys)))
        for pt in itertools.product(range(q), repeat=n)
    )
    assert len(hist) == q ** len(polys)
    assert {i: c for i, c in enumerate(hist.tolist()) if c} == dict(tally)


@pytest.mark.parametrize("chunk", CHUNKS)
@given(st.sampled_from([6, 10, 12, 15, 4, 8, 9, 25]), st.data())
def test_residue_histogram_at_any_modulus_equals_pointwise_membership(chunk, N, data):
    k = data.draw(st.integers(1, 3))
    assume(N ** k <= 2000)
    region = data.draw(regions(k))
    monomial = st.tuples(*[st.integers(0, 3)] * k)
    f = data.draw(
        st.dictionaries(monomial, st.integers(-40, 40), max_size=4).map(lambda t: Poly(k, t))
    )
    # a point is inside only when it is inside at every prime of N
    primes = [p for p in (2, 3, 5) if N % p == 0]
    tally = Counter(
        f.eval_int(pt) % N
        for pt in itertools.product(range(N), repeat=k)
        if all(member(region, pt, lambda g, x, p=p: g.eval_int(x) % p == 0) for p in primes)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringcount, "CHUNK", chunk)
        hist = residue_histogram([f], N, region, threads=1)
    assert len(hist) == N
    assert {v: c for v, c in enumerate(hist.tolist()) if c} == dict(tally)


# -- the zero test and the folded tally against a row-by-row reference -----------

# Z/q at prime powers and composites, F_q at odd p only (at p = 2, -a = a
# would hide a wrong negation), and integer boxes
KERNEL_RINGS = [4, 8, 9, 25, 6, 10, 12, (3, 1), (3, 2), (5, 2), (7, 1), "box"]


@given(st.sampled_from(KERNEL_RINGS), st.data())
def test_zero_count_and_value_histogram_equal_a_row_by_row_reference(kind, data):
    """_count_naive and value_histogram against eval_rows on every row.

    CHUNK is drawn small, so the suffix box holds zero to all axes and the
    prefix runs over several chunks; polynomials come with and without a
    suffix-only group, zero or constant, one to three of them, in a region
    or not, so a Z/q histogram of one polynomial folds where its groups'
    bins fit in a chunk."""
    n = data.draw(st.integers(1, 3))
    if kind == "box":
        ring, primes = Int64(), []
        lows = data.draw(st.lists(st.integers(-6, 2), min_size=n, max_size=n))
        sizes = data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    else:
        ring = ModQ(kind) if isinstance(kind, int) else GFTable(*kind)
        # F_q decides a region with its one zero, code 0
        primes = [p for p, _ in factorize(kind)] if isinstance(kind, int) else [ring.q]
        lows, sizes = [0] * n, [ring.q] * n
    assume(math.prod(sizes) <= 800)
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    poly = st.dictionaries(monomial, st.integers(-60, 60), max_size=5).map(
        lambda terms: Poly(n, terms)
    )
    polys = data.draw(st.lists(poly, min_size=1, max_size=3))
    region = data.draw(st.none() | regions(n)) if primes else None
    chunk = data.draw(st.integers(1, 60))
    grid = grid_with_chunk(chunk, n, ring, lows, sizes)

    axes = [range(lo, lo + size) for lo, size in zip(lows, sizes)]
    pts = np.array(list(itertools.product(*axes)), dtype=np.int64)
    vals = [eval_rows(f, pts, ring) for f in polys]
    inside = np.ones(len(pts), dtype=bool)
    if region is not None:
        if isinstance(ring, GFTable):
            vanish = [lambda g, x: field_value(ring, g, x) == 0]
        else:
            vanish = [lambda g, x, p=p: g.eval_int(x) % p == 0 for p in primes]
        inside = np.array([all(member(region, pt, v) for v in vanish) for pt in pts.tolist()])
    mask = region.on(grid, *primes) if region is not None else None
    zeros = inside & np.logical_and.reduce([v == 0 for v in vals])
    assert _count_naive(polys, grid, mask, threads=1) == int(zeros.sum())

    if kind != "box" and len(polys) <= 2:
        q = ring.q
        codes = sum(v % q * q ** i for i, v in enumerate(reversed(vals)))
        want = np.bincount(codes[inside], minlength=q ** len(polys))
        got = value_histogram(grid, polys, mask or (lambda c: None), threads=1)
        assert got.tolist() == want.tolist()


# Z/q on both sides of the code dtypes' bounds (int8 up to q = 128, int16 up
# to 2^15, int32 above), and fields of both table dtypes up to the cap
NARROW_RINGS = [127, 128, 129, 32767, 32768, 32769, (2, 7), (2, 8), (3, 5), (2, 12)]


@pytest.fixture(scope="module", params=NARROW_RINGS, ids=str)
def narrow_ring(request):
    kind = request.param
    return ModQ(kind) if isinstance(kind, int) else GFTable(*kind)


def naive_and_rows(ring, lows, sizes, polys, region, chunk):
    """(_count_naive on the box, the count of its rows where eval_rows
    gives 0 for every polynomial, in int64), both inside the region if one
    is given: Z/q decides it at the primes of q, F_q at q."""
    n = len(lows)
    primes = [p for p, _ in factorize(ring.q)] if isinstance(ring, ModQ) else [ring.q]
    grid = grid_with_chunk(chunk, n, ring, lows, sizes)
    pts = np.array(
        list(itertools.product(*[range(lo, lo + size) for lo, size in zip(lows, sizes)])),
        dtype=np.int64,
    )
    zeros = np.logical_and.reduce([eval_rows(f, pts, ring) == 0 for f in polys])
    mask = None
    if region is not None:
        mask = region.on(grid, *primes)
        if isinstance(ring, GFTable):
            vanish = [lambda g, x: field_value(ring, g, x) == 0]
        else:
            vanish = [lambda g, x, p=p: g.eval_int(x) % p == 0 for p in primes]
        zeros &= [all(member(region, pt, v) for v in vanish) for pt in pts.tolist()]
    return _count_naive(polys, grid, mask, threads=1), int(zeros.sum())


@settings(max_examples=120)
@given(data=st.data())
def test_the_narrow_zero_compare_equals_int64_rows_at_the_dtype_bounds(narrow_ring, data):
    """ZeroScan compares in the ring's code dtype; on small boxes whose
    coordinates sit near q (and wrap past it in Z/q), its count must equal
    the int64 zero test of eval_rows on every row.  A polynomial is drawn
    as it is, less its value at a point of the box (Z/q), or less itself
    with two variables swapped, so that zeros are common; CHUNK puts each
    number of the last axes in the suffix box, so the compare meets both
    prefix sums and negated suffix values."""
    ring = narrow_ring
    q = ring.q
    n = data.draw(st.integers(1, 3))
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    if isinstance(ring, ModQ):
        lows = [data.draw(st.integers(q - 6, q + 2)) for _ in sizes]
    else:  # codes stop at q - 1
        lows = [data.draw(st.integers(q - 6, q - size)) for size in sizes]
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    polys = []
    for _ in range(data.draw(st.integers(1, 2))):
        g = Poly(n, data.draw(st.dictionaries(monomial, st.integers(-60, 60), max_size=4)))
        how = data.draw(st.sampled_from(["as is", "at a point", "swapped"]))
        if how == "at a point" and isinstance(ring, ModQ):
            pt = [lo + data.draw(st.integers(0, size - 1)) for lo, size in zip(lows, sizes)]
            g = g - g.eval_int(pt)
        elif how == "swapped" and n > 1:
            i, j = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
            perm = list(range(n))
            perm[i], perm[j] = j, i
            g = g - g.map_vars(perm, n)
        polys.append(g)
    region = data.draw(regions(n)) if data.draw(st.booleans()) else None
    # CHUNK holds the last axes from `split` on, times 1-3 prefix points
    split = data.draw(st.integers(0, n))
    chunk = math.prod(sizes[split:]) * data.draw(st.integers(1, 3))
    got, want = naive_and_rows(ring, lows, sizes, polys, region, chunk)
    assert got == want


def test_a_code_dtype_one_step_too_narrow_fails_the_compare():
    """The check above catches a dtype that cannot hold q - 1: Z/1000 in
    int8 takes the residue 261 for 5, so x1 - x2 at (5, 261) would vanish."""
    ring = ModQ(1000)
    x1_minus_x2 = parse_poly("x1 - x2", 2)
    case = ([5, 261], [1, 1], [x1_minus_x2], None, 1)
    assert naive_and_rows(ring, *case) == (0, 0)
    ring.dtype = np.int8
    assert naive_and_rows(ring, *case) == (1, 0)


@st.composite
def separable_value_polys(draw):
    """(ring, n, polys): 1-2 polynomials over Z/q or F_q (odd p, so that
    adding codes as integers is wrong in F_(p^2)), each a constant plus a
    part on each of up to four variable-disjoint blocks of the n <= 6
    variables, some of which no part uses; at most 3,000 points, so three
    or more blocks make halves that split again."""
    kind = draw(st.sampled_from([4, 8, 9, 25, 6, 10, 12, (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]))
    ring = ModQ(kind) if isinstance(kind, int) else GFTable(*kind)
    n = draw(st.integers(2, 6))
    assume(ring.q ** n <= 3000)
    # the block of each variable, or None for a variable no part uses
    block = draw(st.lists(st.none() | st.integers(0, 3), min_size=n, max_size=n))
    blocks = [[j for j in range(n) if block[j] == b] for b in range(4)]
    coeff = st.integers(-60, 60)

    def part(axes):
        monomial = st.lists(st.integers(0, 3), min_size=len(axes), max_size=len(axes)).map(
            lambda e: tuple(e[axes.index(j)] if j in axes else 0 for j in range(n))
        )
        return Poly(n, draw(st.dictionaries(monomial, coeff, max_size=3)))

    polys = []
    for _ in range(draw(st.integers(1, 2))):
        f = Poly(n, {(0,) * n: draw(coeff)})
        for axes in blocks:
            if axes:
                f = f + part(axes)
        polys.append(f)
    return ring, n, polys


@given(separable_value_polys(), st.integers(1, 30))
def test_a_split_value_tally_equals_the_scan_and_the_rows(case, chunk):
    """value_histogram on the whole grid (None) tallies half grids of
    separable polynomials and convolves them: it must equal the scan under
    a mask that holds everywhere, and a row-by-row tally by eval_rows."""
    ring, n, polys = case
    q = ring.q
    pts = np.array(list(itertools.product(range(q), repeat=n)), dtype=np.int64)
    codes = sum(eval_rows(f, pts, ring) % q * q ** i for i, f in enumerate(reversed(polys)))
    want = np.bincount(codes, minlength=q ** len(polys)).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringcount, "CHUNK", chunk)
        grid = Grid(n, ring)
        assert value_histogram(grid, polys, lambda c: None, threads=1).tolist() == want
        for threads in (1, 2):
            assert value_histogram(grid, polys, None, threads).tolist() == want


# -- finite-field sums on coordinate boxes ----------------------------------------


@st.composite
def boxed_field_sums(draw):
    """((p, k), f, J1, J2) over F_q for q in {4, 8, 9, 25}: f in n <= 3
    variables, either any polynomial or, to reach the split into half
    boxes, a constant plus a part on each of up to three variable-disjoint
    blocks; each coordinate is free, zero (in J1) or a unit (in J2)."""
    p, k = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]))
    n = draw(st.integers(1, 3))
    coeff = st.integers(-60, 60)

    def part(axes):
        monomial = st.tuples(*[st.integers(0, 3) if j in axes else st.just(0) for j in range(n)])
        return Poly(n, draw(st.dictionaries(monomial, coeff, max_size=3)))

    if draw(st.booleans()):
        block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        f = Poly(n, {(0,) * n: draw(coeff)})
        for b in range(3):
            axes = [j for j in range(n) if block[j] == b]
            if axes:
                f = f + part(axes)
    else:
        f = part(range(n))
    modes = draw(st.lists(st.sampled_from("fzu"), min_size=n, max_size=n))
    J1 = {j for j, c in enumerate(modes) if c == "z"}
    J2 = {j for j, c in enumerate(modes) if c == "u"}
    return (p, k), f, J1, J2


@given(boxed_field_sums(), st.integers(1, 60))
def test_a_boxed_trace_histogram_equals_a_row_by_row_reference(case, chunk):
    """ff_char_sum's trace counts, from one scan of the box of its J1/J2
    conditions (split into half boxes where f separates), against every
    row of F_q^n decoded, filtered by the conditions, evaluated by
    eval_rows and tallied by trace, at 1 and 2 threads."""
    (p, k), f, J1, J2 = case
    gf = GFTable(p, k)
    n = f.nvars
    pts = digits(np.arange(gf.q ** n), [gf.q] * n)
    keep = np.ones(len(pts), dtype=bool)
    for j in J1:
        keep &= pts[:, j] == 0
    for j in J2:
        keep &= pts[:, j] != 0
    traces = gf.trace_table[eval_rows(f, pts[keep], gf)]
    want = np.bincount(traces, minlength=p).tolist()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        # f need not be homogeneous, and the Weil-type ratio is not tested
        warnings.simplefilter("ignore", UserWarning)
        mp.setattr(ringcount, "CHUNK", chunk)
        for threads in (1, 2):
            got = ff_char_sum(f, None, p, k, J1, J2, s=0, threads=threads)
            assert list(got.trace_counts) == want


# -- the rank test -------------------------------------------------------------


def det(mat):
    """The determinant of an integer matrix, by Leibniz's formula."""
    total = 0
    for perm in itertools.permutations(range(len(mat))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


def has_a_unit_minor(mat, n, p):
    """Rank r mod p of an r x n matrix: some r x r minor is a unit mod p
    (the empty minor of r = 0 is 1)."""
    return any(
        det([[row[j] for j in cols] for row in mat]) % p
        for cols in itertools.combinations(range(n), len(mat))
    )


@given(st.data())
def test_full_rank_by_elimination_equals_a_unit_minor(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    r = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(1, 4))
    entry = st.integers(-2 * p, 2 * p)
    mats = []
    for _ in range(data.draw(st.integers(1, 6))):
        rows = []
        for _ in range(r):
            kind = data.draw(st.sampled_from(["random", "zero mod p", "dependent"]))
            if kind == "zero mod p":
                row = [p * c for c in data.draw(st.lists(entry, min_size=n, max_size=n))]
            elif kind == "dependent" and rows:
                coeffs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
                row = [sum(c * above[j] for c, above in zip(coeffs, rows)) for j in range(n)]
            else:
                row = data.draw(st.lists(entry, min_size=n, max_size=n))
            rows.append(row)
        mats.append(rows)
    jac = np.array(mats, dtype=np.int64).reshape(len(mats), r, n)
    assert _full_rank(jac, p).tolist() == [has_a_unit_minor(mat, n, p) for mat in mats]
