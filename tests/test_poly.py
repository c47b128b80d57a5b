import random

import pytest

from iosc.poly import (
    IdealSpec,
    Poly,
    PolyParseError,
    Weight,
    build_pairing,
    eval_mod,
    highpart_check,
    jacobian_minors,
    jet_expand,
    jet_variable_index,
    parse_poly,
    top_part,
    torus_transform,
    wdeg,
    weighted_parts,
)


def P(text, n):
    return parse_poly(text, n)


def random_poly(rng, nvars, max_deg=4, max_terms=4, coeff_bound=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(rng.randint(0, max_deg // max(1, nvars)) for _ in range(nvars))
        terms[expo] = rng.randint(-coeff_bound, coeff_bound)
    return Poly(nvars, terms)


# -- parsing ----------------------------------------------------------------


def test_parse_basic():
    f = P("x1^2 - 3*x2", 2)
    assert f.terms == {(2, 0): 1, (0, 1): -3}


def test_parse_zero():
    assert P("0", 1).terms == {}


def test_parse_square_expands():
    assert P("(x1+x2)^2", 2).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x1 + x3", 2)
    assert e.value.pos == 5
    with pytest.raises(PolyParseError):
        parse_poly("x1 +", 1)
    with pytest.raises(PolyParseError):
        parse_poly("(x1", 1)


def test_parse_custom_names():
    f = parse_poly("a*b - 1", 2, names=["a", "b"])
    assert f.terms == {(1, 1): 1, (0, 0): -1}


@pytest.mark.parametrize(
    "text, terms",
    [
        ("-x1^2", {(2,): -1}),
        ("2*-x1^2", {(2,): -2}),
        ("x1 - -x1^2", {(1,): 1, (2,): 1}),
        ("(-x1)^2", {(2,): 1}),
        ("x1*--x1^3", {(4,): 1}),
    ],
)
def test_a_unary_minus_binds_looser_than_a_power(text, terms):
    assert P(text, 1).terms == terms


def random_expr(rng, depth):
    """A random expression in x1, x2 with a unary minus after operators,
    in the parser's syntax."""

    def factor(depth):
        if depth and rng.random() < 0.3:
            atom = f"({random_expr(rng, depth - 1)})"
        else:
            atom = rng.choice(["x1", "x2", str(rng.randint(0, 9))])
        if rng.random() < 0.4:
            atom += f"^{rng.randint(0, 3)}"
        return "-" * rng.choice([0, 0, 1, 2]) + atom

    def term(depth):
        return "*".join(factor(depth) for _ in range(rng.randint(1, 3)))

    out = rng.choice(["", "-", "+"]) + term(depth)
    for _ in range(rng.randint(0, 2)):
        out += rng.choice([" + ", " - "]) + term(depth)
    return out


def test_the_parser_follows_pythons_precedence():
    # a unary minus anywhere binds looser than ^ and tighter than * and
    # +/-, as in Python with ^ read as **
    rng = random.Random(28)
    for _ in range(300):
        text = random_expr(rng, 2)
        f = P(text, 2)
        for pt in [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]:
            want = eval(text.replace("^", "**"), {"x1": pt[0], "x2": pt[1]})
            assert f.eval_int(pt) == want, text


def test_parse_roundtrip_eval():
    rng = random.Random(7)
    f = P("2*x1^3 - x1*x2 + 5", 2)
    for _ in range(20):
        pt = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert f.eval_int(pt) == 2 * pt[0] ** 3 - pt[0] * pt[1] + 5


# -- ring arithmetic ---------------------------------------------------------


def test_ring_axioms_random():
    rng = random.Random(123)
    for _ in range(40):
        n = rng.randint(1, 3)
        a, b, c = (random_poly(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_pow_matches_repeated_mul():
    f = P("x1 + 2*x2", 2)
    g = Poly.const(1, 2)
    for k in range(6):
        assert f ** k == g
        g = g * f


def test_eval_mod():
    f = P("x1^2 + x2", 2)
    assert eval_mod(f, (2, 3), 5, 2) == 7
    assert eval_mod(Poly.zero(1), (4,), 3, 1) == 0
    assert eval_mod(P("x1^3", 1), (3,), 3, 3) == 0


# -- weighted parts ----------------------------------------------------------


def test_weighted_parts_unit_weight():
    f = P("x1^3 + x1*x2 + x2", 2)
    parts = weighted_parts(f, Weight((1, 1)))
    assert parts == {3: P("x1^3", 2), 2: P("x1*x2", 2), 1: P("x2", 2)}


def test_weighted_parts_nonunit_weight():
    f = P("x1^3 + x1*x2 + x2", 2)
    parts = weighted_parts(f, Weight((1, 2)))
    assert parts == {3: P("x1^3 + x1*x2", 2), 2: P("x2", 2)}


def test_weighted_parts_constant():
    parts = weighted_parts(Poly.const(5, 1), Weight((1,)))
    assert parts == {0: Poly.const(5, 1)}


def test_weighted_parts_sum_is_identity():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        f = random_poly(rng, n)
        w = Weight(tuple(rng.randint(1, 3) for _ in range(n)))
        total = Poly.zero(n)
        for part in weighted_parts(f, w).values():
            total = total + part
        assert total == f


# -- jacobian minors ----------------------------------------------------------


def test_jacobian_minors_single_gen():
    assert jacobian_minors([P("x1^2 + x2^2", 2)], 1) == [P("2*x1", 2), P("2*x2", 2)]


def test_jacobian_minors_identity():
    assert jacobian_minors([P("x1", 2), P("x2", 2)], 2) == [Poly.const(1, 2)]


def test_jacobian_minors_2x2():
    # rows (2x, 0) and (y, x): determinant 2x^2
    assert jacobian_minors([P("x1^2", 2), P("x1*x2", 2)], 2) == [P("2*x1^2", 2)]


def test_jacobian_minors_of_no_generator_is_refused():
    with pytest.raises(ValueError, match="generator list is empty"):
        jacobian_minors([], 0)


def test_jacobian_minors_too_many_gens():
    with pytest.raises(ValueError):
        jacobian_minors([P("x1", 1), P("x1^2", 1)], 2)


# -- torus transform ----------------------------------------------------------


def test_torus_transform_square():
    assert torus_transform(P("x1^2", 1), Weight((2,))) == P("(x1*x2)^2", 2)


def test_torus_transform_relabel():
    assert torus_transform(P("x1 + x2", 2), Weight((1, 1))) == P("x1 + x2", 2)


def test_torus_transform_degree():
    f = P("x1*x2", 2)
    w = Weight((2, 1))
    out = torus_transform(f, w)
    assert out == P("x1*x2*x3", 3)
    assert max(sum(e) for e in out.terms) == wdeg(f, w) == 3


def test_torus_transform_w_homogeneous_becomes_homogeneous():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 3)
        w = Weight(tuple(rng.randint(1, 3) for _ in range(n)))
        f = random_poly(rng, n)
        if f.is_zero():
            continue
        ftop = top_part(f, w)
        out = torus_transform(ftop, w)
        degs = {sum(e) for e in out.terms}
        assert degs == {wdeg(ftop, w)}


# -- jet expansion -------------------------------------------------------------


def test_jet_expand_square_start0():
    jets = jet_expand(P("x1^2", 1), 2, start=0)
    x0, x1, x2 = (Poly.var(i, 3) for i in range(3))
    assert jets == [x0 * x0, 2 * x0 * x1, x1 * x1 + 2 * x0 * x2]


def test_jet_expand_square_start1():
    jets = jet_expand(P("x1^2", 1), 2, start=1)
    x1, x2 = (Poly.var(i, 2) for i in range(2))
    assert jets == [Poly.zero(2), Poly.zero(2), x1 * x1]


def test_jet_expand_linear():
    jets = jet_expand(P("x1", 1), 1, start=0)
    assert jets == [Poly.var(0, 2), Poly.var(1, 2)]


def _jet_oracle(f, m, start):
    # independent route: substitute truncated series via eval_poly on a
    # polynomial ring with an extra t variable, then collect t-powers
    n = f.nvars
    per = m + 1 - start
    nv = n * per + 1  # jet variables plus trailing t
    t = Poly.var(nv - 1, nv)
    args = []
    for i in range(n):
        s = Poly.zero(nv)
        for level in range(start, m + 1):
            s = s + Poly.var(jet_variable_index(i, level, m, start), nv) * t ** level
        args.append(s)
    big = f.eval_poly(args)
    out = [dict() for _ in range(m + 1)]
    for expo, coeff in big.terms.items():
        tdeg = expo[-1]
        if tdeg <= m:
            out[tdeg][expo[:-1]] = coeff
    return [Poly(nv - 1, d) for d in out]


def test_jet_expand_matches_symbolic_substitution():
    rng = random.Random(99)
    for _ in range(15):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, max_deg=4)
        for start in (0, 1):
            m = rng.randint(0, 3)
            assert jet_expand(f, m, start) == _jet_oracle(f, m, start)


# -- ideal specs and the pairing polynomial -----------------------------------


def vinogradov(ell=2, D=3):
    n = 2 * ell
    gens = []
    for i in range(1, D + 1):
        f = Poly.zero(n)
        for j in range(ell):
            f = f + Poly.var(j, n) ** i - Poly.var(ell + j, n) ** i
        gens.append(f)
    return IdealSpec.from_gens(gens)


def test_ideal_spec_groups_by_degree():
    spec = vinogradov()
    assert spec.degrees == [1, 2, 3]
    assert spec.r == 3
    assert spec.weighted_degree_sum == 6


def test_ideal_spec_rejects_constant_gen():
    with pytest.raises(ValueError):
        IdealSpec.from_gens([Poly.const(3, 1)])


@pytest.mark.parametrize("gens", [["3"], ["x1", "3"], ["x1^2", "x2", "-7"]])
def test_a_constant_generator_is_named_before_its_degree_is_checked(gens):
    # a constant has degree 0, which the group degree check would refuse
    # first with a message about degrees
    with pytest.raises(ValueError, match="generators must be non-constant, got -?[37]$"):
        IdealSpec.from_gens([P(g, 2) for g in gens])
    with pytest.raises(ValueError, match="generators must be non-constant"):
        IdealSpec(2, [(1, [P("x1", 2)]), (2, [P(g, 2) for g in gens])])


def test_the_unchecked_constructor_equals_the_checked_one():
    terms = {(2, 0): 3, (0, 1): -1}
    f = Poly._of(2, terms)
    assert f == Poly(2, terms) and hash(f) == hash(Poly(2, terms))
    assert f.terms is terms


def test_the_cached_hash_is_the_hash_of_the_terms():
    rng = random.Random(7)
    for n in range(4):
        f = random_poly(rng, n)
        for g in (f, Poly._of(n, dict(f.terms)), f * f + 1):
            want = hash((g.nvars, frozenset(g.terms.items())))
            # the first call fills the cache, the second reads it
            assert hash(g) == want and hash(g) == want
    # equal polynomials hash alike whichever constructor built them
    assert hash(Poly(2, {(1, 0): 1})) == hash(Poly._of(2, {(1, 0): 1}))
    assert len({Poly(1, {(1,): 2}), Poly._of(1, {(1,): 2}), Poly(1, {(2,): 2})}) == 2


def test_ideal_spec_weight_mismatch():
    with pytest.raises(ValueError):
        IdealSpec(1, [(1, [P("x1^2", 1)])], Weight((1,)))


def test_build_pairing_two_groups():
    spec = IdealSpec(1, [(1, [P("x1", 1)]), (2, [P("x1^2", 1)])])
    g = build_pairing(spec)
    a1, a2, x = (Poly.var(i, 3) for i in range(3))
    assert g == a1 * x + a2 * x * x


def test_build_pairing_single():
    spec = IdealSpec.from_gens([P("x1^2 - x2", 2)])
    g = build_pairing(spec)
    assert g == Poly.var(0, 3) * (P("x2^2 - x3", 3))


def test_build_pairing_vinogradov():
    spec = vinogradov(ell=2, D=2)
    g = build_pairing(spec)
    n = 4
    a1, a2 = Poly.var(0, 2 + n), Poly.var(1, 2 + n)
    xs = [Poly.var(2 + i, 2 + n) for i in range(n)]
    f1 = xs[0] + xs[1] - xs[2] - xs[3]
    f2 = xs[0] ** 2 + xs[1] ** 2 - xs[2] ** 2 - xs[3] ** 2
    assert g == a1 * f1 + a2 * f2


# -- top-part jet identity ------------------------------------------------------


def test_highpart_check_hand_example():
    # single generator x^2 + x: verified against the hand expansion
    spec = IdealSpec.from_gens([P("x1^2 + x1", 1)])
    assert highpart_check(spec, 1)


def test_highpart_check_random_specs():
    rng = random.Random(2024)
    done = 0
    while done < 20:
        n = rng.randint(1, 2)
        w = Weight(tuple(rng.randint(1, 2) for _ in range(n)))
        gens = []
        for _ in range(rng.randint(1, 2)):
            f = random_poly(rng, n, max_deg=3)
            if f.is_zero() or f.is_constant():
                continue
            gens.append(f)
        if not gens:
            continue
        # independence of the top parts: make the top group's tops distinct
        tops = [top_part(g, w) for g in gens]
        if len(set(tops)) != len(tops):
            continue
        try:
            spec = IdealSpec.from_gens(gens, weight=w)
        except ValueError:
            continue
        for m in range(0, 4):
            assert highpart_check(spec, m)
        done += 1
