import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from iosc import expsum, ringcount
from iosc.errors import BudgetExceeded, Meter, OracleDisagreement
from iosc.expsum import ff_char_sum
from iosc.gf import GFTable
from iosc.poly import IdealSpec, Poly, parse_poly
from iosc.ringcount import (
    Full,
    Grid,
    Int64,
    PrimitiveBlock,
    ReductionIn,
    Region,
    UnitModP,
    ZeroModP,
    bsing_dim,
    count_ff,
    count_points_raw,
    count_zpm,
    dim_estimate,
    ModQ,
    power,
    _vp,
)


def P(text, n):
    return parse_poly(text, n)


def S(*texts, n):
    return IdealSpec.from_gens([P(t, n) for t in texts])


def brute_zpm(gens, nvars, p, m, member=None):
    q = p ** m
    count = 0
    point = [0] * nvars
    while True:
        if (member is None or member(point)) and all(
            g.eval_int(point) % q == 0 for g in gens
        ):
            count += 1
        i = nvars - 1
        while i >= 0 and point[i] == q - 1:
            point[i] = 0
            i -= 1
        if i < 0:
            return count
        point[i] += 1


# -- count_zpm ---------------------------------------------------------------


def test_count_linear():
    assert count_zpm(S("x1", n=1), 3, 2) == 1


def test_count_square_mod9():
    assert count_zpm(S("x1^2", n=1), 3, 2) == 3


def test_count_xy_mod5():
    assert count_zpm(S("x1*x2", n=2), 5, 1) == 9


@pytest.mark.parametrize("method", ["naive", "lift", "both"])
def test_methods_agree_simple(method):
    assert count_zpm(S("x1^2 + x2^2", n=2), 3, 2, method=method) == brute_zpm(
        [P("x1^2 + x2^2", 2)], 2, 3, 2
    )


def test_oracle_agreement_random_ideals():
    rng = random.Random(31337)
    for _ in range(25):
        n = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                expo = tuple(rng.randint(0, 2) for _ in range(n))
                terms[expo] = rng.randint(-4, 4)
            f = Poly(n, terms)
            if not f.is_zero() and not f.is_constant():
                gens.append(f)
        if not gens:
            continue
        p = rng.choice([2, 3, 5])
        m = rng.randint(1, 3)
        if p ** (m * n) > 2_000_000:
            continue
        spec = IdealSpec.from_gens(gens)
        a = count_zpm(spec, p, m, method="lift")
        b = count_zpm(spec, p, m, method="naive")
        assert a == b, (gens, p, m)


def test_budget_exceeded_is_error():
    with pytest.raises(BudgetExceeded):
        count_zpm(S("x1^2", n=1), 101, 5, method="naive", budget=1000)


def test_both_raises_on_fault(monkeypatch):
    import iosc.ringcount as rc

    real = rc._count_naive
    monkeypatch.setattr(
        rc, "_count_naive", lambda *a, **k: real(*a, **k) + 1
    )
    with pytest.raises(OracleDisagreement):
        count_zpm(S("x1^2", n=1), 3, 2, method="both")


# -- deep residue trees ----------------------------------------------------------
# singular loci that are not isolated: every level re-expands a line or
# a union of planes, so these pins run the shift and the node memo deep


@pytest.mark.parametrize(
    "gens,n,p,m,count",
    [
        (["x1^2*x2 - x3^2"], 3, 7, 10, 421759121858806291),
        (["x1*x2*x3"], 3, 5, 8, 4644775390625),
        # a monomial, so the root is counted in closed form and runs no shift
        (["x1^2"], 1, 2, 40, 2 ** 20),
        # p^m > 2^31: the shift must stay in exact integers; x = -1 is
        # smooth, and x = 0 re-expands to the closed-form child y^2 (1 + 2y)
        # with target 38
        (["x1^2 + x1^3"], 1, 2, 40, 2 ** 20 + 1),
    ],
)
def test_deep_tree_pins(gens, n, p, m, count):
    assert count_zpm(S(*gens, n=n), p, m) == count


@pytest.mark.parametrize(
    "gens,n,p,m,charges",
    [
        # (number of charges, points, sha256 prefix of the JSON list of
        # [label, points]) of the walk that counted one order at a time
        (["x1^2*x2 - x3^2"], 3, 7, 10, (3080, 479296, "aaebddb69ec8730a")),
        (["x1*x2*x3"], 3, 5, 8, (1, 243, "f103cb787afdef3f")),
        (["x1^2"], 1, 2, 40, (1, 1681, "3e79d8a7d1f447da")),
        (["x1^2 + x1^3"], 1, 2, 40, (2, 1562, "7cfe2709456c2190")),
        (["x1^2+x2^2-x3^2-x4^2", "x1*x3-x2*x4"], 4, 5, 2, (13, 8125, "68ff8892a1e410dc")),
    ],
)
def test_a_single_order_count_walks_the_same_tree(gens, n, p, m, charges, monkeypatch):
    # a count of one order is the range [m, m]: the same nodes, charged
    # the same points in the same order
    real, log = ringcount.charge, []

    def charge(needed, budget, what="enumeration"):
        log.append([what, needed])
        real(needed, budget, what)

    monkeypatch.setattr(ringcount, "charge", charge)
    count_zpm(S(*gens, n=n), p, m)
    digest = hashlib.sha256(json.dumps(log).encode()).hexdigest()[:16]
    assert (len(log), sum(x for _, x in log), digest) == charges


def test_orders_need_the_lift_route():
    spec = S("x1^2", n=1)
    assert count_zpm(spec, 3, 4, orders=True) == (1, 3, 3, 9)
    for method in ("naive", "both"):
        with pytest.raises(ValueError, match="orders=True needs method 'lift'"):
            count_zpm(spec, 3, 2, method=method, orders=True)


def test_a_unit_constant_caps_the_orders():
    # ord_3(9) = 2: the generator 9 holds at orders 1 and 2 and nowhere above
    gens = [P("9", 2), P("x1*x2", 2)]
    assert count_points_raw(gens, 2, 3, 4, orders=True) == (5, 21, 0, 0)
    assert [count_points_raw(gens, 2, 3, m, method="naive") for m in (1, 2, 3)] == [5, 21, 0]


def test_a_monomial_times_a_unit_is_counted_with_no_grid_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("a closed-form node scans no grid")

    monkeypatch.setattr(ringcount, "_scan_zeros", scan)
    monkeypatch.setattr(ringcount, "_split_zeros", scan)
    assert count_zpm(S("x1*x2*x3", n=3), 5, 8) == 4644775390625


def test_a_closed_form_sum_runs_once_per_key_and_charges_every_node(monkeypatch):
    # ord_p(u y^a) = <a, v> for every unit u, so a node's closed-form counts
    # depend only on (a, o, lo, hi); the umbrella's walk at p = 7 reaches
    # 289 closed-form nodes with 3 keys, and each node is charged its steps
    real_sum, keys = ringcount._valuation_sum, []

    def valuation_sum(a, o, p, lo, hi):
        assert (a, o, lo, hi) not in keys, "a key summed twice"
        keys.append((a, o, lo, hi))
        return real_sum(a, o, p, lo, hi)

    real_charge, closed = ringcount.charge, []

    def charge(needed, budget, what="enumeration"):
        if what == "closed-form node":
            closed.append(needed)
        real_charge(needed, budget, what)

    monkeypatch.setattr(ringcount, "_valuation_sum", valuation_sum)
    monkeypatch.setattr(ringcount, "charge", charge)
    counts = count_points_raw([P("x1^2*x2 - x3^2", 3)], 3, 7, 7, orders=True)
    assert counts == (49, 4459, 218491, 15647317, 766718533, 49433168575, 2422225260175)
    assert (len(keys), len(closed), sum(closed)) == (3, 289, 14610)


def test_closed_form_nodes_share_a_sum_only_between_equal_keys():
    # nodes walked in turn on one lift call, each a monomial times a unit;
    # each pair differs in one of o, lo and hi, and its second node must
    # not take the first's counts
    h, u = P("x1*x2^2", 2), P("2*x1*x2^2 + 3*x1^2*x2^2", 2)
    nodes = [
        ([(h, 0)], 1, 3),
        ([(h, 0)], 2, 3),  # lo
        ([(u, 1)], 2, 3),  # o, and the unit 2 + 3 y1
        ([(h, 0)], 2, 2),  # hi
    ]
    lift = ringcount._Lift(Meter.of(10 ** 6), 2, 3)
    walked = [lift.count(a, lo, hi) for a, lo, hi in nodes]
    assert walked == [node_counts(a, 2, 3, lo, hi) for a, lo, hi in nodes]
    assert len(lift.sums) == len(nodes)


QUADRICS = ("x1^2+x2^2-x3^2-x4^2", "x1*x3-x2*x4")


@pytest.mark.parametrize(
    "gens,n,p",
    [
        (QUADRICS, 4, 5),  # a scan of the whole grid
        (QUADRICS, 4, 29),  # two half grids, {x1, x3} and {x2, x4}
        (["x1*x2 - x3^2"], 3, 7),  # a singular zero at the origin
        (["x1^2 + x2^2 + x3^2 + x4^2 + x5^2"], 5, 13),  # one generator, split
    ],
)
def test_an_order_one_count_builds_no_partial_derivative(gens, n, p, monkeypatch):
    naive = count_zpm(S(*gens, n=n), p, 1, method="naive")

    def derivative(self, j):
        raise AssertionError("an order-1 node counts zeros only")

    monkeypatch.setattr(Poly, "derivative", derivative)
    assert count_zpm(S(*gens, n=n), p, 1) == naive


def test_an_order_one_split_is_charged_its_two_half_grids():
    spec = S(*QUADRICS, n=4)
    with pytest.raises(BudgetExceeded):
        count_zpm(spec, 29, 1, budget=2 * 29 ** 2 - 1)
    assert count_zpm(spec, 29, 1, budget=2 * 29 ** 2) == 3249


def test_value_vectors_past_int64_codes_are_compared_exactly():
    # the code sum_j v_j p^(4-j) of (1, 0, 0, 0, 0) is p^4, which wraps
    # mod 2^64 to the code of x2 = 1's negated vector (0, 3, 65531, 3, 65536)
    gens = [P(t, 2) for t in ("x1", "-3*x2", "-65531*x2", "-3*x2", "-65536*x2")]
    assert count_points_raw(gens, 2, 65537, 1) == 1


def test_split_codes_are_int64_over_an_int32_field():
    # F_256 codes are int32; the first of five base-256 digits is scaled by
    # 2^32, which int32 arithmetic would wrap to 0 and so find zeros
    gens = [P(t, 2) for t in ("x1+x2+1", "x1+x2", "x1+x2^2", "x1^2+x2", "x1^3+x2^3")]
    grid = Grid(2, GFTable(2, 8))
    assert ringcount.split_halves(gens, grid) is not None
    assert ringcount.count_ff_raw(gens, 2, 2, 8) == 0
    assert ringcount._count_naive(gens, grid, None, 1) == 0


@pytest.mark.parametrize(
    "gens, n, p, k, splits",
    [
        # one variable each: a box of one chunk (13^4 points) is scanned,
        # a larger one (25^4 points) splits
        (["3*x1^2", "3*x2^2", "3*x3^2", "3*x4^2"], 4, 13, 1, False),
        (["3*x1^2", "3*x2^2", "3*x3^2", "3*x4^2"], 4, 5, 2, True),
        # x1^2 - x2^3 is in two variables: its 243^2 points split
        (["x1^2 - x2^3"], 2, 3, 5, True),
    ],
)
def test_a_finite_field_count_splits_unless_one_variable_gens_fit_a_chunk(
    gens, n, p, k, splits, monkeypatch
):
    calls, real = [], ringcount._split_zeros
    monkeypatch.setattr(ringcount, "_split_zeros", lambda *a: calls.append(1) or real(*a))
    gens = [P(g, n) for g in gens]
    field = ModQ(p) if k == 1 else GFTable(p, k)
    assert ringcount.count_ff_raw(gens, n, p, k) == ringcount._count_naive(
        gens, Grid(n, field), None, 1
    )
    assert bool(calls) == splits


def test_a_finite_field_count_scans_past_a_half_of_more_than_chunk_points(monkeypatch):
    # x1...x7 + x8 over F_2 splits into halves of 2^7 and 2 points; with
    # CHUNK = 64 the half of 128 points would be held whole, so the box
    # is scanned in chunks
    monkeypatch.setattr(ringcount, "CHUNK", 64)
    monkeypatch.setattr(ringcount, "_split_zeros", None)
    f = P("x1*x2*x3*x4*x5*x6*x7 + x8", 8)
    assert ringcount.split_halves([f], Grid(8, 2)) is not None
    # x8 = x1...x7: one zero for each point of the half of 2^7 points
    assert ringcount.count_ff_raw([f], 8, 2, 1) == 2 ** 7


def brute_pairs(a, b):
    return sum(int(x == y) for x in a.tolist() for y in b.tolist())


@pytest.mark.parametrize(
    "a, b, dense",
    [
        (np.array([-3, -1, -1, 0, 2, 2, 2]), np.array([-1, 2, 2, -5, 7]), True),
        (np.array([-3, 0, 4], dtype=np.int32), np.array([4, 4, -3, 9], dtype=np.int64), True),
        (np.array([-(10 ** 12), 5, 5, 10 ** 12]), np.array([5, 10 ** 12, -(10 ** 12), 3]), False),
        (np.array([-(2 ** 62), 2 ** 62 - 1]), np.array([2 ** 62 - 1] * 3), False),
        (np.array([7, 7, 7]), np.array([7, 7]), True),
        (np.array([1, 2]), np.array([3, 4, 5]), True),
    ],
)
def test_count_value_pairs_is_the_brute_force_pair_count(a, b, dense):
    span = int(max(a.max(), b.max())) - int(min(a.min(), b.min())) + 1
    assert (span <= ringcount.DENSE * (len(a) + len(b))) == dense
    assert ringcount.count_value_pairs(a, b) == brute_pairs(a, b)
    rng = np.random.default_rng(len(a))
    for width in (3, 10 ** 6):
        a, b = rng.integers(-width, width, 200), rng.integers(-width, width, 150)
        assert ringcount.count_value_pairs(a, b) == brute_pairs(a, b)


@pytest.mark.parametrize(
    "call, log",
    [
        # the finite-field calls of the grid-verify workload: a split count
        # is charged the whole grid, once, as a scan is
        (lambda: count_ff(S("x1^2-x2^3", n=2), 2, 8), [("finite-field count", 2 ** 16)]),
        (lambda: count_ff(S("x1^2-x2^3", n=2), 3, 5), [("finite-field count", 3 ** 10)]),
        (lambda: dim_estimate(S("x1^2*x2-x3^2", n=3), maxk=2),
         [("finite-field count", q ** 3) for q in (7, 11, 13, 49, 121, 169)]),
        (lambda: ff_char_sum(P("x1^3+x2^3+x3^3+x4^3", 4), None, 5, 2),
         [("finite-field count", 5 ** 4), ("finite-field count", 25 ** 4),
          ("finite-field sum", 25 ** 4)]),
    ],
    ids=["count-ff-cusp-2^8", "count-ff-cusp-3^5", "dim-estimate-umbrella",
         "ff-char-sum-cubic-5^2"],
)
def test_a_split_finite_field_count_keeps_the_charge_log(call, log, monkeypatch):
    real, seen = ringcount.charge, []

    def charge(needed, budget, what="enumeration"):
        seen.append((what, needed))
        real(needed, budget, what)

    monkeypatch.setattr(ringcount, "charge", charge)
    monkeypatch.setattr(expsum, "charge", charge)
    splits, split = [], ringcount._split_zeros
    monkeypatch.setattr(ringcount, "_split_zeros", lambda *a: splits.append(1) or split(*a))
    call()
    assert seen == log
    assert splits


def test_the_lift_uses_no_part_of_the_naive_route(monkeypatch):
    # the lift and the naive route are independent oracles, so no kind of
    # lift node may count through the naive zero count or its zero test
    cases = [
        (["x1^2*x2 - x3^2"], 3, 3, 4, None),  # split nodes above order 1
        (QUADRICS, 4, 3, 1, None),  # an order-1 split of two generators
        (QUADRICS, 4, 3, 2, None),  # scanned nodes
        (["x1*x2^2+x2"], 2, 3, 2, Region.primitive_then_full(1, 1)),
    ]
    monkeypatch.setattr(ringcount, "CHUNK", 7)
    naive = [
        count_points_raw([P(g, n) for g in gens], n, p, m, region, method="naive")
        for gens, n, p, m, region in cases
    ]
    # a closed-form node; (Z/5^4)^3 is too large for the naive route, so
    # the count is the sum over the valuation vectors v with |v| >= 4
    cases.append((["x1*x2*x3"], 3, 5, 4, None))
    naive.append(4140625)

    def refuse(*args):
        raise AssertionError("the lift reached the naive route")

    reached = set()

    def spy(name, real):
        def run(*args):
            reached.add(name)
            return real(*args)

        monkeypatch.setattr(ringcount, name, run)

    monkeypatch.setattr(ringcount, "_count_naive", refuse)
    monkeypatch.setattr(ringcount, "ZeroScan", refuse)
    for name in ("_split_zeros", "_scan_zeros", "_valuation_sum"):
        spy(name, getattr(ringcount, name))
    lift = [
        count_points_raw([P(g, n) for g in gens], n, p, m, region)
        for gens, n, p, m, region in cases
    ]
    assert lift == naive
    assert reached == {"_split_zeros", "_scan_zeros", "_valuation_sum"}


@pytest.mark.parametrize("p, m, name", [(3.0, 2, "p"), (3, 2.0, "m"), ("3", 2, "p"),
                                        (3, "2", "m"), (True, 2, "p"), (3, True, "m")])
def test_a_non_integer_prime_or_order_is_refused(p, m, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        count_zpm(S("x1", n=1), p, m)


@pytest.mark.parametrize(
    "gens,n,p,m",
    [
        (["x1^2*x2 - x3^2"], 3, 5, 3),
        (["x1*x2*x3"], 3, 3, 4),
        # reaches the reduced node (x1^2, target 1) at depths 4 and 3, so
        # the node memo must tell depths apart
        (["4*x1^2 + x1^2*x2^3"], 2, 2, 5),
        # at p = 3 the root is x1^2 (4 + x2^3) with 4 a unit and x2^3 not
        # divisible by p, so it is no monomial times a unit
        (["4*x1^2 + x1^2*x2^3"], 2, 3, 3),
    ],
)
def test_deep_tree_agrees_with_naive(gens, n, p, m):
    # method="both" raises OracleDisagreement when lift and naive differ
    count_zpm(S(*gens, n=n), p, m, method="both")


def node_counts(active, nvars, p, lo, hi):
    """[N(lo), ..., N(hi)] of a lift node by brute force: the z in
    (Z/p^k)^nvars with ord_p h_j(z) >= k - o_j for every (h_j, o_j)."""
    return [
        sum(
            all(h.eval_int(z) % p ** max(k - o, 0) == 0 for h, o in active)
            for z in itertools.product(range(p ** k), repeat=nvars)
        )
        for k in range(lo, hi + 1)
    ]


def test_one_lift_call_shares_its_scans_only_between_equal_keys():
    # nodes walked in turn on one lift call: each pair reduces to the same
    # constraints mod 3, and its second node must not take the first's scan
    g1, g2, g3 = P("x1^2 - x2^2", 2), P("x1 - x2", 2), P("x1", 2)
    nodes = [
        # order 1 counts every zero as smooth, order 2 does not
        ([(g1, 0)], 1, 1),
        ([(g1, 0)], 1, 2),
        # both constraints bind, then only g1 does
        ([(g1, 0), (g2, 0)], 1, 3),
        ([(g1, 0), (g2, 1)], 1, 3),
        # the same constraints in another order: B indexes them
        ([(g1, 0), (g2, 1), (g3, 2)], 1, 3),
        ([(g1, 0), (g3, 1), (g2, 2)], 1, 3),
    ]
    lift = ringcount._Lift(Meter.of(10 ** 6), 2, 3)
    walked = [lift.count(a, lo, hi) for a, lo, hi in nodes]
    assert walked == [node_counts(a, 2, 3, lo, hi) for a, lo, hi in nodes]


def test_powmod_matches_pow():
    col = np.arange(-20, 20, dtype=np.int64)
    for q in (2, 9, 3 ** 19):
        for e in range(1, 10):
            assert power(ModQ(q), col, e).tolist() == [pow(int(c), e, q) for c in col]


def test_vp():
    assert _vp(1, 3) == 0
    assert _vp(-18, 3) == 2
    assert _vp(2 ** 70, 2) == 70
    with pytest.raises(ValueError):
        _vp(0, 5)


# -- regions -------------------------------------------------------------------


def test_region_zero_partition():
    # count over Full = sum over the {zero, primitive} partition of the block
    spec = S("x1*x2 - x3", n=3)
    p, m = 3, 2
    full = count_zpm(spec, p, m, Region.full(3))
    zero = count_zpm(
        spec, p, m, Region(3, (((0, 3), ZeroModP()),))
    )
    prim = count_zpm(spec, p, m, Region(3, (((0, 3), PrimitiveBlock()),)))
    assert full == zero + prim


def test_a_full_region_walks_as_no_region(monkeypatch):
    # 3 x1^2 x2 is a monomial times a unit with offset 1, so the root is one
    # closed-form node of n (hi+1) (hi-o+1) = 2 * 5 * 4 steps and scans no
    # grid; the full region must be charged exactly the same
    real_charge, logs = ringcount.charge, []

    def charge(needed, budget, what="enumeration"):
        logs[-1].append((what, needed))
        real_charge(needed, budget, what)

    monkeypatch.setattr(ringcount, "charge", charge)
    gens = [P("3*x1^2*x2", 2)]
    counts = []
    for region in (None, Region.full(2)):
        logs.append([])
        counts.append(count_points_raw(gens, 2, 3, 4, region, orders=True))
    assert counts == [(9, 45, 297, 1377)] * 2
    assert logs == [[("closed-form node", 40)]] * 2


def test_region_unit_and_zero_per_coordinate():
    spec = S("x1 + x2", n=2)
    p, m = 5, 1
    full = count_zpm(spec, p, m)
    z = count_zpm(spec, p, m, Region(2, (((0, 1), ZeroModP()), ((1, 2), Full()))))
    u = count_zpm(spec, p, m, Region(2, (((0, 1), UnitModP()), ((1, 2), Full()))))
    assert full == z + u


def test_region_reduction_in_refuses_no_generator():
    with pytest.raises(ValueError, match="generator list is empty"):
        Region.reduction_in([])


def test_region_reduction_in():
    # x2 free mod 9 but reduction constrained to the parabola mod 3
    spec = S("x1 - x2^2", n=2)
    region = Region.reduction_in([P("x1 - x2^2", 2)])
    a = count_zpm(spec, 3, 2, region)
    b = count_zpm(spec, 3, 2)
    assert a == b  # solutions automatically satisfy their own reduction


@pytest.mark.parametrize(
    "gens,n,p,m,count",
    [
        # 3*x1 vanishes mod 3, so the lift route has no constraint left at
        # m = 1; the region must still cut the count down
        (["3*x1"], 1, 3, 1, 1),
        (["3*x1"], 1, 3, 2, 3),
        (["9*x1*x2"], 2, 3, 2, 9),
        (["0"], 2, 3, 2, 9),
    ],
)
def test_region_applies_when_no_constraint_is_left(gens, n, p, m, count):
    region = Region(n, (((0, n), ZeroModP()),))
    gens = [P(g, n) for g in gens]
    assert count_points_raw(gens, n, p, m, region, method="both") == count


@pytest.mark.parametrize(
    "gens, n, p, m, region, count",
    [
        (["x1^2+x2^2-x3^2-x4^2", "x1*x3-x2*x4"], 4, 5, 2, None, 4225),
        # r = 1 under its own reduction locus
        (["x1^2-x2^3"], 2, 5, 3, "reduction", 225),
        # 25*x1 vanishes mod 25, so the root has no constraint, only a region
        (["25*x1"], 2, 5, 2, Region(2, (((0, 1), UnitModP()), ((1, 2), ZeroModP()))), 100),
    ],
)
def test_a_lift_evaluates_no_polynomial_on_decoded_rows(gens, n, p, m, region, count, monkeypatch):
    # the Jacobian is read off the node's grid scan, not evaluated on rows
    gens = [P(g, n) for g in gens]
    if region == "reduction":
        region = Region.reduction_in(gens)

    def refuse(*args):
        raise AssertionError("a polynomial was evaluated on decoded rows")

    monkeypatch.setattr(ringcount, "eval_rows", refuse)
    assert count_points_raw(gens, n, p, m, region, method="both") == count


def test_region_membership_counts():
    reg = Region(3, (((0, 2), PrimitiveBlock()), ((2, 3), Full())))
    # primitive pairs mod 3: 9 - 1 = 8, times 3 free values
    assert reg.count_mod_p(3) == 24


def test_product_rule():
    # block-diagonal ideal: count multiplies
    f = P("x1^2 + 1", 1)
    g = P("x1^3 - x1", 1)
    both = IdealSpec.from_gens(
        [P("x1^2 + 1", 2), P("x2^3 - x2", 2)]
    )
    for p, m in [(3, 1), (5, 2)]:
        left = count_zpm(both, p, m)
        a = count_points_raw([f], 1, p, m)
        b = count_points_raw([g], 1, p, m)
        assert left == a * b


def test_determinism_across_thread_counts():
    spec = S("x1^2*x2 - x3 + 1", n=3)
    ref = count_zpm(spec, 3, 2, method="naive", threads=1)
    for t in (4, 8):
        assert count_zpm(spec, 3, 2, method="naive", threads=t) == ref


# -- count_ff -------------------------------------------------------------------


def test_count_ff_quadric_q3():
    assert count_ff(S("x1*x2 - x3*x4", n=4), 3, 1) == 33


def test_count_ff_quadric_q4():
    assert count_ff(S("x1*x2 - x3*x4", n=4), 2, 2) == 76


def test_count_ff_empty_gens_full_space():
    # zero polynomial imposes nothing
    assert count_points_raw([Poly.zero(2)], 2, 2, 1) == 4


def test_count_ff_matches_prime_field_counts():
    spec = S("x1^2 + x2^2 + x3^2", n=3)
    assert count_ff(spec, 7, 1) == 49


def test_count_ff_extension_field_consistency():
    # q and q^2 counts of a line: q^(n-1) points
    spec = S("x1 + x2", n=2)
    assert count_ff(spec, 3, 1) == 3
    assert count_ff(spec, 3, 2) == 9


# -- dimension estimation ---------------------------------------------------------


def test_dim_estimate_quadric_surface():
    est = dim_estimate(S("x1*x2 - x3*x4", n=4), primes=[7, 11], maxk=1)
    assert est.dim == 3
    assert est.confident
    assert (11, 1441) in est.samples


def test_dim_estimate_cone():
    est = dim_estimate(S("x1^2 + x2^2 + x3^2", n=3), primes=[5, 7], maxk=1)
    assert est.dim == 2 and est.confident


def test_dim_estimate_unit_ideal_proxy():
    est = dim_estimate(S("x1^2 + 1", n=1), primes=[3, 7], maxk=1)
    assert est.dim == -1 and est.confident


def test_dim_estimate_point():
    est = dim_estimate(S("x1", n=1), primes=[5, 7], maxk=1)
    assert est.dim == 0 and est.confident


def test_dim_estimate_ladder_stops_at_the_field_table_cap():
    # 11^4 = 14,641 and 13^4 = 28,561 have no GFTable; every smaller field answers
    est = dim_estimate(S("x1^2", n=1), maxk=4)
    assert [q for q, _ in est.samples] == [7, 11, 13, 49, 121, 169, 343, 1331, 2197, 2401]
    assert all(c == 1 for _, c in est.samples)
    assert est.dim == 0 and est.confident


# -- bsing --------------------------------------------------------------------------


def test_bsing_quadric_cone():
    spec = S("x1^2 + x2^2 + x3^2", n=3)
    s = bsing_dim(spec, primes=[7, 11])
    assert s[2].dim == 0 and s[2].confident


def test_bsing_vinogradov():
    n = 4
    gens = []
    for i in range(1, 4):
        f = Poly.zero(n)
        for j in range(2):
            f = f + Poly.var(j, n) ** i - Poly.var(2 + j, n) ** i
        gens.append(f)
    spec = IdealSpec.from_gens(gens)
    s = bsing_dim(spec, primes=[7, 11])
    assert s[1].dim == -1
    assert s[2].dim == 0
    assert s[3].dim == 0


def test_bsing_dependent_forms():
    spec = IdealSpec(2, [(2, [P("x1^2", 2), P("2*x1^2", 2)])])
    s = bsing_dim(spec)
    assert s[2].dim == 2 and s[2].confident


def test_dim_products_add():
    # product of a line (dim 1 in A^2) and a point (dim 0 in A^1)
    spec = IdealSpec.from_gens([P("x1 + x2", 3), P("x3", 3)])
    est = dim_estimate(spec, primes=[7, 11], maxk=1)
    line = dim_estimate(S("x1 + x2", n=2), primes=[7, 11], maxk=1)
    pt = dim_estimate(S("x1", n=1), primes=[7, 11], maxk=1)
    assert est.dim == line.dim + pt.dim


# -- the split gate -------------------------------------------------------------
#
# split_halves splits a separable box of more than SPLIT_POINTS = 2^14
# points and scans one of at most that many; the lift, value_histogram
# (tests/test_expsum.py) and count_box_solutions (tests/test_circle.py)
# all route through it.


def charges(monkeypatch):
    """The list that the lift's charges are logged to."""
    real, log = ringcount.charge, []

    def charge(needed, budget, what="enumeration"):
        real(needed, budget, what)
        log.append(needed)

    monkeypatch.setattr(ringcount, "charge", charge)
    return log


def squares(n):
    return P("+".join(f"x{j}^2" for j in range(1, n + 1)), n)


@pytest.mark.parametrize(
    "p, n, m, first",
    [
        (2, 14, 1, 2 ** 14),  # at the gate: one scan of (Z/2)^14
        (3, 9, 1, 3 ** 5 + 3 ** 4),  # 19,683 points: halves of 5 and 4 axes
        (2, 15, 1, 2 ** 8 + 2 ** 7),
        # above order 1, the halves' critical sets are {0} x {0}
        (3, 9, 2, 3 ** 5 + 3 ** 4 + 1),
    ],
)
def test_the_lift_splits_a_separable_node_above_the_gate(monkeypatch, p, n, m, first):
    assert ringcount.SPLIT_POINTS == 2 ** 14
    f = squares(n)
    log = charges(monkeypatch)
    lift = count_points_raw([f], n, p, m)
    assert log[0] == first
    # the same count with the gate at CHUNK scans the root
    monkeypatch.setattr(ringcount, "SPLIT_POINTS", ringcount.CHUNK)
    log.clear()
    assert lift == count_points_raw([f], n, p, m)
    assert log[0] == p ** n
    if m == 1:
        assert lift == count_points_raw([f], n, p, m, method="naive")


@pytest.mark.parametrize(
    "grid",
    [
        Grid(4, 29),  # (Z/29)^4
        Grid(4, Int64(), (-6, -5, -5, -4), (13, 12, 11, 10)),  # 17,160 integers
        Grid(4, GFTable(2, 4), (1,) * 4, (15,) * 4),  # the units of F_16
    ],
)
def test_split_halves_hands_out_boxed_half_grids(grid):
    f = P("x1^3+x2^3+x3^3-x4^3", 4)
    halves = ringcount.split_halves([f], grid)
    assert sorted(j for axes, _, _ in halves for j in axes) == [0, 1, 2, 3]
    for axes, half, parts in halves:
        assert half.ring is grid.ring and half.k == len(axes) == parts[0].nvars
        assert half.lows == tuple(grid.lows[j] for j in axes)
        assert half.sizes == tuple(grid.sizes[j] for j in axes)


def test_two_planes_never_split(monkeypatch):
    # x1*x2, x2*x3 share x2: one block, so a box of 29^3 = 24,389 points,
    # above the gate, is scanned whole
    gens = [P("x1*x2", 3), P("x2*x3", 3)]
    assert ringcount.split_halves(gens, Grid(3, 29)) is None
    log = charges(monkeypatch)
    # x2 = 0, or x1 = x3 = 0
    assert count_points_raw(gens, 3, 29, 1) == 29 ** 2 + 29 - 1
    assert log == [29 ** 3]
