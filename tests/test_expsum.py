import cmath
import inspect
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from iosc import expsum, gf, ringcount
from iosc.errors import BudgetExceeded
from iosc.expsum import (
    CycloValue,
    E_charsum,
    E_counts,
    cyclo_reduce,
    cyclotomic_poly,
    equals_rational,
    ff_char_sum,
    phase_histogram,
    reduce_mod_cyclotomic,
    to_complex,
    torus_sum_check,
    verify_moidef,
)
from iosc.poly import IdealSpec, Poly, Weight, parse_poly
from iosc.ringcount import Region, ZeroModP


def P(text, n):
    return parse_poly(text, n)


def S(*texts, n):
    return IdealSpec.from_gens([P(t, n) for t in texts])


# -- cyclotomic reduction ------------------------------------------------------


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(9) == [1, 0, 0, 1, 0, 0, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]


def test_reduce_sum_of_all_roots_is_minus_one_free():
    # 1 + z + z^2 + ... + z^{p-1} = 0 for prime p
    for p in (2, 3, 5, 7):
        vec = reduce_mod_cyclotomic([1] * p, p)
        assert all(v == 0 for v in vec)


def test_cyclo_reduce_binary():
    h = phase_histogram(P("x1", 1), 2, 1)
    assert h.counts == (1, 1)
    assert equals_rational(cyclo_reduce(h), 0)


def test_cyclo_random_vs_numeric():
    rng = random.Random(11)
    for n in (3, 4, 5, 9, 12):
        counts = [rng.randint(0, 9) for _ in range(n)]
        vec = reduce_mod_cyclotomic(counts, n)
        # numeric check: both expressions give the same complex number
        z = cmath.exp(2j * cmath.pi / n)
        direct = sum(c * z ** j for j, c in enumerate(counts))
        reduced = sum(float(v) * z ** j for j, v in enumerate(vec))
        assert abs(direct - reduced) < 1e-9


# -- phase histograms ------------------------------------------------------------


def test_phase_histogram_squares_mod5():
    h = phase_histogram(P("x1^2", 1), 5, 1)
    assert h.counts == (1, 2, 0, 0, 2)


def test_phase_histogram_zero_poly():
    h = phase_histogram(Poly.zero(1), 3, 1)
    assert h.counts == (3, 0, 0)


def test_complete_linear_sum_vanishes():
    for p, m in [(2, 2), (3, 1), (3, 2), (5, 1)]:
        h = phase_histogram(P("x1", 1), p, m)
        assert equals_rational(cyclo_reduce(h), 0)


def test_conjugation_symmetry():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 2)
        f = Poly(
            n,
            {
                tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)
                for _ in range(3)
            },
        )
        p, m = rng.choice([(3, 1), (3, 2), (5, 1)])
        q = p ** m
        hf = phase_histogram(f, p, m)
        hg = phase_histogram(-f, p, m)
        for j in range(q):
            assert hf.counts[j] == hg.counts[(q - j) % q]


def test_gauss_sum_magnitude():
    h = phase_histogram(P("x1^2", 1), 5, 1)
    assert abs(abs(to_complex(h)) - math.sqrt(5)) < 1e-9


def test_to_complex_trivial_cases():
    assert to_complex(PhaseZero := phase_histogram(Poly.zero(2), 3, 1)) == 9
    assert PhaseZero.counts[0] == 9


def test_magnitude_invariant_under_unit_scaling():
    f = P("x1^2 + x1*x2", 2)
    p, m = 5, 1
    base = abs(to_complex(phase_histogram(f, p, m)))
    for u in range(2, p):
        scaled = abs(to_complex(phase_histogram(f * u, p, m)))
        assert abs(base - scaled) < 1e-9


# -- E^(r): counts form ------------------------------------------------------------


def test_E_counts_linear():
    assert E_counts(S("x1", n=1), 1, 3, 1) == 0


def test_E_counts_square_m2():
    assert E_counts(S("x1^2", n=1), 1, 3, 2) == Fraction(2, 9)


def test_E_counts_three_squares():
    assert E_counts(S("x1^2 + x2^2 + x3^2", n=3), 1, 5, 1) == 0


def test_E_counts_with_region():
    # restricting to the zero block mod p: X(Z/9)|_Z = {0} and N_1|_Z = 1
    spec = S("x1", n=1)
    Z = Region(1, (((0, 1), ZeroModP()),))
    val = E_counts(spec, 1, 3, 2, Z=Z)
    assert val == Fraction(1, 9) - Fraction(1, 9)


# -- E^(r): character-sum form and the central identity -----------------------------


def test_E_charsum_square_p3_m2():
    v = E_charsum(S("x1^2", n=1), 1, 3, 2)
    assert equals_rational(v, Fraction(2, 9))


def test_E_charsum_linear_p2_m2():
    v = E_charsum(S("x1", n=1), 1, 2, 2)
    assert equals_rational(v, 0)


def test_E_charsum_xy_m1():
    v = E_charsum(S("x1*x2", n=2), 1, 3, 1)
    assert equals_rational(v, Fraction(2, 9))


def test_E_charsum_direct_equals_grouped():
    rng = random.Random(42)
    for _ in range(8):
        n = rng.randint(1, 2)
        r = rng.randint(1, 2)
        gens = []
        for _ in range(r):
            f = Poly(
                n,
                {
                    tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)
                    for _ in range(2)
                },
            )
            if f.is_zero() or f.is_constant():
                f = f + Poly.var(0, n) * rng.randint(1, 3)
            gens.append(f)
        try:
            spec = IdealSpec.from_gens(gens)
        except ValueError:
            continue
        if spec.r != r:
            continue
        p, m = rng.choice([(2, 2), (3, 1), (3, 2)])
        a = E_charsum(spec, r, p, m, method="grouped")
        b = E_charsum(spec, r, p, m, method="direct")
        assert a == b


def test_grouped_charsum_is_charged_the_phases_it_forms():
    # the x-pass's 125 points, then the 15,000 primitive y mod 125 times
    # the 103 classes of (x^2, x^3) mod 125: 1,545,000 phases
    spec = S("x1^2", "x1^3", n=1)
    with pytest.raises(BudgetExceeded):
        E_charsum(spec, 2, 5, 3, budget=20_000)
    with pytest.raises(BudgetExceeded):
        E_charsum(spec, 2, 5, 3, budget=125 + 1_545_000 - 1)
    assert E_charsum(spec, 2, 5, 3, budget=125 + 1_545_000) == E_charsum(spec, 2, 5, 3)


def test_a_refused_charsum_holds_memory_by_points_not_by_value_vectors():
    # (x1, x1^2) at p = 2, m = 12: 4,096 points of x, but q^r = 2^24 value
    # vectors, whose dense int64 bins alone would take 128 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            E_charsum(S("x1", "x1^2", n=1), 2, 2, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def grid_sizes(monkeypatch):
    """The points of every grid a GridPolys scan is built on, from now on."""
    real, sizes = ringcount.GridPolys.__init__, []

    def record(self, grid, polys):
        sizes.append(math.prod(grid.sizes))
        real(self, grid, polys)

    monkeypatch.setattr(ringcount.GridPolys, "__init__", record)
    return sizes


@pytest.mark.parametrize("q, scans", [(128, [128 * 128]), (129, [129, 129])])
def test_a_value_histogram_splits_above_the_gate(monkeypatch, q, scans):
    # (Z/128)^2 has 2^14 points, at the gate; (Z/129)^2 has 16,641
    f = [P("x1^2+3*x2^3", 2)]
    sizes = grid_sizes(monkeypatch)
    tally = expsum.value_histogram(ringcount.Grid(2, q), f, None, 1)
    assert sizes == scans
    monkeypatch.setattr(ringcount, "SPLIT_POINTS", ringcount.CHUNK)
    sizes.clear()
    assert np.array_equal(tally, expsum.value_histogram(ringcount.Grid(2, q), f, None, 1))
    assert sizes == [q * q]


def test_the_charsum_x_pass_of_a_diagonal_cubic_scans_only_half_grids(monkeypatch):
    # x1^3 + ... + x4^3 mod 49: two half grids of 49^2 points, not 49^4
    cubic = S("x1^3+x2^3+x3^3+x4^3", n=4)
    sizes = grid_sizes(monkeypatch)
    E_charsum(cubic, 1, 7, 2)
    assert sizes and max(sizes) <= ringcount.CHUNK
    monkeypatch.undo()
    assert verify_moidef(cubic, 1, 7, 2)


def test_a_split_charsum_equals_the_unsplit_direct_sum_and_the_counts(monkeypatch):
    monkeypatch.setattr(ringcount, "CHUNK", 7)
    spec = S("x1^2+x2^2+x3^3", n=3)

    def unreachable(*args, **kwargs):
        raise AssertionError("the grouped sum counted points")

    with monkeypatch.context() as mp:
        # the grouped route tallies half grids and never counts a zero
        for name in ("_count_naive", "_Lift", "_split_zeros"):
            mp.setattr(ringcount, name, unreachable)
        sizes = grid_sizes(mp)
        grouped = E_charsum(spec, 1, 3, 2)
        assert max(sizes) < 9 ** 3
    sizes = grid_sizes(monkeypatch)
    direct = E_charsum(spec, 1, 3, 2, method="direct")
    assert max(sizes) == 9 ** 4  # one scan of (y, x), with its region mask
    assert grouped == direct
    assert equals_rational(grouped, E_counts(spec, 1, 3, 2))


def test_verify_moidef_examples():
    assert verify_moidef(S("x1^2", n=1), 1, 3, 2)
    assert verify_moidef(S("x1", n=1), 1, 2, 2)
    assert verify_moidef(S("x1*x2", n=2), 1, 3, 1)


def test_verify_moidef_random_corpus():
    rng = random.Random(777)
    checked = 0
    while checked < 15:
        n = rng.randint(1, 2)
        r = rng.randint(1, 2)
        gens = []
        for _ in range(r):
            terms = {
                tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 3))
            }
            f = Poly(n, terms)
            if f.is_zero() or f.is_constant():
                continue
            gens.append(f)
        if len(gens) != r:
            continue
        try:
            spec = IdealSpec.from_gens(gens)
        except ValueError:
            continue
        if spec.r != r:
            continue
        p = rng.choice([2, 3, 5])
        m = rng.randint(1, 3)
        if (p ** m) ** max(n, r) > 100_000:
            continue
        assert verify_moidef(spec, r, p, m), (gens, p, m)
        checked += 1


def test_generating_set_independence():
    # (x1, x1 + x1^2) and (x1, x1^2) generate the same ideal; r-matched
    # sums agree for p beyond the degree bound
    a = IdealSpec.from_gens([P("x1", 1), P("x1 + x1^2", 1)])
    b = IdealSpec.from_gens([P("x1", 1), P("x1^2", 1)])
    for p in (5, 7):
        for m in (1, 2, 3):
            assert E_charsum(a, 2, p, m) == E_charsum(b, 2, p, m)
            assert E_counts(a, 2, p, m) == E_counts(b, 2, p, m)


# -- finite-field sums ----------------------------------------------------------------


def test_ff_gauss_ratio():
    res = ff_char_sum(P("x1^2", 1), None, 5)
    assert abs(res.ratio - 1.0) < 1e-9
    assert res.s == 0 or res.s == -1  # 2x = 0 only at origin


def test_ff_cubic_weil():
    res = ff_char_sum(P("x1^3", 1), None, 7, s=0)
    assert res.ratio <= 2.0
    assert abs(abs(res.value) - abs(complex(res.value))) < 1e-12


def test_ff_linear_full_sum():
    res = ff_char_sum(P("x1", 1), None, 7, s=-1)
    assert abs(res.value) < 1e-9
    assert res.ratio < 1e-9


@pytest.mark.parametrize(
    "text, n, p, k",
    # the singular locus over F_p-bar is the line x1 = 0 and the x3-axis
    [("x1^2+3*x2^2", 2, 3, 2), ("x1^2+x2^2+7*x3^2", 3, 7, 1)],
)
def test_ff_char_sum_estimates_the_singular_locus_in_characteristic_p(text, n, p, k):
    res = ff_char_sum(P(text, n), None, p, k)
    assert (res.s, res.s_source) == (1, "estimated")
    # a quadratic form of rank n - 1: |sum| = q^(n/2) * q^(1/2)
    assert abs(res.ratio - 1.0) < 1e-9


def test_ff_char_sum_reports_an_unconfident_estimate_as_such():
    # p^2 is past MAX_TABLE_Q, so the ladder is the one field F_101
    res = ff_char_sum(P("x1^3+x2^3", 2), None, 101)
    assert (res.s, res.s_source) == (0, "estimated-unconfident")


def test_ff_char_sum_builds_the_field_of_its_ladder_once(monkeypatch):
    built = []
    init = gf.GFTable.__init__

    def counting(self, p, k):
        built.append((p, k))
        init(self, p, k)

    monkeypatch.setattr(gf.GFTable, "__init__", counting)
    res = ff_char_sum(P("x1^3+x2^3+x3^3+x4^3", 4), None, 5, 2)
    assert built == [(5, 2)]
    assert res.s_source == "estimated"


@pytest.mark.parametrize("s", [-5, 1.5, True, 3])
def test_ff_char_sum_refuses_a_given_s_outside_minus_one_to_n(s):
    with pytest.raises(ValueError, match="^s must"):
        ff_char_sum(P("x1^3+x2^3", 2), None, 7, s=s)


def test_ff_constraints():
    # with x2 = 0 the sum over x1 of psi(x1 * x2) is q
    res = ff_char_sum(P("x1*x2", 2), None, 5, J1={1}, s=-1)
    assert abs(res.value - 5) < 1e-9


def test_ff_char_sum_passes_threads_to_its_dimension_estimate(monkeypatch):
    real, seen = expsum.dim_estimate_raw, []

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["threads"])
        return real(*args, **kwargs)

    monkeypatch.setattr(expsum, "dim_estimate_raw", spy)
    ff_char_sum(P("x1^2", 1), None, 5, threads=2)
    assert seen == [2]


@pytest.mark.parametrize("J", [{"J1": {-1}}, {"J1": {5}}, {"J2": {2}}])
def test_ff_constraints_outside_the_variables_are_refused(J):
    with pytest.raises(ValueError):
        ff_char_sum(P("x1^3+x2^3", 2), None, 7, 1, s=0, **J)


def test_ff_extension_field():
    # complete linear sum over F_9 vanishes
    res = ff_char_sum(P("x1", 1), None, 3, k=2, s=-1)
    assert abs(res.value) < 1e-9


def test_ff_warns_on_bad_degree():
    with pytest.warns(UserWarning):
        ff_char_sum(P("x1^3", 1), None, 3, s=0)


# -- torus transform identity -----------------------------------------------------------


def test_torus_check_trivial_weight():
    assert torus_sum_check(P("x1^2", 1), None, Weight((1,)), 3)


def test_torus_check_square_weight2():
    assert torus_sum_check(P("x1^2", 1), None, Weight((2,)), 3)


def test_torus_check_with_g():
    assert torus_sum_check(P("x1*x2", 2), P("x1", 2), Weight((2, 1)), 5)


def test_torus_check_charges_each_side_its_box():
    # the grid-verify inputs: the left side scans 16 * 15 * 15 * 16 * 15 =
    # 864,000 points (x2, x3, x5 units), the right side 16^2 = 256
    f, g, w = P("x1^2+x2^3", 2), P("x1*x2", 2), Weight((3, 2))
    assert torus_sum_check(f, g, w, 2, 4, budget=864_256)
    with pytest.raises(BudgetExceeded):
        torus_sum_check(f, g, w, 2, 4, budget=864_255)


def test_torus_check_names_a_g_in_other_variables():
    with pytest.raises(ValueError, match="^g has 3 variables, f has 2$"):
        torus_sum_check(P("x1^2+x2^2", 2), P("x3", 3), Weight((1, 1)), 5)


def test_torus_check_random():
    rng = random.Random(5150)
    done = 0
    while done < 12:
        n = rng.randint(1, 2)
        w = Weight(tuple(rng.randint(1, 2) for _ in range(n)))
        f = Poly(
            n,
            {
                tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)
                for _ in range(2)
            },
        )
        if f.is_zero() or f.is_constant():
            continue
        from iosc.poly import top_part, wdeg

        ftop = top_part(f, w)
        glow = f - ftop
        if wdeg(ftop, w) < 1:
            continue
        p, k = rng.choice([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
        if wdeg(glow, w) >= wdeg(ftop, w) and not glow.is_zero():
            continue
        assert torus_sum_check(ftop, glow if not glow.is_zero() else None, w, p, k)
        done += 1


# -- prime check at the F_q entry points ------------------------------------------------


@pytest.mark.parametrize("p", [1, 4, 6])
def test_ff_char_sum_rejects_non_prime(p):
    with pytest.raises(ValueError):
        ff_char_sum(P("x1^3", 1), None, p)


def test_torus_check_rejects_non_prime():
    with pytest.raises(ValueError):
        torus_sum_check(P("x1^2", 1), None, Weight((2,)), 6)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gf.GFTable(2, 0),
        lambda: ringcount.count_ff(S("x1^2", n=1), 3, 0),
        lambda: ff_char_sum(P("x1^3", 1), None, 3, 0),
        lambda: torus_sum_check(P("x1^2", 1), None, Weight((2,)), 3, 0),
    ],
    ids=["GFTable", "count_ff", "ff_char_sum", "torus_sum_check"],
)
def test_the_f_q_entry_points_name_the_extension_degree_k(call):
    with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
        call()
