import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from iosc import circle, ringcount
from iosc.circle import (
    BoxSpec,
    convolution_fiber_ideal,
    count_box_solutions,
    major_arc_prediction,
    singular_integral,
    waring_surjectivity,
)
from iosc.errors import Meter
from iosc.poly import IdealSpec, Poly, parse_poly


def P(text, n):
    return parse_poly(text, n)


def S(*texts, n):
    return IdealSpec.from_gens([P(t, n) for t in texts])


F = Fraction


# -- box counting -------------------------------------------------------------


def test_count_box_cone_B1():
    spec = S("x1^2 + x2^2 - x3^2", n=3)
    assert count_box_solutions(spec, BoxSpec.cube(3), 1) == 9


def test_count_box_line():
    assert count_box_solutions(S("x1", n=1), BoxSpec.cube(1), 10) == 1


def test_count_box_definite():
    assert count_box_solutions(S("x1^2 + x2^2", n=2), BoxSpec.cube(2), 10) == 1


def test_count_box_monotone_in_B():
    spec = S("x1^2 + x2^2 - x3^2", n=3)
    counts = [count_box_solutions(spec, BoxSpec.cube(3), B) for B in (2, 5, 10, 20)]
    assert counts == sorted(counts)


def test_count_box_monotone_in_box():
    spec = S("x1^2 + x2^2 - x3^2", n=3)
    small = BoxSpec.cube(3, F(1, 2))
    big = BoxSpec.cube(3)
    B = 12
    assert count_box_solutions(spec, small, B) <= count_box_solutions(spec, big, B)


@pytest.mark.parametrize("B", [0, -5])
def test_a_box_scale_below_one_is_refused(B):
    spec = S("x1^2 + x2^2 - x3^2", n=3)
    with pytest.raises(ValueError):
        count_box_solutions(spec, BoxSpec.cube(3), B)
    with pytest.raises(ValueError):
        major_arc_prediction(spec, BoxSpec.cube(3), B, 3, [0.2, 0.1], samples=1000)


@pytest.mark.parametrize("B", [2.5, 2.0, True])
def test_a_non_integer_box_scale_is_refused(B):
    # B = 2.5 would scale the box to [-2, 2]^3 and count its 17 points
    spec = S("x1^2 + x2^2 - x3^2", n=3)
    with pytest.raises(ValueError, match="B must be an integer"):
        count_box_solutions(spec, BoxSpec.cube(3), B)
    with pytest.raises(ValueError, match="B must be an integer"):
        major_arc_prediction(spec, BoxSpec.cube(3), B, 3, [0.2, 0.1], samples=1000)


def test_count_box_requires_homogeneous():
    with pytest.raises(ValueError):
        count_box_solutions(S("x1^2 + x1", n=1), BoxSpec.cube(1), 5)


@pytest.mark.parametrize(
    "top, points, charged", [(F(127, 128), 128 * 128, 128 * 128), (F(1), 129 * 128, 129 + 128)]
)
def test_a_box_count_splits_above_the_gate(monkeypatch, top, points, charged):
    # at B = 128 the box [0, top] x [0, 127/128] has 128 x 128 = 2^14
    # points (at the gate) or 129 x 128 (above it)
    spec = S("x1^2-x2^2", n=2)
    box = BoxSpec(((F(0), top), (F(0), F(127, 128))))
    meter = Meter(10 ** 6)
    count = count_box_solutions(spec, box, 128, budget=meter)
    assert 10 ** 6 - meter.left == charged
    monkeypatch.setattr(ringcount, "SPLIT_POINTS", ringcount.CHUNK)
    meter = Meter(10 ** 6)
    assert count == count_box_solutions(spec, box, 128, budget=meter) == 128
    assert 10 ** 6 - meter.left == points


@pytest.mark.parametrize(
    "gens, n, top, count, splits",
    [
        (["x1^2-x2^2"], 2, F(1), 128, True),  # 129 x 128 points, one generator
        (["x1^2-x2^2"], 2, F(127, 128), 128, False),  # 2^14 points, at the gate
        (["x1^2-x2^2", "x3"], 3, F(1), 128, False),  # r = 2 is scanned whole
    ],
)
def test_a_separable_box_count_is_the_lifts_order_one_split(
    monkeypatch, gens, n, top, count, splits
):
    calls, real = [], circle._split_zeros

    def spy(halves, meter, hi, what):
        calls.append((hi, what))
        return real(halves, meter, hi, what)

    monkeypatch.setattr(circle, "_split_zeros", spy)
    box = BoxSpec(((F(0), top),) + ((F(0), F(127, 128)),) * (n - 1))
    assert count_box_solutions(S(*gens, n=n), box, 128) == count
    assert calls == ([(1, "box enumeration")] if splits else [])


# -- singular integral -----------------------------------------------------------


def test_j_integral_slab_exact():
    spec = S("x1", n=2)
    rep = singular_integral(
        spec, BoxSpec.cube(2), [0.5, 0.25], sampler="grid", grid_resolution=200
    )
    assert rep.converged
    # exact slab value is 2; grid discretization bias is one cell per edge
    assert abs(rep.value - 2.0) < 0.1


def test_j_integral_slab_mc_matches_grid():
    spec = S("x1", n=2)
    a = singular_integral(spec, BoxSpec.cube(2), [0.5, 0.25], sampler="mc", seed=7)
    assert abs(a.value - 2.0) < 0.1


def test_j_integral_cone():
    spec = S("x1^2 + x2^2 - x3^2", n=3)
    rep = singular_integral(
        spec, BoxSpec.cube(3), [0.2, 0.1], sampler="mc", seed=11, samples=600_000
    )
    assert rep.converged
    assert 5.0 < rep.value < 8.0  # exact value 2*pi


def test_j_integral_empty_locus():
    spec = S("x1^2 + 1", n=1)
    rep = singular_integral(spec, BoxSpec.cube(1), [0.5, 0.25], sampler="grid")
    assert rep.value == 0.0


@pytest.mark.parametrize(
    "eps, options",
    [
        ([0.0], {}),
        ([-0.1], {}),
        ([0.2, 0.0], {}),
        ([float("nan")], {}),
        ([0.2, float("inf")], {}),
        ([0.2, 0.1], {"samples": 0}),
        ([0.2, 0.1], {"sampler": "grid", "grid_resolution": 0}),
        ([0.2, 0.1], {"sampler": "grid", "grid_resolution": 2.5}),
        ([0.2, 0.1], {"samples": 2.5}),
        ([0.2, 0.1], {"samples": True}),
        ([0.2, 0.1], {"seed": 1.5}),
        ([0.2, 0.1], {"seed": -1}),
    ],
    ids=[
        "zero", "negative", "zero-in-ladder", "nan", "inf", "no-samples", "no-grid",
        "fractional-grid", "fractional-samples", "bool-samples", "fractional-seed",
        "negative-seed",
    ],
)
def test_j_integral_rejects_a_bad_ladder_or_sample_size(eps, options):
    with pytest.raises(ValueError):
        singular_integral(S("x1", n=2), BoxSpec.cube(2), eps, **options)


@pytest.mark.parametrize(
    "box, options",
    [
        (BoxSpec.cube(3), {}),
        (BoxSpec.cube(1), {"sampler": "grid"}),
        (BoxSpec.cube(2), {"sampler": "grid", "grid_resolution": 2.5}),
        (BoxSpec.cube(2), {"seed": -1}),
    ],
    ids=["box-too-big", "box-too-small", "fractional-grid", "negative-seed"],
)
def test_j_integral_refuses_a_bad_input_before_charging(box, options):
    meter = Meter(10 ** 8)
    with pytest.raises(ValueError):
        singular_integral(S("x1", n=2), box, [0.2, 0.1], budget=meter, **options)
    assert meter.left == 10 ** 8


def test_j_integral_deterministic_for_seed():
    spec = S("x1^2 + x2^2 - x3^2", n=3)
    a = singular_integral(spec, BoxSpec.cube(3), [0.2, 0.1], seed=123)
    b = singular_integral(spec, BoxSpec.cube(3), [0.2, 0.1], seed=123)
    assert a.estimates == b.estimates


def _eval_all_at_once(f, pts):
    acc = np.zeros(len(pts), dtype=np.float64)
    for expo, coeff in f.terms.items():
        t = np.full(len(pts), float(coeff))
        for j, e in enumerate(expo):
            if e:
                t = t * pts[:, j] ** e
        acc += t
    return acc


def j_all_at_once(spec, box, eps_ladder, sampler, seed, samples, grid_resolution):
    """The estimates of singular_integral from every point built at once:
    one draw of all samples, or the whole meshgrid."""
    n, r = spec.nvars, spec.r
    lo = np.array([float(l) for l, _ in box.bounds])
    hi = np.array([float(h) for _, h in box.bounds])
    if sampler == "mc":
        pts = lo + (hi - lo) * np.random.default_rng(seed).random((samples, n))
    else:
        axes = [
            l + (h - l) * (np.arange(grid_resolution) + 0.5) / grid_resolution
            for l, h in zip(lo, hi)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
    weight = float(box.volume) / len(pts)
    vals = [np.abs(_eval_all_at_once(g, pts)) for g in spec.generators]
    estimates = []
    for eps in sorted(eps_ladder, reverse=True):
        inside = np.ones(len(pts), dtype=bool)
        for v in vals:
            inside &= v <= eps / 2
        vol = float(inside.sum()) * weight
        estimates.append((eps, vol / eps ** r))
    return estimates


# the largest eps of a ladder holds every point of the box, so a lost or
# repeated point changes its estimate
STREAM_CASES = {
    "line": (S("x1", n=1), BoxSpec.cube(1), [4.0, 0.5, 0.25]),
    "cubic-plane": (S("3*x1^3 - x2 + 1", n=2), BoxSpec(((F(-1, 2), F(1, 3)), (F(0), F(1)))),
                    [20.0, 0.3, 0.2, 0.1]),
    "cone": (S("x1^2 + x2^2 - x3^2", n=3), BoxSpec.cube(3), [8.0, 0.2, 0.1]),
    "cone-4": (S("x1^2 + x2^2 + x3^2 - x4^2", n=4), BoxSpec.cube(4, F(1, 2)), [0.4, 9.0]),
    "r2-plane": (S("x1 + x2", "x1*x2", n=2), BoxSpec.cube(2), [0.7, 0.35, 9.0]),
    "r2-cone": (S("x1 - x2", "x1^2 + x2^2 - x3^2", n=3), BoxSpec.cube(3), [9.0, 0.5, 0.3]),
    # unequal sides, two generators and exponents past the square
    "r2-quintic-4": (S("x1^5 + 2*x2^3*x3 - x4^2", "x1*x4 - 3*x3^4 + x2", n=4),
                     BoxSpec(((F(-1), F(1)), (F(0), F(1)), (F(-1), F(0)), (F(-1), F(1)))),
                     [30.0, 0.5, 0.3]),
}


@pytest.mark.parametrize("chunk", [7, 64, 1000])
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
@pytest.mark.parametrize(
    "sampler, seed, samples, resolution",
    [("mc", 0, 1003, 40), ("mc", 123, 389, 40), ("grid", 0, 400_000, 5)],
    ids=["mc-seed0", "mc-seed123", "grid"],
)
def test_streaming_changes_no_estimate(monkeypatch, chunk, case, sampler, seed, samples,
                                       resolution):
    # blocks of chunk // n rows: chunks 7 and 64 leave a partial last block
    # in every case but the blocks of one row (n = 4, chunk = 7); chunk 1000
    # leaves one for 1003 draws and the 5^4 grid, and takes the rest whole
    monkeypatch.setattr(ringcount, "CHUNK", chunk)
    spec, box, ladder = STREAM_CASES[case]
    rep = singular_integral(spec, box, ladder, sampler=sampler, seed=seed, samples=samples,
                            grid_resolution=resolution)
    expected = j_all_at_once(spec, box, ladder, sampler, seed, samples, resolution)
    assert rep.estimates == expected
    assert rep.value == expected[-1][1]
    assert rep.samples == (samples if sampler == "mc" else resolution ** spec.nvars)
    assert rep.seed == (seed if sampler == "mc" else None)


@pytest.mark.parametrize(
    "options", [{"samples": 2_000_000}, {"sampler": "grid", "grid_resolution": 40}],
    ids=["mc-2M", "grid-40^4"],
)
def test_the_memory_of_the_singular_integral_follows_its_blocks(options):
    spec = S("x1^2 + x2^2 + x3^2 - x4^2", n=4)
    tracemalloc.start()
    try:
        singular_integral(spec, BoxSpec.cube(4), [0.2, 0.1], **options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all points at once would take 64 MB (2M x 4 floats) and 82 MB (40^4 x 4)
    assert peak < 16 * 2 ** 20


# -- prediction ---------------------------------------------------------------------


def test_major_arc_definite_form_flagged():
    spec = S("x1^2 + x2^2", n=2)
    rep = major_arc_prediction(
        spec, BoxSpec.cube(2), B=10, Qmax=8, eps_ladder=[0.2, 0.1], seed=5
    )
    assert rep.degenerate


def test_major_arc_line_trivial():
    spec = S("x1", n=1)
    rep = major_arc_prediction(
        spec, BoxSpec.cube(1), B=10, Qmax=10, eps_ladder=[0.5, 0.25], seed=5
    )
    # N = 1 exactly; prediction = S * J * B^0 with S = 1 (only q=1) and J = 2?
    # the slab in one variable: vol{|x| <= eps/2} = eps, so J = 1
    assert rep.actual == 1
    assert 0.5 <= rep.ratio <= 2.0


def test_one_epsilon_is_never_converged_and_the_prediction_flags_it():
    # convergence compares the last two ladder values, so a ladder of one
    # has none to compare
    spec = S("x1", n=1)
    rep = singular_integral(spec, BoxSpec.cube(1), [0.25], sampler="grid")
    assert not rep.converged
    assert len(rep.estimates) == 1
    pred = major_arc_prediction(
        spec, BoxSpec.cube(1), B=10, Qmax=10, eps_ladder=[0.25], seed=5, samples=1000
    )
    assert not pred.j_integral.converged
    assert "j-integral-not-converged" in pred.flags


@pytest.mark.parametrize(
    "gens, n, box, B, message",
    [
        (["x1^2 + x2"], 2, BoxSpec.cube(2), 3, "homogeneous"),
        (["x1^2 - x2^2"], 2, BoxSpec.cube(3), 3, "box dimension"),
        # |x1^2| + |x2^2| reaches 2^63 on [-2^31, 2^31]^2
        (["x1^2 - x2^2"], 2, BoxSpec.cube(2), 2 ** 31, "too large"),
    ],
    ids=["inhomogeneous", "dimension", "2^62"],
)
def test_a_refused_box_count_draws_nothing_from_the_meter(gens, n, box, B, message):
    # the prediction checks the box count's input before its integral draws
    spec = S(*gens, n=n)
    meter = Meter(10 ** 6)
    with pytest.raises(ValueError, match=message):
        major_arc_prediction(spec, box, B, 3, [0.2, 0.1], samples=1000, budget=meter)
    with pytest.raises(ValueError, match=message):
        count_box_solutions(spec, box, B, budget=meter)
    assert meter.left == 10 ** 6


# -- waring ------------------------------------------------------------------------


def test_waring_squares_three_summands():
    rep = waring_surjectivity([[P("x1^2", 1)]], 7, 2, 3)
    assert rep.surjective
    assert rep.missing == []


def test_waring_squares_single():
    rep = waring_surjectivity([[P("x1^2", 1)]], 7, 1, 1)
    assert not rep.surjective
    assert sorted(t[0] for t in rep.missing) == [3, 5, 6]


def test_waring_identity_map():
    rep = waring_surjectivity([[P("x1", 1)]], 5, 2, 1)
    assert rep.surjective


def test_waring_monotone_in_ell():
    maps = [[P("x1^2", 1)]]
    surj = [waring_surjectivity(maps, 7, 1, ell).surjective for ell in (1, 2, 3, 4)]
    # once surjective, more summands never lose it
    first = surj.index(True)
    assert all(surj[first:])


def test_waring_needs_a_summand():
    with pytest.raises(ValueError):
        waring_surjectivity([[P("x1^2", 1)]], 5, 1, 0)


def test_waring_vector_target():
    # the map x -> (x, x^2) with two summands over Z/9
    rep = waring_surjectivity([[P("x1", 1), P("x1^2", 1)]], 3, 2, 2)
    assert rep.image_sizes[0] == 9


def test_waring_scans_a_repeated_map_once(monkeypatch):
    real, seen = circle.charge, []

    def recorded(needed, budget, what="enumeration"):
        real(needed, budget, what)
        seen.append((what, needed))

    monkeypatch.setattr(circle, "charge", recorded)
    square_cube = [P("x1^2+x2^3", 2)]
    rep = waring_surjectivity([square_cube], 7, 2, 3)
    assert [n for what, n in seen if what == "waring image enumeration"] == [49 ** 2]
    # the same report as three explicit copies, each of them scanned
    seen.clear()
    assert waring_surjectivity([square_cube] * 3, 7, 2, 3) == rep
    assert [n for what, n in seen if what == "waring image enumeration"] == [49 ** 2] * 3
    assert len(rep.image_sizes) == 3 and len(set(rep.image_sizes)) == 1


@pytest.mark.parametrize(
    "maps",
    [[[]], [[P("x1", 1), P("x1*x2", 2)]]],
    ids=["no-component", "components-of-unequal-nvars"],
)
def test_waring_rejects_a_malformed_map(maps):
    with pytest.raises(ValueError):
        waring_surjectivity(maps, 5, 1, 1)


# -- convolution fiber ideals ----------------------------------------------------------


def test_fiber_two_squares():
    spec = convolution_fiber_ideal(
        [([], [P("x1^2", 1)]), ([], [P("x1^2", 1)])], [5]
    )
    assert spec.nvars == 2
    assert spec.generators == [P("x1^2 + x2^2 - 5", 2)]


def test_fiber_three_cubes_origin():
    spec = convolution_fiber_ideal(
        [([], [P("x1^3", 1)])] * 3, [0]
    )
    assert spec.generators == [P("x1^3 + x2^3 + x3^3", 3)]


def test_fiber_chain_example():
    # two copies of the chain x1 = x2^2 with map x1^2, target 3
    dom = [P("x1 - x2^2", 2)]
    comp = [P("x1^2", 2)]
    spec = convolution_fiber_ideal([(dom, comp), (dom, comp)], [3])
    gens = set(spec.generators)
    assert P("x1 - x2^2", 4) in gens
    assert P("x3 - x4^2", 4) in gens
    assert P("x1^2 + x3^2 - 3", 4) in gens


def test_fiber_rejects_fractional_target():
    with pytest.raises(ValueError):
        convolution_fiber_ideal([([], [P("x1^2", 1)])], [F(1, 2)])


def test_fiber_feeds_expsum():
    from iosc.expsum import verify_moidef

    spec = convolution_fiber_ideal(
        [([], [P("x1^2", 1)]), ([], [P("x1^2", 1)])], [1]
    )
    assert verify_moidef(spec, 1, 3, 2)


def test_fiber_rejects_a_map_with_no_component():
    with pytest.raises(ValueError):
        convolution_fiber_ideal([([P("x1^2", 1)], [])], [])
