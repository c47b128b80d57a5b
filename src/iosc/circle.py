"""Major-arc numerics and additive-image (Waring-type) probes.

Solution counting in boxes is exact integer enumeration.  The singular
integral is the sublevel-volume limit eps^{-r} vol{x in B : |f_i(x)| <=
eps/2}, estimated on a deterministic ladder of eps values by either a
midpoint grid or seeded Monte Carlo; convergence is declared when the
last two ladder values agree within 5%.  The major-arc prediction
multiplies the exact partial singular series, the estimated singular
integral and B^(n-D); at desk scale the acceptance band for the
prediction/count ratio is 15%, reflecting error terms with ineffective
exponents.

Waring-type surjectivity is a plain image/sumset computation over Z/p^m,
and the convolution fiber ideal packages sums of morphisms minus a target
as an ideal ready for the exponential-sum and zeta probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, inf, prod
from typing import Sequence

import numpy as np

from . import ringcount
from .errors import DEFAULT_BUDGET, Meter, charge, check_int
from .expsum import residue_histogram
from .poly import IdealSpec, Poly
from .ringcount import (
    Grid,
    Int64,
    Region,
    _count_naive,
    _split_zeros,
    check_prime_power,
    digits,
    split_halves,
)
from .sseries import SeriesReport, singular_series_partial

# singular_integral streams blocks of at most this many coordinates: its
# five buffers are written afresh in every process, and blocks of CHUNK
# coordinates took 5.5 MB of them at n = 4, about 1,400 first-touch page
# faults; 2^16 coordinates take 1.4 MB, and a numpy call still covers
# 16,384 points
SAMPLE_POINTS = 1 << 16


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned closed box inside [-1, 1]^n with rational endpoints."""

    bounds: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError("empty box side")
            if lo < -1 or hi > 1:
                raise ValueError("box must sit inside [-1, 1]^n")

    @staticmethod
    def cube(n: int, half_side: Fraction | int = 1) -> "BoxSpec":
        h = Fraction(half_side)
        return BoxSpec(tuple((-h, h) for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.bounds)

    @property
    def volume(self) -> Fraction:
        v = Fraction(1)
        for lo, hi in self.bounds:
            v *= hi - lo
        return v


def _box_ranges(spec: IdealSpec, box: BoxSpec, B: int) -> list[tuple[int, int]]:
    """The integer box [ceil(lo B), floor(hi B)] of each axis, once B >= 1,
    the generators' homogeneity, the box's dimension and, on a nonempty
    box, the 2^62 bound of every generator's values are checked: the
    checks of count_box_solutions, made before anything is charged."""
    check_int("B", B, 1)
    for g in spec.generators:
        degs = {sum(e) for e in g.terms}
        if len(degs) > 1:
            raise ValueError("box counting expects homogeneous generators")
    if box.n != spec.nvars:
        raise ValueError("box dimension must match nvars")
    ranges = [(ceil(lo * B), floor(hi * B)) for lo, hi in box.bounds]
    if all(lo <= hi for lo, hi in ranges):
        # int64 overflow guard for the exact evaluation
        big = max(abs(end) for r in ranges for end in r) or 1
        for g in spec.generators:
            bound = sum(abs(c) * big ** sum(e) for e, c in g.terms.items())
            if bound >= 1 << 62:
                raise ValueError("values too large for exact vectorized evaluation")
    return ranges


def count_box_solutions(
    spec: IdealSpec,
    box: BoxSpec,
    B: int,
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> int:
    """Exact number of integer points x with x/B in the box and all
    generators vanishing.  Generators must be homogeneous, and B >= 1.

    The points form the integer box [ceil(lo B), floor(hi B)] per axis,
    counted in exact int64 arithmetic (Int64) once every generator is
    checked to stay below 2^62 on it (_box_ranges, before any charge).
    A single generator that splits into variable-disjoint halves,
    f = f_A(x_A) + f_B(x_B) (ringcount.split_halves of the box's Int64
    grid), on a box past the split gate (split_halves too) is
    counted by the lift's one split routine, _split_zeros, as an order-1
    node: the pairs of the two sub-boxes' values with f_A = -f_B, charged
    the sub-boxes' points.  Any other box
    is scanned by ringcount._count_naive and charged its points.  The
    count is independent of the thread count.
    """
    ranges = _box_ranges(spec, box, B)
    lows = [lo for lo, _ in ranges]
    sizes = [max(0, hi - lo + 1) for lo, hi in ranges]
    total = prod(sizes)
    if total == 0:
        return 0
    grid = Grid(spec.nvars, Int64(), lows, sizes)
    halves = split_halves(spec.generators, grid) if spec.r == 1 else None
    if halves is not None:
        return _split_zeros(halves, Meter.of(budget), 1, "box enumeration")[0]
    charge(total, budget, "box enumeration")
    return _count_naive(spec.generators, grid, None, threads)


# -- singular integral ------------------------------------------------------------


@dataclass
class JIntegralReport:
    """Singular-integral estimates along an epsilon ladder."""

    estimates: list[tuple[float, float]]  # (eps, eps^-r * vol estimate)
    value: float
    converged: bool
    sampler: str
    seed: int | None
    samples: int


def _eval_float(f: Poly, cols: np.ndarray, acc: np.ndarray, term: np.ndarray) -> np.ndarray:
    """f at the points whose coordinates are the rows of cols, shape (n, N),
    written into acc; term is a work buffer of length N.  Each term is its
    coefficient times cols[j] ** e for each of its factors in variable
    order, and acc sums the terms in f's order from zero."""
    acc.fill(0.0)
    for expo, coeff in f.terms.items():
        term.fill(float(coeff))
        for j, e in enumerate(expo):
            if e:
                np.multiply(term, cols[j] ** e, out=term)
        acc += term
    return acc


def _float_pow(x: float, e: int) -> float:
    """x^e in floating point, inf where it overflows."""
    try:
        return x ** e
    except OverflowError:
        return inf


def singular_integral(
    spec: IdealSpec,
    box: BoxSpec,
    eps_ladder: Sequence[float],
    sampler: str = "mc",
    seed: int = 0,
    samples: int = 400_000,
    grid_resolution: int = 40,
    budget: int | Meter = DEFAULT_BUDGET,
) -> JIntegralReport:
    """Estimate J = lim eps^-r vol{x in box : |f_i(x)| <= eps/2 for all i}.

    The Monte Carlo sampler draws its points from one generator seeded
    with the 64-bit seed, and every ladder value counts the same points
    (deterministic for a fixed seed); the grid sampler uses a midpoint
    product grid.  Both stream their points in blocks of min(CHUNK,
    SAMPLE_POINTS) coordinates (ringcount.CHUNK, read at call time): a
    block of the Monte Carlo sampler is the generator's next draws, so
    the draws, and with them the estimates, equal those of one draw of
    all samples, and a block of the grid is a run of its points in
    row-major order.  A block is counted for each eps by its largest
    |f_i|.

    The blocks reuse one set of buffers, of at most min(CHUNK,
    SAMPLE_POINTS) // n rows each (a short last block takes their leading
    rows): the Monte Carlo sampler draws into a (rows, n) array,
    rng.random(out=...), and scales it axis by axis, lo_j + (hi_j - lo_j)
    * u, into the (n, rows) point array that the grid sampler fills from
    its own decode; _eval_float writes each generator into one
    accumulator and one term buffer, and the largest |f_i| goes to a
    buffer of its own.  The float operations
    and their order are fixed, those of one draw of all samples evaluated
    term by term, so the estimates are bit for bit the same for every
    block size.

    Convergence means the last two ladder values agree within 5%;
    non-convergence is reported, never silently accepted.
    """
    n, r = spec.nvars, spec.r
    check_int("samples", samples, 1)
    check_int("grid_resolution", grid_resolution, 1)
    check_int("seed", seed, 0)
    if box.n != n:
        raise ValueError("box dimension must match nvars")
    if not eps_ladder:
        raise ValueError("need at least one epsilon")
    if not all(0 < eps < inf and 0 < _float_pow(eps, r) < inf for eps in eps_ladder):
        raise ValueError(
            f"every epsilon must be finite and > 0, with eps^{r} a nonzero finite"
            f" float, got {list(eps_ladder)}"
        )
    eps_ladder = sorted(eps_ladder, reverse=True)
    lo = np.array([float(l) for l, _ in box.bounds])
    hi = np.array([float(h) for _, h in box.bounds])

    if sampler == "mc":
        charge(samples, budget, "monte carlo sampling")
        rng = np.random.default_rng(seed)
        used = samples
    elif sampler == "grid":
        used = grid_resolution ** n
        charge(used, budget, "grid sampling")
        axes = [
            l + (h - l) * (np.arange(grid_resolution) + 0.5) / grid_resolution
            for l, h in zip(lo, hi)
        ]
    else:
        raise ValueError(f"unknown sampler {sampler!r}")

    block = min(max(1, min(ringcount.CHUNK, SAMPLE_POINTS) // n), used)
    draws = np.empty((block, n)) if sampler == "mc" else None
    cols = np.empty((n, block))
    acc, term, worst = np.empty(block), np.empty(block), np.empty(block)
    hits = [0] * len(eps_ladder)
    for start in range(0, used, block):
        rows = min(block, used - start)
        pts = cols[:, :rows]
        if sampler == "mc":
            u = rng.random(out=draws[:rows])
            for j in range(n):
                # lo + (hi - lo) * u, one axis at a time
                np.multiply(u[:, j], hi[j] - lo[j], out=pts[j])
                np.add(pts[j], lo[j], out=pts[j])
        else:
            idx = digits(np.arange(start, start + rows, dtype=np.int64), [grid_resolution] * n)
            for j in range(n):
                np.take(axes[j], idx[:, j], out=pts[j])
        # max is exact, so worst <= eps/2 is the & of the per-generator tests
        w = worst[:rows]
        w.fill(0.0)
        for g in spec.generators:
            v = _eval_float(g, pts, acc[:rows], term[:rows])
            np.maximum(w, np.abs(v, out=v), out=w)
        for k, eps in enumerate(eps_ladder):
            hits[k] += int(np.count_nonzero(w <= eps / 2))
    weight = float(box.volume) / used
    estimates = [(eps, float(h) * weight / eps ** r) for eps, h in zip(eps_ladder, hits)]
    value = estimates[-1][1]
    if len(estimates) >= 2:
        prev = estimates[-2][1]
        converged = abs(value - prev) <= 0.05 * max(abs(value), 1e-12)
    else:
        converged = False
    return JIntegralReport(
        estimates, value, converged, sampler, seed if sampler == "mc" else None, used
    )


# -- prediction vs. count ------------------------------------------------------------


@dataclass
class PredictionReport:
    singular_series: SeriesReport
    j_integral: JIntegralReport
    B: int
    prediction: float
    actual: int
    ratio: float | None
    degenerate: bool
    flags: list[str] = field(default_factory=list)


def major_arc_prediction(
    spec: IdealSpec,
    box: BoxSpec,
    B: int,
    Qmax: int,
    eps_ladder: Sequence[float],
    seed: int = 0,
    samples: int = 400_000,
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> PredictionReport:
    """Compare S(Qmax) * J * B^(n - D) with the exact box count.

    D is the sum of generator degrees weighted by group size.  The ratio
    actual/prediction lands in [0.85, 1.15] for healthy systems at desk
    scale; a ratio outside [0.5, 2] or a vanishing prediction is flagged
    degenerate, and a vanishing prediction has no ratio (None).
    """
    # the box count's checks and Qmax's, before the integral draws from the meter
    _box_ranges(spec, box, B)
    check_int("Qmax", Qmax, 1)
    budget = Meter.of(budget)
    jint = singular_integral(
        spec, box, eps_ladder, sampler="mc", seed=seed, samples=samples, budget=budget
    )
    sser = singular_series_partial(spec, spec.r, Qmax, budget=budget, threads=threads)
    n, D = spec.nvars, spec.weighted_degree_sum
    prediction = float(sser.value) * jint.value * float(B) ** (n - D)
    actual = count_box_solutions(spec, box, B, budget=budget, threads=threads)
    flags = []
    if prediction <= 0:
        ratio = None
        flags.append("vanishing-prediction")
        degenerate = True
    else:
        ratio = actual / prediction
        degenerate = ratio < 0.5 or ratio > 2.0
        if degenerate:
            flags.append("ratio-outside-[0.5,2]")
    if not jint.converged:
        flags.append("j-integral-not-converged")
    return PredictionReport(
        sser, jint, B, prediction, actual, ratio, degenerate, flags
    )


# -- Waring-type surjectivity ----------------------------------------------------------


@dataclass
class WaringReport:
    surjective: bool
    missing: list[tuple[int, ...]]
    image_sizes: list[int]
    sumset_size: int


def waring_surjectivity(
    maps: Sequence[Sequence[Poly]],
    p: int,
    m: int,
    ell: int,
    budget: int | Meter = DEFAULT_BUDGET,
) -> WaringReport:
    """Is every residue tuple a sum of ell values of the given maps?

    Each map is a tuple of r component polynomials in its own variables.
    A single map is reused for all ell summands, and its image is
    enumerated once; otherwise exactly ell maps are required.  Images and
    the iterated sumset are computed by exhaustive enumeration over
    (Z/p^m)^r.
    """
    check_prime_power(p, m)
    check_int("ell", ell, 1)
    if len(maps) not in (1, ell):
        raise ValueError("need exactly one map or exactly ell maps")
    r = len(maps[0])
    if r < 1 or any(len(comp) != r for comp in maps):
        raise ValueError("maps must share a target dimension r >= 1")
    if any(f.nvars != comp[0].nvars for comp in maps for f in comp):
        raise ValueError("the components of a map must share its variables")
    q = p ** m
    budget = Meter.of(budget)
    charge(q ** r, budget, "waring target space")

    radices = [q] * r
    # a point's index in (Z/q)^r, row-major as in digits()
    place = q ** np.arange(r - 1, -1, -1, dtype=np.int64)

    images = []
    for comp in maps:
        charge(q ** comp[0].nvars, budget, "waring image enumeration")
        images.append(residue_histogram(comp, q, Region.full(comp[0].nvars), 1) > 0)
    # a single map serves every summand, so its image is scanned once
    images *= ell // len(maps)
    image_sizes = [int(im.sum()) for im in images]

    # iterated sumset over the product group (Z/q)^r
    acc = images[0]
    for im in images[1:]:
        a_pts = digits(np.nonzero(acc)[0], radices)
        b_pts = digits(np.nonzero(im)[0], radices)
        charge(len(a_pts) * len(b_pts), budget, "waring sumset")
        new = np.zeros(q ** r, dtype=bool)
        for row in b_pts:
            new[(a_pts + row) % q @ place] = True
        acc = new
    missing_idx = np.nonzero(~acc)[0]
    missing = [tuple(int(v) for v in row) for row in digits(missing_idx, radices)]
    return WaringReport(len(missing) == 0, missing, image_sizes, int(acc.sum()))


# -- convolution fiber ideals -------------------------------------------------------------


def convolution_fiber_ideal(
    maps: Sequence[tuple[Sequence[Poly], Sequence[Poly]]],
    target: Sequence[int | Fraction],
) -> IdealSpec:
    """The ideal of the fiber of an additive convolution of morphisms.

    Each entry is (domain generators, map components) over its own
    variables; the result lives in the disjoint union of the variables and
    is generated by all domain generators plus sum_i phi_{i,e} - target_e.
    The target must be integral to stay inside Z[x].
    """
    if not maps:
        raise ValueError("need at least one map")
    r = len(maps[0][1])
    if r < 1 or any(len(comp) != r for _, comp in maps):
        raise ValueError("maps must share a target dimension r >= 1")
    tvals = []
    for t in target:
        t = Fraction(t)
        if t.denominator != 1:
            raise ValueError("target must be an integral point")
        tvals.append(int(t))
    if len(tvals) != r:
        raise ValueError("target length must equal the target dimension")

    nvars = [comp[0].nvars for _, comp in maps]
    if any(f.nvars != nv for (dom, comp), nv in zip(maps, nvars) for f in [*dom, *comp]):
        raise ValueError("a map's generators and components must share its variables")
    total = sum(nvars)
    gens: list[Poly] = []
    sums, off = [Poly.zero(total)] * r, 0
    for (dom, comp), nv in zip(maps, nvars):
        mapping = range(off, off + nv)
        gens += [g.map_vars(mapping, total) for g in dom]
        sums = [s + f.map_vars(mapping, total) for s, f in zip(sums, comp)]
        off += nv
    return IdealSpec.from_gens(gens + [s - t for s, t in zip(sums, tvals)])
