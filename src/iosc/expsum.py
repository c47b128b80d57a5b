"""Exact and floating character sums modulo p^m and over finite fields.

A character sum is first materialized as a *phase histogram*: how many
points of the region give each residue of the phase polynomial.  That
postpones the choice of additive character and keeps everything integral.
Identity checks then reduce the histogram modulo the N-th cyclotomic
polynomial: sum c_j zeta^j equals a rational number iff the reduced
residue is that constant, so no tolerance ever enters.  Floating values
(to_complex, Weil-quotient ratios) exist only for magnitude diagnostics.

The r-th exponential sum of an ideal has two independent routes:

* E_counts: the normalized difference of solution counts modulo p^m and
  p^(m-1) (modulo p only for m=1);
* E_charsum: the literal double character sum over primitive auxiliary
  tuples y and all x of psi(sum y_i f_i(x)).

verify_moidef checks their exact equality through cyclotomic reduction;
that comparison is the module's central test and must never be shortcut
through the identity it verifies.  E_charsum therefore really enumerates
every primitive y: the only liberty taken is grouping x by the value
vector of the generators, which is a tautological regrouping of the sum.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, charge
from .gf import GFTable
from .poly import IdealSpec, Poly, Weight, build_pairing, top_part, torus_transform, wdeg
from .ringcount import (
    Grid,
    GridPolys,
    LocalData,
    Region,
    check_prime_power,
    count_zpm,  # noqa: F401  (unused; see the same import in zeta.py)
    digits,
    dim_estimate_raw,
    iter_grid,
    map_sum,
)

# -- cyclotomic machinery -----------------------------------------------------


def cyclotomic_poly(n: int) -> list[int]:
    """Dense coefficients (low to high) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by the product of Phi_d over proper divisors d
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_poly(d))
    return poly


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert all(v == 0 for v in num), "cyclotomic division must be exact"
    return out


@dataclass(frozen=True)
class CycloValue:
    """An element of Q(zeta_N) in the power basis mod Phi_N.

    Two histograms have equal complex sums iff their CycloValues are
    equal; equality with a rational is equality with the constant vector.
    """

    modulus: int
    vec: tuple[Fraction, ...]

    def __add__(self, other: "CycloValue") -> "CycloValue":
        if self.modulus != other.modulus:
            raise ValueError("mixing cyclotomic moduli")
        return CycloValue(
            self.modulus, tuple(a + b for a, b in zip(self.vec, other.vec))
        )

    def scale(self, c: Fraction | int) -> "CycloValue":
        c = Fraction(c)
        return CycloValue(self.modulus, tuple(a * c for a in self.vec))

    def is_rational(self) -> bool:
        return all(v == 0 for v in self.vec[1:])


def reduce_mod_cyclotomic(counts: Sequence[int], n: int) -> tuple[Fraction, ...]:
    """Reduce sum counts[j] * zeta_n^j modulo Phi_n, exactly."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rem = [Fraction(c) for c in counts] + [Fraction(0)] * max(0, deg - len(counts) + 1)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            rem[i] = Fraction(0)
            for j in range(deg):
                rem[i - deg + j] -= c * phi[j]
    return tuple(rem[:deg])


def cyclo_reduce(h: "PhaseHistogram", scale: Fraction | int = 1) -> CycloValue:
    """Exact value of scale * sum counts[j] zeta^j in Q(zeta_{p^m})."""
    return CycloValue(h.p ** h.m, reduce_mod_cyclotomic(h.counts, h.p ** h.m)).scale(
        scale
    )


def equals_rational(v: CycloValue, r: Fraction | int) -> bool:
    """True iff the cyclotomic value equals r as a complex number."""
    r = Fraction(r)
    return v.vec[0] == r and v.is_rational()


# -- phase histograms over Z/p^m ------------------------------------------------


@dataclass(frozen=True)
class PhaseHistogram:
    """counts[j] = number of region points where the phase is j mod p^m."""

    p: int
    m: int
    counts: tuple[int, ...]

    @property
    def region_size(self) -> int:
        return sum(self.counts)

    def to_cyclo(self, scale: Fraction | int = 1) -> CycloValue:
        return cyclo_reduce(self, scale)


def phase_histogram(
    f: Poly,
    p: int,
    m: int,
    region: Region | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> PhaseHistogram:
    """Exact distribution of f's values over the region in Z/p^m."""
    check_prime_power(p, m)
    if region is None:
        region = Region.full(f.nvars)
    if region.k != f.nvars:
        raise ValueError("region size must match nvars")
    q = p ** m
    charge(q ** f.nvars, budget, "phase histogram")

    grid = Grid(f.nvars, q)
    scan = GridPolys(grid, [f])

    def worker(chunk: tuple[int, int]) -> np.ndarray:
        (vals,) = scan(chunk)
        if not region.is_full:
            vals = vals[region.mask(grid.rows(chunk), p)]
        return np.bincount(vals, minlength=q)

    total = map_sum(worker, grid.chunks(), threads)
    return PhaseHistogram(p, m, tuple(int(c) for c in total))


def to_complex(h: PhaseHistogram) -> complex:
    """sum counts[j] * exp(2 pi i j / p^m), in double precision."""
    q = h.p ** h.m
    total = 0j
    for j, c in enumerate(h.counts):
        if c:
            total += c * cmath.exp(2j * cmath.pi * j / q)
    return total


# -- exponential sums of ideals ---------------------------------------------------


def E_counts(
    spec: IdealSpec,
    r: int,
    p: int,
    m: int,
    Z: Region | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> Fraction:
    """The r-th exponential sum modulo p^m of the ideal, in counts form.

    m >= 2: q^{-mn} (#X(Z/p^m)|_Z - q^{n-r} #X(Z/p^{m-1})|_Z); for m = 1 the
    residue-field form q^{-n} (#(X cap Z)(F_p) - q^{-r} #Z(F_p)).  Z is a
    region on the reduction mod p, defaulting to the full space.  Each count
    is computed once per call, through one LocalData.
    """
    return LocalData(spec, p, Z, budget, threads).E(r, m)


def E_charsum(
    spec: IdealSpec,
    r: int,
    p: int,
    m: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    method: str = "grouped",
) -> CycloValue:
    """The same sum as the literal character sum over primitive tuples.

    p^{-m(n+r)} sum over primitive y in (Z/p^m)^r and all x of
    psi(sum y_i f_i(x)).  Requires the presentation to have exactly r
    generators.  method="direct" builds the pairing polynomial and runs
    the generic phase histogram over the primitive-block region;
    method="grouped" enumerates every primitive y against the value-vector
    classes of x (the same double sum, regrouped), which is much faster.
    """
    check_prime_power(p, m)
    if spec.r != r:
        raise ValueError("charsum form needs exactly r generators")
    n = spec.nvars
    q = p ** m
    scale = Fraction(1, p ** (m * (n + r)))
    if method == "direct":
        h = phase_histogram(
            build_pairing(spec),
            p,
            m,
            Region.primitive_then_full(r, n),
            budget=budget,
            threads=threads,
        )
        return cyclo_reduce(h, scale)
    if method != "grouped":
        raise ValueError(f"unknown method {method!r}")
    charge(q ** n + q ** r, budget, "character sum")
    if q ** (n + r) > (1 << 52):
        # grouped accumulation is float64-exact only below 2^52 points
        charge(q ** (n + r), 1 << 52, "exact accumulation")
    gens = spec.generators

    # x-pass: class-count the generator value vectors
    grid = Grid(n, q)
    scan = GridPolys(grid, gens)

    def x_classes(chunk: tuple[int, int]) -> np.ndarray:
        idx = np.zeros(grid.size(chunk), dtype=np.int64)
        for vals in scan(chunk):
            idx = idx * q + vals
        return np.bincount(idx, minlength=q ** r)

    countv = map_sum(x_classes, grid.chunks(), threads)
    support = np.nonzero(countv)[0]
    weights = countv[support].astype(np.float64)
    vmat = digits(support, [q] * r)

    # y-pass: every primitive y, grouped x classes
    def y_phases(ys: np.ndarray) -> np.ndarray:
        ys = ys[(ys % p != 0).any(axis=1)]
        phases = (ys @ vmat.T) % q
        return np.bincount(
            phases.ravel(), weights=np.tile(weights, len(ys)), minlength=q
        )

    chunk = max(1, (1 << 23) // max(1, len(vmat)))
    hist = map_sum(y_phases, iter_grid(r, q, chunk), threads)
    counts = [int(round(c)) for c in hist]
    h = PhaseHistogram(p, m, tuple(counts))
    return cyclo_reduce(h, scale)


def verify_moidef(
    spec: IdealSpec,
    r: int,
    p: int,
    m: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> bool:
    """Exact equality of the character-sum and counting forms of E^(r)."""
    return equals_rational(
        E_charsum(spec, r, p, m, budget, threads),
        E_counts(spec, r, p, m, budget=budget, threads=threads),
    )


# -- finite-field sums ---------------------------------------------------------


@dataclass
class FFCharSum:
    """A finite-field character sum and its Weil-type normalized magnitude."""

    value: complex
    ratio: float
    s: int
    s_source: str
    trace_counts: tuple[int, ...]

    def __iter__(self):
        return iter((self.value, self.ratio))


def _gf_trace_histogram(
    f: Poly,
    gf: GFTable,
    fixed_zero: frozenset[int],
    nonzero: frozenset[int],
    budget: int,
    threads: int,
) -> np.ndarray:
    n = f.nvars
    charge(gf.q ** n, budget, "finite-field sum")

    def worker(pts: np.ndarray) -> np.ndarray:
        ok = np.ones(len(pts), dtype=bool)
        for i in fixed_zero:
            ok &= pts[:, i] == 0
        for i in nonzero:
            ok &= pts[:, i] != 0
        vals = gf.eval_poly(f, pts)
        return np.bincount(gf.trace(vals[ok]), minlength=gf.p)

    return map_sum(worker, iter_grid(n, gf.q), threads)


def ff_char_sum(
    f: Poly,
    g: Poly | None,
    p: int,
    k: int = 1,
    J1: frozenset[int] | set[int] = frozenset(),
    J2: frozenset[int] | set[int] = frozenset(),
    s: int | None = None,
    w: Weight | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> FFCharSum:
    """sum over the constrained set of Psi(f + g), with Weil-quotient ratio.

    The canonical character Psi(a) = exp(2 pi i Tr(a) / p) is used.  The
    ratio divides |sum| by q^{(n+s)/2} where s is the dimension of the
    singular locus of f (supplied, or estimated from the partials' zero
    locus).  f should be (w-)homogeneous of degree not divisible by p for
    the Weil-type bound to be meaningful; otherwise a warning is issued.
    """
    check_prime_power(p, k)
    J1, J2 = frozenset(J1), frozenset(J2)
    if J1 & J2:
        raise ValueError("J1 and J2 must be disjoint")
    n = f.nvars
    ww = w if w is not None else Weight.ones(n)
    d = wdeg(f, ww)
    if top_part(f, ww) != f:
        warnings.warn("phase polynomial is not (w-)homogeneous")
    elif d % p == 0:
        warnings.warn("degree divisible by p: Weil-type bound not applicable")

    if s is None:
        partials = [f.derivative(i) for i in range(n)]
        est = dim_estimate_raw(partials, n, primes=(7, 11, 13), maxk=1, budget=budget)
        s = est.dim
        s_source = "estimated"
    else:
        s_source = "given"

    total = f if g is None else f + g
    gf = GFTable(p, k)
    hist = _gf_trace_histogram(total, gf, J1, J2, budget, threads)
    value = sum(
        int(c) * cmath.exp(2j * cmath.pi * t / p) for t, c in enumerate(hist)
    )
    q = p ** k
    ratio = abs(value) / q ** ((n + s) / 2)
    return FFCharSum(value, ratio, s, s_source, tuple(int(c) for c in hist))


def torus_sum_check(
    f: Poly,
    g: Poly | None,
    w: Weight,
    p: int,
    k: int = 1,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> bool:
    """Exact identity between a weighted sum and its torus-transformed form.

    (q-1)^{-(|w|-n)} sum over k^n x (k*)^{|w|-n} of Psi(f^ + g^) equals
    sum over k^n of Psi(f + g), where ^ is the substitution
    x_i -> x_{i1}...x_{i w_i}.  Both sides are reduced mod Phi_p after
    clearing the (q-1) power, so the comparison is exact.
    """
    check_prime_power(p, k)
    n = f.nvars
    if g is not None:
        if wdeg(g, w) >= wdeg(f, w):
            raise ValueError("need w-deg(g) < w-deg(f)")
    fw = torus_transform(f, w)
    gw = torus_transform(g, w) if g is not None else None
    lhs_poly = fw if gw is None else fw + gw
    rhs_poly = f if g is None else f + g

    gf = GFTable(p, k)
    # in each group the first variable is free, the rest are units
    nonzero = set()
    off = 0
    for wi in w.w:
        for j in range(1, wi):
            nonzero.add(off + j)
        off += wi
    lhs_hist = _gf_trace_histogram(
        lhs_poly, gf, frozenset(), frozenset(nonzero), budget, threads
    )
    rhs_hist = _gf_trace_histogram(
        rhs_poly, gf, frozenset(), frozenset(), budget, threads
    )
    q = p ** k
    factor = (q - 1) ** (w.total - n)
    lhs = CycloValue(p, reduce_mod_cyclotomic([int(c) for c in lhs_hist], p))
    rhs = CycloValue(p, reduce_mod_cyclotomic([int(c) for c in rhs_hist], p)).scale(
        factor
    )
    return lhs == rhs
