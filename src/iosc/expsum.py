"""Exact and floating character sums modulo p^m and over finite fields.

A character sum is first materialized as a *phase histogram*: how many
points of the region give each residue of the phase polynomial.  That
postpones the choice of additive character and keeps everything integral.
One tally makes every histogram: value_histogram counts the value vectors
of a list of polynomials on a grid, and residue_histogram runs it on
(Z/N)^k for any modulus N, with the region decided at every prime of N.
It serves phase_histogram (N = p^m), direct_charsum (the literal sum of
the pairing polynomial, at N = p^m for E_charsum and at a composite N for
the oracle of sseries), the x-pass of E_charsum (through value_classes,
which tallies sparsely where the q^r value vectors outnumber the points)
and the Waring image of circle.  On a whole grid past the split gate,
polynomials that split into variable-disjoint parts
(ringcount.split_halves, which holds the gate) are tallied on the two
half grids, and the tallies are convolved: the value distribution of a
sum of independent parts (Weil's count of diagonal equations).  A
region other than the full one is decided per point, so it is scanned;
the finite-field sums need no region, since each of their conditions
(x_j = 0 or x_j != 0 over F_q) is the range of a grid axis, and they
scan, and split, one box.
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
every primitive y: the only liberties taken are grouping x by the value
vector of the generators and, for separable generators, counting those
vectors as the convolution of the halves' value distributions, both
tautological regroupings of the same sum.  The direct route
(direct_charsum, under a primitive_then_full region) never splits, and
E_counts shares no code with either.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, Meter, charge, check_int
from .gf import GFTable
from .poly import IdealSpec, Poly, Weight, build_pairing, top_part, torus_transform, wdeg
from .ringcount import (
    Grid,
    GridPolys,
    LocalData,
    ModQ,
    Region,
    _codes,
    check_prime_power,
    convolve_tallies,
    count_zpm,  # noqa: F401  (unused; see the same import in zeta.py)
    digits,
    dim_estimate_raw,
    factorize,
    map_sum,
    shared_field,
    split_halves,
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

    @staticmethod
    def of(counts: Iterable[int], modulus: int) -> "CycloValue":
        """sum counts[j] zeta_N^j for N = modulus, reduced mod Phi_N."""
        return CycloValue(modulus, reduce_mod_cyclotomic([int(c) for c in counts], modulus))


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
    return CycloValue.of(h.counts, h.p ** h.m).scale(scale)


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


def phase_histogram(
    f: Poly,
    p: int,
    m: int,
    region: Region | None = None,
    budget: int | Meter = DEFAULT_BUDGET,
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
    total = residue_histogram([f], q, region, threads)
    return PhaseHistogram(p, m, tuple(int(c) for c in total))


def residue_histogram(
    polys: Sequence[Poly], N: int, region: Region, threads: int
) -> np.ndarray:
    """value_histogram of the polynomials over the region in (Z/N)^k, for
    any modulus N: a point is inside when its reduction mod every prime
    of N is (Region.on), so N = p^m decides it mod p alone.  A full
    region passes no mask, so separable polynomials split."""
    grid = Grid(region.k, N)
    inside = None if region.is_full else region.on(grid, *(p for p, _ in factorize(N)))
    return value_histogram(grid, polys, inside, threads)


def value_histogram(
    grid: Grid, polys: Sequence[Poly], inside: Callable | None, threads: int
) -> np.ndarray:
    """How many points of the grid, where the chunk mask inside(chunk)
    holds (see Region.on; None for the whole grid), give each value
    vector of the polynomials.

    Values are the ring's codes 0..q-1, and the vector (v_1, ..., v_s) is
    tallied in bin v_1 q^(s-1) + ... + v_s of q^s, encoded on the chunk's
    compact shape before its rows are spread out.  On the whole grid past
    the split gate, polynomials that split into variable-disjoint parts
    f_j = f_jA(x_A) + f_jB(x_B) (ringcount.split_halves, which holds the
    gate) are tallied on the two half grids, each by this function, so a
    half that splits again does, and the
    tallies are convolved (convolve_tallies); the split is taken while the
    q^(2s) pairs of value vectors it may add are at most the grid's
    points, and split_halves gives each half grid its axes' lows and
    sizes, so a box splits into boxes.  One polynomial over Z/q whose G
    groups (GridPolys) leave G q bins within a chunk's rows is tallied
    unreduced: its values are sums of G residues, below G q, so their G q
    bins fold mod q with no pass of % over the rows.  The caller charges
    the grid's points either way.
    """
    q = grid.ring.q
    bins = q ** len(polys)
    if inside is None and bins * bins <= math.prod(grid.sizes):
        halves = split_halves(polys, grid)
        if halves is not None:
            tallies = [value_histogram(half, parts, None, threads) for _, half, parts in halves]
            return convolve_tallies(grid.ring, len(polys), *tallies)
    scan = GridPolys(grid, polys)
    fold = 1
    if len(polys) == 1 and isinstance(grid.ring, ModQ):
        h0, rest = scan.plans[0]
        groups = len(rest) + (h0 is not None)
        if groups > 1 and groups * q <= min(grid.block, grid.prefix_total) * grid.suffix_size:
            fold = groups

    def worker(chunk: tuple[int, int]) -> np.ndarray:
        if fold > 1:
            idx = scan.sums(chunk)[0][0]
        else:
            idx = _codes(scan.compact(chunk), q)
        idx = grid.flat(chunk, idx)
        ok = inside and inside(chunk)
        if ok is not None:
            idx = idx[grid.flat(chunk, ok)]
        counts = np.bincount(idx, minlength=fold * bins)
        return counts.reshape(fold, bins).sum(axis=0) if fold > 1 else counts

    return map_sum(worker, grid.chunks(), threads)


def value_classes(
    grid: Grid, polys: Sequence[Poly], threads: int
) -> tuple[np.ndarray, np.ndarray]:
    """The value vectors the polynomials take on the grid, as the codes of
    value_histogram's bins in ascending order, and how many points take
    each.  While q^s bins are at most the grid's points they are tallied
    densely, by value_histogram on the whole grid, so separable
    polynomials are tallied on half grids and convolved; above that each
    chunk tallies its own codes (np.unique) and the (code, count) pairs
    are merged, so memory follows the points.  Nothing is charged here."""
    q = grid.ring.q
    if q ** len(polys) <= grid.prefix_total * grid.suffix_size:
        counts = value_histogram(grid, polys, None, threads)
        codes = np.flatnonzero(counts)
        return codes, counts[codes]
    scan = GridPolys(grid, polys)

    def worker(chunk: tuple[int, int]) -> list[tuple[np.ndarray, np.ndarray]]:
        codes = grid.flat(chunk, _codes(scan.compact(chunk), q))
        return [np.unique(codes, return_counts=True)]

    pairs = map_sum(worker, grid.chunks(), threads)
    codes, at = np.unique(np.concatenate([c for c, _ in pairs]), return_inverse=True)
    counts = np.zeros(len(codes), dtype=np.int64)
    np.add.at(counts, at, np.concatenate([n for _, n in pairs]))
    return codes, counts


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
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> Fraction:
    """The r-th exponential sum modulo p^m of the ideal, in counts form.

    m >= 2: q^{-mn} (#X(Z/p^m)|_Z - q^{n-r} #X(Z/p^{m-1})|_Z); for m = 1 the
    residue-field form q^{-n} (#(X cap Z)(F_p) - q^{-r} #Z(F_p)).  Z is a
    region on the reduction mod p, defaulting to the full space.  Both
    counts come from one walk at order m, through one LocalData.
    """
    return LocalData(spec, p, Z, budget, threads).E(r, m)


def E_charsum(
    spec: IdealSpec,
    r: int,
    p: int,
    m: int,
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
    method: str = "grouped",
) -> CycloValue:
    """The same sum as the literal character sum over primitive tuples.

    p^{-m(n+r)} sum over primitive y in (Z/p^m)^r and all x of
    psi(sum y_i f_i(x)).  Requires the presentation to have exactly r
    generators.  method="direct" is direct_charsum at N = p^m, one scan
    of (Z/p^m)^(r+n); method="grouped" enumerates every primitive y
    against the value-vector classes of x (the same double sum,
    regrouped), which is much faster; its x-pass (value_classes) tallies
    separable generators on half grids and convolves the tallies.  It is
    charged the x-pass's q^n points first, split or not, and then, before
    the y-pass, the phases it forms: the primitive y times the classes.
    """
    check_prime_power(p, m)
    check_int("r", r, 1)
    if spec.r != r:
        raise ValueError("charsum form needs exactly r generators")
    n = spec.nvars
    q = p ** m
    scale = Fraction(1, p ** (m * (n + r)))
    if method == "direct":
        return direct_charsum(spec, q, budget, threads).scale(scale)
    if method != "grouped":
        raise ValueError(f"unknown method {method!r}")
    if q ** (n + r) > (1 << 52):
        raise ValueError(f"the grouped sum is float64-exact to 2^52 points, not {q ** (n + r)}")
    budget = Meter.of(budget)
    charge(q ** n, budget, "character sum")

    # x-pass: class-count the generator value vectors
    support, counts = value_classes(Grid(n, q), spec.generators, threads)
    charge((q ** r - (q // p) ** r) * len(support), budget, "character sum")
    weights = counts.astype(np.float64)
    vmat = digits(support, [q] * r)

    # y-pass: every primitive y, grouped x classes, in blocks of rows
    # whose phase matrix has at most 2^23 entries
    grid = Grid(r, q)
    block = max(1, (1 << 23) // max(1, len(vmat)))

    def y_phases(chunk: tuple[int, int]) -> np.ndarray:
        ys = grid.rows(chunk, np.arange(math.prod(grid.shape(chunk))))
        ys = ys[(ys % p != 0).any(axis=1)]
        hist = np.zeros(q)
        for lo in range(0, len(ys), block):
            phases = (ys[lo : lo + block] @ vmat.T) % q
            hist += np.bincount(
                phases.ravel(), weights=np.tile(weights, len(phases)), minlength=q
            )
        return hist

    hist = map_sum(y_phases, grid.chunks(), threads)
    return CycloValue.of([round(c) for c in hist], q).scale(scale)


def direct_charsum(
    spec: IdealSpec, N: int, budget: int | Meter = DEFAULT_BUDGET, threads: int = 1
) -> CycloValue:
    """sum over y in (Z/N)^r, primitive at every prime of N, and all x in
    (Z/N)^n of exp(2 pi i g(y, x) / N), reduced mod Phi_N, for the pairing
    polynomial g = sum y_i f_i(x): one residue_histogram scan of
    (Z/N)^(r+n), charged its points.  The direct route of E_charsum
    (N = p^m) and the composite oracle of sseries (N = q1 q2)."""
    r, n = spec.r, spec.nvars
    charge(N ** (r + n), budget, "direct character sum")
    region = Region.primitive_then_full(r, n)
    return CycloValue.of(residue_histogram([build_pairing(spec)], N, region, threads), N)


def verify_moidef(
    spec: IdealSpec,
    r: int,
    p: int,
    m: int,
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> bool:
    """Exact equality of the character-sum and counting forms of E^(r)."""
    budget = Meter.of(budget)
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
    # "given", "estimated" for a confident dimension estimate, or
    # "estimated-unconfident" for one whose two largest fields disagree
    # or that had only one field (dim_estimate_raw)
    s_source: str
    trace_counts: tuple[int, ...]

    def __iter__(self):
        return iter((self.value, self.ratio))


def _gf_trace_histogram(
    f: Poly, gf: GFTable, zero: frozenset[int], unit: frozenset[int], budget: Meter, threads: int
) -> np.ndarray:
    """The trace histogram of f over the points of F_q^n with x_j = 0 for
    j in zero and x_j != 0 for j in unit, charged the points it scans.

    Each condition is the range of its grid axis, since code 0 is the only
    zero of F_q: x_j = 0 is code 0 alone, x_j != 0 the codes 1..q-1 and a
    free coordinate all q codes.  So the scan is one box, with no mask,
    and value_histogram splits a separable f on it into boxed halves."""
    n = f.nvars
    lows = [int(j in unit) for j in range(n)]
    sizes = [1 if j in zero else gf.q - 1 if j in unit else gf.q for j in range(n)]
    charge(math.prod(sizes), budget, "finite-field sum")
    values = value_histogram(Grid(n, gf, lows, sizes), [f], None, threads)
    traces = np.zeros(gf.p, dtype=np.int64)
    np.add.at(traces, gf.trace_table, values)
    return traces


def ff_char_sum(
    f: Poly,
    g: Poly | None,
    p: int,
    k: int = 1,
    J1: frozenset[int] | set[int] = frozenset(),
    J2: frozenset[int] | set[int] = frozenset(),
    s: int | None = None,
    w: Weight | None = None,
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> FFCharSum:
    """sum over the constrained set of Psi(f + g), with Weil-quotient ratio.

    The canonical character Psi(a) = exp(2 pi i Tr(a) / p) is used.  The
    ratio divides |sum| by q^{(n+s)/2} where s is the dimension of the
    singular locus of f: supplied, as an int in [-1, n] (-1 for an empty
    locus), or estimated from the partials' zero locus over F_p, F_{p^2},
    ..., F_{p^max(k, 2)} (dim_estimate_raw, within MAX_TABLE_Q and the
    meter), and s_source says which, and whether the estimate was
    confident.  A ladder that reaches F_{p^k} lends the sum its table, so
    the call builds each field once.  f should be (w-)homogeneous of
    degree not divisible by p for the Weil-type bound to be meaningful;
    otherwise a warning is issued.
    The sum scans one box of F_q^n, each x_j in J1 fixed at 0 and each in
    J2 running over the q - 1 units, charged its q^(n - |J1| - |J2|)
    (q - 1)^|J2| points; a separable f + g is tallied on half boxes
    (value_histogram) at the same charge.
    """
    check_prime_power(p, k, "k")
    budget = Meter.of(budget)
    J1, J2 = frozenset(J1), frozenset(J2)
    if J1 & J2:
        raise ValueError("J1 and J2 must be disjoint")
    n = f.nvars
    if not J1 | J2 <= set(range(n)):
        raise ValueError(f"J1 and J2 must be subsets of range({n})")
    ww = w if w is not None else Weight.ones(n)
    d = wdeg(f, ww)
    if top_part(f, ww) != f:
        warnings.warn("phase polynomial is not (w-)homogeneous")
    elif d % p == 0:
        warnings.warn("degree divisible by p: Weil-type bound not applicable")

    # the ladder's F_(p^k), if it reaches it, is the sum's field too
    fields: dict[tuple[int, int], GFTable] = {}
    if s is None:
        # over F_p-bar, so on the ladder p, p^2, ..., p^max(k, 2): rungs
        # above the sum's own field would cost more points than the sum
        partials = [f.derivative(i) for i in range(n)]
        est = dim_estimate_raw(partials, n, (p,), max(k, 2), budget, threads, fields)
        s = est.dim
        s_source = "estimated" if est.confident else "estimated-unconfident"
    else:
        check_int("s", s, -1, n)
        s_source = "given"

    total = f if g is None else f + g
    traces = _gf_trace_histogram(total, shared_field(p, k, fields), J1, J2, budget, threads)
    # Psi(a) = exp(2 pi i Tr(a) / p) sums the trace histogram as a phase mod p
    hist = PhaseHistogram(p, 1, tuple(int(c) for c in traces))
    value = to_complex(hist)
    ratio = abs(value) / (p ** k) ** ((n + s) / 2)
    return FFCharSum(value, ratio, s, s_source, hist.counts)


def torus_sum_check(
    f: Poly,
    g: Poly | None,
    w: Weight,
    p: int,
    k: int = 1,
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> bool:
    """Exact identity between a weighted sum and its torus-transformed form.

    (q-1)^{-(|w|-n)} sum over k^n x (k*)^{|w|-n} of Psi(f^ + g^) equals
    sum over k^n of Psi(f + g), where ^ is the substitution
    x_i -> x_{i1}...x_{i w_i}.  Both sides are reduced mod Phi_p after
    clearing the (q-1) power, so the comparison is exact.  Each side is its
    own scan of one box (_gf_trace_histogram), charged its points: the
    left side q^n (q-1)^(|w|-n), the right side q^n.
    """
    check_prime_power(p, k, "k")
    n = f.nvars
    if g is not None:
        if g.nvars != n:
            raise ValueError(f"g has {g.nvars} variables, f has {n}")
        if wdeg(g, w) >= wdeg(f, w):
            raise ValueError("need w-deg(g) < w-deg(f)")
    fw = torus_transform(f, w)
    gw = torus_transform(g, w) if g is not None else None
    lhs_poly = fw if gw is None else fw + gw
    rhs_poly = f if g is None else f + g

    gf = GFTable(p, k)
    budget = Meter.of(budget)
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
    lhs = CycloValue.of(lhs_hist, p)
    rhs = CycloValue.of(rhs_hist, p).scale(factor)
    return lhs == rhs
