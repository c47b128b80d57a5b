"""Exact point counting over Z/p^m and F_{p^k}, with region constraints.

Counting over Z/p^m has two independent routes that must agree:

* ``naive`` enumerates the full residue grid (the always-available oracle);
* ``lift`` enumerates residues mod p once and then walks a recursive
  residue tree (Denef's stationary-phase recursion), collapsing branches
  through smooth points in closed form (a point whose Jacobian has full
  rank mod p lifts p^(n-r) ways per level) and re-expanding x = x0 + p*y
  only below singular points.  The re-expansion is an exact Taylor shift
  on Python ints: g(x0 + p*y) has the coefficients p^|b| T_b(x0), with
  T_b = d^b g / b! tabulated once per node, and a constraint
  ord_p(g) >= e keeps only its coefficients mod p^e, divided by their
  content.  Equal reduced nodes at equal depth have equal counts, so each
  lift call memoizes them.

Regions constrain coordinates mod p only (all supported modes are
conditions on the reduction), so they are applied at the first level of
either route.  Dimension estimation inverts point counts over a ladder of
finite fields: count ~ q^dim for geometrically irreducible loci, so
round(log_q count) at the largest feasible q, flagged confident only when
the two largest q agree.

Every exact route of the package is an exhaustive enumeration of a
residue grid, and this module holds the one enumeration kernel they all
share: digits() decodes flat indices into mixed-radix rows, iter_grid()
yields a grid as chunks of such rows, and map_sum() maps a worker over
chunks on a thread pool and adds the results in submission order, so
every total is the same for any thread count.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, OracleDisagreement, charge
from .gf import GFTable
from .poly import IdealSpec, Poly, Weight, jacobian_minors, top_part

# -- vectorized helpers ----------------------------------------------------

CHUNK = 1 << 20
# products of two residues below 2^31 fit in int64
Q_LIMIT = 1 << 31


def check_prime_power(p: int, m: int = 1) -> None:
    """Raise ValueError unless p is a prime below 2^31 and m >= 1.

    Every route evaluates polynomials mod p in int64 (eval_poly_mod), which
    is exact only below 2^31, so the bound comes first and keeps the trial
    division short.
    """
    if not 2 <= p < Q_LIMIT or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p must be a prime below 2^31, got {p}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def digits(idx: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """Mixed-radix digits of each int64 index, most significant first.

    Returns an int64 array of shape (len(idx), len(radices)).  idx is
    divided in place, so pass an array the caller no longer needs.
    """
    out = np.empty((len(idx), len(radices)), dtype=np.int64)
    for j in range(len(radices) - 1, -1, -1):
        np.divmod(idx, radices[j], out=(idx, out[:, j]))
    return out


def iter_grid(k: int, radix: int, chunk: int | None = None) -> Iterator[np.ndarray]:
    """Enumerate {0..radix-1}^k row-major as int64 arrays of shape (c, k).

    Chunks hold CHUNK rows unless chunk is given; CHUNK is read per call.
    """
    chunk = chunk or CHUNK
    total = radix ** k
    for off in range(0, total, chunk):
        idx = np.arange(off, min(off + chunk, total), dtype=np.int64)
        yield digits(idx, [radix] * k)


def _powmod(col: np.ndarray, e: int, q: int) -> np.ndarray:
    """col^e mod q for e >= 1, by squaring; the result starts as the base
    at the lowest set bit, and the base is squared only up to the top bit."""
    assert e >= 1
    base = col % q
    result = None
    while True:
        if e & 1:
            result = base if result is None else (result * base) % q
        e >>= 1
        if not e:
            return result
        base = (base * base) % q


def eval_poly_mod(f: Poly, pts: np.ndarray, q: int) -> np.ndarray:
    """Evaluate f mod q on an array of points, exactly; needs 1 <= q < 2^31."""
    if not 1 <= q < Q_LIMIT:
        raise ValueError(f"modulus {q} is outside the int64-exact range [1, 2^31)")
    acc = np.zeros(len(pts), dtype=np.int64)
    powers: dict[tuple[int, int], np.ndarray] = {}
    for expo, coeff in f.terms.items():
        t = np.full(len(pts), coeff % q, dtype=np.int64)
        for j, e in enumerate(expo):
            if e:
                pw = powers.get((j, e))
                if pw is None:
                    pw = _powmod(pts[:, j], e, q)
                    powers[j, e] = pw
                t = (t * pw) % q
        acc = (acc + t) % q
    return acc


def map_sum(worker: Callable, chunks: Iterable, threads: int):
    """The sum of worker(c) over a non-empty iterable of chunks, added in
    submission order.

    The fixed order makes the total identical for any thread count.  The
    first result starts the sum, so boolean masks add as logical or and
    no accumulator is wider than the worker's results.  Submissions are
    windowed so that only a bounded number of chunks is alive at a time.
    """
    total = None

    def add(x):
        nonlocal total
        total = x if total is None else total + x

    if threads <= 1:
        for c in chunks:
            add(worker(c))
        return total
    window = threads * 2
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for c in chunks:
            pending.append(pool.submit(worker, c))
            if len(pending) >= window:
                add(pending.popleft().result())
        while pending:
            add(pending.popleft().result())
    return total


# -- regions ---------------------------------------------------------------


class Full:
    """No constraint on the block."""


class PrimitiveBlock:
    """The block is not jointly divisible by p (tuple not in (p)^k)."""


class ZeroModP:
    """Every coordinate of the block is divisible by p."""


class UnitModP:
    """Every coordinate of the block is a unit mod p."""


@dataclass(frozen=True)
class ReductionIn:
    """The block's reduction mod p satisfies the given equations."""

    gens: tuple[Poly, ...]


Mode = Full | PrimitiveBlock | ZeroModP | UnitModP | ReductionIn


@dataclass(frozen=True)
class Region:
    """Product-form constraint on (Z/p^m)^k, decided by reductions mod p.

    blocks is a tuple of ((start, stop), mode) covering 0..k exactly once,
    in order.
    """

    k: int
    blocks: tuple[tuple[tuple[int, int], Mode], ...]

    def __post_init__(self):
        pos = 0
        for (start, stop), mode in self.blocks:
            if start != pos or stop <= start:
                raise ValueError("blocks must partition the coordinates in order")
            if isinstance(mode, ReductionIn):
                for g in mode.gens:
                    if g.nvars != stop - start:
                        raise ValueError("reduction equations must match block size")
            pos = stop
        if pos != self.k:
            raise ValueError("blocks must cover all coordinates")

    @staticmethod
    def full(k: int) -> "Region":
        return Region(k, (((0, k), Full()),))

    @staticmethod
    def primitive_then_full(r: int, n: int) -> "Region":
        """(y, x) with y a primitive r-tuple and x unconstrained."""
        return Region(r + n, (((0, r), PrimitiveBlock()), ((r, r + n), Full())))

    @staticmethod
    def reduction_in(gens: Sequence[Poly]) -> "Region":
        gens = tuple(gens)
        k = gens[0].nvars
        return Region(k, (((0, k), ReductionIn(gens)),))

    def mask(self, pts: np.ndarray, p: int) -> np.ndarray:
        """Boolean membership mask for an array of integer points.

        Only the blocks a mode constrains are reduced mod p, so a Full
        block, and a Full region, never copies the points.
        """
        m = np.ones(len(pts), dtype=bool)
        for (start, stop), mode in self.blocks:
            if isinstance(mode, Full):
                continue
            sub = pts[:, start:stop] % p
            if isinstance(mode, ZeroModP):
                m &= (sub == 0).all(axis=1)
            elif isinstance(mode, UnitModP):
                m &= (sub != 0).all(axis=1)
            elif isinstance(mode, PrimitiveBlock):
                m &= (sub != 0).any(axis=1)
            elif isinstance(mode, ReductionIn):
                for g in mode.gens:
                    m &= eval_poly_mod(g, sub, p) == 0
        return m

    def contains(self, point: Sequence[int], p: int) -> bool:
        pts = np.asarray([[x % p for x in point]], dtype=np.int64)
        return bool(self.mask(pts, p)[0])

    def intersect(self, other: "Region") -> "Region":
        """Conjunction of two regions over the same coordinates."""
        if self.k != other.k:
            raise ValueError("region sizes differ")
        return _AndRegion(self, other)

    def count_mod_p(self, p: int, budget: int = DEFAULT_BUDGET, threads: int = 1) -> int:
        """Number of points of the region in (Z/p)^k."""
        charge(p ** self.k, budget, "region count")
        return map_sum(
            lambda pts: int(self.mask(pts, p).sum()), iter_grid(self.k, p), threads
        )


class _AndRegion(Region):
    """Intersection of two regions; same mask interface."""

    def __init__(self, a: Region, b: Region):
        object.__setattr__(self, "k", a.k)
        object.__setattr__(self, "blocks", a.blocks)
        object.__setattr__(self, "_parts", (a, b))

    def mask(self, pts: np.ndarray, p: int) -> np.ndarray:
        a, b = self._parts
        return a.mask(pts, p) & b.mask(pts, p)


# -- counting over Z/p^m -----------------------------------------------------


def _count_naive(
    gens: Sequence[Poly],
    nvars: int,
    p: int,
    m: int,
    region: Region,
    threads: int,
) -> int:
    """Zeros of gens mod p^m inside the region, by full enumeration; the
    caller charges the budget."""
    q = p ** m

    def worker(pts: np.ndarray) -> int:
        ok = region.mask(pts, p)
        for g in gens:
            ok &= eval_poly_mod(g, pts, q) == 0
        return int(ok.sum())

    return map_sum(worker, iter_grid(nvars, q), threads)


def _rank_mask(jac_vals: np.ndarray, r: int, n: int, p: int) -> np.ndarray:
    """jac_vals: (count, r, n) mod-p entries -> mask of full-rank points."""
    if r > n:
        return np.zeros(len(jac_vals), dtype=bool)
    full = np.zeros(len(jac_vals), dtype=bool)
    for cols in itertools.combinations(range(n), r):
        sub = jac_vals[:, :, cols]
        full |= _det_mod(sub, p) != 0
        if full.all():
            break
    return full


def _det_mod(mats: np.ndarray, p: int) -> np.ndarray:
    # Laplace expansion along the first row; r is small.
    r = mats.shape[1]
    if r == 1:
        return mats[:, 0, 0] % p
    acc = np.zeros(len(mats), dtype=np.int64)
    cols = list(range(r))
    for j in range(r):
        rest = cols[:j] + cols[j + 1 :]
        minor = _det_mod(mats[:, 1:, :][:, :, rest], p)
        term = (mats[:, 0, j] * minor) % p
        acc = (acc - term if j % 2 else acc + term) % p
    return acc % p


class _BudgetState:
    """The budget left to one lift call, and its node memo."""

    def __init__(self, budget: int):
        self.left = budget
        self.budget = budget
        # (frozenset of active constraints, depth) -> count of a region-free node
        self.memo: dict[tuple, int] = {}

    def spend(self, points: int, what: str) -> None:
        charge(points, self.left, what)
        self.left -= points


def _vp(c: int, p: int) -> int:
    """The p-adic valuation of a nonzero integer."""
    if c == 0:
        raise ValueError("the valuation of 0 is infinite")
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def _constraints(
    polys: Iterable[tuple[dict[tuple[int, ...], int], int]], nvars: int, p: int
) -> list[tuple[Poly, int]] | None:
    """Reduce each constraint ord_p(sum_b coeffs[b] y^b) >= e to its class.

    With c the content (the least valuation of a coefficient nonzero mod
    p^e), the constraint equals ord_p(h) >= e - c for h = coeffs / p^c
    reduced mod p^(e - c).  It is dropped when c >= e (every coefficient
    vanishes mod p^e), and no point meets it when h is constant, since that
    constant is then a unit.  Returns the (h, e - c) pairs, or None when
    some constraint has no solution.
    """
    active = []
    for coeffs, e in polys:
        q = p ** e
        nonzero = [(b, r) for b, v in coeffs.items() if (r := v % q)]
        if not nonzero:
            continue
        c = min(_vp(v, p) for _, v in nonzero)
        h = Poly(nvars, {b: v // p ** c for b, v in nonzero})
        if h.is_constant():
            return None
        active.append((h, e - c))
    return active


def _shift_table(g: Poly, top: int) -> dict[tuple[int, ...], list]:
    """The Taylor coefficients T_b = d^b g / b! of g for |b| <= top.

    T_b is kept as a list of (exponent, coefficient) terms, built from the
    binomials C(a, b) of g's terms c x^a, so that
    g(z + p y) = sum_b p^|b| T_b(z) y^b with T_0 = g.
    """
    table: dict[tuple[int, ...], list] = {}
    for a, c in g.terms.items():
        for b in itertools.product(*(range(min(ai, top) + 1) for ai in a)):
            if sum(b) <= top:
                binom = math.prod(math.comb(ai, bi) for ai, bi in zip(a, b))
                rest = tuple(ai - bi for ai, bi in zip(a, b))
                table.setdefault(b, []).append((rest, c * binom))
    return table


def _shift(table: dict, z0: list[int], p: int) -> dict[tuple[int, ...], int]:
    """The coefficients of y^b in g(z0 + p y) for the table's b."""

    def at(terms) -> int:
        total = 0
        for a, c in terms:
            for z, ai in zip(z0, a):
                if ai:
                    c *= z ** ai
            total += c
        return total

    return {b: at(terms) * p ** sum(b) for b, terms in table.items()}


def _lift_count(
    active: list[tuple[Poly, int]],
    nvars: int,
    p: int,
    depth: int,
    state: _BudgetState,
    region: Region | None,
) -> int:
    """Count z in (Z/p^depth)^nvars with ord_p(g_i(z)) >= e_i for all i.

    Invariant: 1 <= e_i <= depth for every active constraint (g_i, e_i),
    and g_i's coefficients are reduced mod p^e_i (see _constraints).

    The zeros mod p are found on the grid of residues.  A zero where the
    Jacobian has full rank mod p lifts in closed form; a singular zero z0
    is re-expanded as z0 + p*y.  The coefficient of y^b in g(z0 + p y) is
    p^|b| T_b(z0), with T_b = d^b g / b! from a table built once per node
    (its |b| = 1 rows are the Jacobian), and only |b| < e matters mod
    p^e.  Each child is reduced by _constraints, so equal subtrees have
    equal keys: a region-free node is looked up in state.memo by the set
    of its constraints and its depth, and a hit costs no work and no
    budget.  Only the root may carry a region, and a node with a region
    is never looked up.
    """
    if not active:
        # count_points_raw counts a constraint-free root under a region
        return p ** (depth * nvars)
    key = (frozenset(active), depth) if region is None else None
    if key in state.memo:
        return state.memo[key]
    state.spend(p ** nvars, "residue-tree level")

    exps = [e for _, e in active]
    r = len(active)
    # rows |b| <= e - 1 shift a constraint; a target of 1 holds at every
    # child, so it only needs the Jacobian rows
    tables = [_shift_table(g, max(e - 1, 1)) for g, e in active]
    gens = [g for g, _ in active]
    units = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]
    jac_polys = [[Poly(nvars, dict(t.get(u, ()))) for u in units] for t in tables]

    sing_chunks: list[np.ndarray] = []
    smooth_total = 0
    # full-rank points lift p^(n-r) ways per level; exponent is >= 0
    # whenever r <= nvars, the only case where the weight is used
    smooth_weight = (
        p ** ((depth - 1) * nvars - sum(e - 1 for e in exps)) if r <= nvars else 0
    )

    for pts in iter_grid(nvars, p):
        ok = np.ones(len(pts), dtype=bool)
        if region is not None:
            ok &= region.mask(pts, p)
        for g in gens:
            ok &= eval_poly_mod(g, pts, p) == 0
        sols = pts[ok]
        if not len(sols):
            continue
        if r <= nvars:
            jac = np.empty((len(sols), r, nvars), dtype=np.int64)
            for i in range(r):
                for j in range(nvars):
                    jac[:, i, j] = eval_poly_mod(jac_polys[i][j], sols, p)
            full = _rank_mask(jac, r, nvars, p)
        else:
            full = np.zeros(len(sols), dtype=bool)
        smooth_total += int(full.sum())
        sing = sols[~full]
        if len(sing):
            sing_chunks.append(sing)

    total = smooth_total * smooth_weight
    shifted = [(t, e) for t, e in zip(tables, exps) if e > 1]
    for chunk in sing_chunks:
        for z0 in chunk.tolist():
            child = _constraints(
                ((_shift(t, z0, p), e) for t, e in shifted), nvars, p
            )
            if child is not None:
                total += _lift_count(child, nvars, p, depth - 1, state, None)
    if key is not None:
        state.memo[key] = total
    return total


def count_points_raw(
    gens: Sequence[Poly],
    nvars: int,
    p: int,
    m: int,
    region: Region | None = None,
    method: str = "lift",
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> int:
    """Count common zeros mod p^m of a raw generator list inside a region."""
    check_prime_power(p, m)
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if g.is_constant() and g.constant_value() % p ** m != 0:
            return 0
    gens = [g for g in gens if not g.is_constant()]

    if method == "naive":
        charge(p ** (m * nvars), budget, "naive count")
        return _count_naive(gens, nvars, p, m, region or Region.full(nvars), threads)
    if method == "lift":
        active = _constraints(((g.terms, m) for g in gens), nvars, p)
        if active is None:
            return 0
        if not active and region is not None:
            # every constraint holds; the region is decided mod p
            return region.count_mod_p(p, budget, threads) * p ** ((m - 1) * nvars)
        return _lift_count(active, nvars, p, m, _BudgetState(budget), region)
    if method == "both":
        a = count_points_raw(gens, nvars, p, m, region, "lift", budget, threads)
        b = count_points_raw(gens, nvars, p, m, region, "naive", budget, threads)
        if a != b:
            raise OracleDisagreement(
                f"lift count {a} != naive count {b} (p={p}, m={m})"
            )
        return a
    raise ValueError(f"unknown method {method!r}")


def count_zpm(
    spec: IdealSpec,
    p: int,
    m: int,
    region: Region | None = None,
    method: str = "lift",
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> int:
    """Exact number of points of the ideal's zero set in (Z/p^m)^n ∩ region."""
    if region is not None and region.k != spec.nvars:
        raise ValueError("region size must match nvars")
    return count_points_raw(
        spec.generators, spec.nvars, p, m, region, method, budget, threads
    )


class LocalData:
    """The local counts of one ideal at one prime, each computed once.

    N(m) = #{x in (Z/p^m)^n : reduction in Z, ord_I(x) >= m} for m >= 1,
    and N(0) = #Z(F_p).  Every local object of the paper is a function of
    these: the volumes V(m) = N(m) / p^(mn) (V(0) = N(0) / p^n) and the
    exponential sums E(r, m) = V(m) - p^(-r) V(m-1).  Each N(m) is counted
    by the lift route, under the full budget, on first use and kept in
    this object.  One object serves one public call or one CLI command, so
    no count outlives it.
    """

    def __init__(
        self,
        spec: IdealSpec,
        p: int,
        Z: Region | None = None,
        budget: int = DEFAULT_BUDGET,
        threads: int = 1,
    ):
        check_prime_power(p)
        if Z is not None and Z.k != spec.nvars:
            raise ValueError("region size must match nvars")
        self.spec, self.p, self.Z = spec, p, Z
        self.budget, self.threads = budget, threads
        self._counts: dict[int, int] = {}

    def N(self, m: int) -> int:
        if m not in self._counts:
            if m == 0 and self.Z is not None:
                count = self.Z.count_mod_p(self.p, self.budget, self.threads)
            elif m == 0:
                count = self.p ** self.spec.nvars
            else:
                count = count_zpm(
                    self.spec, self.p, m, region=self.Z,
                    budget=self.budget, threads=self.threads,
                )
            self._counts[m] = count
        return self._counts[m]

    def V(self, m: int) -> Fraction:
        """vol{x : ord_I(x) >= m, reduction in Z}."""
        return Fraction(self.N(m), self.p ** (max(m, 1) * self.spec.nvars))

    def E(self, r: int, m: int) -> Fraction:
        """The r-th exponential sum modulo p^m in counts form."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        return self.V(m) - self.V(m - 1) / self.p ** r


# -- counting over finite fields ---------------------------------------------


def count_ff_raw(
    gens: Sequence[Poly],
    nvars: int,
    p: int,
    k: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> int:
    """Common zeros of gens over F_{p^k}, by exhaustive vectorized evaluation."""
    check_prime_power(p, k)
    q = p ** k
    charge(q ** nvars, budget, "finite-field count")
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if g.is_constant():
            if g.constant_value() % p != 0:
                return 0
    gens = [g for g in gens if not g.is_constant()]
    if k == 1:
        return _count_naive(gens, nvars, p, 1, Region.full(nvars), threads)

    gf = GFTable(p, k)

    def worker(pts: np.ndarray) -> int:
        ok = np.ones(len(pts), dtype=bool)
        for g in gens:
            ok &= gf.eval_poly(g, pts) == 0
        return int(ok.sum())

    return map_sum(worker, iter_grid(nvars, q), threads)


def count_ff(
    spec: IdealSpec,
    p: int,
    k: int = 1,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> int:
    return count_ff_raw(spec.generators, spec.nvars, p, k, budget, threads)


# -- dimension estimation -----------------------------------------------------


@dataclass
class DimEstimate:
    """Growth-rate dimension read off a ladder of finite-field counts."""

    dim: int
    samples: list[tuple[int, int]]
    confident: bool


def dim_estimate_raw(
    gens: Sequence[Poly],
    nvars: int,
    primes: Sequence[int] = (7, 11, 13),
    maxk: int = 1,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> DimEstimate:
    ladder: dict[int, tuple[int, int]] = {}
    for p in primes:
        for k in range(1, maxk + 1):
            q = p ** k
            if q ** nvars <= budget:
                ladder[q] = (p, k)
    if not ladder:
        charge(min(primes) ** nvars, budget, "dimension ladder")
    samples: list[tuple[int, int]] = []
    for q in sorted(ladder):
        p, k = ladder[q]
        samples.append((q, count_ff_raw(gens, nvars, p, k, budget, threads)))
    if all(c == 0 for _, c in samples):
        return DimEstimate(-1, samples, True)

    def round_dim(q: int, c: int) -> int | None:
        if c == 0:
            return None
        return int(math.floor(math.log(c) / math.log(q) + 0.5))

    dims = [round_dim(q, c) for q, c in samples]
    dim = next(d for d in reversed(dims) if d is not None)
    confident = (
        len(samples) >= 2
        and dims[-1] is not None
        and dims[-2] is not None
        and dims[-1] == dims[-2]
    )
    return DimEstimate(dim, samples, confident)


def dim_estimate(
    spec: IdealSpec,
    primes: Sequence[int] = (7, 11, 13),
    maxk: int = 1,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> DimEstimate:
    """Estimated dimension of the ideal's zero locus (Lang-Weil inversion)."""
    return dim_estimate_raw(spec.generators, spec.nvars, primes, maxk, budget, threads)


def bsing_dim(
    spec: IdealSpec,
    primes: Sequence[int] = (7, 11, 13),
    maxk: int = 1,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    weight: "Weight | None" = None,
) -> dict[int, DimEstimate]:
    """Dimension of the rank-drop locus of each group's top weighted parts.

    For group degree i with generators F_i1..F_ir: the locus where the
    Jacobian of the top w-parts has rank < r_i.  Empty locus reports -1.
    The grading weight defaults to the presentation's own; passing one
    overrides it (all-ones recovers top parts by total degree).
    """
    w = weight if weight is not None else spec.effective_weight
    out: dict[int, DimEstimate] = {}
    for degree, gens in spec.groups:
        tops = [top_part(g, w) for g in gens]
        ri = len(tops)
        if ri > spec.nvars:
            out[degree] = DimEstimate(spec.nvars, [], True)
            continue
        minors = jacobian_minors(tops, ri)
        nonzero = [mn for mn in minors if not mn.is_zero()]
        if not nonzero:
            out[degree] = DimEstimate(spec.nvars, [], True)
            continue
        if any(mn.is_constant() for mn in nonzero):
            # a unit minor: full rank everywhere
            out[degree] = DimEstimate(-1, [], True)
            continue
        out[degree] = dim_estimate_raw(
            nonzero, spec.nvars, primes, maxk, budget, threads
        )
    return out
