"""Exact point counting over Z/p^m and F_{p^k}, with region constraints.

Counting over Z/p^m has two independent routes that must agree:

* ``naive`` enumerates the full residue grid (the always-available oracle);
* ``lift`` enumerates residues mod p once and then walks a recursive
  residue tree, collapsing branches through smooth points in closed form
  (a point whose Jacobian has full rank mod p lifts p^(n-r) ways per
  level) and re-expanding x = x0 + p*y only below singular points.

Regions constrain coordinates mod p only (all supported modes are
conditions on the reduction), so they are applied at the first level of
either route.  Dimension estimation inverts point counts over a ladder of
finite fields: count ~ q^dim for geometrically irreducible loci, so
round(log_q count) at the largest feasible q, flagged confident only when
the two largest q agree.
"""

from __future__ import annotations

import itertools
import math
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


def iter_grid(k: int, radix: int, chunk: int = CHUNK) -> Iterator[np.ndarray]:
    """Enumerate {0..radix-1}^k row-major as int64 arrays of shape (c, k)."""
    total = radix ** k
    for off in range(0, total, chunk):
        cnt = min(chunk, total - off)
        idx = np.arange(off, off + cnt, dtype=np.int64)
        pts = np.empty((cnt, k), dtype=np.int64)
        for j in range(k - 1, -1, -1):
            pts[:, j] = idx % radix
            idx //= radix
        yield pts


def _powmod(col: np.ndarray, e: int, q: int) -> np.ndarray:
    result = np.ones_like(col)
    base = col % q
    while e:
        if e & 1:
            result = (result * base) % q
        e >>= 1
        if e:
            base = (base * base) % q
    return result


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


def _map_chunks(worker: Callable, chunks: Iterable, threads: int) -> list:
    # Results are consumed in submission order, so the reduction below is
    # identical for any thread count.  Submissions are windowed so that
    # only a bounded number of chunk arrays is alive at a time.
    if threads <= 1:
        return [worker(c) for c in chunks]
    from collections import deque

    results = []
    window = threads * 2
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for c in chunks:
            pending.append(pool.submit(worker, c))
            if len(pending) >= window:
                results.append(pending.popleft().result())
        while pending:
            results.append(pending.popleft().result())
    return results


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

    def mask(self, pts_mod_p: np.ndarray, p: int) -> np.ndarray:
        """Boolean membership mask for an array of mod-p points."""
        m = np.ones(len(pts_mod_p), dtype=bool)
        for (start, stop), mode in self.blocks:
            sub = pts_mod_p[:, start:stop]
            if isinstance(mode, Full):
                continue
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
        totals = _map_chunks(
            lambda pts: int(self.mask(pts, p).sum()), iter_grid(self.k, p), threads
        )
        return sum(totals)


class _AndRegion(Region):
    """Intersection of two regions; same mask interface."""

    def __init__(self, a: Region, b: Region):
        object.__setattr__(self, "k", a.k)
        object.__setattr__(self, "blocks", a.blocks)
        object.__setattr__(self, "_parts", (a, b))

    def mask(self, pts_mod_p: np.ndarray, p: int) -> np.ndarray:
        a, b = self._parts
        return a.mask(pts_mod_p, p) & b.mask(pts_mod_p, p)


# -- counting over Z/p^m -----------------------------------------------------


def _count_naive(
    gens: Sequence[Poly],
    nvars: int,
    p: int,
    m: int,
    region: Region,
    budget: int,
    threads: int,
) -> int:
    q = p ** m
    charge(q ** nvars, budget, "naive count")

    def worker(pts: np.ndarray) -> int:
        ok = region.mask(pts % p, p)
        for g in gens:
            ok &= eval_poly_mod(g, pts, q) == 0
        return int(ok.sum())

    return sum(_map_chunks(worker, iter_grid(nvars, q), threads))


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
    def __init__(self, budget: int):
        self.left = budget
        self.budget = budget

    def spend(self, points: int, what: str) -> None:
        charge(points, self.left, what)
        self.left -= points


def _lift_count(
    active: list[tuple[Poly, int]],
    nvars: int,
    p: int,
    depth: int,
    state: _BudgetState,
    region: Region | None,
    threads: int,
) -> int:
    """Count z in (Z/p^depth)^nvars with ord_p(g_i(z)) >= e_i for all i.

    Invariant: 1 <= e_i <= depth for every active constraint.
    """
    if not active:
        return p ** (depth * nvars)
    state.spend(p ** nvars, "residue-tree level")

    gens = [g for g, _ in active]
    exps = [e for _, e in active]
    r = len(gens)
    jac_polys = [[g.derivative(j) for j in range(nvars)] for g in gens]

    sols_chunks: list[np.ndarray] = []
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
            sols_chunks.append(sing)

    total = smooth_total * smooth_weight
    for chunk in sols_chunks:
        for row in chunk:
            z0 = [int(v) for v in row]
            shifted = [
                Poly.var(i, nvars) * p + Poly.const(z0[i], nvars)
                for i in range(nvars)
            ]
            new_active: list[tuple[Poly, int]] = []
            dead = False
            for g, e in zip(gens, exps):
                h = g.eval_poly(shifted)
                if h.is_zero():
                    continue
                content = min(_vp(c, p) for c in h.terms.values())
                c = min(content, e)
                if c >= e:
                    continue
                h = Poly(nvars, {ee: cc // p ** c for ee, cc in h.terms.items()})
                if h.is_constant():
                    # unit constant with a positive target order: impossible
                    dead = True
                    break
                new_active.append((h, e - c))
            if dead:
                continue
            total += _lift_count(
                new_active, nvars, p, depth - 1, state, None, threads
            )
    return total


def _vp(c: int, p: int) -> int:
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


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
    if region is None:
        region = Region.full(nvars)
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if g.is_constant() and g.constant_value() % p ** m != 0:
            return 0
    gens = [g for g in gens if not g.is_constant()]

    if method == "naive":
        return _count_naive(gens, nvars, p, m, region, budget, threads)
    if method == "lift":
        state = _BudgetState(budget)
        return _lift_count([(g, m) for g in gens], nvars, p, m, state, region, threads)
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

        def worker(pts: np.ndarray) -> int:
            ok = np.ones(len(pts), dtype=bool)
            for g in gens:
                ok &= eval_poly_mod(g, pts, p) == 0
            return int(ok.sum())

        return sum(_map_chunks(worker, iter_grid(nvars, p), threads))

    gf = GFTable(p, k)

    def worker(pts: np.ndarray) -> int:
        ok = np.ones(len(pts), dtype=bool)
        for g in gens:
            ok &= gf.eval_poly(g, pts) == 0
        return int(ok.sum())

    return sum(_map_chunks(worker, iter_grid(nvars, q), threads))


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
