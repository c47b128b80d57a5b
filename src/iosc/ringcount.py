"""Exact point counting over Z/p^m and F_{p^k}, with region constraints.

Counting over Z/p^m has two independent routes that must agree:

* ``naive`` enumerates the full residue grid (the always-available oracle);
* ``lift`` walks Denef's recursive residue tree once for every order
  1..m at the same time (_Lift), and reads a count of one order m off
  that walk.

Regions constrain coordinates mod p only (all supported modes are
conditions on the reduction), so they are applied at the first level of
either route.  Dimension estimation inverts point counts over a ladder of
finite fields: count ~ q^dim for geometrically irreducible loci, so
round(log_q count) at the largest feasible q, flagged confident only when
the two largest q agree.

Every exact route of the package is an exhaustive scan of a box, and
this module holds the one kernel they all share.  A ring (ModQ for Z/q,
gf.GFTable for F_q, Int64 for exact integers) supplies const, mul,
mul_rows, add, reduce and neg, and power() raises to a power in any of
them by poly.power, the package's one square-and-multiply loop.
mul_rows(col, h) is mul of a column of prefix values, shape (rows, 1,
..., 1), and a suffix box h: ModQ and Int64 alias it to mul, and GFTable
gathers one table row per prefix value.  Over F_(2^k), add is the XOR
of codes.  Grid is a box of ring points, (Z/q)^k, F_q^k or an integer
box, split into a prefix and a suffix box of at most CHUNK points; an
axis may run over a range of codes, such as the units 1..q-1 of F_q.
GridPolys groups each polynomial by prefix monomial, f = h_0 + sum_a
x^a h_a, and evaluates each group's suffix polynomial once per scan, so
a chunk (a run of prefix points times the suffix box) costs one row
product (mul_rows) and one add per distinct prefix monomial a != 0, and
decodes no rows; a region is decided on the same chunks (Region.on).
ZeroScan, the zero test of a whole grid, takes -h_0 once per scan (neg)
and compares the other groups' sum with it, one compare per point and
polynomial with no add of h_0 and, for one prefix group, no reduce; the
compare is in the ring's code dtype (int8 or int16 for small q), while
the arithmetic before it stays int64 for Z/q.  A lift node's scan above
order 1 evaluates the Jacobian too, so rows are decoded only for its
singular zeros and for the critical points of a half grid.  eval_rows()
evaluates a polynomial on given rows in any ring, and map_sum() adds a
worker's results over chunks in submission order on a thread pool, so
every total is the same for any thread count.  The lift builds its grid (Z/p)^n, with its power tables, once
per call.  _count_naive() is the one zero count of a whole grid: the
naive route, the region counts, and the finite-field and integer box
counts of gens that do not split.  split_halves() is the one split gate
and the one builder of half grids, for what it finds separable.
_split_zeros() counts the zeros on two half grids (_codes() encodes
value vectors in int64, as Python ints past it, the smaller half is
tallied by value_tally() and the larger matched to it a chunk at a time
by count_tally_pairs()) for the lift's split nodes, the finite-field
count of count_ff_raw (and so dim_estimate, bsing_dim and ff_char_sum's
dimension ladder) and the integer box count of
circle.count_box_solutions; convolve_tallies() sums two halves' tallies
for the whole-grid value tallies of expsum.value_histogram (E_charsum's
x-pass, full-region phase and residue histograms, the finite-field sums
with no constraint).  The naive route and the region counts never
split, so the lift and the naive count stay independent.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, Meter, OracleDisagreement, charge, check_int
from .gf import MAX_TABLE_Q, GFTable, code_dtype
from .poly import IdealSpec, Poly, Weight, jacobian_minors, top_part, power as poly_power

# -- vectorized helpers ----------------------------------------------------

# rows per chunk, so each int64 array over a chunk takes at most 2 MB
CHUNK = 1 << 18
# separable boxes of more points split (split_halves): a split's fixed
# cost, about 0.2 ms of np.unique and intersect1d, is that of scanning
# 10^4 to 3*10^4 points at 6-20 ns a point
SPLIT_POINTS = 1 << 14
# products of two residues below 2^31 fit in int64
Q_LIMIT = 1 << 31
# value_tally and count_tally_pairs tally values densely while their
# range is at most this many times the values counted: on a 2-core Xeon
# VM two bincounts took 0.3-0.6 of np.unique's time at 1-2 times, and as
# long at 3 (169 to 200,000 values)
DENSE = 2


def factorize(q: int) -> list[tuple[int, int]]:
    """Prime-power factorization [(p, e), ...] by trial division."""
    if q < 1:
        raise ValueError("modulus must be positive")
    out = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            e = 0
            while q % d == 0:
                q //= d
                e += 1
            out.append((d, e))
        d += 1
    if q > 1:
        out.append((q, 1))
    return out


def check_prime_power(p: int, m: int = 1, name: str = "m") -> None:
    """Raise ValueError unless p is a prime below 2^31 and m >= 1, both
    Python ints (check_int); name is m's name in the messages, "k" for
    the degree of an extension field F_(p^k).

    Every route evaluates polynomials mod p in int64 (ModQ), which is
    exact only below 2^31, so the bound comes first and keeps the trial
    division short.
    """
    check_int("p", p)
    check_int(name, m, 1)
    if not 2 <= p < Q_LIMIT or factorize(p) != [(p, 1)]:
        raise ValueError(f"p must be a prime below 2^31, got {p}")


def digits(idx: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """Mixed-radix digits of each int64 index, most significant first.

    Returns an int64 array of shape (len(idx), len(radices)).  idx is
    divided in place, so pass an array the caller no longer needs.
    """
    out = np.empty((len(idx), len(radices)), dtype=np.int64)
    for j in range(len(radices) - 1, -1, -1):
        np.divmod(idx, radices[j], out=(idx, out[:, j]))
    return out


def _check_modulus(q: int) -> None:
    if not 1 <= q < Q_LIMIT:
        raise ValueError(f"modulus {q} is outside the int64-exact range [1, 2^31)")


class ModQ:
    """Z/q as int64 residues 0..q-1, for 1 <= q < 2^31.

    A product of two residues stays below 2^62.  add() leaves a sum
    unreduced, since a sum of a few residues stays far inside int64, and
    reduce() takes it mod q once, in place.  Arithmetic stays int64, since
    products of residues need it; dtype, the smallest signed integer type
    that holds q - 1 (gf.code_dtype: int8 up to q = 128, int16 up to 2^15,
    else int32), is what ZeroScan compares reduced residues in.
    """

    def __init__(self, q: int):
        _check_modulus(q)
        self.q = q
        self.dtype = code_dtype(q)

    def const(self, c: int) -> int:
        return c % self.q

    def mul(self, a, b):
        return a * b % self.q

    mul_rows = mul

    def add(self, a, b):
        return a + b

    def reduce(self, a: np.ndarray) -> np.ndarray:
        a %= self.q
        return a

    def neg(self, a: np.ndarray) -> np.ndarray:
        return -a % self.q


class Int64:
    """Exact integers in int64; the caller bounds every value below 2^62.
    Values are compared in int64 too (dtype)."""

    dtype = np.int64

    def const(self, c: int) -> int:
        return c

    def mul(self, a, b):
        return a * b

    mul_rows = mul

    def add(self, a, b):
        return a + b

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a

    def neg(self, a: np.ndarray) -> np.ndarray:
        return -a


# the rings of the evaluators: each has const, mul, mul_rows, add, reduce
# and neg, and the dtype ZeroScan compares values in
Ring = ModQ | Int64 | GFTable


def power(ring: Ring, a: np.ndarray, e: int) -> np.ndarray:
    """a^e in the ring for e >= 1 (poly.power).  A Z/q base is reduced
    first, so unreduced rows stay below 2^62."""
    return poly_power(ring.mul, a % ring.q if isinstance(ring, ModQ) else a, e, ring.const(1))


def _monomial(
    expo: tuple[int, ...], col: Callable, ring: Ring, powers: dict
) -> np.ndarray | None:
    """x^expo in the ring, None for x^0.  col(j) gives coordinate j, and
    each power x_j^e is taken once and kept in powers under (j, e)."""
    t = None
    for j, e in enumerate(expo):
        if e:
            if (j, e) not in powers:
                powers[j, e] = power(ring, col(j), e)
            t = powers[j, e] if t is None else ring.mul(t, powers[j, e])
    return t


def _eval_terms(
    terms: Iterable, col: Callable, ring: Ring, powers: dict, shape: int | tuple
) -> np.ndarray:
    """sum c x^b over the terms (b, c) in the ring, on coordinates that
    broadcast against zeros of the given shape (see _monomial); an integer
    c enters as ring.const(c)."""
    acc = np.zeros(shape, dtype=np.int64)
    for b, c in terms:
        c = ring.const(c)
        if not c:
            continue
        t = _monomial(b, col, ring, powers)
        if t is None:
            t = c
        elif c != 1:
            t = ring.mul(c, t)
        acc = ring.add(acc, t)
    return ring.reduce(acc)


def eval_rows(f: Poly, pts: np.ndarray, ring: Ring) -> np.ndarray:
    """f at every row of pts, in the ring, as int64 (F_q codes widened
    from the code dtype, so callers may do arithmetic on them); the one
    row evaluator."""
    vals = _eval_terms(f.terms.items(), lambda j: pts[:, j], ring, {}, len(pts))
    return vals.astype(np.int64, copy=False)


def eval_poly_mod(f: Poly, pts: np.ndarray, q: int) -> np.ndarray:
    """Evaluate f mod q on an array of points, exactly; needs 1 <= q < 2^31."""
    return eval_rows(f, pts, ModQ(q))


def map_sum(worker: Callable, chunks: Iterable, threads: int):
    """The sum of worker(c) over a non-empty iterable of chunks, added in
    submission order.

    The fixed order makes the total identical for any thread count.  The
    first result starts the sum, so no accumulator is wider than the
    worker's results.  Submissions are windowed so that only a bounded
    number of chunks is alive at a time.
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


class Grid:
    """A box of ring points as a product of a prefix and a suffix box.

    Axis j runs over lows[j] + {0..sizes[j]-1}.  By default that is the
    ring's q elements, so Grid(k, q) is (Z/q)^k and Grid(k, gf) is F_q^k;
    an Int64 grid takes any integer box.  The suffix is the trailing
    axes, as many as fit in CHUNK points (CHUNK is read when the grid is
    built).  A chunk is a range [start, stop) of prefix indices: those
    prefix points times the whole suffix box, at most CHUNK rows.  The
    chunks cover the box once, in row-major order, and a row is decoded
    only when rows() is asked for it.
    """

    def __init__(self, k: int, ring: int | Ring, lows=None, sizes=None):
        self.ring = ModQ(ring) if isinstance(ring, int) else ring
        self.k = k
        self.lows = tuple(lows) if lows is not None else (0,) * k
        self.sizes = tuple(sizes) if sizes is not None else (self.ring.q,) * k
        chunk = CHUNK
        s, size = 0, 1
        while s < k and size * self.sizes[k - 1 - s] <= chunk:
            s, size = s + 1, size * self.sizes[k - 1 - s]
        self.split, self.suffix_size = k - s, size
        self.block = max(1, chunk // size)
        self.prefix_total = math.prod(self.sizes[: self.split])
        # x_j^e on the suffix box, by (j, e) with j counted in the suffix;
        # each table has at most CHUNK entries
        self._powers: dict[tuple[int, int], np.ndarray] = {}

    def chunks(self) -> Iterator[tuple[int, int]]:
        for start in range(0, self.prefix_total, self.block):
            yield start, min(start + self.block, self.prefix_total)

    def shape(self, chunk: tuple[int, int]) -> tuple[int, ...]:
        """Axis 0 runs over the chunk's prefix points, the others over the
        suffix box; the rows are this array in C order."""
        return (chunk[1] - chunk[0],) + self.sizes[self.split :]

    def flat(self, chunk: tuple[int, int], compact: np.ndarray) -> np.ndarray:
        """An array in the chunk's compact shape spread over its rows, in order."""
        return np.broadcast_to(compact, self.shape(chunk)).reshape(-1)

    def points(self, idx: np.ndarray, axes: int) -> np.ndarray:
        """The points of the box of the first `axes` axes at the flat
        indices idx, which are divided in place."""
        pts = digits(idx, self.sizes[:axes])
        if any(self.lows):
            pts += self.lows[:axes]
        return pts

    def rows(self, chunk: tuple[int, int], where: np.ndarray) -> np.ndarray:
        """The chunk's rows at the positions `where` in it."""
        return self.points(where + chunk[0] * self.suffix_size, self.k)

    def box_values(self, terms: dict[tuple[int, ...], int]) -> np.ndarray:
        """sum c x^b on the suffix box, for exponents b of its axes.

        Each monomial is an outer product of per-axis power vectors, so the
        result has length 1 on every axis no term depends on, and it
        broadcasts against the full box.
        """
        s = self.k - self.split

        def axis(j: int) -> np.ndarray:
            lo, size = self.lows[self.split + j], self.sizes[self.split + j]
            shape = (1,) * j + (size,) + (1,) * (s - j - 1)
            return np.arange(lo, lo + size, dtype=np.int64).reshape(shape)

        vals = _eval_terms(terms.items(), axis, self.ring, self._powers, (1,) * s)
        # an array even when s = 0, where numpy arithmetic gives a scalar
        return np.asarray(vals)


class GridPolys:
    """Polynomials evaluated in the ring of a Grid, on its chunks.

    Each polynomial f is grouped by prefix monomial, f = h_0 + sum_a x^a h_a
    with h_0 the group of suffix-only terms, and each suffix polynomial is
    evaluated once, on the suffix box (Grid.box_values), when the scan is
    built; chunks then only read it, so they may run on any thread.  A
    chunk costs one row product and one add per distinct a != 0, then one
    reduce, and no row is decoded.  In Z/q, products of two residues stay
    below 2^62 and the sum of G reduced groups below G q, so int64 is
    exact.
    """

    def __init__(self, grid: Grid, polys: Sequence[Poly]):
        self.grid = grid
        split = grid.split
        # per polynomial (h_0 or None, [(a, h_a) for a != 0])
        self.plans: list[tuple[np.ndarray | None, list]] = []
        for f in polys:
            groups: dict[tuple[int, ...], dict] = {}
            for expo, c in f.terms.items():
                groups.setdefault(expo[:split], {})[expo[split:]] = c
            h0, rest = None, []
            for a, terms in groups.items():
                h = grid.box_values(terms)
                h.flags.writeable = False  # shared by every chunk
                if any(a):
                    rest.append((a, h))
                else:
                    h0 = h
            self.plans.append((h0, rest))

    def sums(
        self, chunk: tuple[int, int], with_h0: bool = True
    ) -> list[tuple[np.ndarray | None, int]]:
        """Each polynomial's sum of its groups on the chunk, h_0 left out
        unless with_h0, before the reduce: (the sum, or None for no group,
        and its number of groups).  The sums broadcast against
        grid.shape(chunk); an axis no term depends on keeps length 1.
        Each group x^a h_a is ring.mul_rows of x^a, one value per prefix
        point along axis 0, and the suffix box h_a."""
        start, stop = chunk
        grid, ring = self.grid, self.grid.ring
        s = grid.k - grid.split
        prefix = None
        powers: dict[tuple[int, int], np.ndarray] = {}

        def mono(a: tuple[int, ...]) -> np.ndarray:
            # x^a on the chunk's prefix points, along axis 0
            t = _monomial(a, lambda j: prefix[:, j], ring, powers)
            return t.reshape((-1,) + (1,) * s)

        out = []
        for h0, rest in self.plans:
            acc = h0 if with_h0 else None
            for a, h in rest:
                if prefix is None:
                    idx = np.arange(start, stop, dtype=np.int64)
                    prefix = grid.points(idx, grid.split)
                h = ring.mul_rows(mono(a), h)
                acc = h if acc is None else ring.add(acc, h)
            out.append((acc, len(rest) + (with_h0 and h0 is not None)))
        return out

    def compact(self, chunk: tuple[int, int]) -> list[np.ndarray]:
        """Each polynomial's values on the chunk, as arrays that broadcast
        against grid.shape(chunk) (see sums)."""
        s = self.grid.k - self.grid.split
        out = []
        for acc, groups in self.sums(chunk):
            if acc is None:  # the zero polynomial
                acc = np.zeros((1,) * (s + 1), dtype=np.int64)
            elif groups > 1:
                acc = self.grid.ring.reduce(acc)  # a sum, so not a shared array
            out.append(acc)
        return out


class ZeroScan(GridPolys):
    """GridPolys that finds the common zeros of its polynomials.

    f = h_0 + S vanishes exactly where S == -h_0, for S the reduced sum of
    the groups with a != 0 (0 for none), so a chunk tests each polynomial
    with one broadcast compare and adds and reduces no h_0.  The negations
    -h_0 (ring.neg) are taken once, when the scan is built, so that no
    other scan (a lift node's) pays for them.

    The compare is in the ring's code dtype (ring.dtype): int8 or int16
    for Z/q of q <= 2^15, int32 above, the F_q codes' own dtype, and
    int64 for Int64.  A chunk's reduced sums, compact arrays far smaller
    than the broadcast, are cast to it, and so are the negations, once;
    the arithmetic before the compare stays int64 for Z/q, because
    products of residues need it.  Every point is still compared.
    """

    def __init__(self, grid: Grid, polys: Sequence[Poly]):
        super().__init__(grid, polys)
        code = grid.ring.dtype
        self.negs = [
            0 if h0 is None else grid.ring.neg(h0).astype(code) for h0, _ in self.plans
        ]

    def zeros(self, chunk: tuple[int, int], within: np.ndarray | None = None) -> np.ndarray:
        """The mask of the chunk's rows where every polynomial vanishes,
        and where `within`, a mask in the compact shape, holds if given."""
        ring, ok = self.grid.ring, within
        for (vals, groups), neg in zip(self.sums(chunk, with_h0=False), self.negs):
            if vals is None:
                vals = 0
            else:
                if groups > 1:
                    vals = ring.reduce(vals)
                vals = vals.astype(ring.dtype, copy=False)
            ok = vals == neg if ok is None else ok & (vals == neg)
        return self.grid.flat(chunk, np.ones(1, dtype=bool) if ok is None else ok)


# -- separable zero scans ----------------------------------------------------


def split_halves(
    gens: Sequence[Poly], grid: Grid
) -> list[tuple[list[int], Grid, list[Poly]]] | None:
    """The gens as g_j = g_jA(x_A) + g_jB(x_B) on two halves of the grid's
    axes, or None to scan the whole grid; the one split gate of the
    lift, the finite-field and box counts and value_histogram.

    A box of at most min(CHUNK, SPLIT_POINTS) points (both read at call
    time) is scanned, since there a split costs more than the scan, and
    so are no gens and gens of a single block.  The gate was measured on
    a 2-core Xeon VM: a split has a fixed cost of about 0.2 ms and a scan
    costs 6-20 ns a point, so the two cross near 2^14 points (an order-1
    lift node of x1^2+x2^2-x3^2-x4^2, x1*x3-x2*x4 took 0.23 ms to scan
    and 0.34 ms to split at 7^4 points, 0.65 ms and 0.22 ms at 13^4).
    Gens that each use at most one variable are scanned up to CHUNK
    points: the scan, one chunk, evaluates each on one axis and does no
    arithmetic on the whole box, about 1 ns a point (four coordinate
    squares over F_p: 0.08 against 0.16 ms at 13^4 points, 0.14 against
    0.17 ms at 19^4).

    The blocks are the connected components of the graph on the
    variables that joins two variables in the same monomial of any of the
    gens; a variable no generator uses is a block of its own.  Largest
    first, counted in box points (sizes[j] per axis), each block goes to
    the half with fewer points, A on a tie, and A takes the constant
    terms.  Each half is (axes, its grid, [g_1H, ..., g_rH]): the grid
    keeps the ring, lows and sizes of axes, and g_jH is a polynomial in
    the variables of axes, in order.
    """
    sizes = grid.sizes
    box = math.prod(sizes)
    if not gens or box <= min(CHUNK, SPLIT_POINTS) or box <= CHUNK and all(
        sum(map(any, zip(*g.terms))) <= 1 for g in gens
    ):
        return None
    parent = list(range(len(sizes)))

    def root(j: int) -> int:
        while parent[j] != j:
            j = parent[j]
        return j

    for g in gens:
        for expo in g.terms:
            used = [j for j, e in enumerate(expo) if e]
            for j in used[1:]:
                parent[root(j)] = root(used[0])
    comps: dict[int, list[int]] = {}
    for j in range(len(sizes)):
        comps.setdefault(root(j), []).append(j)
    if len(comps) < 2:
        return None

    def points(axes: list[int]) -> int:
        return math.prod(sizes[j] for j in axes)

    halves: tuple[list[int], list[int]] = ([], [])
    for comp in sorted(comps.values(), key=points, reverse=True):
        halves[points(halves[1]) < points(halves[0])].extend(comp)
    axes = [sorted(h) for h in halves]
    parts = [({}, {}) for _ in gens]
    for g, part in zip(gens, parts):
        for expo, c in g.terms.items():
            h = int(any(expo[j] for j in axes[1]))
            part[h][tuple(expo[j] for j in axes[h])] = c
    return [
        (a, Grid(len(a), grid.ring, [grid.lows[j] for j in a], [sizes[j] for j in a]),
         [Poly._of(len(a), part[h]) for part in parts])
        for h, a in enumerate(axes)
    ]


def _codes(vals: Sequence[np.ndarray], q: int) -> np.ndarray:
    """v_1 q^(s-1) + ... + v_s of the value vectors, on the compact shape:
    in int64 whatever the ring's dtype (GFTable codes are int8 or int16,
    whose products would wrap) while q^s <= 2^63, and as Python ints
    (dtype object) above, so no code wraps; one vector is its own code,
    in its own dtype."""
    idx, *rest = vals
    dtype = np.int64 if not rest or q ** len(vals) <= 1 << 63 else object
    for v in rest:
        idx = np.multiply(idx, q, dtype=dtype) + v
    return idx


def value_tally(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a non-empty integer array, ascending, and
    how many times each occurs: by np.bincount of a less its minimum while
    its range is at most DENSE times its length, else, and for Python-int
    codes (dtype object, _codes), by np.unique."""
    lo = int(a.min())
    span = int(a.max()) - lo + 1
    if a.dtype != object and span <= DENSE * len(a):
        counts = np.bincount(np.subtract(a, lo, dtype=np.int64), minlength=span)
        values = np.flatnonzero(counts)
        return values + lo, counts[values]
    return np.unique(a, return_counts=True)


def count_tally_pairs(tally: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> int:
    """#{(i, j) : a[i] == b[j]} for the value_tally of an array a and a
    non-empty integer array b, exactly: the sum of the products of the
    matching values' counts.

    While the range of both arrays' values is at most DENSE times the
    tally's values and b together, b is tallied densely, by np.bincount
    less the common minimum, and read at the tally's values; wider b, and
    Python-int codes (dtype object, _codes), by np.unique, matched by
    intersect1d.  The sum has at most len(a) len(b) pairs, so below 2^63 it
    is one int64 dot product, else a sum of Python ints.
    """
    values, ca = tally
    lo = min(int(values[0]), int(b.min()))
    span = max(int(values[-1]), int(b.max())) - lo + 1
    if b.dtype != object and span <= DENSE * (len(values) + len(b)):
        cb = np.bincount(np.subtract(b, lo, dtype=np.int64), minlength=span)
        cb = cb[np.subtract(values, lo, dtype=np.int64)]
    else:
        ub, cb = np.unique(b, return_counts=True)
        _, ia, ib = np.intersect1d(values, ub, assume_unique=True, return_indices=True)
        ca, cb = ca[ia], cb[ib]
    if int(ca.sum()) * len(b) < 1 << 63:
        return int(np.dot(ca, cb))
    return sum(map(operator.mul, ca.tolist(), cb.tolist()))


def convolve_tallies(ring: Ring, s: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The tally of u + v over the pairs of points of two half grids, from
    their tallies a and b of value vectors in q^s bins (_codes): every
    pair of nonzero bins adds its decoded vectors in the ring, component
    by component, and adds the product of their counts at the code of the
    sum, in exact int64.  Runs of a's bins keep each array of pairs within
    CHUNK entries (read at call time)."""
    q = ring.q
    ia, ib = np.flatnonzero(a), np.flatnonzero(b)
    ca, cb = a[ia], b[ib]
    va, vb = digits(ia, [q] * s), digits(ib, [q] * s)
    out = np.zeros(q ** s, dtype=np.int64)
    block = max(1, CHUNK // len(ib))
    for lo in range(0, len(ia), block):
        run = slice(lo, lo + block)
        sums = [ring.reduce(ring.add(va[run, j, None], vb[:, j])) for j in range(s)]
        np.add.at(out, _codes(sums, q), np.outer(ca[run], cb))
    return out


def _matching_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair with a[i] == b[j]."""
    order = np.argsort(b, kind="stable")
    lo = np.searchsorted(b[order], a, "left")
    runs = np.searchsorted(b[order], a, "right") - lo
    i = np.repeat(np.arange(len(a)), runs)
    # position k of the run of a[i] in the sorted b is lo[i] + k
    j = np.repeat(lo - np.cumsum(runs) + runs, runs) + np.arange(runs.sum())
    return i, order[j]


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
    in order.  Every mode is a test of zeros mod p, of the block's
    coordinates or of its ReductionIn equations, decided by on().
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
        if not gens:
            raise ValueError("the generator list is empty")
        k = gens[0].nvars
        return Region(k, (((0, k), ReductionIn(gens)),))

    @property
    def is_full(self) -> bool:
        return all(isinstance(mode, Full) for _, mode in self.blocks)

    def on(self, grid: Grid, *primes: int) -> Callable[[tuple[int, int]], np.ndarray | None]:
        """chunk -> the region's mask in the chunk's compact shape (see
        GridPolys.compact), or None for a full region, from one GridPolys
        scan of x_j for a block's coordinates and of the ReductionIn
        equations; the zero tests mod every one of the primes combine by
        and/not, so no row is decoded.  Z/q is decided at the primes of q.
        An F_q grid would be decided with the one "prime" q, since code 0
        is its only zero, but no counting route asks for one: the
        finite-field sums take their conditions as the ranges of a
        coordinate box (Grid lows and sizes).
        """
        polys, tests = [], []
        for (start, stop), mode in self.blocks:
            if isinstance(mode, ReductionIn):
                polys += [g.map_vars(range(start, stop), self.k) for g in mode.gens]
            elif not isinstance(mode, Full):
                polys += [Poly.var(j, self.k) for j in range(start, stop)]
            tests.append((mode, len(polys)))
        scan = GridPolys(grid, polys)

        def inside(chunk: tuple[int, int]) -> np.ndarray | None:
            vals = scan.compact(chunk)
            masks = []
            for p in primes:
                lo = 0
                for mode, hi in tests:
                    # in int64: F_q codes are narrower than p = q may be
                    zero = [np.remainder(v, p, dtype=np.int64) == 0 for v in vals[lo:hi]]
                    lo = hi
                    if isinstance(mode, UnitModP):
                        masks += [~z for z in zero]
                    elif isinstance(mode, PrimitiveBlock):
                        masks.append(~functools.reduce(operator.and_, zero))
                    else:  # ZeroModP and ReductionIn: every test is a zero
                        masks += zero
            return functools.reduce(operator.and_, masks) if masks else None

        return inside

    def count_mod_p(self, p: int, budget: int | Meter = DEFAULT_BUDGET, threads: int = 1) -> int:
        """Number of points of the region in (Z/p)^k."""
        charge(p ** self.k, budget, "region count")
        grid = Grid(self.k, p)
        return _count_naive([], grid, self.on(grid, p), threads)


# -- counting over Z/p^m -----------------------------------------------------


def _count_naive(
    gens: Sequence[Poly], grid: Grid, inside: Callable | None, threads: int
) -> int:
    """Common zeros of gens on the grid where the chunk mask inside(chunk)
    holds (Region.on; None for the whole grid), by full enumeration; the
    caller charges the budget.  No row is decoded.  It serves the naive
    count and the region count, and the finite-field count and the
    integer box count of circle.count_box_solutions for gens that
    split_halves does not split."""
    scan = ZeroScan(grid, gens)

    def worker(chunk: tuple[int, int]) -> int:
        return int(np.count_nonzero(scan.zeros(chunk, inside and inside(chunk))))

    return map_sum(worker, grid.chunks(), threads)


def _nonconstant(gens: Sequence[Poly], q: int) -> list[Poly] | None:
    """The non-constant gens, or None when a constant one is nonzero mod
    q, so that no point is a common zero."""
    if any(g.is_constant() and g.constant_value() % q for g in gens):
        return None
    return [g for g in gens if not g.is_constant()]


def _full_rank(jac: np.ndarray, p: int) -> np.ndarray:
    """The mask of the (r, n) matrices of a (count, r, n) stack whose rank
    mod p is r (r = 0 is full rank), by one batched Gaussian elimination:
    row i, reduced by the pivot rows above it, is zero exactly when it
    lies in their span.  Entries stay below p < 2^31, so products fit in
    int64."""
    a = jac % p
    count, r, _ = a.shape
    at = np.arange(count)
    full = np.ones(count, dtype=bool)
    for i in range(r):
        row = a[:, i, :]
        nonzero = row != 0
        full &= nonzero.any(axis=1)
        if i + 1 < r:
            col = nonzero.argmax(axis=1)
            # Fermat's inverse of the pivot (every unit mod 2 is 1)
            inv = power(ModQ(p), row[at, col], max(p - 2, 1))
            factor = a[at, i + 1 :, col] * inv[:, None] % p
            a[:, i + 1 :] = (a[:, i + 1 :] - factor[:, :, None] * row[:, None, :]) % p
    return full


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
    polys: Iterable[tuple[dict[tuple[int, ...], int], int]], hi: int, nvars: int, p: int
) -> tuple[list[tuple[Poly, int]], int]:
    """Reduce each constraint ord_p(sum_b coeffs[b] y^b) >= k - o, asked at
    the orders k <= hi, to its class.

    Each coeffs is a fresh dict of residues mod p^e, e = hi - o >= 1 the
    top target, in 1..p^e - 1: the zero ones are dropped (_shift), and a
    dict with none left holds at every order up to hi and is dropped.
    With c the content, the valuation of the coefficients' gcd, the
    constraint equals ord_p(h) >= k - (o + c) for h = coeffs / p^c, which
    is reduced mod p^(e - c).  When h's one exponent is 0, h is a unit and
    holds exactly at the orders k <= o + c, so it lowers the top order to
    o + c.  Otherwise h is built on the dict by the unchecked Poly._of.
    Returns the (h, o + c) pairs whose offset is below the top order, and
    the top order.
    """
    active, top, zero = [], hi, (0,) * nvars
    for coeffs, o in polys:
        if not coeffs:
            continue
        c = _vp(math.gcd(*coeffs.values()), p)
        if c:
            unit = p ** c
            coeffs = {b: v // unit for b, v in coeffs.items()}
        if len(coeffs) == 1 and zero in coeffs:
            top = min(top, o + c)
        else:
            active.append((Poly._of(nvars, coeffs), o + c))
    # o + c < hi, since c < hi - o; only a unit constant can cut deeper
    if top < hi:
        active = [(h, o) for h, o in active if o < top]
    return active, top


def _shift_table(g: Poly, depth: int, p: int, shapes: dict) -> list[tuple[tuple, list]]:
    """The scaled Taylor coefficients p^|b| T_b, T_b = d^b g / b!, of g for
    |b| <= depth, so that g(z + p y) = sum_b p^|b| T_b(z) y^b.

    Each b comes with the terms of p^|b| T_b, as (c C(a, b) p^|b|, the
    nonzero (i, e) of a - b) for g's terms c x^a with b <= a.  Only the
    coefficients c depend on g: the rest, the shape, depends on g's
    exponents in order and the depth, and is built once per such key in
    shapes (_Lift.shapes), with each term's index in g.
    """
    key = (tuple(g.terms), depth)
    if key not in shapes:
        shape: dict[tuple[int, ...], list] = {}
        for k, a in enumerate(g.terms):
            for b in itertools.product(*(range(min(ai, depth) + 1) for ai in a)):
                if sum(b) <= depth:
                    scale = math.prod(map(math.comb, a, b)) * p ** sum(b)
                    rest = tuple((i, ai - bi) for i, (ai, bi) in enumerate(zip(a, b)) if ai > bi)
                    shape.setdefault(b, []).append((k, scale, rest))
        shapes[key] = list(shape.items())
    coeffs = list(g.terms.values())
    return [(b, [(coeffs[k] * scale, rest) for k, scale, rest in terms])
            for b, terms in shapes[key]]


def _shift(table: list, powers: list[list[int]], q: int) -> dict[tuple[int, ...], int]:
    """The coefficients of y^b in g(z0 + p y) mod q, for the b of g's table
    (_shift_table), the zero ones dropped; powers[i][e] is z0_i^e."""
    out = {}
    for b, terms in table:
        total = 0
        for c, rest in terms:
            for i, e in rest:
                c *= powers[i][e]
            total += c
        if total := total % q:
            out[b] = total
    return out


def _unit_monomial(active: list[tuple[Poly, int]], p: int) -> tuple[int, ...] | None:
    """The exponent a when the node's one constraint is h = y^a (c + p w(y))
    with c a unit mod p, else None.  a is the componentwise least exponent
    of h's terms; it must be a term itself, with a unit coefficient, and
    every other coefficient must be divisible by p."""
    if len(active) != 1:
        return None
    terms = active[0][0].terms
    a = tuple(map(min, zip(*terms)))
    if terms.get(a, 0) % p == 0 or any(c % p for b, c in terms.items() if b != a):
        return None
    return a


def _valuation_sum(a: tuple[int, ...], o: int, p: int, hi: int) -> list[int]:
    """[N(o+1), ..., N(hi)] for N(k) = #{z in (Z/p^k)^n : ord_p h(z) >= k - o},
    h = z^a times a unit and o < hi; every z counts at the orders k <= o.

    On (Z/p^hi)^n, ord_p h(z) = <a, v> for v_i = min(ord_p z_i, hi), and
    c(v) = (p-1) p^(hi-1-v) residues have v_i = v < hi, c(hi) = 1.  The
    number of z with <a, v> = s, s capped at e = hi - o, is a sum over v in
    {0..hi}^n of prod_i c(v_i), run axis by axis in n (hi+1) (e+1) steps,
    which the caller charges (_Lift.count); an axis with a_i = 0
    constrains nothing and contributes p^hi.  Its suffix sums count the z
    with <a, v> >= k - o, and N(k) is that count over p^((hi-k) n), since
    the condition depends on z mod p^k only.
    """
    e = hi - o
    c = [(p - 1) * p ** (hi - 1 - v) for v in range(hi)] + [1]
    # ways[s]: the residues of the axes so far with <a, v> = s, s capped at e
    ways = [1] + [0] * e
    for ai in filter(None, a):
        new = [0] * (e + 1)
        for s, w in enumerate(ways):
            if w:
                for v, cv in enumerate(c):
                    new[min(s + ai * v, e)] += w * cv
        ways = new
    at_least = list(itertools.accumulate(reversed(ways)))[::-1]
    free = p ** (hi * a.count(0))
    return [at_least[k - o] * free // p ** ((hi - k) * len(a)) for k in range(o + 1, hi + 1)]


def _scan_zeros(
    gens: list[Poly], need: list[int], grid: Grid, region: Region | None, hi: int
) -> dict[tuple[int, ...], tuple[int, Sequence]]:
    """The common zeros mod p in the region of the gens indexed by need,
    grouped by the set B of all gens that vanish at them: B -> (the number
    of zeros at which the Jacobian of B has full rank, the other zeros as
    int32 rows, or () for none).
    One GridPolys scan of the grid (Z/p)^n evaluates the gens and their
    partials d g_i / d x_j; each B's Jacobian is read at its zeros' flat
    positions, and only the singular zeros are decoded.

    At a node of order 1 (hi = 1) every gen is needed and every zero
    counts 1, smooth or singular, so the scan evaluates the gens only,
    runs no rank test, decodes no row and reports all of the zeros as
    full rank under B = all gens.
    """
    r, nvars, p = len(gens), grid.k, grid.ring.q
    partials = [] if hi == 1 else [g.derivative(j) for g in gens for j in range(nvars)]
    scan = GridPolys(grid, gens + partials)
    inside = region.on(grid, p) if region is not None else lambda chunk: None
    smooth: dict[tuple[int, ...], int] = {}
    sing: dict[tuple[int, ...], list[np.ndarray]] = {}
    for chunk in grid.chunks():
        vals = scan.compact(chunk)
        ok = inside(chunk)
        ok = np.ones(1, dtype=bool) if ok is None else ok
        for j in need:
            ok = ok & (vals[j] == 0)
        shape = grid.shape(chunk)
        if hi == 1:
            # ok broadcasts against shape, each of its entries over
            # prod(shape) / ok.size rows
            zeros = int(np.count_nonzero(ok)) * math.prod(shape) // ok.size
            smooth[tuple(need)] = smooth.get(tuple(need), 0) + zeros
            continue
        where = np.flatnonzero(grid.flat(chunk, ok))
        if not len(where):
            continue
        at = np.unravel_index(where, shape)
        jac = np.empty((len(where), r * nvars), dtype=np.int64)
        for col, d in enumerate(vals[r:]):
            jac[:, col] = np.broadcast_to(d, shape)[at]
        jac = jac.reshape(len(where), r, nvars)
        groups = [(tuple(need), slice(None))]
        if len(need) < r:
            # bit j of a zero's pattern is set when gens[j] vanishes there
            pattern = np.zeros(len(where), dtype=np.int64)
            for j in range(r):
                zero = True if j in need else np.broadcast_to(vals[j] == 0, shape)[at]
                pattern |= np.where(zero, 1 << j, 0)
            groups = [
                (tuple(j for j in range(r) if bits >> j & 1), pattern == bits)
                for bits in np.flatnonzero(np.bincount(pattern)).tolist()
            ]
        for B, rows in groups:
            full = _full_rank(jac[rows][:, B], p)
            smooth[B] = smooth.get(B, 0) + int(full.sum())
            sing.setdefault(B, []).append(grid.rows(chunk, where[rows][~full]))
    return {
        B: (smooth[B], np.concatenate(sing[B], dtype=np.int32) if B in sing else ())
        for B in smooth
    }


def _split_zeros(
    halves: list[tuple[list[int], Grid, list[Poly]]],
    meter: Meter | None,
    hi: int,
    what: str = "residue-tree level",
) -> tuple[int, Sequence]:
    """The smooth zeros' count and the singular zeros of the gens
    g_j = g_jA(x_A) + g_jB(x_B), from one scan of each half grid.

    A zero is a pair of points of A and B whose value vectors cancel, so
    B's vectors are negated and equal codes are counted (_codes in radix q,
    Python ints past int64; one value is its own code).  The half of fewer
    points (A on a tie) is scanned first and tallied whole (value_tally);
    the other half is matched against that tally one chunk at a time
    (count_tally_pairs), so at most a chunk of its codes is held.  At order
    1 every zero counts 1.  Above it there is one generator f, whose code
    is its value, and the singular zeros are the pairs in C_A x C_B whose
    codes match, C_H being the points of half H where every d f / d x_j, j
    in H, vanishes (the gradient of f at (x_A, x_B) is the pair of the
    halves' gradients).  The meter is charged once, under `what`, the
    halves' points plus |C_A| |C_B|, after the scans; halves that alone
    exceed it are refused before they are scanned.  With no meter nothing
    is charged: the caller has charged the whole grid.
    """
    scanned = sum(math.prod(grid.sizes) for _, grid, _ in halves)
    if meter is not None and scanned > meter.left:
        charge(scanned, meter, what)
    r = len(halves[0][2])
    q = halves[0][1].ring.q if r > 1 else None
    zeros, tally, crit = 0, None, [None, None]
    for h in sorted((0, 1), key=lambda h: math.prod(halves[h][1].sizes)):
        axes, grid, parts = halves[h]
        partials = [] if hi == 1 else [parts[0].derivative(i) for i in range(len(axes))]
        scan = GridPolys(grid, parts + partials)
        codes, found = [], []
        for chunk in grid.chunks():
            vals = scan.compact(chunk)
            vecs = [grid.ring.neg(v) for v in vals[:r]] if h else vals[:r]
            code = grid.flat(chunk, _codes(vecs, q))
            if partials:
                flat = functools.reduce(operator.and_, [d == 0 for d in vals[r:]])
                where = np.flatnonzero(grid.flat(chunk, flat))
                found.append((grid.rows(chunk, where), code[where]))
            if tally is None:
                codes.append(code)
            else:
                zeros += count_tally_pairs(tally, code)
        if tally is None:
            tally = value_tally(np.concatenate(codes))
        # the points of C_H and their codes (nothing at order 1)
        crit[h] = [np.concatenate(c) for c in zip(*found)]
    if hi > 1:
        (pts_a, at_a), (pts_b, at_b) = crit
        scanned += len(pts_a) * len(pts_b)
    if meter is not None:
        charge(scanned, meter, what)
    if hi == 1:
        return zeros, ()
    ia, ib = _matching_pairs(at_a, at_b)
    sing = np.empty((len(ia), len(halves[0][0]) + len(halves[1][0])), dtype=np.int64)
    for (axes, _, _), pts in zip(halves, (pts_a[ia], pts_b[ib])):
        sing[:, axes] = pts
    return zeros - len(sing), sing


class _Lift:
    """One lift call: Denef's residue tree over (Z/p)^n, each node walked for
    every order at once.  It holds the meter it charges, its grid (Z/p)^n,
    built once, and four dicts that live for the call:

    - memo: a node's counts, keyed by (the frozenset of its (h_j, o_j)
      pairs, hi);
    - scans: _scan_zeros of a node, keyed by (each constraint's nonzero
      terms mod p in constraint order, need, hi == 1);
    - shapes: the shape of a Taylor table (_shift_table), keyed by (a
      constraint's exponents in order, the table's depth);
    - sums: the counts of a closed-form node, keyed by (a, o, hi).

    A node is its constraints (h_j, o_j), ord_p h_j >= k - o_j with
    0 <= o_j < hi, each h_j with a coefficient prime to p and reduced mod
    p^e for an e >= hi - o_j (_constraints), and its counts are [N(0),
    ..., N(hi)], N(k) = #{z in (Z/p^k)^n : ord_p h_j(z) >= k - o_j for
    all j}.  A count of one order m reads N(m) off the root's walk.

    count() is a node's step.  The orders k <= min o_j hold at every point,
    and from the next one up, bind = min o_j + 1, the constraints of that
    least offset bind (need).  Each child is reduced by _constraints, so equal
    subtrees have equal keys, and a memo hit costs no work and no budget.
    A node whose one constraint is a monomial times a unit, h = y^a (c + p
    w(y)) with c a unit mod p (_unit_monomial), scans no grid: ord_p h(y) =
    <a, v> for the valuations v_i of the y_i, so its counts are suffix sums
    of one finite sum over valuation vectors (_valuation_sum), the leaves
    at which Denef's recursion closes.  The sum depends on (a, o, hi) only,
    so sums runs it once per key, and every node is charged its n (hi+1)
    (hi-o+1) steps as a "closed-form node", a hit too.  Any other node
    finds the common zeros mod p of need, grouped by the set B of all
    constraints that vanish there (its disks):
    - when the constraints split into variable-disjoint blocks
      (split_halves, past its gate), at order 1 for any number of them and
      above it for one, from two half grids (_split_zeros), charged p^|A| +
      p^|B| + |C_A| |C_B| points;
    - otherwise from one scan of the grid (_scan_zeros), charged p^n
      points.  The zeros mod p, their sets B and the Jacobian ranks there
      depend only on the constraints mod p, in order, on need and on
      whether hi = 1, where no rank is tested, so scans holds one entry
      per such key; a hit shares the dict and its arrays, which callers
      only read, and is charged p^n points as a scan is.

    walk() adds up a node's disks at the orders bind..hi (1..hi at a root
    with a region).  A constraint outside B is a unit on z0's disk, so the
    disk counts only at the orders k <= top, the least of hi and those o_j.
    Where the Jacobian of B has full rank mod p, the disk adds p^((k-1) n -
    sum_{j in B} max(k - o_j - 1, 0)) at order k (Hensel).  A singular zero
    z0 is re-expanded as z0 + p y: the child has B's shifted constraints
    and the orders one lower, and its counts are the disk's.  The
    coefficient of y^b in h(z0 + p y) is p^|b| T_b(z0), T_b = d^b h / b!,
    and only |b| < hi - o_j matters; the tables of p^|b| T_b are built once
    per node, for the constraints a child keeps, on shapes shared by the
    call (_shift_table), and each zero takes one row of powers z0_i^e that
    every shift reads (_shift).  The child keeps the coefficients mod
    p^(top - o_j).  A node of order 1 (hi = 1, so every o_j = 0) counts
    each common zero mod p once, smooth or singular (a singular zero's
    child of order 0 counts 1), so it evaluates no partial derivative.

    Only the root may have a region (count_points_raw): its one scan is
    masked by it and walked, and every node below is region-free.
    """

    def __init__(self, meter: Meter, nvars: int, p: int):
        self.meter, self.n, self.p = meter, nvars, p
        self.grid = Grid(nvars, p)
        self.memo: dict[tuple, list[int]] = {}
        self.scans: dict[tuple, dict] = {}
        self.shapes: dict[tuple, list] = {}
        self.sums: dict[tuple, list[int]] = {}

    def count(self, active: list[tuple[Poly, int]], hi: int) -> list[int]:
        """[N(0), ..., N(hi)] of the node with the constraints active."""
        p, n = self.p, self.n
        if not active:
            return [p ** (k * n) for k in range(hi + 1)]
        bind = min(o for _, o in active) + 1
        every = [p ** (k * n) for k in range(bind)]
        key = (frozenset(active), hi)
        if key in self.memo:
            return every + self.memo[key]
        a = _unit_monomial(active, p)
        if a is not None:
            o = active[0][1]
            charge(n * (hi + 1) * (hi - o + 1), self.meter, "closed-form node")
            if (a, o, hi) not in self.sums:
                self.sums[a, o, hi] = _valuation_sum(a, o, p, hi)
            counts = self.sums[a, o, hi]
        else:
            gens = [g for g, _ in active]
            need = [j for j, (_, o) in enumerate(active) if o < bind]
            halves = split_halves(gens, self.grid) if hi == 1 or len(gens) == 1 else None
            if halves is not None:
                disks = {tuple(need): _split_zeros(halves, self.meter, hi)}
            else:
                charge(p ** n, self.meter, "residue-tree level")
                mod_p = (frozenset((b, c % p) for b, c in g.terms.items() if c % p) for g in gens)
                scan = (tuple(mod_p), tuple(need), hi == 1)
                if scan not in self.scans:
                    self.scans[scan] = _scan_zeros(gens, need, self.grid, None, hi)
                disks = self.scans[scan]
            counts = self.walk(active, bind, hi, disks)
        self.memo[key] = counts
        return every + counts

    def walk(
        self,
        active: list[tuple[Poly, int]],
        lo: int,
        hi: int,
        disks: dict[tuple[int, ...], tuple[int, Sequence]],
    ) -> list[int]:
        """[N(lo), ..., N(hi)] of the node with the constraints active, from
        its disks B -> (smooth zeros, singular zeros) (_scan_zeros)."""
        p, n = self.p, self.n
        counts = [0] * (hi - lo + 1)
        tables: dict[int, list] = {}
        for B, (smooth, sing) in disks.items():
            top = min([hi] + [o for j, (_, o) in enumerate(active) if j not in B])
            # full-rank points lift p^(n - |B|) ways per level; the exponent
            # is >= 0 whenever |B| <= n, the only case where they exist
            if smooth:
                for k in range(lo, top + 1):
                    cut = sum(max(k - active[j][1] - 1, 0) for j in B)
                    counts[k - lo] += smooth * p ** ((k - 1) * n - cut)
            if not len(sing):
                continue
            # a constraint with o_j >= top - 1 holds at every child, which
            # keeps the others mod p^(top - o_j): (table, that modulus, offset)
            shifted, degree = [], 0
            for j in B:
                g, o = active[j]
                if o < top - 1:
                    if j not in tables:
                        tables[j] = _shift_table(g, hi - o - 1, p, self.shapes)
                    shifted.append((tables[j], p ** (top - o), o - 1))
                    degree = max(degree, *map(max, g.terms))
            # equal children are walked once, in the order they first appear,
            # so the charges are those of walking each (a repeat is a memo hit)
            children: dict[tuple, list] = {}
            for z0 in sing.tolist():
                powers = [[z ** e for e in range(degree + 1)] for z in z0]
                child, child_top = _constraints(
                    [(_shift(t, powers, q), o) for t, q, o in shifted], top - 1, n, p
                )
                if child_top >= lo - 1:
                    children.setdefault((frozenset(child), child_top), [child, 0])[1] += 1
            for (_, child_top), (child, times) in children.items():
                for i, c in enumerate(self.count(child, child_top)[lo - 1 :]):
                    counts[i] += times * c
        return counts


def count_points_raw(
    gens: Sequence[Poly],
    nvars: int,
    p: int,
    m: int,
    region: Region | None = None,
    method: str = "lift",
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
    *,
    orders: bool = False,
) -> int | tuple[int, ...]:
    """Count common zeros mod p^m of a raw generator list inside a region.

    With orders=True the lift route returns (N(1), ..., N(m)), the counts
    mod p^k for k = 1..m, from one walk of the residue tree.
    """
    check_prime_power(p, m)
    if orders and method != "lift":
        raise ValueError(f"orders=True needs method 'lift', got {method!r}")
    budget = Meter.of(budget)  # "both" charges both routes to it
    if region is not None and region.is_full:
        region = None

    if method == "lift":
        q = p ** m
        active, top = _constraints(
            (({b: r for b, c in g.terms.items() if (r := c % q)}, 0) for g in gens), m, nvars, p
        )
        # no point meets a unit constraint above its offset
        if top < m and not orders:
            return 0
        counts = []
        if top:
            lift = _Lift(budget, nvars, p)
            if region is None:
                counts = lift.count(active, top)[1:]
            else:
                # the region masks the root's one scan, and no node below has one
                charge(p ** nvars, budget, "residue-tree level")
                need = [j for j, (_, o) in enumerate(active) if o < 1]
                disks = _scan_zeros([g for g, _ in active], need, lift.grid, region, top)
                counts = lift.walk(active, 1, top, disks)
        counts += [0] * (m - top)
        return tuple(counts) if orders else counts[-1]
    gens = _nonconstant(gens, p ** m)
    if gens is None:
        return 0
    if method == "naive":
        charge(p ** (m * nvars), budget, "naive count")
        grid = Grid(nvars, p ** m)
        return _count_naive(gens, grid, region and region.on(grid, p), threads)
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
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
    *,
    orders: bool = False,
) -> int | tuple[int, ...]:
    """Exact number of points of the ideal's zero set in (Z/p^m)^n ∩ region;
    with orders=True (lift only), the numbers mod p^k for every k = 1..m."""
    if region is not None and region.k != spec.nvars:
        raise ValueError("region size must match nvars")
    return count_points_raw(
        spec.generators, spec.nvars, p, m, region, method, budget, threads, orders=orders
    )


class LocalData:
    """The local counts of one ideal at one prime, from one walk each.

    N(m) = #{x in (Z/p^m)^n : reduction in Z, ord_I(x) >= m} for m >= 1,
    and N(0) = #Z(F_p).  Every local object of the paper is a function of
    these: the volumes V(m) = N(m) / p^(mn) (V(0) = N(0) / p^n) and the
    exponential sums E(r, m) = V(m) - p^(-r) V(m-1).  The lift route counts
    N(1..M) in one walk of the residue tree at the highest order M, so a
    caller reads its top order first (volumes(), or N(M) before the rest);
    the counts are kept in this object, and every walk draws down the one
    meter the object makes of its budget (or is given).  One object serves
    one public call or one CLI command, so no count outlives it.
    """

    def __init__(
        self,
        spec: IdealSpec,
        p: int,
        Z: Region | None = None,
        budget: int | Meter = DEFAULT_BUDGET,
        threads: int = 1,
    ):
        check_prime_power(p)
        if Z is not None and Z.k != spec.nvars:
            raise ValueError("region size must match nvars")
        self.spec, self.p, self.Z = spec, p, Z
        self.meter, self.threads = Meter.of(budget), threads
        self._counts: dict[int, int] = {}

    def N(self, m: int) -> int:
        """N(m); a count above every order held so far walks the residue
        tree once at order m and keeps N(1..m)."""
        if m not in self._counts:
            if m == 0 and self.Z is not None:
                self._counts[0] = self.Z.count_mod_p(self.p, self.meter, self.threads)
            elif m == 0:
                self._counts[0] = self.p ** self.spec.nvars
            else:
                counts = count_zpm(
                    self.spec, self.p, m, self.Z, "lift", self.meter, self.threads, orders=True
                )
                self._counts.update(enumerate(counts, 1))
        return self._counts[m]

    def V(self, m: int) -> Fraction:
        """vol{x : ord_I(x) >= m, reduction in Z}."""
        return Fraction(self.N(m), self.p ** (max(m, 1) * self.spec.nvars))

    def volumes(self, M: int) -> list[Fraction]:
        """[V(0), ..., V(M)], read top first so that one walk counts them."""
        self.N(M)
        return [self.V(m) for m in range(M + 1)]

    def E(self, r: int, m: int) -> Fraction:
        """The r-th exponential sum modulo p^m in counts form; V(m) is read
        first, so one walk counts both volumes."""
        check_int("r", r, 1)
        check_int("m", m, 1)
        return self.V(m) - self.V(m - 1) / self.p ** r


# -- counting over finite fields ---------------------------------------------


def shared_field(p: int, k: int, fields: dict[tuple[int, int], GFTable] | None) -> GFTable:
    """GFTable(p, k), kept in fields under (p, k) so that one call builds
    each field once; with no fields dict it is built afresh.  A q = 4096
    field holds one q x q int16 table, 32 MiB, so fields live for one
    call, never for the process."""
    if fields is None:
        return GFTable(p, k)
    if (p, k) not in fields:
        fields[p, k] = GFTable(p, k)
    return fields[p, k]


def count_ff_raw(
    gens: Sequence[Poly],
    nvars: int,
    p: int,
    k: int,
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
    fields: dict[tuple[int, int], GFTable] | None = None,
) -> int:
    """Common zeros of gens over F_{p^k} on the grid F_q^n, charged its
    q^n points.  Gens that split into variable-disjoint blocks past the
    split gate (split_halves) are counted from the two half grids as an
    order-1 lift node is (_split_zeros), which charges nothing more,
    unless a half has more than CHUNK points; other gens by one zero
    scan of the grid (_count_naive).  F_{p^k} for k >= 2 comes from
    fields (shared_field)."""
    check_prime_power(p, k, "k")
    q = p ** k
    charge(q ** nvars, budget, "finite-field count")
    # an integer constant lands in the prime field F_p
    gens = _nonconstant(gens, p)
    if gens is None:
        return 0
    # GFTable stops at q = 4096, and F_p is Z/p
    grid = Grid(nvars, ModQ(p) if k == 1 else shared_field(p, k, fields))
    halves = split_halves(gens, grid)
    # _split_zeros holds the smaller half's codes whole (the larger one
    # streams), so a half of more than CHUNK points is left to the scan,
    # which holds one chunk at a time
    if halves is not None and all(math.prod(h.sizes) <= CHUNK for _, h, _ in halves):
        return _split_zeros(halves, None, 1)[0]
    return _count_naive(gens, grid, None, threads)


def count_ff(
    spec: IdealSpec,
    p: int,
    k: int = 1,
    budget: int | Meter = DEFAULT_BUDGET,
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
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
    fields: dict[tuple[int, int], GFTable] | None = None,
) -> DimEstimate:
    """The dimension read off counts over F_q, q = p^k, in ascending q while
    the meter pays for them; the first count is always tried.  An
    extension field above GFTable's MAX_TABLE_Q elements is left off the
    ladder.  The extension fields are taken from and kept in fields
    (shared_field)."""
    check_int("maxk", maxk, 1)
    meter = Meter.of(budget)
    ladder = {
        p ** k: (p, k)
        for p in primes
        for k in range(1, maxk + 1)
        if k == 1 or p ** k <= MAX_TABLE_Q
    }
    if not ladder:
        raise ValueError("the ladder needs a prime")
    samples: list[tuple[int, int]] = []
    for q in sorted(ladder):
        if samples and q ** nvars > meter.left:
            break
        p, k = ladder[q]
        samples.append((q, count_ff_raw(gens, nvars, p, k, meter, threads, fields)))
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
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> DimEstimate:
    """Estimated dimension of the ideal's zero locus (Lang-Weil inversion)."""
    return dim_estimate_raw(spec.generators, spec.nvars, primes, maxk, budget, threads)


def bsing_dim(
    spec: IdealSpec,
    primes: Sequence[int] = (7, 11, 13),
    maxk: int = 1,
    budget: int | Meter = DEFAULT_BUDGET,
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
    meter = Meter.of(budget)
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
        out[degree] = dim_estimate_raw(nonzero, spec.nvars, primes, maxk, meter, threads)
    return out
