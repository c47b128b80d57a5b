"""Exact sparse multivariate polynomials over the integers.

A polynomial in n variables is a map from exponent tuples (length n,
nonnegative ints) to nonzero integer coefficients.  Coefficients are
plain Python ints, so all arithmetic is arbitrary precision and exact;
nothing in this module ever reduces modulo anything.

  x1^2 - 3*x2   (n=2)   ->   {(2, 0): 1, (0, 1): -3}

The zero polynomial has an empty term map.  Terms are kept canonical
(no zero coefficients) and iterate in lexicographic exponent order, so
two equal polynomials serialize identically.

On top of the ring arithmetic this module provides the structural
transforms used throughout the package: weighted homogeneous parts,
Jacobian minors, the multiplicative torus substitution
x_i -> x_{i1}...x_{i w_i}, truncated jet expansion of f(x(t)), and the
auxiliary pairing polynomial g(a, x) = sum a_ij f_ij(x) of an ideal
presentation.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DEFAULT_BUDGET, Meter, charge, check_int


class PolyParseError(ValueError):
    """Syntax error in a polynomial string; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Poly:
    """Sparse polynomial with exact integer coefficients."""

    # _hash is filled by the first __hash__: nothing changes terms after
    # construction (see _of), and the lift hashes each child more than once
    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff == 0:
                    continue
                expo = tuple(expo)
                if len(expo) != nvars or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent vector {expo} for nvars={nvars}")
                clean[expo] = int(coeff)
        self.terms = clean
        self._hash = None

    @classmethod
    def _of(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "Poly":
        """The polynomial with this term dict, unchecked and uncopied.

        The caller guarantees what __init__ would enforce: nvars >= 0, each
        key a tuple of nvars nonnegative ints, each value a nonzero int;
        and it hands the dict over, never changing it afterwards.
        """
        f = object.__new__(cls)
        f.nvars, f.terms, f._hash = nvars, terms, None
        return f

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(c: int, nvars: int) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(i: int, nvars: int) -> "Poly":
        """The variable x_{i+1} (0-based index i)."""
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): 1})

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Poly | int") -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            c = out.get(expo, 0) + coeff
            if c:
                out[expo] = c
            else:
                out.pop(expo, None)
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly | int") -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            if other == 0:
                return Poly.zero(self.nvars)
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return power(operator.mul, self, k, Poly.const(1, self.nvars))

    def _coerce(self, other: "Poly | int") -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("mixing polynomials with different nvars")
            return other
        return Poly.const(int(other), self.nvars)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly.const(other, self.nvars)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> int:
        """Value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in lexicographic exponent order (canonical form)."""
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{i+1}" if e == 1 else f"x{i+1}^{e}"
                for i, e in enumerate(expo)
                if e
            )
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # -- calculus and evaluation ----------------------------------------

    def derivative(self, i: int) -> "Poly":
        """Partial derivative with respect to x_{i+1}."""
        out: dict[tuple[int, ...], int] = {}
        for expo, coeff in self.terms.items():
            if expo[i] == 0:
                continue
            e = list(expo)
            c = coeff * e[i]
            e[i] -= 1
            out[tuple(e)] = c
        return Poly(self.nvars, out)

    def eval_int(self, point: Sequence[int]) -> int:
        """Exact evaluation at an integer point."""
        if len(point) != self.nvars:
            raise ValueError("point length does not match nvars")
        total = 0
        for expo, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, expo):
                if e:
                    v *= x ** e
            total += v
        return total

    def eval_poly(self, args: Sequence["Poly"]) -> "Poly":
        """Substitute a polynomial for every variable (general composition)."""
        if len(args) != self.nvars:
            raise ValueError("need one substitution per variable")
        if not args:
            return Poly(0, {(): self.terms.get((), 0)} if self.terms else None)
        nv = args[0].nvars
        result = Poly.zero(nv)
        powers: list[dict[int, Poly]] = [dict() for _ in range(self.nvars)]

        def pw(i: int, e: int) -> Poly:
            if e == 0:
                return Poly.const(1, nv)
            cached = powers[i].get(e)
            if cached is None:
                cached = args[i] ** e
                powers[i][e] = cached
            return cached

        for expo, coeff in self.terms.items():
            term = Poly.const(coeff, nv)
            for i, e in enumerate(expo):
                if e:
                    term = term * pw(i, e)
            result = result + term
        return result

    def map_vars(self, mapping: Sequence[int], new_nvars: int) -> "Poly":
        """Relabel variable i to mapping[i] inside a space of new_nvars variables."""
        out: dict[tuple[int, ...], int] = {}
        for expo, coeff in self.terms.items():
            e = [0] * new_nvars
            for i, deg in enumerate(expo):
                if deg:
                    e[mapping[i]] += deg
            key = tuple(e)
            out[key] = out.get(key, 0) + coeff
        return Poly(new_nvars, out)


def power(mul: Callable, a, e: int, one):
    """a^e under the product mul, by squaring, for e >= 0; the one square-
    and-multiply loop of the package.  The result starts as the base at the
    lowest set bit, so one is returned only for e = 0 and never multiplied
    in, and the base is squared only up to the top bit."""
    result = None
    while e:
        if e & 1:
            result = a if result is None else mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return one if result is None else result


def eval_mod(f: Poly, point: Sequence[int], p: int, m: int = 1) -> int:
    """f(point) mod p^m, exact."""
    check_int("m", m, 1)
    return f.eval_int(point) % p ** m


# -- weights and weighted parts -----------------------------------------


@dataclass(frozen=True)
class Weight:
    """A vector of positive integer variable weights."""

    w: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(x, int) and x >= 1 for x in self.w):
            raise ValueError("weights must be integers >= 1")

    @staticmethod
    def ones(n: int) -> "Weight":
        return Weight((1,) * n)

    @property
    def total(self) -> int:
        """|w| = sum of the entries."""
        return sum(self.w)

    def __len__(self) -> int:
        return len(self.w)


def wdeg(f: Poly, w: Weight) -> int:
    """w-degree of f; -1 for the zero polynomial."""
    if len(w) != f.nvars:
        raise ValueError("weight length does not match nvars")
    if not f.terms:
        return -1
    return max(sum(wi * ei for wi, ei in zip(w.w, e)) for e in f.terms)


def weighted_parts(f: Poly, w: Weight) -> dict[int, Poly]:
    """Split f into its w-homogeneous parts, keyed by w-degree."""
    if len(w) != f.nvars:
        raise ValueError("weight length does not match nvars")
    buckets: dict[int, dict[tuple[int, ...], int]] = {}
    for expo, coeff in f.terms.items():
        d = sum(wi * ei for wi, ei in zip(w.w, expo))
        buckets.setdefault(d, {})[expo] = coeff
    return {d: Poly(f.nvars, t) for d, t in sorted(buckets.items())}


def top_part(f: Poly, w: Weight) -> Poly:
    """The w-homogeneous part of highest w-degree (zero poly for f = 0)."""
    if len(w) != f.nvars:
        raise ValueError("weight length does not match nvars")
    return _top(f, w.w)


def _top(f: Poly, weights: Sequence[int]) -> Poly:
    """The terms of f of highest weighted degree, for weights >= 0 (a
    weight 0 makes a variable weightless); the zero poly for f = 0."""
    degree = {e: sum(map(operator.mul, weights, e)) for e in f.terms}
    best = max(degree.values(), default=0)
    return Poly(f.nvars, {e: c for e, c in f.terms.items() if degree[e] == best})


# -- ideal presentations -------------------------------------------------


@dataclass
class IdealSpec:
    """A graded presentation of an ideal: groups of generators by (w-)degree.

    groups maps are kept as a list of (degree, [Poly, ...]) with strictly
    increasing distinct degrees.  When no weight is given all-ones is used.
    Every generator must be non-constant and, with the effective weight,
    of w-degree exactly its group degree.
    """

    nvars: int
    groups: list[tuple[int, list[Poly]]]
    weight: Weight | None = None

    def __post_init__(self):
        if not self.groups or not any(g for _, g in self.groups):
            raise ValueError("ideal presentation needs at least one generator")
        w = self.effective_weight
        seen: set[int] = set()
        norm: list[tuple[int, list[Poly]]] = []
        for degree, gens in sorted(self.groups, key=lambda g: g[0]):
            gens = list(gens)
            # a constant has degree 0, so it is named before the degree check
            for g in gens:
                if g.is_constant():
                    raise ValueError(f"generators must be non-constant, got {g!r}")
            check_int("group degree", degree, 1)
            if degree in seen:
                raise ValueError(f"duplicate group degree {degree}")
            seen.add(degree)
            for g in gens:
                if g.nvars != self.nvars:
                    raise ValueError("generator nvars mismatch")
                if wdeg(g, w) != degree:
                    raise ValueError(
                        f"generator {g!r} has w-degree {wdeg(g, w)}, expected {degree}"
                    )
            norm.append((degree, gens))
        self.groups = norm

    @staticmethod
    def from_gens(
        gens: Iterable[Poly], weight: Weight | None = None
    ) -> "IdealSpec":
        """Group a flat generator list by computed w-degree.

        Zero polynomials are dropped (they generate nothing); a list with
        no nonzero generator is rejected as the zero ideal.
        """
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            from .errors import ZeroIdealError

            raise ZeroIdealError("ideal is zero")
        nvars = gens[0].nvars
        w = weight if weight is not None else Weight.ones(nvars)
        buckets: dict[int, list[Poly]] = {}
        for g in gens:
            buckets.setdefault(wdeg(g, w), []).append(g)
        return IdealSpec(nvars, [(d, buckets[d]) for d in sorted(buckets)], weight)

    @property
    def effective_weight(self) -> Weight:
        return self.weight if self.weight is not None else Weight.ones(self.nvars)

    @property
    def generators(self) -> list[Poly]:
        """All generators, group-major."""
        return [g for _, gens in self.groups for g in gens]

    @property
    def r(self) -> int:
        """Total number of generators."""
        return sum(len(gens) for _, gens in self.groups)

    @property
    def degrees(self) -> list[int]:
        return [d for d, _ in self.groups]

    @property
    def weighted_degree_sum(self) -> int:
        """Sum of degree * group size over all groups."""
        return sum(d * len(gens) for d, gens in self.groups)


# -- parsing --------------------------------------------------------------


def parse_poly(text: str, nvars: int, names: Sequence[str] | None = None) -> Poly:
    """Parse `+ - * ^`-expressions in variables x1..xN (or the given names).

    Multiplication must be explicit, exponents are nonnegative integer
    literals, whitespace is insignificant.  Raises PolyParseError with the
    offending position.
    """
    if names is not None and len(names) != nvars:
        raise ValueError("names length must equal nvars")
    var_of = {f"x{i+1}": i for i in range(nvars)}
    if names is not None:
        var_of = {name: i for i, name in enumerate(names)}

    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def peek() -> str:
        skip_ws()
        return text[pos] if pos < len(text) else ""

    def parse_expr() -> Poly:
        nonlocal pos
        sign = 1
        while peek() in ("+", "-"):
            if text[pos] == "-":
                sign = -sign
            pos += 1
        result = parse_term() * sign
        while peek() in ("+", "-"):
            sign = 1 if text[pos] == "+" else -1
            pos += 1
            result = result + parse_term() * sign
        return result

    def parse_term() -> Poly:
        nonlocal pos
        result = parse_factor()
        while peek() == "*":
            pos += 1
            result = result * parse_factor()
        return result

    def parse_factor() -> Poly:
        # a unary minus binds looser than ^, as in Python: -x^2 = -(x^2)
        nonlocal pos
        if peek() == "-":
            pos += 1
            return -parse_factor()
        base = parse_atom()
        if peek() == "^":
            pos += 1
            skip_ws()
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if pos == start:
                raise PolyParseError("expected integer exponent after '^'", start)
            return base ** int(text[start:pos])
        return base

    def parse_atom() -> Poly:
        nonlocal pos
        c = peek()
        start = pos
        if c == "(":
            pos += 1
            inner = parse_expr()
            if peek() != ")":
                raise PolyParseError("expected ')'", pos)
            pos += 1
            return inner
        if c.isdigit():
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            return Poly.const(int(text[start:pos]), nvars)
        if c.isalpha() or c == "_":
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            name = text[start:pos]
            if name not in var_of:
                raise PolyParseError(f"unknown variable '{name}'", start)
            return Poly.var(var_of[name], nvars)
        raise PolyParseError("expected a number, variable or '('", pos)

    result = parse_expr()
    skip_ws()
    if pos != len(text):
        raise PolyParseError("trailing input", pos)
    return result


# -- structural transforms -------------------------------------------------


def jacobian_matrix(gens: Sequence[Poly]) -> list[list[Poly]]:
    """Rows = generators, columns = variables."""
    return [[g.derivative(j) for j in range(g.nvars)] for g in gens]


def _det(mat: list[list[Poly]]) -> Poly:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    nv = mat[0][0].nvars
    total = Poly.zero(nv)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        cofactor = mat[0][j] * _det(minor)
        total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total


def jacobian_minors(gens: Sequence[Poly], r: int) -> list[Poly]:
    """All r x r minors of the Jacobian of gens, column sets in lex order."""
    gens = list(gens)
    if len(gens) != r:
        raise ValueError("r must equal the number of generators")
    if not gens:
        raise ValueError("the generator list is empty")
    nvars = gens[0].nvars
    if r > nvars:
        raise ValueError("more generators than variables: rank condition vacuous")
    jac = jacobian_matrix(gens)
    minors = []
    for cols in itertools.combinations(range(nvars), r):
        minors.append(_det([[row[c] for c in cols] for row in jac]))
    return minors


def torus_transform(f: Poly, w: Weight) -> Poly:
    """Substitute x_i -> x_{i1}*...*x_{i w_i}; result lives in |w| variables.

    New variables are ordered group-major: x_11..x_1w1, x_21..x_2w2, ...
    A w-homogeneous f of w-degree d becomes homogeneous of total degree d.
    """
    if len(w) != f.nvars:
        raise ValueError("weight length does not match nvars")
    offsets = [0] * f.nvars
    acc = 0
    for i, wi in enumerate(w.w):
        offsets[i] = acc
        acc += wi
    total = acc
    out: dict[tuple[int, ...], int] = {}
    for expo, coeff in f.terms.items():
        e = [0] * total
        for i, deg in enumerate(expo):
            for k in range(w.w[i]):
                e[offsets[i] + k] = deg
        out[tuple(e)] = coeff
    return Poly(total, out)


def jet_variable_index(i: int, level: int, m: int, start: int) -> int:
    """Index of the level-`level` jet variable of original variable i.

    Jet variables are ordered variable-major: all levels of x_1, then of
    x_2, and so on.  Levels run start..m.
    """
    per = m + 1 - start
    return i * per + (level - start)


def jet_expand(
    f: Poly, m: int, start: int = 0, budget: int | Meter = DEFAULT_BUDGET
) -> list[Poly]:
    """Coefficients [F_0..F_m] of f(x(t)) with x_i(t) = sum_{j>=start} x_ij t^j.

    Truncated at t^m; each F_k lives in n*(m+1-start) variables indexed by
    jet_variable_index.  start=0 keeps the constant term of the series,
    start=1 expands around the origin.  A series is one term dict per
    power of t; one meter is charged the jet variables' exponent tuples
    first, then each series product's term pairs before it is formed.
    """
    check_int("m", m, 0)
    if start not in (0, 1):
        raise ValueError("start must be 0 or 1")
    meter = Meter.of(budget)
    n = f.nvars
    nv = n * (m + 1 - start)
    charge(nv * nv, meter, "jet variables")

    def series_mul(a: list[dict], b: list[dict]) -> list[dict]:
        pairs = [(i, j) for i in range(m + 1) for j in range(m + 1 - i) if a[i] and b[j]]
        charge(sum(len(a[i]) * len(b[j]) for i, j in pairs), meter, "jet term products")
        out: list[dict] = [{} for _ in range(m + 1)]
        for i, j in pairs:
            acc = out[i + j]
            for e1, c1 in a[i].items():
                for e2, c2 in b[j].items():
                    e = tuple(map(operator.add, e1, e2))
                    acc[e] = acc.get(e, 0) + c1 * c2
        return [{e: c for e, c in d.items() if c} for d in out]

    def constant(c: int) -> list[dict]:
        return [{(0,) * nv: c}] + [{} for _ in range(m)]

    var_series = []
    for i in range(n):
        s: list[dict] = [{} for _ in range(m + 1)]
        for level in range(start, m + 1):
            s[level] = Poly.var(jet_variable_index(i, level, m, start), nv).terms
        var_series.append(s)
    total: list[dict] = [{} for _ in range(m + 1)]
    for expo, coeff in f.terms.items():
        term = constant(coeff)
        for i, e in enumerate(expo):
            if e:
                term = series_mul(term, power(series_mul, var_series[i], e, constant(1)))
        for acc, part in zip(total, term):
            for e, c in part.items():
                acc[e] = acc.get(e, 0) + c
    return [Poly(nv, d) for d in total]


def build_pairing(spec: IdealSpec) -> Poly:
    """g(a, x) = sum over groups of a_ij * f_ij(x), in r + n variables.

    Auxiliary a-variables come first (group-major, then j), the original
    x-variables follow, shifted by r.
    """
    r, nv = spec.r, spec.r + spec.nvars
    g = Poly.zero(nv)
    for a, f in enumerate(spec.generators):
        g = g + Poly.var(a, nv) * f.map_vars(range(r, nv), nv)
    return g


def highpart_check(spec: IdealSpec, m: int, budget: int | Meter = DEFAULT_BUDGET) -> bool:
    """Exact identity between the top weighted part of the m-th jet of the
    pairing polynomial and the m-th jet of its top weighted part.

    Jet level ell of x_i carries weight w_i + D*ell (D = largest group
    degree); a-variables and their jets carry weight 0.  Both sides are
    polynomials in the same jet-variable space; the comparison is exact.
    """
    budget = Meter.of(budget)
    w = spec.effective_weight
    r, n = spec.r, spec.nvars
    D = max(spec.degrees)
    g = build_pairing(spec)
    jets = jet_expand(g, m, 0, budget)

    weights = [0] * ((r + n) * (m + 1))
    for i in range(n):
        for level in range(m + 1):
            weights[jet_variable_index(r + i, level, m, 0)] = w.w[i] + D * level
    lhs = _top(jets[m], weights)

    # Top w-part of g with a-variables weightless: only the top-degree
    # group survives, paired with its (still symbolic) a-variables.
    g_top = _top(g, [0] * r + list(w.w))
    rhs = jet_expand(g_top, m, 0, budget)[m]
    # Freeze the a-series at their constant terms: jets of level >= 1 of
    # every a-variable are set to 0.
    frozen = [jet_variable_index(a, level, m, 0) for a in range(r) for level in range(1, m + 1)]
    return lhs.terms == {e: c for e, c in rhs.terms.items() if not any(e[j] for j in frozen)}
