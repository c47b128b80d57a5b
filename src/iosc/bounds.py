"""Closed-form exponent bounds, threshold formulas, and decay-rate fits.

All formula evaluation is exact rational arithmetic with the extended
conventions positive/0 = +oo and 0/0 = 0.  Singular-locus dimensions s
can be injected (when known) or estimated through the rank-drop locus
machinery; every bound result records which one happened, since an
estimated s inherits the confidence caveats of finite-field sampling.

The decay-rate fit recovers the exponent sigma in |E(p, m)| ~ c p^(-m
sigma) by least squares on -log_p |E| against m, per prime with a pooled
slope, using m >= 2 only (the m = 1 value obeys a different bound and is
reported separately by its consumers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import DEFAULT_BUDGET, Meter, check_int
from .poly import IdealSpec, Weight
from .ringcount import bsing_dim


@dataclass(frozen=True)
class ExtRational:
    """A rational number or +infinity, totally ordered."""

    value: Fraction | None  # None encodes +infinity

    @staticmethod
    def of(v: int | Fraction) -> "ExtRational":
        return ExtRational(Fraction(v))

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __lt__(self, other: "ExtRational") -> bool:
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self.value < other.value

    def __le__(self, other: "ExtRational") -> bool:
        return self == other or self < other

    def __add__(self, other: "ExtRational | int | Fraction") -> "ExtRational":
        if not isinstance(other, ExtRational):
            other = ExtRational.of(other)
        if self.is_infinite or other.is_infinite:
            return INFINITY
        return ExtRational(self.value + other.value)

    def __repr__(self) -> str:
        return "oo" if self.is_infinite else str(self.value)


INFINITY = ExtRational(None)


def ext_div(num: int | Fraction, den: int | Fraction) -> ExtRational:
    """num/den with the conventions positive/0 = +oo and 0/0 = 0."""
    num, den = Fraction(num), Fraction(den)
    if den == 0:
        if num == 0:
            return ExtRational.of(0)
        if num > 0:
            return INFINITY
        raise ValueError("negative/0 has no convention here")
    return ExtRational(num / den)


@dataclass
class BoundResult:
    """A bound value together with the provenance of its s inputs."""

    value: ExtRational
    s_values: dict[int, int]
    s_source: str  # "given" or "estimated"
    confident: bool


def _group_min(
    spec: IdealSpec,
    s: Mapping[int, int] | None,
    weight: Weight | None,
    den: Callable[[int], int],
    primes: Sequence[int],
    maxk: int,
    budget: int | Meter,
) -> BoundResult:
    """min over group degrees d of (n - s_d) / den(d), +oo for no group,
    with s_d the dimension of the rank-drop locus of the group's top parts
    under the weight (bsing_dim), supplied or estimated."""
    if s is not None:
        missing = [d for d, _ in spec.groups if d not in s]
        if missing:
            raise ValueError(f"s is not given for group degree {missing[0]}")
        sv, source, conf = {d: s[d] for d, _ in spec.groups}, "given", True
    else:
        est = bsing_dim(spec, primes=primes, maxk=maxk, budget=budget, weight=weight)
        sv, source = {d: e.dim for d, e in est.items()}, "estimated"
        conf = all(e.confident for e in est.values())
    best = min((ext_div(spec.nvars - sv[d], den(d)) for d, _ in spec.groups), default=INFINITY)
    return BoundResult(best, sv, source, conf)


def sigma0(
    spec: IdealSpec,
    s: Mapping[int, int] | None = None,
    primes: Sequence[int] = (7, 11, 13),
    maxk: int = 1,
    budget: int | Meter = DEFAULT_BUDGET,
) -> BoundResult:
    """min over group degrees l of (n - s_l) / l.

    s_l is the dimension of the rank-drop locus of the group's top parts
    by total degree (all-ones weight), supplied or estimated.
    """
    ones = Weight.ones(spec.nvars)
    return _group_min(spec, s, ones, lambda l: l, primes, maxk, budget)


def sigma_tilde0w(
    spec: IdealSpec,
    s: Mapping[int, int] | None = None,
    primes: Sequence[int] = (7, 11, 13),
    maxk: int = 1,
    budget: int | Meter = DEFAULT_BUDGET,
) -> BoundResult:
    """min over group degrees i of (n - s_wi) / (2(i - 1)).

    Uses the presentation's own weight for the top parts.  Degree-1
    groups with nonempty drop locus strictly smaller than the whole space
    contribute +oo by the positive/0 convention.
    """
    return _group_min(spec, s, None, lambda i: 2 * (i - 1), primes, maxk, budget)


def birch_bound(n: int, s: int, r: int, d: int) -> Fraction:
    """(n - s) / (r (d - 1) 2^(d-1)) for a degree-d system of r forms."""
    check_int("n", n, 1)
    check_int("s", s, -1, n)
    check_int("r", r, 1)
    check_int("d", d, 2)
    return Fraction(n - s, r * (d - 1) * 2 ** (d - 1))


def bhb_tau0(groups: Sequence[tuple[int, int, int]], n: int) -> ExtRational:
    """tau_0 = (1 - sum_i t_i r_i) / t_{i0} + sum_i r_i over the groups.

    groups lists (degree i, count r_i, singular dimension s_i); t_i sums
    2^(l-1) (l-1) r_l / (n - s_l) over degrees l >= i.  Requires n > s_l.
    """
    if not groups:
        raise ValueError("need at least one group")
    degs = [i for i, _, _ in groups]
    if len(set(degs)) != len(degs):
        raise ValueError("duplicate group degrees")
    for i, ri, si in groups:
        check_int("r_i", ri, 1)
        if si >= n:
            raise ValueError("tau_0 needs n > s_l for every group")

    def t(i: int) -> Fraction:
        return sum(
            (
                Fraction(2 ** (ell - 1) * (ell - 1) * rl, n - sl)
                for ell, rl, sl in groups
                if ell >= i
            ),
            Fraction(0),
        )

    i0 = min(degs)
    total_tr = sum((t(i) * ri for i, ri, _ in groups), Fraction(0))
    rsum = sum(ri for _, ri, _ in groups)
    return ext_div(1 - total_tr, t(i0)) + rsum


@dataclass(frozen=True)
class Thresholds:
    """Convolution-length thresholds, general and affine-space case.

    chain_example_threshold is the exact iff-bound r D^(R+1) realized by
    the chain-variety example; dominant_term is the leading term
    2 r D^(R+1) of the general bound N, which the example shows cannot be
    improved below the chain threshold.
    """

    general: tuple[int, int]  # (N, N')
    affine: tuple[Fraction, Fraction]
    chain_example_threshold: int  # r D^(R+1)
    dominant_term: int  # 2 r D^(R+1)


def convolution_thresholds(r: int, R: int, D: int) -> Thresholds:
    """N(r,R,D) = 2r(D^(R+1) - 1) and N'(r,R,D) = 2(r + 1/2)(D^(R+1) - 1),
    with the affine-space case rD and (r + 1/2)D, plus the chain-variety
    thresholds."""
    check_int("r", r, 1)
    check_int("R", R, 1)
    check_int("D", D, 1)
    big = D ** (R + 1) - 1
    general = (2 * r * big, (2 * r + 1) * big)
    affine = (Fraction(r * D), Fraction(2 * r + 1, 2) * D)
    return Thresholds(
        general, affine, r * D ** (R + 1), 2 * r * D ** (R + 1)
    )


@dataclass
class MoiFit:
    """Per-prime and pooled decay exponents fitted from |E(p, m)| data."""

    sigma_hat: float
    per_prime: dict[int, float]
    residuals: list[tuple[int, int, float]]
    excluded_zero: list[tuple[int, int]]
    dropped_primes: list[int]


def moi_fit(
    data: Sequence[tuple[int, int, float]], m_min: int = 2
) -> MoiFit:
    """Least-squares slope of -log_p |E| against m, per prime and pooled.

    Only m >= m_min enters; zero values are excluded and reported.  Primes
    with fewer than 3 usable points, or with one m only, are dropped; with
    none left the fit is an error.  The pooled slope shares one slope
    across primes with per-prime intercepts.  Every p >= 2, m >= 1 and
    m_min >= 1 is an int (check_int) and every |E| finite and >= 0.
    """
    check_int("m_min", m_min, 1)
    by_prime: dict[int, list[tuple[int, float]]] = {}
    excluded: list[tuple[int, int]] = []
    for p, m, absE in data:
        check_int("p", p, 2)
        check_int("m", m, 1)
        if not 0 <= absE < math.inf:
            raise ValueError(f"need 0 <= |E| < oo, got p={p}, |E|={absE}")
        if m < m_min:
            continue
        if absE == 0:
            excluded.append((p, m))
            continue
        by_prime.setdefault(p, []).append((m, -math.log(absE) / math.log(p)))
    usable = {p: pts for p, pts in by_prime.items() if len(pts) >= 3 and len({m for m, _ in pts}) >= 2}
    dropped = [p for p in by_prime if p not in usable]
    if not usable:
        raise ValueError("insufficient data: need >= 3 nonzero points at two m for a prime")

    per_prime: dict[int, float] = {}
    sxx_total = 0.0
    sxy_total = 0.0
    intercepts: dict[int, tuple[float, float]] = {}
    for p, pts in usable.items():
        ms = [m for m, _ in pts]
        ys = [y for _, y in pts]
        mbar = sum(ms) / len(ms)
        ybar = sum(ys) / len(ys)
        sxx = sum((m - mbar) ** 2 for m in ms)
        sxy = sum((m - mbar) * (y - ybar) for m, y in pts)
        per_prime[p] = sxy / sxx
        sxx_total += sxx
        sxy_total += sxy
        intercepts[p] = (mbar, ybar)
    sigma_hat = sxy_total / sxx_total
    residuals = []
    for p, pts in usable.items():
        mbar, ybar = intercepts[p]
        for m, y in pts:
            residuals.append((p, m, y - (ybar + sigma_hat * (m - mbar))))
    return MoiFit(sigma_hat, per_prime, residuals, excluded, dropped)
