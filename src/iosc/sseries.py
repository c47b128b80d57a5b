"""Composite-modulus exponential sums, singular series, p-adic densities.

The exponential sum at a general modulus q is always assembled as the
product of its prime-power factors (exact rationals from the counting
form).  The direct sum over Z/q with the character exp(2 pi i / q)
exists solely as an independent oracle for the multiplicativity check:
expsum.direct_charsum, the same literal sum as E_charsum's direct route,
at the composite modulus q = q1 q2, compared exactly through reduction
modulo the q-th cyclotomic polynomial.

Verdict-producing probes (irreducibility, density stabilization) use the
explicit thresholds documented on each function; they are heuristics over
finitely many primes, never certificates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import DEFAULT_BUDGET, Meter, check_int
from .expsum import E_counts, direct_charsum, equals_rational
from .poly import IdealSpec
from .ringcount import LocalData, factorize


def E_composite(
    spec: IdealSpec,
    r: int,
    q: int,
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> Fraction:
    """E^(r) at a general modulus: the product over prime-power factors.

    E at the unit modulus is 1 by convention.
    """
    check_int("r", r, 1)
    check_int("q", q, 1)
    budget = Meter.of(budget)
    total = Fraction(1)
    for p, e in factorize(q):
        total *= E_counts(spec, r, p, e, budget=budget, threads=threads)
        if total == 0:
            break
    return total


def verify_multiplicativity(
    spec: IdealSpec,
    r: int,
    q1: int,
    q2: int,
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> bool:
    """Exact check of E(q1 q2) = E(q1) E(q2) for coprime moduli.

    The left side is an independent brute-force character sum over
    Z/(q1 q2) with the character exp(2 pi i / (q1 q2)): direct_charsum at
    the composite modulus N = q1 q2, the pairing polynomial sum y_i f_i(x)
    over (Z/N)^(r+n) with y primitive at every prime of N, reduced modulo
    the N-th cyclotomic polynomial.  It never reaches the counting form.
    The right side is the product of counting-form values.  The
    presentation must have exactly r generators.
    """
    check_int("q1", q1, 1)
    check_int("q2", q2, 1)
    if math.gcd(q1, q2) != 1:
        raise ValueError("moduli must be coprime")
    if spec.r != r:
        raise ValueError("direct sum needs exactly r generators")
    N = q1 * q2
    n = spec.nvars
    budget = Meter.of(budget)
    lhs = direct_charsum(spec, N, budget, threads)
    rhs = E_composite(spec, r, q1, budget, threads) * E_composite(spec, r, q2, budget, threads)
    return equals_rational(lhs, rhs * N ** (n + r))


@dataclass
class SeriesReport:
    """Partial singular series with per-term provenance."""

    r: int
    terms: list[tuple[int, Fraction, Fraction]]  # (q, E(q), q^r E(q))
    partial_sums: list[Fraction]
    tail_bound: float | None
    flags: list[str] = field(default_factory=list)

    @property
    def value(self) -> Fraction:
        return self.partial_sums[-1]


def singular_series_partial(
    spec: IdealSpec,
    r: int,
    Qmax: int,
    sigma: float | None = None,
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> SeriesReport:
    """sum_{q <= Qmax} q^r E(q), all terms exact.

    E is multiplicative, so E(q) is the product of a table of E over the
    prime powers <= Qmax.  The table is filled from one LocalData per
    prime, which counts every power of p at once, in one walk at the
    largest k with p^k <= Qmax.

    With a user-supplied decay exponent sigma > r + 1 a geometric tail
    bound is attached, fitted as c = max |E(q)| q^sigma over the computed
    terms; it inherits sigma's conjectural status.
    """
    check_int("r", r, 1)
    check_int("Qmax", Qmax, 1)
    if sigma is not None and not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    budget = Meter.of(budget)
    local: dict[int, LocalData] = {}
    E = {1: Fraction(1)}
    for q in range(2, Qmax + 1):
        (p, k), *rest = factorize(q)
        if rest:
            # both coprime factors are below q, so already in the table
            E[q] = E[p ** k] * E[q // p ** k]
        else:
            if p not in local:
                local[p] = LocalData(spec, p, None, budget, threads)
                top = k
                while p ** (top + 1) <= Qmax:
                    top += 1
                local[p].N(top)
            E[q] = local[p].E(r, k)
    terms = [(q, e, e * q ** r) for q, e in E.items()]
    sums = list(itertools.accumulate(term for _, _, term in terms))
    flags: list[str] = []
    tail = None
    if sigma is not None:
        if sigma <= r + 1:
            flags.append("tail-bound-unavailable: sigma <= r + 1")
        else:
            c = max(
                (abs(float(e)) * q ** sigma for q, e, _ in terms[1:]),
                default=0.0,
            )
            tail = c * Qmax ** (r - sigma + 1) / (sigma - r - 1)
            flags.append(f"tail-bound-fitted-c={c:.6g}")
    return SeriesReport(r, terms, sums, tail, flags)


@dataclass
class DensityReport:
    """The sequence p^{-m(n-r)} #X(Z/p^m) and its stabilization status."""

    p: int
    values: list[Fraction]  # m = 1..M
    deltas: list[Fraction]
    stabilized: bool


def p_adic_density(
    spec: IdealSpec,
    r: int,
    p: int,
    M: int,
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> DensityReport:
    """Truncated p-adic density sequence; stabilized when the last two agree."""
    check_int("r", r, 1)
    check_int("M", M, 1)
    vols = LocalData(spec, p, None, budget, threads).volumes(M)
    values = [vols[m] * p ** (m * r) for m in range(1, M + 1)]
    deltas = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    # stabilized means constant from the first repeat onward; a plateau
    # followed by further movement (e.g. 1, 3, 3, 9, 9 for a non-reduced
    # ideal) does not count
    stabilized = False
    for i, d in enumerate(deltas):
        if d == 0:
            stabilized = all(dd == 0 for dd in deltas[i:])
            break
    return DensityReport(p, values, deltas, stabilized)


@dataclass
class IrreducibilityReport:
    values: list[tuple[int, Fraction]]  # (p, |E(p,1)| * p^r)
    verdict: str


def irreducibility_probe(
    spec: IdealSpec,
    r: int,
    primes: Sequence[int],
    budget: int | Meter = DEFAULT_BUDGET,
    threads: int = 1,
) -> IrreducibilityReport:
    """Probe geometric irreducibility of the zero locus in dimension n - r.

    Computes |E(p,1)| p^r over the supplied primes.  Verdict thresholds:
    the sequence ending below 1/2 without growing reads
    "consistent-with-geometric-irreducibility"; ending at 1/2 or above
    with no decrease reads "reducible-or-wrong-dimension"; anything else
    is "inconclusive".
    """
    check_int("r", r, 1)
    if not primes:
        raise ValueError("need at least one prime")
    budget = Meter.of(budget)
    vals = []
    for p in sorted(primes):
        e = E_counts(spec, r, p, 1, budget=budget, threads=threads)
        vals.append((p, abs(e) * p ** r))
    seq = [v for _, v in vals]
    half = Fraction(1, 2)
    if seq[-1] < half and all(b <= a for a, b in zip(seq, seq[1:])):
        verdict = "consistent-with-geometric-irreducibility"
    elif min(seq) >= half:
        verdict = "reducible-or-wrong-dimension"
    else:
        verdict = "inconclusive"
    return IrreducibilityReport(vals, verdict)
