"""Composite-modulus exponential sums, singular series, p-adic densities.

The exponential sum at a general modulus q is always assembled as the
product of its prime-power factors (exact rationals from the counting
form); the direct sum over Z/q with the character exp(2 pi i / q) exists
solely as an independent oracle for the multiplicativity check, compared
exactly through reduction modulo the q-th cyclotomic polynomial.

Verdict-producing probes (irreducibility, density stabilization) use the
explicit thresholds documented on each function; they are heuristics over
finitely many primes, never certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, charge
from .expsum import CycloValue, E_counts, reduce_mod_cyclotomic
from .poly import IdealSpec
from .ringcount import LocalData, eval_poly_mod, iter_grid, map_sum


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


def E_composite(
    spec: IdealSpec,
    r: int,
    q: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> Fraction:
    """E^(r) at a general modulus: the product over prime-power factors.

    E at the unit modulus is 1 by convention.
    """
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
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> bool:
    """Exact check of E(q1 q2) = E(q1) E(q2) for coprime moduli.

    The left side is an independent brute-force character sum over
    Z/(q1 q2) with the character exp(2 pi i / (q1 q2)), reduced modulo the
    cyclotomic polynomial; the right side is the product of counting-form
    values.  The presentation must have exactly r generators.
    """
    import math

    if math.gcd(q1, q2) != 1:
        raise ValueError("moduli must be coprime")
    if spec.r != r:
        raise ValueError("direct sum needs exactly r generators")
    N = q1 * q2
    n = spec.nvars
    charge(N ** (n + r), budget, "direct composite character sum")
    gens = spec.generators
    primes = [p for p, _ in factorize(N)]

    def worker(pts: np.ndarray) -> np.ndarray:
        ys = pts[:, :r]
        xs = pts[:, r:]
        ok = np.ones(len(pts), dtype=bool)
        for p in primes:
            ok &= (ys % p != 0).any(axis=1)
        phase = np.zeros(len(pts), dtype=np.int64)
        for i, g in enumerate(gens):
            phase = (phase + ys[:, i] * eval_poly_mod(g, xs, N)) % N
        return np.bincount(phase[ok], minlength=N)

    hist = map_sum(worker, iter_grid(n + r, N), threads)
    lhs = CycloValue(N, reduce_mod_cyclotomic([int(c) for c in hist], N))
    target = (
        E_composite(spec, r, q1, budget, threads)
        * E_composite(spec, r, q2, budget, threads)
        * N ** (n + r)
    )
    return lhs.vec[0] == target and lhs.is_rational()


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
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> SeriesReport:
    """sum_{q <= Qmax} q^r E(q), all terms exact.

    E is multiplicative, so E(q) is the product of a table of E over the
    prime powers <= Qmax.  The table is filled from one LocalData per
    prime, so each count is computed once per call.

    With a user-supplied decay exponent sigma > r + 1 a geometric tail
    bound is attached, fitted as c = max |E(q)| q^sigma over the computed
    terms; it inherits sigma's conjectural status.
    """
    if Qmax < 1:
        raise ValueError(f"Qmax must be >= 1, got {Qmax}")
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
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> DensityReport:
    """Truncated p-adic density sequence; stabilized when the last two agree."""
    data = LocalData(spec, p, None, budget, threads)
    values = [data.V(m) * p ** (m * r) for m in range(1, M + 1)]
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
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> IrreducibilityReport:
    """Probe geometric irreducibility of the zero locus in dimension n - r.

    Computes |E(p,1)| p^r over the supplied primes.  Verdict thresholds:
    the sequence ending below 1/2 without growing reads
    "consistent-with-geometric-irreducibility"; ending at 1/2 or above
    with no decrease reads "reducible-or-wrong-dimension"; anything else
    is "inconclusive".
    """
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
