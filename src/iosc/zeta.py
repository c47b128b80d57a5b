"""Truncated local zeta data of an ideal and its consistency identities.

Everything is a power series in t = q^(-s) with exact rational
coefficients, truncated at an explicit order M.  The valuation
distribution c_m = vol{ord_I = m} comes straight from point counts:
vol{ord >= m} = q^(-mn) * N_{p,m}.  On top of it:

* the series identity relating (1 - q^(-r) t) * Z(t) to the exponential
  sums E^(r)(m) for a residue set contained in the zero locus;
* the Poincare series relation P(t) = (1 - t Z(t)) / (1 - t);
* exact rational-function reconstruction by minimal linear recurrence
  detection, used to probe the pole at s = -r;
* the local factor Theta_p(-r) = 1 + sum E^(r)(m) q^(rm), whose partial
  sums telescope to the p-adic densities.

Every count comes from one ringcount.LocalData per public call (per CLI
command for ``iosc zeta``), so each N_{p,m} is computed once per call and
the public functions are thin wrappers around private helpers that derive
their output from its volumes.

Verdicts emitted here are explicitly labeled heuristics on truncated
data; the exact parts (series identities, reconstruction round-trips)
are tolerance-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DEFAULT_BUDGET, ZeroIdealError
from .poly import IdealSpec
from .ringcount import LocalData, Region
# unused: every count goes through LocalData, but bench/test_bench.py checks
# that the tracer rebinds this alias
from .ringcount import count_zpm  # noqa: F401


@dataclass(frozen=True)
class QSeries:
    """Truncated power series in t = q^(-s) with exact rational coefficients."""

    q: int
    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "QSeries") -> "QSeries":
        if self.q != other.q:
            raise ValueError("mixing base prime powers")
        n = min(len(self.coeffs), len(other.coeffs))
        return QSeries(
            self.q, tuple(self.coeffs[i] + other.coeffs[i] for i in range(n))
        )

    def __mul__(self, other: "QSeries") -> "QSeries":
        if self.q != other.q:
            raise ValueError("mixing base prime powers")
        n = min(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                out[i + j] += a * b
        return QSeries(self.q, tuple(out))

    def scale(self, c: Fraction | int) -> "QSeries":
        c = Fraction(c)
        return QSeries(self.q, tuple(a * c for a in self.coeffs))


# -- valuation distribution ----------------------------------------------------


def ord_volumes(
    spec: IdealSpec,
    p: int,
    M: int,
    Z: Region | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> list[Fraction]:
    """[V_0..V_M] with V_m = vol{x : ord_I(x) >= m, reduction in Z}.

    Each count is computed once per call, through one LocalData.
    """
    data = LocalData(spec, p, Z, budget, threads)
    return [data.V(m) for m in range(M + 1)]


@dataclass(frozen=True)
class OrdDistribution:
    """c_0..c_{M-1} are exact vol{ord = m}; the last entry is the tail
    mass vol{ord >= M} and is flagged as such."""

    p: int
    coeffs: tuple[Fraction, ...]
    tail_index: int

    def series(self) -> QSeries:
        return QSeries(self.p, self.coeffs)


def ord_distribution(
    spec: IdealSpec,
    p: int,
    M: int,
    Z: Region | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> OrdDistribution:
    """The valuation distribution of the ideal up to order M."""
    return _ord_distribution(LocalData(spec, p, Z, budget, threads), M)


def _ord_distribution(data: LocalData, M: int) -> OrdDistribution:
    if all(g.is_zero() for g in data.spec.generators):
        raise ZeroIdealError("ideal is zero")
    vols = [data.V(m) for m in range(M + 1)]
    coeffs = [vols[m] - vols[m + 1] for m in range(M)] + [vols[M]]
    return OrdDistribution(data.p, tuple(coeffs), M)


def zeta_series(
    spec: IdealSpec,
    p: int,
    M: int,
    Z: Region | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> QSeries:
    """Z(t) = sum vol{ord = m} t^m with every coefficient exact through M."""
    return _zeta_series(LocalData(spec, p, Z, budget, threads), M)


def _zeta_series(data: LocalData, M: int) -> QSeries:
    return QSeries(data.p, tuple(data.V(m) - data.V(m + 1) for m in range(M + 1)))


def poincare_relation(
    spec: IdealSpec,
    p: int,
    M: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> tuple[bool, QSeries, QSeries]:
    """Coefficientwise check of (1 - t) P(t) = 1 - t Z(t) through order M."""
    data = LocalData(spec, p, None, budget, threads)
    pser = QSeries(p, tuple(data.V(m) for m in range(M + 1)))
    zser = _zeta_series(data, M)
    lhs = [pser.coeffs[0]] + [
        pser.coeffs[m] - pser.coeffs[m - 1] for m in range(1, M + 1)
    ]
    rhs = [Fraction(1)] + [-zser.coeffs[m - 1] for m in range(1, M + 1)]
    return lhs == rhs, pser, zser


# -- the series identity with exponential sums ------------------------------------


@dataclass(frozen=True)
class CompaResult:
    ok: bool
    lhs: QSeries
    rhs: QSeries


def compa_check(
    spec: IdealSpec,
    r: int,
    p: int,
    M: int,
    Z: Region | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> CompaResult:
    """Exact comparison through t^M of both sides of

        (1 - q^(-r) t) Z_Z(t)
            = q^(-n)(1 - q^(-r)) #Z(F_p) t + (1 - t^(-1)) sum_{m>=2} E(m) t^m

    The identity requires the residue set Z to lie inside the zero locus
    X, so the residue set used is Z intersected with X (X itself when Z is
    None).  Only its volume V_0 needs the intersection: for m >= 1,
    ord_I(x) >= m >= 1 forces x mod p into X(F_p), so vol{ord_I >= m} over
    Z cap X equals V_m counted with Z alone.  The same lemma at m = 1 gives
    V_0 = vol(Z cap X) = V_1 over Z, so every count is one the rest of a
    zeta command also needs.
    """
    return _compa(LocalData(spec, p, Z, budget, threads), r, M)


def _compa(data: LocalData, r: int, M: int) -> CompaResult:
    if M < 2:
        raise ValueError("M must be >= 2")
    p = data.p
    # V_0 of Z cap X is V_1 of Z, by the lemma in compa_check's docstring
    vols = [data.V(1)] + [data.V(m) for m in range(1, M + 2)]
    qr = Fraction(1, p ** r)

    # LHS: (1 - q^-r t) * zeta; c_m = V_m - V_{m+1} (c_0 = 0 since Z lies
    # in the zero locus)
    c = [vols[m] - vols[m + 1] for m in range(M + 1)]
    lhs = [c[0]] + [c[m] - qr * c[m - 1] for m in range(1, M + 1)]

    # RHS from the exponential sums E(m) = V_m - q^-r V_{m-1}
    E = {m: vols[m] - qr * vols[m - 1] for m in range(2, M + 2)}
    rhs = [Fraction(0)] * (M + 1)
    if M >= 1:
        rhs[1] = (1 - qr) * vols[0] - E[2]
    for m in range(2, M + 1):
        rhs[m] = E[m] - E[m + 1]
    return CompaResult(
        lhs == rhs, QSeries(p, tuple(lhs)), QSeries(p, tuple(rhs))
    )


# -- rational reconstruction --------------------------------------------------------


@dataclass(frozen=True)
class RationalFunc:
    """numer/denom in t with exact rational coefficients, denom(0) = 1."""

    numer: tuple[Fraction, ...]
    denom: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.denom or self.denom[0] != 1:
            raise ValueError("denominator must have constant term 1")

    def expand(self, M: int) -> list[Fraction]:
        """First M+1 series coefficients of numer/denom."""
        out = []
        for m in range(M + 1):
            v = self.numer[m] if m < len(self.numer) else Fraction(0)
            for i in range(1, min(m, len(self.denom) - 1) + 1):
                v -= self.denom[i] * out[m - i]
            out.append(v)
        return out

    def denominator_root_multiplicity(self, t0: Fraction) -> int:
        """Multiplicity of t0 as a root of the denominator."""
        coeffs = list(self.denom)
        mult = 0
        while True:
            if sum(c * t0 ** i for i, c in enumerate(coeffs)) != 0:
                return mult
            # synthetic division by (t - t0)
            new = []
            carry = Fraction(0)
            for c in reversed(coeffs):
                carry = c + carry * t0
                new.append(carry)
            new = list(reversed(new[:-1]))
            coeffs = new if new else [Fraction(0)]
            mult += 1
            if all(c == 0 for c in coeffs):
                return mult


@dataclass(frozen=True)
class Reconstruction:
    func: RationalFunc | None
    flag: str  # "ok", "insufficient-data", "no-recurrence"
    order: int | None = None


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """A particular solution of rows * a = rhs over Q, or None."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    rix = 0
    for col in range(ncols):
        sel = None
        for i in range(rix, len(aug)):
            if aug[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        aug[rix], aug[sel] = aug[sel], aug[rix]
        pv = aug[rix][col]
        aug[rix] = [v / pv for v in aug[rix]]
        for i in range(len(aug)):
            if i != rix and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[rix])]
        pivots.append(col)
        rix += 1
        if rix == len(aug):
            break
    for i in range(rix, len(aug)):
        if aug[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for row_i, col in enumerate(pivots):
        sol[col] = aug[row_i][ncols]
    return sol


def rational_reconstruct(
    series: QSeries | Sequence[Fraction], max_order: int
) -> Reconstruction:
    """Minimal exact linear recurrence of order <= max_order, as a rational
    function; the recurrence must hold for every available coefficient.
    """
    if isinstance(series, QSeries):
        coeffs = list(series.coeffs)
    else:
        coeffs = [Fraction(c) for c in series]
    L = len(coeffs) - 1
    usable = min(max_order, max(0, (len(coeffs) - 1) // 2))
    for d in range(0, usable + 1):
        rows = [[coeffs[m - i] for i in range(1, d + 1)] for m in range(d, L + 1)]
        rhs = [coeffs[m] for m in range(d, L + 1)]
        a = _solve_exact(rows, rhs)
        if a is None:
            continue
        # numerator = series * denominator, truncated below the order;
        # the round-trip check below keeps the verification explicit
        denom = [Fraction(1)] + [-x for x in a]
        numer = []
        for i in range(d):
            acc = Fraction(0)
            for j in range(i + 1):
                if i - j < len(denom):
                    acc += coeffs[j] * denom[i - j]
            numer.append(acc)
        if not numer:
            numer = [Fraction(0)]
        func = RationalFunc(tuple(numer), tuple(denom))
        if func.expand(L) == coeffs:
            return Reconstruction(func, "ok", d)
    if max_order > usable:
        return Reconstruction(None, "insufficient-data")
    return Reconstruction(None, "no-recurrence")


# -- theta probe and pole report -------------------------------------------------------


@dataclass(frozen=True)
class ThetaReport:
    """Partial data of Theta_p(-r) = 1 + sum_{m>=1} E^(r)(m) p^(rm)."""

    p: int
    r: int
    terms: tuple[Fraction, ...]  # m = 1..M
    partial_sums: tuple[Fraction, ...]  # starting with the constant 1
    verdict: str  # "decaying", "stalled", "growing"


def theta_probe(
    spec: IdealSpec,
    r: int,
    p: int,
    M: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> ThetaReport:
    """First M terms of the local factor at s = -r, with a decay verdict.

    "decaying" is evidence (never a certificate) that the decay exponent
    of E^(r)(p, m) exceeds r.
    """
    if M < 3:
        raise ValueError("M must be >= 3")
    data = LocalData(spec, p, None, budget, threads)
    terms = [data.E(r, m) * p ** (r * m) for m in range(1, M + 1)]
    sums = [Fraction(1)]
    for t in terms:
        sums.append(sums[-1] + t)
    nonzero = [abs(t) for t in terms if t != 0]
    if len(nonzero) < 2:
        verdict = "decaying"
    else:
        ratio = nonzero[-1] / nonzero[-2]
        if ratio < Fraction(1, 2):
            verdict = "decaying"
        elif ratio > 1:
            verdict = "growing"
        else:
            verdict = "stalled"
    return ThetaReport(p, r, tuple(terms), tuple(sums), verdict)


@dataclass(frozen=True)
class PoleReport:
    status: str  # "ok", "multiple-pole", "abstain"
    multiplicity: int | None
    reconstruction: Reconstruction


def pole_report(
    spec: IdealSpec,
    r: int,
    p: int,
    M: int,
    max_order: int | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> PoleReport:
    """Probe the pole of the zeta function at s = -r via reconstruction.

    When the truncated series is recognized as a rational function, report
    the multiplicity of t = q^(-r) in the denominator; otherwise abstain.
    Exact pole analysis is beyond truncated data, so this is a probe, not
    a certificate.
    """
    z = _zeta_series(LocalData(spec, p, None, budget, threads), M)
    rec = rational_reconstruct(z, max_order if max_order is not None else M // 2)
    return _pole_report(rec, p, r)


def _pole_report(rec: Reconstruction, p: int, r: int) -> PoleReport:
    if rec.func is None:
        return PoleReport("abstain", None, rec)
    mult = rec.func.denominator_root_multiplicity(Fraction(1, p ** r))
    return PoleReport("ok" if mult <= 1 else "multiple-pole", mult, rec)
