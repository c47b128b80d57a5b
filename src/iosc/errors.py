"""Shared error types, the one integer check and the evaluation-point budget.

check_int is the one check of an integer input (p, m, k, r, an order M,
Qmax, B, ...), which every entry point makes before it charges anything.

Every enumeration in the package is metered in evaluation points, drawn
from one Meter per command or call.  A request that exceeds what is left
raises BudgetExceeded before the work: no count is silently truncated.
"""

DEFAULT_BUDGET = 10 ** 8


def check_int(name: str, v: int, lo: int | None = None, hi: int | None = None) -> None:
    """Raise ValueError naming `name` unless v is a Python int and no bool,
    with lo <= v (when lo is given) and v <= hi (when hi is given too)."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if hi is not None and not lo <= v <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {v}")
    if lo is not None and v < lo:
        raise ValueError(f"{name} must be >= {lo}, got {v}")


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the allowed number of evaluation points."""

    def __init__(self, needed: int, budget: int, what: str = "enumeration"):
        super().__init__(
            f"{what} needs {needed} evaluation points, the budget has {budget} left"
        )
        self.needed = needed
        self.budget = budget


class OracleDisagreement(RuntimeError):
    """Two independent computation routes returned different results.

    This is an internal-consistency failure: reachable only through a bug
    (or deliberate fault injection in tests).
    """


class ZeroIdealError(ValueError):
    """Raised where an operation is undefined for the zero ideal."""


class Meter:
    """The points left to one command or call, which makes it once
    (Meter.of) and passes it to everything it charges."""

    def __init__(self, left: int):
        self.left = left

    @staticmethod
    def of(budget: "int | Meter") -> "Meter":
        return budget if isinstance(budget, Meter) else Meter(budget)


def charge(needed: int, budget: "int | Meter", what: str = "enumeration") -> None:
    """Refuse `needed` points unless the budget has them left (an int is a
    fresh meter), and draw them from it."""
    meter = Meter.of(budget)
    if needed > meter.left:
        raise BudgetExceeded(needed, meter.left, what)
    meter.left -= needed
