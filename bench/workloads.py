"""Workload definitions, seeded input generation and exact-result checks.

A workload is a fixed list of jobs.  A CLI job runs ``iosc.cli.main(argv)``
in-process; a library job calls a function exported by ``iosc``.  The
workload seed shuffles the job order and relabels each job's variables by
a random permutation.  A relabelling changes no count, no E value and no
series coefficient, so one pinned digest per job holds for every seed.
Why each workload exists is written down in WORKLOADS.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import re
import signal
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def ensure_iosc():
    """Import iosc from this checkout's src/ and return the package.

    Raises RuntimeError when src/iosc is missing or another copy of the
    package would be imported instead.
    """
    if not (SRC / "iosc" / "__init__.py").is_file():
        raise RuntimeError(f"no iosc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import iosc
    import iosc.cli  # noqa: F401  (the CLI jobs call it)

    if Path(iosc.__file__).resolve().parent != SRC / "iosc":
        raise RuntimeError(f"imported iosc from {iosc.__file__}, not from {SRC}")
    return iosc


# -- input specifications ------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    """An ideal given by generator strings in x1..xn."""

    gens: tuple[str, ...]
    n: int


@dataclass(frozen=True)
class Pol:
    """One polynomial argument of a library call."""

    text: str
    n: int


@dataclass(frozen=True)
class Wt:
    """A variable weight; it is permuted together with the variables."""

    w: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class Cli:
    """``iosc <argv> --gens ... -n N --threads T``; the report's result block
    is checked, less the dotted keys in ``drop``."""

    name: str
    argv: tuple[str, ...]
    ideal: Ideal
    threads: int = 1
    drop: tuple[str, ...] = ()
    timeout_s: float = 20.0
    pin: str | None = None  # another job whose pinned result this one must equal


@dataclass(frozen=True)
class Lib:
    """``iosc.<fn>(*args, **kwargs)``; ``exact`` projects the return value
    onto its exact fields."""

    name: str
    fn: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    exact: Callable[[Any], Any] | None = None
    timeout_s: float = 20.0
    pin: str | None = None


UMBRELLA = Ideal(("x1^2*x2-x3^2",), 3)
BILINEAR = Ideal(("x1*x2-x3*x4",), 4)
TWO_QUADRICS = Ideal(("x1^2+x2^2-x3^2-x4^2", "x1*x3-x2*x4"), 4)
CUBIC4 = Ideal(("x1^3+x2^3+x3^3+x4^3",), 4)
CUSP = Ideal(("x1^2-x2^3",), 2)

# circle predict estimates the singular integral J by Monte Carlo; J and
# every field computed from it are inexact, and relabelling moves them.
# The exact box count ("actual") and the singular-series terms stay.
_INEXACT_PREDICTION = tuple(
    f"prediction.{k}" for k in ("j_integral", "prediction", "ratio", "degenerate", "flags")
)

WORKLOADS: dict[str, list[Cli | Lib]] = {
    "zeta-singular": [
        Cli("zeta-umbrella-p7", ("zeta", "-p", "7", "--max-order", "6", "--reconstruct"),
            UMBRELLA, timeout_s=40.0),
        Cli("zeta-monomial-p5", ("zeta", "-p", "5", "--max-order", "6", "--reconstruct"),
            Ideal(("x1*x2*x3",), 3)),
        Cli("theta-umbrella-p5", ("zeta", "-p", "5", "--max-order", "8", "--theta", "-r", "1"),
            UMBRELLA),
        Cli("zeta-cusp-p3", ("zeta", "-p", "3", "--max-order", "10", "--reconstruct"), CUSP),
    ],
    "grid-verify": [
        Cli("count-bilinear-p7", ("count", "-p", "7", "-m", "2", "--method", "both"),
            BILINEAR, drop=("method",)),
        Cli("count-bilinear-p7-naive-2threads",
            ("count", "-p", "7", "-m", "2", "--method", "naive"),
            BILINEAR, threads=2, drop=("method",), pin="count-bilinear-p7"),
        Cli("expsum-cubic-p7", ("expsum", "-p", "7", "-m", "2", "--verify"), CUBIC4),
        Cli("count-quadrics-p5", ("count", "-p", "5", "-m", "2", "--method", "both"),
            TWO_QUADRICS, drop=("method",)),
        Lib("count-ff-cusp-2^8", "count_ff", (CUSP, 2, 8)),
        Lib("count-ff-cusp-3^5", "count_ff", (CUSP, 3, 5)),
        Lib("ff-char-sum-cubic-5^2", "ff_char_sum", (Pol(CUBIC4.gens[0], 4), None, 5, 2),
            exact=lambda r: {"trace_counts": r.trace_counts, "s": r.s, "s_source": r.s_source}),
        Lib("torus-check-w32-2^4", "torus_sum_check",
            (Pol("x1^2+x2^3", 2), Pol("x1*x2", 2), Wt((3, 2)), 2, 4)),
        Lib("dim-estimate-umbrella", "dim_estimate", (UMBRELLA,), {"maxk": 2}),
    ],
    "series-sweep": [
        Cli("sseries-squares-q45", ("sseries", "--qmax", "45"),
            Ideal(("x1^2+x2^2+x3^2+x4^2",), 4)),
        Cli("sseries-bilinear-q40", ("sseries", "--qmax", "40"), BILINEAR),
        Cli("sseries-quadrics-q30", ("sseries", "--qmax", "30"), TWO_QUADRICS),
        Cli("irreducible-cubic", ("sseries", "--irreducible", "--primes", "5,7,11,13,17"),
            CUBIC4),
        Cli("circle-predict-B30", ("circle", "predict", "-B", "30", "--qmax", "30"),
            Ideal(("x1^2+x2^2+x3^2-x4^2",), 4), drop=_INEXACT_PREDICTION),
        Cli("bounds-sigma0-cubic", ("bounds", "sigma0"), CUBIC4),
    ],
}

# Every point of the plane x2 = 0 is singular, so the residue tree keeps
# about p^2 children per level and each count_zpm call opens a fresh
# budget: this did not finish in 10 minutes.  It stays out of the timed
# workloads; the self-tests use it to check that a hang becomes a failure.
KNOWN_HANG = Cli("zeta-two-planes-p5", ("zeta", "-p", "5", "--max-order", "6", "--reconstruct"),
                 Ideal(("x1*x2", "x2*x3"), 3))

# sha256 prefixes of each job's exact result, identical for every seed.
PINS = {
    "zeta-umbrella-p7": "4395d350442fea45",
    "zeta-monomial-p5": "ec258d79e9b68405",
    "theta-umbrella-p5": "dc58caf601ce2f75",
    "zeta-cusp-p3": "cb3de03caf763f3a",
    "count-bilinear-p7": "aff9f733f1ed5dff",
    "expsum-cubic-p7": "50c61ea76c93711c",
    "count-quadrics-p5": "846280d0335ec3af",
    "count-ff-cusp-2^8": "51e8ea280b44e169",
    "count-ff-cusp-3^5": "72440a20f54075ac",
    "ff-char-sum-cubic-5^2": "130a980057d80997",
    "torus-check-w32-2^4": "b5bea41b6c623f7c",
    "dim-estimate-umbrella": "c4bfb1bbc072af7b",
    "sseries-squares-q45": "593ad48f49a37e05",
    "sseries-bilinear-q40": "40b5d79a99f62012",
    "sseries-quadrics-q30": "4a135fa7d85f532f",
    "irreducible-cubic": "c51ca9088ae92207",
    "circle-predict-B30": "465f4b9c3acffcd2",
    "bounds-sigma0-cubic": "f9323f4c93c70d0b",
}


# -- job generation ---------------------------------------------------------------


@dataclass
class Job:
    name: str
    pin: str
    inputs: str  # what the program receives, for diagnostics
    timeout_s: float
    call: Callable[[], Any]  # returns the exact view of the result
    threads: int = 1


def _relabel(text: str, perm: list[int]) -> str:
    return re.sub(r"x(\d+)", lambda m: f"x{perm[int(m.group(1)) - 1] + 1}", text)


def _materialize(x: Any, perm: list[int], iosc) -> Any:
    if isinstance(x, Ideal):
        gens = [iosc.parse_poly(_relabel(g, perm), x.n) for g in x.gens]
        return iosc.IdealSpec.from_gens(gens)
    if isinstance(x, Pol):
        return iosc.parse_poly(_relabel(x.text, perm), x.n)
    if isinstance(x, Wt):
        w = [0] * x.n
        for i, wi in enumerate(x.w):
            w[perm[i]] = wi
        return iosc.Weight(tuple(w))
    return x


class JobError(RuntimeError):
    """A CLI job exited with a nonzero code."""


def _cli_call(iosc, argv: list[str], drop: tuple[str, ...]) -> Callable[[], Any]:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = iosc.cli.main(argv)
        if code != 0:
            raise JobError(f"exit code {code}")
        result = json.loads(out.getvalue())["result"]
        for path in drop:
            *outer, last = path.split(".")
            node = result
            for k in outer:
                node = node[k]
            del node[last]
        return result

    return call


def _lib_call(iosc, spec: Lib, args: tuple, kwargs: dict) -> Callable[[], Any]:
    def call():
        # looked up at call time, so a traced run calls the wrapper
        value = getattr(iosc, spec.fn)(*args, **kwargs)
        return spec.exact(value) if spec.exact else value

    return call


def build_jobs(workload: str, seed: int, specs: list[Cli | Lib] | None = None) -> list[Job]:
    """The workload's jobs with seeded variable labels, in seeded order."""
    iosc = ensure_iosc()
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for spec in WORKLOADS[workload] if specs is None else specs:
        pin = spec.pin or spec.name
        if isinstance(spec, Cli):
            perm = rng.sample(range(spec.ideal.n), spec.ideal.n)
            argv = list(spec.argv)
            for g in spec.ideal.gens:
                argv += ["--gens", _relabel(g, perm)]
            argv += ["-n", str(spec.ideal.n), "--threads", str(spec.threads)]
            jobs.append(Job(spec.name, pin, " ".join(argv), spec.timeout_s,
                            _cli_call(iosc, argv, spec.drop), spec.threads))
        else:
            sizes = {a.n for a in (*spec.args, *spec.kwargs.values())
                     if isinstance(a, (Ideal, Pol, Wt))}
            if len(sizes) != 1:
                raise ValueError(f"{spec.name}: polynomial arguments disagree on n")
            n = sizes.pop()
            perm = rng.sample(range(n), n)
            args = tuple(_materialize(a, perm, iosc) for a in spec.args)
            kwargs = {k: _materialize(v, perm, iosc) for k, v in spec.kwargs.items()}
            inputs = f"{spec.fn}{args!r} {kwargs!r}"
            jobs.append(Job(spec.name, pin, inputs, spec.timeout_s,
                            _lib_call(iosc, spec, args, kwargs)))
    rng.shuffle(jobs)
    return jobs


# -- exact results ------------------------------------------------------------------


def canonical(x: Any) -> Any:
    """A JSON value for an exact result; floats and complex are refused."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: canonical(getattr(x, f.name)) for f in dataclasses.fields(x)}
    raise TypeError(f"not an exact value: {type(x).__name__} {x!r}")


def digest(x: Any) -> str:
    text = json.dumps(canonical(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class JobTimeout(Exception):
    """Raised inside a job when its time limit passes."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise JobTimeout in the main thread after `seconds`."""

    def expire(signum, frame):
        raise JobTimeout(f"no result after {seconds:g} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@dataclass
class Outcome:
    name: str
    seconds: float
    digest: str | None  # None when the job gave no result
    error: str | None  # None when the result matched its pin

    @property
    def ok(self) -> bool:
        return self.error is None


def run_job(job: Job, pins: dict[str, str] = PINS, timeout_s: float | None = None) -> Outcome:
    """Run one job under its time limit and check its result against the pin."""
    t0 = time.perf_counter()
    got = None
    try:
        with time_limit(job.timeout_s if timeout_s is None else timeout_s):
            value = job.call()
        got = digest(value)
    except JobTimeout as e:
        error = f"timeout: {e}"
    except Exception as e:  # any failure of the program is a failed job
        error = f"{type(e).__name__}: {e}"
    else:
        want = pins.get(job.pin)
        error = None if got == want else f"result {got} differs from pinned {want}"
    return Outcome(job.name, time.perf_counter() - t0, got, error)
