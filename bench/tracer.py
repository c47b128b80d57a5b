"""Per-layer tracing of iosc from outside the package.

``Tracer.install()`` replaces selected iosc functions and methods by
timing wrappers.  A function is rebound in every iosc module that holds
it, because ``from .ringcount import count_zpm`` copies the binding into
the importing module; methods are replaced on their class.  Installation
then checks that no iosc module still holds an unwrapped original, so a
missed alias fails loudly instead of silently dropping spans.

Spans are kept in memory.  Each thread has its own span stack, and work
submitted to ringcount's thread pool runs with the submitting span as its
parent.  A span's self time is its duration minus the union of its
children's intervals, so children running at the same time in two
threads are not subtracted twice.  Evaluation points come from wrapping
``errors.charge`` and reading its stage label.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable


def _ideal_key(spec) -> tuple:
    return (spec.nvars, tuple(repr(g) for g in spec.generators))


def _region_key(region) -> Any:
    if region is None:
        return None
    return (type(region).__name__, region.k, repr(
        [(span, type(mode).__name__, getattr(mode, "gens", None)) for span, mode in region.blocks]
    ))


def _rows(pts_index: int) -> Callable:
    return lambda *a, **k: len(a[pts_index] if len(a) > pts_index else k["pts"])


# (module, attribute, row count of a call, distinctness key of a call)
TARGETS: list[tuple[str, str, Callable | None, Callable | None]] = [
    ("poly", "Poly.eval_poly", None, None),
    ("ringcount", "count_zpm", None,
     lambda a: (_ideal_key(a["spec"]), a["p"], a["m"], _region_key(a["region"]))),
    ("ringcount", "eval_poly_mod", _rows(1), None),
    ("ringcount", "count_ff", None, None),
    ("gf", "GFTable.__init__", None, lambda a: (a["p"], a["k"])),
    ("gf", "GFTable.eval_poly", _rows(2), None),
    ("expsum", "E_counts", None,
     lambda a: (_ideal_key(a["spec"]), a["r"], a["p"], a["m"], _region_key(a["Z"]))),
    ("expsum", "E_charsum", None, None),
    ("expsum", "phase_histogram", None, None),
    ("expsum", "ff_char_sum", None, None),
    ("expsum", "torus_sum_check", None, None),
    ("zeta", "ord_volumes", None, None),
    ("zeta", "rational_reconstruct", None, None),
    ("sseries", "E_composite", None, None),
    ("sseries", "singular_series_partial", None, None),
    ("circle", "count_box_solutions", None, None),
    ("circle", "singular_integral", None, None),
    ("cli", "main", None, None),
]

# charge() stage labels counted as evaluation points
POINT_LABELS = {
    "ringcount.tree_points": "residue-tree level",
    "ringcount.naive_points": "naive count",
    "expsum.charsum_points": "character sum",
    "expsum.ff_sum_points": "finite-field sum",
    "circle.box_points": "box enumeration",
}


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "rows", "children")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.rows = 0
        self.children: list[tuple[float, float]] = []

    @property
    def self_s(self) -> float:
        covered, end = 0.0, self.t0
        for a, b in sorted(self.children):
            a, b = max(a, end), min(b, self.t1)
            if b > a:
                covered += b - a
                end = b
        return (self.t1 - self.t0) - covered


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job = 0  # distinct keys are counted per job
        self.keys: dict[str, set] = defaultdict(set)
        self.points: Counter = Counter()
        self.charges: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn: Callable, rows: Callable | None = None,
             key: Callable | None = None) -> Callable:
        sig = inspect.signature(fn) if key else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None)
            if rows:
                span.rows = rows(*args, **kwargs)
            if key:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    self.keys[name].add((self.job, key(bound.arguments)))
            self.spans.append(span)
            stack.append(span)
            span.t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = self.clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.children.append((span.t0, span.t1))

        return traced

    def pool_class(self) -> type:
        """A ThreadPoolExecutor whose tasks run under the submitting span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()

                return super().submit(run, *args, **kwargs)

        return TracedPool

    def _counting_charge(self, charge: Callable) -> Callable:
        @functools.wraps(charge)
        def counted(needed, budget, what="enumeration"):
            with self._lock:
                self.points[what] += needed
                self.charges[what] += 1
            return charge(needed, budget, what)

        return counted

    # -- installation -----------------------------------------------------------

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every iosc module and class that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "iosc" or n.startswith("iosc.")]
        replace: list[tuple[Any, Any]] = []  # (original, wrapper)
        for mod, path, rows, key in TARGETS:
            owner = sys.modules[f"iosc.{mod}"]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = getattr(owner, attr)
            wrapper = self.wrap(f"{mod}.{path}", orig, rows, key)
            if cls:
                self._rebind(owner, attr, wrapper)
            replace.append((orig, wrapper))
        errors = sys.modules["iosc.errors"]
        replace.append((errors.charge, self._counting_charge(errors.charge)))
        replace.append((ThreadPoolExecutor, self.pool_class()))
        for module in modules:
            for attr, value in list(vars(module).items()):
                for orig, wrapper in replace:
                    if value is orig:
                        self._rebind(module, attr, wrapper)
        self.verify(modules, replace)

    def verify(self, modules: list, replace: list[tuple[Any, Any]]) -> None:
        """Raise if any iosc module or wrapped class still holds an original."""
        missed = [f"{m.__name__}.{attr}" for m in modules
                  for attr, value in vars(m).items()
                  if any(value is orig for orig, _ in replace)]
        for mod, path, _, _ in TARGETS:
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(sys.modules[f"iosc.{mod}"], cls[0])
                if not any(vars(owner)[attr] is w for _, w in replace):
                    missed.append(f"iosc.{mod}.{path}")
        if missed:
            raise RuntimeError(f"unwrapped aliases: {', '.join(missed)}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- metrics ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything traced so far."""
        by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)

        def calls(n):
            return len(by_name[n])

        def self_s(n):
            return sum(s.self_s for s in by_name[n])

        def rows(n):
            return sum(s.rows for s in by_name[n])

        def distinct(n):
            return len(self.keys[n])

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "poly.Poly.eval_poly.calls": calls("poly.Poly.eval_poly"),
            "poly.Poly.eval_poly.self_s": self_s("poly.Poly.eval_poly"),
            "ringcount.count_zpm.calls": calls("ringcount.count_zpm"),
            "ringcount.count_zpm.distinct": distinct("ringcount.count_zpm"),
            "ringcount.count_zpm.useful_ratio": ratio(
                distinct("ringcount.count_zpm"), calls("ringcount.count_zpm")),
            "ringcount.count_zpm.self_s": self_s("ringcount.count_zpm"),
            "ringcount.tree_nodes": self.charges[POINT_LABELS["ringcount.tree_points"]],
            "ringcount.eval_poly_mod.calls": calls("ringcount.eval_poly_mod"),
            "ringcount.eval_poly_mod.rows": rows("ringcount.eval_poly_mod"),
            "ringcount.eval_poly_mod.rows_per_call": ratio(
                rows("ringcount.eval_poly_mod"), calls("ringcount.eval_poly_mod")),
            "ringcount.eval_poly_mod.self_s": self_s("ringcount.eval_poly_mod"),
            "ringcount.count_ff.self_s": self_s("ringcount.count_ff"),
            "gf.GFTable.builds": calls("gf.GFTable.__init__"),
            "gf.GFTable.distinct": distinct("gf.GFTable.__init__"),
            "gf.GFTable.build_s": sum(s.t1 - s.t0 for s in by_name["gf.GFTable.__init__"]),
            "gf.GFTable.eval_poly.rows": rows("gf.GFTable.eval_poly"),
            "gf.GFTable.eval_poly.self_s": self_s("gf.GFTable.eval_poly"),
            "expsum.E_counts.calls": calls("expsum.E_counts"),
            "expsum.E_counts.distinct": distinct("expsum.E_counts"),
            "expsum.E_charsum.self_s": self_s("expsum.E_charsum"),
            "expsum.phase_histogram.self_s": self_s("expsum.phase_histogram"),
            "expsum.ff_char_sum.self_s": self_s("expsum.ff_char_sum"),
            "expsum.torus_sum_check.self_s": self_s("expsum.torus_sum_check"),
            "zeta.ord_volumes.calls": calls("zeta.ord_volumes"),
            "zeta.rational_reconstruct.self_s": self_s("zeta.rational_reconstruct"),
            "sseries.E_composite.calls": calls("sseries.E_composite"),
            "sseries.singular_series_partial.self_s": self_s("sseries.singular_series_partial"),
            "circle.count_box_solutions.self_s": self_s("circle.count_box_solutions"),
            "circle.singular_integral.self_s": self_s("circle.singular_integral"),
            "cli.main.self_s": self_s("cli.main"),
        }
        for name, label in POINT_LABELS.items():
            m[name] = self.points[label]
        return m


# unit of every per-layer metric, including the two run.py adds
def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("rows_per_call"):
        return "rows"
    return "count"


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
