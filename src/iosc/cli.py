"""Command-line front end.

Every invocation produces a single machine-readable report (JSON by
default, CSV on request) carrying the fully resolved configuration:
re-running the echoed argv reproduces the numerical payload byte for
byte, given the same seed.  The echo is generated from the chosen
subcommand's parser: the command, its positional choice, then every
option with a value, defaults included, in declaration order, each as
--flag=value (so values that start with a dash survive), with the
budget resolved.  Rationals serialize as "num/den" strings and counts as
decimal strings, so arbitrary precision survives the pipe.

Exit codes: 0 success, 2 invalid input, 3 evaluation budget exceeded,
4 internal inconsistency (independent computation routes disagreed - this
is reachable only through a bug).  The point budget bounds the whole
command, as one errors.Meter that all its counts draw down.  It defaults
to 10^8, is set by IOSC_BUDGET or --budget, and --force bypasses it.

main() parses with a parser that holds only the invoked subcommand,
built once per process and command, on the first call that names it;
-h, no command or an unknown one gets the parser of every subcommand,
built once too.  Usage, help and error text are the same from both.
No parser is mutated after it is built: each call parses into a fresh
namespace, so no state carries from one call to the next, and importing
this module builds nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Any, Sequence

from . import bounds as bounds_mod
from . import circle as circle_mod
from . import expsum as expsum_mod
from . import sseries as sseries_mod
from . import zeta as zeta_mod
from .bounds import ExtRational
from .errors import DEFAULT_BUDGET, BudgetExceeded, Meter, OracleDisagreement, check_int
from .poly import IdealSpec, Poly, PolyParseError, Weight, highpart_check, jet_expand, parse_poly
from .ringcount import (
    Full,
    LocalData,
    PrimitiveBlock,
    Region,
    UnitModP,
    ZeroModP,
    count_zpm,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4


# -- serialization -------------------------------------------------------------


def _dec(x: int) -> str:
    """x in decimal, however many digits.  str() refuses more digits than
    sys.get_int_max_str_digits() (Python >= 3.10.7), so that limit is
    lifted for this one conversion and then restored."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)


def _ser(x: Any) -> Any:
    if isinstance(x, Fraction):
        return f"{_dec(x.numerator)}/{_dec(x.denominator)}"
    if isinstance(x, ExtRational):
        return "oo" if x.is_infinite else _ser(x.value)
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        # counts can exceed any fixed-width integer: decimal strings
        return _dec(x) if abs(x) > (1 << 53) else x
    if isinstance(x, float):
        return x
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, Poly):
        return repr(x)
    if isinstance(x, (list, tuple)):
        return [_ser(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _ser(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {
            f.name: _ser(getattr(x, f.name)) for f in dataclasses.fields(x)
        }
    return x


def _flatten(prefix: str, x: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(x, dict):
        for k, v in x.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, json.dumps(x)))


def _emit(report: dict, args) -> None:
    if args.output == "csv":
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        text = "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- input parsing ----------------------------------------------------------------


def _load_ideal(args) -> IdealSpec:
    if args.ideal:
        with open(args.ideal) as fh:
            data = json.load(fh)
        n = data["n"]
        weight = Weight(tuple(data["weights"])) if data.get("weights") else None
        if "groups" in data:
            groups = [
                (g["degree"], [parse_poly(s, n) for s in g["gens"]])
                for g in data["groups"]
            ]
            return IdealSpec(n, groups, weight)
        return IdealSpec.from_gens(
            [parse_poly(s, n) for s in data["gens"]], weight
        )
    if not args.gens:
        raise ValueError("provide --ideal FILE or --gens")
    if args.nvars is None:
        raise ValueError("--gens needs -n/--nvars")
    weight = (
        Weight(tuple(int(v) for v in args.weights.split(",")))
        if getattr(args, "weights", None)
        else None
    )
    return IdealSpec.from_gens(
        [parse_poly(g, args.nvars) for g in args.gens], weight
    )


def _parse_region(text: str | None, k: int) -> Region | None:
    """Region grammar: comma-separated MODE:START-STOP blocks covering 0..k,
    modes full/zero/unit/primitive; or the single word full."""
    if text is None or text == "full":
        return None
    modes = {
        "full": Full,
        "zero": ZeroModP,
        "unit": UnitModP,
        "primitive": PrimitiveBlock,
    }
    blocks = []
    for part in text.split(","):
        mode, _, span = part.partition(":")
        if mode not in modes:
            raise ValueError(f"unknown region mode {mode!r}")
        start, _, stop = span.partition("-")
        blocks.append(((int(start), int(stop)), modes[mode]()))
    return Region(k, tuple(blocks))


def _parse_box(text: str | None, n: int) -> circle_mod.BoxSpec:
    if text is None:
        return circle_mod.BoxSpec.cube(n)
    sides = []
    for part in text.split(";"):
        lo, _, hi = part.partition(",")
        try:
            sides.append((Fraction(lo), Fraction(hi)))
        except ZeroDivisionError:
            raise ValueError(f"a box bound has a zero denominator: {part!r}") from None
    return circle_mod.BoxSpec(tuple(sides))


def _resolve_budget(args) -> int:
    if args.force:
        sys.stderr.write("warning: --force bypasses the evaluation budget\n")
        return 1 << 62
    if args.budget is not None:
        return args.budget
    env = os.environ.get("IOSC_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    budget = int(env)
    check_int("IOSC_BUDGET", budget, 1)
    return budget


# --force only bypasses the budget, which is echoed resolved; --output and
# -o choose where and how the report goes
_NOT_ECHOED = {"force", "output", "out"}


def _config(args) -> dict:
    """The config block: the resolved argv and the settings it fixes."""
    argv = [args.command]
    for action in args.parser._actions:
        value = getattr(args, action.dest, None)
        if not action.option_strings:
            argv.append(str(value))
            continue
        flag = max(action.option_strings, key=len)
        if action.dest == "budget":
            argv.append(f"{flag}={args._resolved_budget}")
        elif value is None or value is False or action.dest in _NOT_ECHOED:
            continue
        elif value is True:
            argv.append(flag)
        else:
            for v in value if isinstance(value, list) else [value]:
                argv.append(f"{flag}={v}")
    return {
        "argv": argv,
        "budget": args._resolved_budget,
        "threads": args.threads,
        "output": args.output,
    }


# -- subcommand implementations ------------------------------------------------------


def cmd_expsum(args) -> dict:
    spec = _load_ideal(args)
    r = args.r if args.r is not None else spec.r
    budget, threads = args.meter, args.threads
    ec = expsum_mod.E_counts(spec, r, args.p, args.m, budget=budget, threads=threads)
    result: dict[str, Any] = {"E_counts": ec}
    if args.verify:
        if spec.r != r:
            raise ValueError("--verify needs a presentation with exactly r generators")
        cv = expsum_mod.E_charsum(spec, r, args.p, args.m, budget=budget, threads=threads)
        ok = expsum_mod.equals_rational(cv, ec)
        if not ok:
            raise OracleDisagreement(
                "character-sum and counting forms of E disagree"
            )
        result["E_charsum_residue"] = list(cv.vec)
        result["verify_moidef"] = ok
    return result


def cmd_count(args) -> dict:
    spec = _load_ideal(args)
    budget, threads = args.meter, args.threads
    region = _parse_region(args.region, spec.nvars)
    n = count_zpm(spec, args.p, args.m, region, args.method, budget, threads)
    return {"count": _dec(n), "method": args.method}


def cmd_zeta(args) -> dict:
    spec = _load_ideal(args)
    budget, threads = args.meter, args.threads
    r = args.r if args.r is not None else spec.r
    # before the first walk, which needs no r and counts at max(2, M) + 1
    check_int("r", r, 1)
    check_int("M", args.max_order, 3 if args.theta else 0)
    result: dict[str, Any] = {}
    if args.theta:
        rep = zeta_mod.theta_probe(spec, r, args.p, args.max_order, budget, threads)
        result["theta"] = rep
    else:
        # one LocalData for the whole command: every report below shares
        # its counts, which one walk at the top order the series identity
        # reads (V up to max(2, M) + 1) fills
        data = LocalData(spec, args.p, None, budget, threads)
        data.N(max(2, args.max_order) + 1)
        dist = zeta_mod._ord_distribution(data, args.max_order)
        result["ord_distribution"] = {
            "coefficients": list(dist.coeffs),
            "tail_index": dist.tail_index,
        }
        comp = zeta_mod._compa(data, r, max(2, args.max_order))
        result["series_identity"] = {
            "ok": comp.ok,
            "lhs": list(comp.lhs.coeffs),
            "rhs": list(comp.rhs.coeffs),
        }
        if not comp.ok:
            raise OracleDisagreement("zeta/exponential-sum series identity failed")
        if args.reconstruct:
            z = zeta_mod._zeta_series(data, args.max_order)
            rec = zeta_mod.rational_reconstruct(z, args.max_order // 2)
            result["reconstruction"] = rec
            result["pole_report"] = zeta_mod._pole_report(rec, args.p, r)
    return result


def cmd_sseries(args) -> dict:
    spec = _load_ideal(args)
    budget, threads = args.meter, args.threads
    r = args.r if args.r is not None else spec.r
    result: dict[str, Any] = {}
    if args.irreducible:
        primes = [int(p) for p in args.primes.split(",")]
        rep = sseries_mod.irreducibility_probe(spec, r, primes, budget, threads)
        result["irreducibility"] = rep
    else:
        rep = sseries_mod.singular_series_partial(
            spec, r, args.qmax, args.sigma, budget, threads
        )
        result["singular_series"] = rep
    return result


def _parse_s_map(text: str | None) -> dict[int, int] | None:
    if not text:
        return None
    out = {}
    for part in text.split(","):
        k, _, v = part.partition(":")
        out[int(k)] = int(v)
    return out


def cmd_bounds(args) -> dict:
    if args.which in ("sigma0", "sigmaw"):
        spec = _load_ideal(args)
        fn = bounds_mod.sigma0 if args.which == "sigma0" else bounds_mod.sigma_tilde0w
        return {"bound": fn(spec, s=_parse_s_map(args.s), budget=args.meter)}
    if args.which == "birch":
        if args.nvars is None:
            raise ValueError("bounds birch needs -n")
        return {"birch_bound": bounds_mod.birch_bound(args.nvars, args.s_dim, args.r, args.d)}
    if args.which == "tau0":
        if not args.groups:
            raise ValueError("bounds tau0 needs --groups")
        if args.nvars is None:
            raise ValueError("bounds tau0 needs -n")
        groups = []
        for part in args.groups.split(","):
            i, ri, si = part.split(":")
            groups.append((int(i), int(ri), int(si)))
        return {"tau0": bounds_mod.bhb_tau0(groups, args.nvars)}
    if args.which == "thresholds":
        return {"thresholds": bounds_mod.convolution_thresholds(args.r, args.R, args.d)}
    if args.which == "moi-fit":
        if not args.data:
            raise ValueError("bounds moi-fit needs --data")
        data = []
        for part in args.data.split(","):
            p_, m_, e_ = part.split(":")
            data.append((int(p_), int(m_), float(e_)))
        return {"fit": bounds_mod.moi_fit(data, m_min=args.m_min)}


def cmd_circle(args) -> dict:
    budget, threads = args.meter, args.threads
    if args.which == "waring":
        if not args.map:
            raise ValueError("circle waring needs --map")
        maps = []
        for spec_text in args.map:
            nv, _, comps = spec_text.partition(":")
            maps.append([parse_poly(c, int(nv)) for c in comps.split(";")])
        rep = circle_mod.waring_surjectivity(maps, args.p, args.m, args.ell, budget)
        return {
            "surjective": rep.surjective,
            "missing_count": len(rep.missing),
            "missing_head": rep.missing[:50],
            "image_sizes": rep.image_sizes,
        }

    spec = _load_ideal(args)
    box = _parse_box(args.box, spec.nvars)
    eps = [float(e) for e in args.eps.split(",")] if args.eps else [0.2, 0.1]
    if args.which == "count":
        v = circle_mod.count_box_solutions(spec, box, args.B, budget, threads)
        return {"count": _dec(v)}
    if args.which == "jintegral":
        rep = circle_mod.singular_integral(
            spec, box, eps, sampler=args.sampler, seed=args.seed, budget=budget
        )
        return {"j_integral": rep}
    if args.which == "predict":
        rep = circle_mod.major_arc_prediction(
            spec, box, args.B, args.qmax, eps, seed=args.seed, budget=budget, threads=threads
        )
        return {"prediction": rep}


def cmd_jet(args) -> dict:
    if args.which == "expand":
        if args.poly is None or args.nvars is None:
            raise ValueError("jet expand needs --poly and -n")
        f = parse_poly(args.poly, args.nvars)
        jets = jet_expand(f, args.order, args.start, args.meter)
        return {"jets": [repr(j) for j in jets]}
    if args.which == "highpart-check":
        spec = _load_ideal(args)
        ok = highpart_check(spec, args.m, args.meter)
        if not ok:
            raise OracleDisagreement("top weighted part of the jet differs")
        return {"highpart_identity": ok}


# -- parser ----------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(sp, fn):
    # the subparser rides along so that _config can echo its actions
    sp.set_defaults(fn=fn, parser=sp)
    sp.add_argument("--budget", type=_positive_int, default=None, help="evaluation point budget")
    sp.add_argument("--force", action="store_true", help="bypass the budget")
    sp.add_argument("--threads", type=_positive_int, default=1)
    sp.add_argument("--output", choices=["json", "csv"], default="json")
    sp.add_argument("-o", "--out", default=None, help="write the report to a file")
    sp.add_argument("--ideal", default=None, help="JSON ideal file")
    sp.add_argument("--gens", action="append", default=None, help="inline generator")
    sp.add_argument("-n", "--nvars", type=int, default=None)
    sp.add_argument("--weights", default=None, help="comma-separated weights")


def _expsum(sp):
    _add_common(sp, cmd_expsum)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-r", type=int, default=None)
    sp.add_argument("--verify", action="store_true", help="cross-check the character-sum form")


def _count(sp):
    _add_common(sp, cmd_count)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("--method", choices=["lift", "naive", "both"], default="both")
    sp.add_argument("--region", default=None)


def _zeta(sp):
    _add_common(sp, cmd_zeta)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--max-order", type=int, required=True)
    sp.add_argument("-r", type=int, default=None)
    sp.add_argument("--reconstruct", action="store_true")
    sp.add_argument("--theta", action="store_true", help="local factor probe")


def _sseries(sp):
    _add_common(sp, cmd_sseries)
    sp.add_argument("-r", type=int, default=None)
    sp.add_argument("--qmax", type=int, default=20)
    sp.add_argument("--sigma", type=float, default=None)
    sp.add_argument("--irreducible", action="store_true")
    sp.add_argument("--primes", default="5,7,11,13")


def _bounds(sp):
    sp.add_argument("which", choices=["sigma0", "sigmaw", "birch", "tau0", "thresholds", "moi-fit"])
    _add_common(sp, cmd_bounds)
    sp.add_argument("--s", default=None, help="degree:s pairs, comma separated")
    sp.add_argument("--s-dim", type=int, default=0)
    sp.add_argument("-r", type=int, default=1)
    sp.add_argument("-R", type=int, default=1)
    sp.add_argument("-d", type=int, default=2)
    sp.add_argument("--groups", default=None, help="degree:count:s triples")
    sp.add_argument("--data", default=None, help="p:m:absE triples for moi-fit")
    sp.add_argument("--m-min", type=int, default=2)


def _circle(sp):
    sp.add_argument("which", choices=["count", "jintegral", "predict", "waring"])
    _add_common(sp, cmd_circle)
    sp.add_argument("-B", type=int, default=10)
    sp.add_argument("--qmax", type=int, default=20)
    sp.add_argument("--box", default=None, help="lo,hi;lo,hi;... inside [-1,1]")
    sp.add_argument("--eps", default=None, help="epsilon ladder, comma separated")
    sp.add_argument("--sampler", choices=["mc", "grid"], default="mc")
    sp.add_argument("--seed", type=int, default=0, help="Monte Carlo seed, 0 ≤ seed < 2^64")
    sp.add_argument("-p", type=int, default=7)
    sp.add_argument("-m", type=int, default=1)
    sp.add_argument("--ell", type=int, default=2)
    sp.add_argument("--map", action="append", default=None, help="nvars:comp;comp;...")


def _jet(sp):
    sp.add_argument("which", choices=["expand", "highpart-check"])
    _add_common(sp, cmd_jet)
    sp.add_argument("--poly", default=None)
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--start", type=int, choices=[0, 1], default=0)
    sp.add_argument("-m", type=int, default=2)


# each subcommand in order: its help and what adds its arguments
SUBCOMMANDS = {
    "expsum": ("exponential sums E^(r)(p, m)", _expsum),
    "count": ("point counts over Z/p^m", _count),
    "zeta": ("truncated zeta series and probes", _zeta),
    "sseries": ("singular series and diagnostics", _sseries),
    "bounds": ("closed-form exponent bounds", _bounds),
    "circle": ("major-arc numerics and Waring probes", _circle),
    "jet": ("jet expansion and the top-part identity", _jet),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every subcommand or with only `command`'s,
    built on the first call for it and shared by every later one;
    parse_args reads it and nothing may change it.  A parser of one
    subcommand spells every choice out in its usage line, as the full one
    does; only the full one can fail on the command itself, whose errors
    name the argument "command"."""
    ap = argparse.ArgumentParser(
        prog="iosc",
        description="exact exponential sums, local zeta data and singular series of polynomial ideals",
    )
    choices = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=choices)
    for name, (text, add_arguments) in SUBCOMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=text))
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # -h, no command or an unknown one needs the parser of every subcommand
    ap = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else EXIT_OK
    try:
        args._resolved_budget = _resolve_budget(args)
        args.meter = Meter(args._resolved_budget)
        report = {"config": _config(args), "result": args.fn(args)}
        _emit(_ser(report), args)
        return EXIT_OK
    except BudgetExceeded as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_BUDGET
    except OracleDisagreement as e:
        sys.stderr.write(f"internal inconsistency: {e}\n")
        return EXIT_INCONSISTENT
    except (ValueError, PolyParseError, KeyError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
