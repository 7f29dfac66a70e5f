"""Command line interface.

Each subcommand answers one question.  The default output is a short
human-readable report; ``--json`` switches to a JSON document with
sorted keys, so machine output is deterministic.  Exact values are
printed as rational or surd strings; decimal approximations are
display-only, rounded once from the exact value and sized by ``--digits``,
at most ``surd.MAX_DIGITS``: their cost grows faster than their count.
Each payload is written from the integers the command already holds,
through ``surd``'s integer display kernel, so a query builds no
``Fraction`` or ``QuadSurd`` and imports neither ``fractions`` nor
``decimal``; ``selfcheck``, which uses both as oracles, is imported by its
own command only.

Exit codes: 0 when the question was answered (including "no prioritary
sheaf exists"), 1 for usage errors, 2 when an internal consistency
check failed.  When the reader of stdout goes away early (``prioritaire
series -- 0 3000 | head -1``) the command stops quietly with exit code 1;
any other failed write, to stdout or to ``tile --out``, is one error line
and exit code 1.

Answers print integers of any length: once its arguments are parsed, a
command lifts Python's limit on int-to-str digits (3.10.7 and later),
and ``main`` puts the limit back.  Parsing keeps the limit, which bounds
the work of converting a huge argument string, and with it the depth of
every descent a point query walks: no command takes a depth cap.

Negative arguments start with a dash, so insert ``--`` before the
positionals: ``prioritaire frontier -- -1/2``.

Each subcommand's arguments are declared once, as data, in ``_COMMANDS``,
and two readers read them.  A query in its plain form is read by
``_strict``: the command, options by their exact long names (``--depth 3``,
``--from=-1``), at most one ``--`` and exactly the positionals; it gives
the namespace argparse gives.  Anything else (help, an abbreviation, a
separate value that starts with a dash, no command or an unknown one, a
missing or extra argument, a value argparse refuses) goes to the full
parser (``build_parser``), which prints argparse's own usage, help and
errors.  argparse, with the ``re``, ``gettext``, ``locale`` and ``shutil``
it loads, is imported only then.

``entry``, the console script and ``python -m prioritaire``, freezes the
garbage collector's view of the loaded package (``gc.freeze``) before it
runs the query: the collection at interpreter exit then skips the objects
of the import, and the query's own objects are collected as usual.
``main`` leaves the collector alone.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from . import chern
from . import decompose as decompose_mod
from . import exceptional, frontier, helix, render, surd
from .chern import ChernData, euler_pairing
from .errors import (
    InternalInconsistencyError,
    NoPrioritarySheafError,
    NotCoveredError,
    ParseError,
)
from .render import MAX_TILE_SAMPLES
from .surd import MAX_DIGITS

_EPILOG = (
    "negative values start with a dash; insert -- before the positional "
    "arguments, e.g. %(prog)s -- -1/2"
)


def _rational(n: int, d: int, digits: int) -> dict:
    """The exact value n/d, d > 0, in any terms, and its decimal."""
    return {"exact": surd._ratio_text(n, d), "approx": surd._rational_decimal(n, d, digits)}


def _surd(p: int, q: int, rad: int, m: int, digits: int) -> dict:
    """The exact value (p + q sqrt(rad))/m, m > 0 and rad not a square, and
    its decimal: a rational when q = 0, as its ``QuadSurd`` normalizes."""
    if q == 0:
        return _rational(p, m, digits)
    return {"exact": surd._surd_text(p, q, rad, m), "approx": surd._surd_decimal(p, q, rad, m, digits)}


def _exact_text(e: dict) -> str:
    """A ``_rational`` or ``_surd`` value as text: its decimal follows unless it is an integer."""
    return f"{e['exact']} (~ {e['approx']})" if "sqrt" in e["exact"] or "/" in e["exact"] else e["exact"]


def _invariants(d: ChernData, **record) -> dict:
    """``record`` with rank, c1, c2, slope c1/r and discriminant D/(2r^2) of
    d (``frontier._disc_num``): the one record of the invariants of a bundle
    or a summand."""
    r, c1, c2 = d.rank, d.c1, d.c2
    slope, delta = surd._ratio_text(c1, r), surd._ratio_text(frontier._disc_num(r, c1, c2), 2 * r * r)
    return dict(record, rank=r, c1=c1, c2=c2, slope=slope, delta=delta)


def _bundle_record(f: exceptional.ExceptionalBundle) -> dict:
    """The invariants of f, whose discriminant is (r^2 - 1)/(2 r^2)."""
    return _invariants(f.chern, label=f.label())


def _emit_json(payload: dict) -> None:
    import json  # here, not at the top: most commands print text

    print(json.dumps(payload, sort_keys=True, indent=2))


def _lift_digit_limit() -> None:
    """Let answers print integers of any length; ``main`` restores the limit."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def build_parser():
    """The full parser: the top level and one subparser per command, read
    from ``_COMMANDS``.  argparse is imported here, for a query ``_strict``
    refuses."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse with usage failures mapped to exit code 1, and a help
        screen written through and flushed, so that a failed write raises
        for ``main`` to report, where argparse itself would drop it."""

        def error(self, message: str):  # noqa: D102 - argparse hook
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

        def print_help(self, file=None):  # noqa: D102 - argparse hook
            print(self.format_help(), end="", file=file, flush=True)

    parser = _Parser(
        prog="prioritaire",
        description="existence frontiers and generic splittings on the projective plane",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, epilog, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_, epilog=epilog)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def _value(kwargs: dict, text: str):
    """text through the argument's type; ValueError unless one of its choices."""
    value = kwargs.get("type", str)(text)
    if value not in kwargs.get("choices", (value,)):
        raise ValueError(text)
    return value


def _strict(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of ``build_parser().parse_args(argv)`` for a query in its
    plain form, or None.

    The plain form is the command, then options by their exact long names,
    as ``--name=value`` or ``--name value`` with a value that does not start
    with a dash, then at most one ``--`` and exactly the command's
    positionals.  A flag takes no value, a required option is given, an
    empty ``=`` value is refused, and every value passes its type and
    choices.  What this refuses (help, an abbreviation, ``--depth -3``, a
    second ``--``, a missing or extra argument, a value argparse would
    refuse) is for argparse to read or to refuse in its own words.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, _, handler, arguments = _COMMANDS[argv[0]]
    options = {name: kwargs for name, kwargs in arguments if name.startswith("-")}
    positionals = [(name, kwargs) for name, kwargs in arguments if not name.startswith("-")]
    found, i = {}, 1  # values by flag or name
    try:
        while i < len(argv) and argv[i].startswith("-") and argv[i] != "--":
            name, eq, text = argv[i].partition("=")
            kwargs, i = options[name], i + 1
            if kwargs.get("action") == "store_true":
                if eq:
                    return None
                found[name] = True
                continue
            if not eq:
                if i == len(argv) or argv[i].startswith("-"):
                    return None
                text, i = argv[i], i + 1
            elif not text:
                return None
            found[name] = _value(kwargs, text)
        dashed = i < len(argv) and argv[i] == "--"
        rest = argv[i + dashed :]
        # After a --, a second one; without one, a dash, which argparse may
        # read as an option or as a negative number.
        refused = ("--" in rest or not rest) if dashed else any(t.startswith("-") for t in rest)
        if refused or len(rest) != len(positionals):
            return None
        for (name, kwargs), text in zip(positionals, rest):
            found[name] = _value(kwargs, text)
    except (KeyError, ValueError):  # an unknown option, a refused value
        return None
    values = {"command": argv[0], "handler": handler}
    for name, kwargs in arguments:
        if kwargs.get("required") and name not in found:
            return None
        # argparse's dest and default: the name without its leading dashes,
        # with - as _; False for a flag.
        default = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        values[kwargs.get("dest", name.lstrip("-").replace("-", "_"))] = found.get(name, default)
    return SimpleNamespace(**values)


def _parse(argv: list[str] | None):
    """``build_parser().parse_args(argv)``: read by ``_strict`` when it can,
    so that a plain query imports no argparse, and by argparse otherwise."""
    argv = sys.argv[1:] if argv is None else argv
    args = _strict(argv)
    return build_parser().parse_args(argv) if args is None else args


def _cmd_slope(args) -> int:
    if args.invert:
        n, m = surd._parse_ratio(args.value)
        f, d = exceptional._lattice(m, n)
    else:
        d = exceptional.parse_dyadic(args.value)
        f = exceptional.from_dyadic(d)
    _lift_digit_limit()
    # x_f = (3r - sqrt(9r^2 - 4))/(2r), and the interval c1/r -+ x_f.
    r, c1, digits = f.rank, f.c1, args.digits
    rad = 9 * r * r - 4
    payload = _bundle_record(f)
    payload["dyadic"] = str(d)
    payload["x_f"] = _surd(3 * r, -1, rad, 2 * r, digits)
    payload["interval"] = {
        "left": _surd(2 * c1 - 3 * r, 1, rad, 2 * r, digits),
        "right": _surd(2 * c1 + 3 * r, -1, rad, 2 * r, digits),
    }
    if args.json:
        _emit_json(payload)
    else:
        p, interval = payload, payload["interval"]
        print(f"bundle   {p['label']}")
        print(f"dyadic   {p['dyadic']}")
        print(f"slope    {p['slope']}")
        print(f"rank     {p['rank']}  c1 {p['c1']}  c2 {p['c2']}  delta {p['delta']}")
        print(f"x_f      {_exact_text(p['x_f'])}")
        print(f"interval ({_exact_text(interval['left'])}, {_exact_text(interval['right'])})")
    return 0


def _cmd_frontier(args) -> int:
    num, den = surd._parse_ratio(args.mu)
    _lift_digit_limit()
    # The slope translated into (-1, 0], where delta, delta_prime and the
    # prioritary bound -n(n + den)/(2 den^2) are read (all have period 1).
    n, digits = -(-num % den), args.digits
    owner = exceptional._owners([(n, den)])[0]
    big_n, rational, k, m = frontier._conic_terms(n, den, owner)
    r = owner.rank
    payload = {
        "mu": surd._ratio_text(num, den),
        "delta": _rational(big_n, 2 * m * m, digits),
        # N'/(2m^2) + (k/(2mr)) sqrt(9r^2 - 4), over the one denominator 2m^2 r.
        "delta_prime": _surd(rational * r, k * m, 9 * r * r - 4, 2 * m * m * r, digits),
        "owner": _bundle_record(owner),
        "prioritary_bound": _rational(-n * (n + den), 2 * den * den, digits),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"mu               {payload['mu']}")
        print(f"delta            {_exact_text(payload['delta'])}")
        print(f"delta_prime      {_exact_text(payload['delta_prime'])}")
        print(f"owner            {payload['owner']['label']}")
        print(f"prioritary_bound {_exact_text(payload['prioritary_bound'])}")
    return 0


def _classify_payload(
    cd: ChernData, norm: ChernData, k: int, region: frontier.Region, digits: int
) -> dict:
    r, c1, c2 = norm.rank, norm.c1, norm.c2
    payload = {
        "input": {"rank": cd.rank, "c1": cd.c1, "c2": cd.c2},
        "normalized": {"rank": r, "c1": c1, "c2": c2, "twist": k},
        "mu": _rational(c1, r, digits),
        "delta": _rational(frontier._disc_num(r, c1, c2), 2 * r * r, digits),
        "region": region.tag.value,
    }
    if region.witness is not None:
        payload["witness"] = _bundle_record(region.witness)
    return payload


def _cmd_classify(args) -> int:
    cd = ChernData(args.rank, args.c1, args.c2)
    _lift_digit_limit()
    norm, k = chern.normalize(cd)
    region = frontier._classify_normalized(norm)
    payload = _classify_payload(cd, norm, k, region, args.digits)
    if args.json:
        _emit_json(payload)
    else:
        print(f"region     {payload['region']}")
        if region.witness is not None:
            print(f"witness    {payload['witness']['label']}")
        print(f"normalized ({norm.rank},{norm.c1},{norm.c2}) twist {k}")
        print(f"mu         {_exact_text(payload['mu'])}")
        print(f"delta      {_exact_text(payload['delta'])}")
    return 0


def _summand_record(s: decompose_mod.Summand) -> dict:
    return _invariants(s.chern_data(), kind=s.kind, label=s.label(), multiplicity=s.multiplicity)


def _cmd_decompose(args) -> int:
    cd = ChernData(args.rank, args.c1, args.c2)
    _lift_digit_limit()
    try:
        result = decompose_mod.generic_prioritary(cd)
    except NoPrioritarySheafError as exc:
        if args.json:
            _emit_json(
                {
                    "input": {"rank": cd.rank, "c1": cd.c1, "c2": cd.c2},
                    "region": frontier.RegionTag.NO_PRIORITARY.value,
                    "summands": None,
                    "message": str(exc),
                }
            )
        else:
            print(f"region   {frontier.RegionTag.NO_PRIORITARY.value}")
            print(f"answer   {exc}")
        return 0
    payload = {
        "input": {"rank": cd.rank, "c1": cd.c1, "c2": cd.c2},
        "region": result.region.tag.value,
        "twist": result.twist,
        "verification": result.verification,
        "summands": None
        if result.summands is None
        else [_summand_record(s) for s in result.summands],
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"region   {result.region.tag.value}")
        if result.summands is None:
            print("summands none (generic sheaf does not split)")
        else:
            for r in payload["summands"]:
                print(
                    f"summand  {r['multiplicity']} x {r['label']}"
                    f"  [rank {r['rank']} c1 {r['c1']} c2 {r['c2']}]"
                )
            print("verified character balance exact")
    return 0


def _cmd_series(args) -> int:
    d = exceptional.parse_dyadic(args.dyadic)
    if args.n_min > args.n_max:
        raise ParseError(f"--from {args.n_min} exceeds n_max {args.n_max}")
    f, bracket = exceptional._from_dyadic(d)
    _lift_digit_limit()
    # From the bracket the parse walked to last: one walk, bounded by the dyadic's level.
    members = helix._series(f, bracket, args.n_min, args.n_max)
    if args.right:
        members = [g.twist(3) for g in members]
    records = []
    for n, g in zip(range(args.n_min, args.n_max + 1), members):
        # The defining vanishing: left members are right-orthogonal to f,
        # right members left-orthogonal.
        first, second = (g, f) if args.right else (f, g)
        chi = euler_pairing(first.chern, second.chern)
        records.append(dict(_bundle_record(g), n=n, chi=chi))
    if args.json:
        _emit_json(
            {
                "source": _bundle_record(f),
                "side": "right" if args.right else "left",
                "members": records,
            }
        )
    else:
        print(f"source {f.label()}  side {'right' if args.right else 'left'}")
        for r in records:
            print(
                f"n {r['n']:>3}  rank {r['rank']}  c1 {r['c1']}  c2 {r['c2']}"
                f"  slope {r['slope']}  delta {r['delta']}  chi {r['chi']}"
            )
    return 0


def _cmd_tile(args) -> int:
    if args.depth > helix.MAX_TILE_DEPTH:
        raise ParseError(f"tile depth {args.depth} exceeds the maximum {helix.MAX_TILE_DEPTH}")
    if args.samples > MAX_TILE_SAMPLES:
        raise ParseError(f"tile samples {args.samples} exceeds the maximum {MAX_TILE_SAMPLES}")
    svg = args.format == "svg"
    render._check(args.depth, args.samples if svg else 1)
    # Opened first, so that an unwritable path costs no rendering; each line
    # is written as it is made, so the document is never held whole: only
    # the kept tile text of ``render``, at most 420 kB, and the slots of its
    # deepest level.  A failed open or write is reported by ``main``.
    fh = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8", newline="")
    try:
        fh.writelines(render._svg_lines(args.depth, args.samples) if svg else render._csv_lines(args.depth))
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def _cmd_selfcheck(args) -> int:
    if args.depth > helix.MAX_TILE_DEPTH:
        raise ParseError(f"selfcheck depth {args.depth} exceeds the maximum {helix.MAX_TILE_DEPTH}")
    from . import selfcheck  # here, not at the top: it loads fractions and decimal

    results = selfcheck.run_selfcheck(args.depth)
    ok = True
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{status:4s} {r.name}: {r.detail}")
        ok = ok and r.ok
    return 0 if ok else 2


# The arguments of each subcommand, as (flag or name, add_argument keywords)
# in the order argparse lists them, and first those several share.
_JSON = ("--json", dict(action="store_true", help="emit a JSON document"))
_DIGITS = (
    "--digits",
    dict(
        type=int,
        default=12,
        metavar="N",
        help=f"significant digits of decimal approximations (default 12, at most {MAX_DIGITS})",
    ),
)
_INVARIANTS = (
    ("rank", dict(type=int, help="rank, a positive integer")),
    ("c1", dict(type=int, help="first Chern class")),
    ("c2", dict(type=int, help="second Chern class")),
)
_SLOPE_ARGS = (
    ("value", dict(help='dyadic like "-1/4" or "-3/2^2"; with --invert a rational slope')),
    ("--invert", dict(action="store_true", help="treat VALUE as an exceptional slope")),
    _JSON,
    _DIGITS,
)
_FRONTIER_ARGS = (("mu", dict(help='rational slope like "-1/3"')), _JSON, _DIGITS)
_CLASSIFY_ARGS = (*_INVARIANTS, _JSON, _DIGITS)
_DECOMPOSE_ARGS = (*_INVARIANTS, _JSON)
_SERIES_ARGS = (
    ("dyadic", dict(help='dyadic locating the bundle, like "0" or "-1/2"')),
    ("n_max", dict(type=int, help="largest index n; members run from --from to n")),
    ("--from", dict(dest="n_min", type=int, default=0, metavar="N")),
    ("--right", dict(action="store_true", help="the twisted-by-3 mirror series")),
    _JSON,
)
_TILE_ARGS = (
    (
        "--depth",
        dict(type=int, required=True, metavar="N", help=f"deepest tile level, at most {helix.MAX_TILE_DEPTH}"),
    ),
    ("--format", dict(choices=("svg", "csv"), default="svg")),
    (
        "--samples",
        dict(
            type=int,
            default=64,
            metavar="K",
            help=f"8K + 1 points per frontier curve (svg), at most {MAX_TILE_SAMPLES}",
        ),
    ),
    ("--out", dict(default="-", metavar="PATH", help="output file, - for stdout")),
)
_SELFCHECK_ARGS = (("--depth", dict(type=int, default=4, metavar="N")),)

# Each subcommand, in listing order: its help in the command list, its
# epilog, its handler and its arguments.  ``_strict`` and ``build_parser``
# both read this table.
_COMMANDS = {
    "slope": ("dyadic to exceptional bundle, or back with --invert", _EPILOG, _cmd_slope, _SLOPE_ARGS),
    "frontier": ("frontier values at a rational slope", _EPILOG, _cmd_frontier, _FRONTIER_ARGS),
    "classify": ("region of integral invariants", _EPILOG, _cmd_classify, _CLASSIFY_ARGS),
    "decompose": ("splitting of the generic prioritary sheaf", _EPILOG, _cmd_decompose, _DECOMPOSE_ARGS),
    "series": ("orthogonal series attached to an exceptional bundle", _EPILOG, _cmd_series, _SERIES_ARGS),
    "tile": ("render the triangle tiling", _EPILOG, _cmd_tile, _TILE_ARGS),
    "selfcheck": ("run the built-in consistency checks", None, _cmd_selfcheck, _SELFCHECK_ARGS),
}


def main(argv: list[str] | None = None) -> int:
    args = None
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        args = _parse(argv)
        # Usage errors, refused before the command walks the lattice, which
        # a deep argument makes slow, or rounds a decimal of unbounded length.
        surd._check_digits(getattr(args, "digits", 1))
        code = args.handler(args)
        sys.stdout.flush()  # so that a failed write to stdout is reported below
        return code
    except ValueError as exc:  # ParseError included
        print(f"prioritaire: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the answer could not be written, to --out or to stdout
        if not isinstance(exc, BrokenPipeError):  # the reader went away: quietly
            where = "stdout" if getattr(args, "out", "-") == "-" else args.out
            print(f"prioritaire: error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        return 1
    except (InternalInconsistencyError, NotCoveredError) as exc:
        print(f"prioritaire: inconsistency: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def entry() -> None:
    # The package is loaded: freeze its objects, so that the collection at
    # exit skips them; what the query makes is collected as usual.
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # A write to stdout failed, and it still holds what it could not
        # write.  Point it at devnull so that the flush at exit does not fail
        # again, as the Python documentation of SIGPIPE recommends.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
