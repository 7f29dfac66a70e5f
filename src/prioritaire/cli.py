"""Command line interface.

Each subcommand answers one question.  The default output is a short
human-readable report; ``--json`` switches to a JSON document with
sorted keys, so machine output is deterministic.  Exact values are
printed as rational or surd strings; decimal approximations are
display-only, rounded once from the exact value and sized by ``--digits``,
at most ``surd.MAX_DIGITS``: their cost grows faster than their count.

Exit codes: 0 when the question was answered (including "no prioritary
sheaf exists"), 1 for usage errors, 2 when an internal consistency
check failed or a depth cap was exhausted.  When the reader of stdout
goes away early (``prioritaire series -- 0 3000 | head -1``) the
command stops quietly with exit code 1.

Answers print integers of any length: once its arguments are parsed, a
command lifts Python's limit on int-to-str digits (3.10.7 and later),
and ``main`` puts the limit back.  Parsing keeps the limit, which bounds
the work of converting a huge argument string.

Negative arguments start with a dash, so insert ``--`` before the
positionals: ``prioritaire frontier -- -1/2``.

A query that names its command first is parsed by that command's parser
alone (``_parse``); no argument, a leading option, an unknown command
and arguments left over go to the full parser (``build_parser``), which
prints the top-level usage, help and errors.  The help formatter sizes
itself to the terminal only when it prints, so a query that answers
imports no ``shutil``.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import chern
from . import decompose as decompose_mod
from . import exceptional, frontier, helix, render, selfcheck
from .chern import ChernData, euler_pairing
from .errors import (
    DepthExhaustedError,
    InternalInconsistencyError,
    NoPrioritarySheafError,
    NotCoveredError,
    ParseError,
)
from .surd import MAX_DIGITS, QuadSurd, decimal_str, format_rational, parse_rational

MAX_TILE_SAMPLES = 256

_EPILOG = (
    "negative values start with a dash; insert -- before the positional "
    "arguments, e.g. %(prog)s -- -1/2"
)


class _Formatter(argparse.HelpFormatter):
    """A help formatter that runs argparse's ``__init__`` only when it formats.

    argparse makes a formatter for each ``add_argument`` only to check the
    metavar, which reads no instance attribute of the formatter; the base
    ``__init__`` imports ``shutil`` for the terminal width.  Here it runs,
    with the same arguments, on the first attribute read, so usage, help
    and errors still follow ``COLUMNS`` or the terminal."""

    def __init__(self, *args, **kwargs) -> None:
        self._deferred = args, kwargs

    def __getattr__(self, name: str):
        # Reached only for an attribute not set yet: initialise once, then retry.
        if "_deferred" not in vars(self):
            raise AttributeError(name)
        args, kwargs = vars(self).pop("_deferred")
        super().__init__(*args, **kwargs)
        return getattr(self, name)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def __init__(self, **kwargs) -> None:
        super().__init__(formatter_class=_Formatter, **kwargs)

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _exact(value, digits: int) -> dict:
    return {"exact": str(value), "approx": decimal_str(value, digits)}


def _exact_text(e: dict) -> str:
    """An ``_exact`` value as text: its decimal follows unless it is an integer."""
    return f"{e['exact']} (~ {e['approx']})" if "sqrt" in e["exact"] or "/" in e["exact"] else e["exact"]


def _invariants(d: ChernData, delta: Fraction, **record) -> dict:
    """``record`` with rank, c1, c2, slope of d and its discriminant delta:
    the one record of the invariants of a bundle or a summand."""
    slope, delta = format_rational(d.slope()), format_rational(delta)
    return dict(record, rank=d.rank, c1=d.c1, c2=d.c2, slope=slope, delta=delta)


def _bundle_record(f: exceptional.ExceptionalBundle) -> dict:
    return _invariants(f.chern, f.delta, label=f.label())


def _emit_json(payload: dict) -> None:
    import json  # here, not at the top: most commands print text

    print(json.dumps(payload, sort_keys=True, indent=2))


def _lift_digit_limit() -> None:
    """Let answers print integers of any length; ``main`` restores the limit."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _output_args(p: argparse.ArgumentParser, digits: bool = True) -> None:
    """--json, and --digits where the command prints decimals."""
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    if digits:
        p.add_argument(
            "--digits",
            type=int,
            default=12,
            metavar="N",
            help=f"significant digits of decimal approximations (default 12, at most {MAX_DIGITS})",
        )


def _depth_arg(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="N",
        help=f"{what} (default: bounded by the input)",
    )


def _invariant_args(p: argparse.ArgumentParser, digits: bool = True) -> None:
    """rank, c1, c2, --depth and the output options of classify and decompose."""
    p.add_argument("rank", type=int, help="rank, a positive integer")
    p.add_argument("c1", type=int, help="first Chern class")
    p.add_argument("c2", type=int, help="second Chern class")
    _depth_arg(p, "descent cap")
    _output_args(p, digits)


def _slope_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("value", help='dyadic like "-1/4" or "-3/2^2"; with --invert a rational slope')
    p.add_argument("--invert", action="store_true", help="treat VALUE as an exceptional slope")
    _depth_arg(p, "descent cap for --invert")
    _output_args(p)
    p.set_defaults(handler=_cmd_slope)


def _frontier_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("mu", help='rational slope like "-1/3"')
    _depth_arg(p, "descent cap")
    _output_args(p)
    p.set_defaults(handler=_cmd_frontier)


def _classify_args(p: argparse.ArgumentParser) -> None:
    _invariant_args(p)
    p.set_defaults(handler=_cmd_classify)


def _decompose_args(p: argparse.ArgumentParser) -> None:
    _invariant_args(p, digits=False)
    p.set_defaults(handler=_cmd_decompose)


def _series_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("dyadic", help='dyadic locating the bundle, like "0" or "-1/2"')
    p.add_argument("n_max", type=int, help="largest index n; members run from --from to n")
    p.add_argument("--from", dest="n_min", type=int, default=0, metavar="N")
    p.add_argument("--right", action="store_true", help="the twisted-by-3 mirror series")
    _output_args(p, digits=False)
    p.set_defaults(handler=_cmd_series)


def _tile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--depth",
        type=int,
        required=True,
        metavar="N",
        help=f"deepest tile level, at most {helix.MAX_TILE_DEPTH}",
    )
    p.add_argument("--format", choices=("svg", "csv"), default="svg")
    p.add_argument(
        "--samples",
        type=int,
        default=64,
        metavar="K",
        help=f"8K + 1 points per frontier curve (svg), at most {MAX_TILE_SAMPLES}",
    )
    p.add_argument("--out", default="-", metavar="PATH", help="output file, - for stdout")
    p.set_defaults(handler=_cmd_tile)


def _selfcheck_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=4, metavar="N")
    p.set_defaults(handler=_cmd_selfcheck)


# Each subcommand, in listing order: its help in the command list, its
# epilog and the function that adds its arguments.
_COMMANDS = {
    "slope": ("dyadic to exceptional bundle, or back with --invert", _EPILOG, _slope_args),
    "frontier": ("frontier values at a rational slope", _EPILOG, _frontier_args),
    "classify": ("region of integral invariants", _EPILOG, _classify_args),
    "decompose": ("splitting of the generic prioritary sheaf", _EPILOG, _decompose_args),
    "series": ("orthogonal series attached to an exceptional bundle", _EPILOG, _series_args),
    "tile": ("render the triangle tiling", _EPILOG, _tile_args),
    "selfcheck": ("run the built-in consistency checks", None, _selfcheck_args),
}


def build_parser() -> _Parser:
    """The full parser: the top level and one subparser per command."""
    parser = _Parser(
        prog="prioritaire",
        description="existence frontiers and generic splittings on the projective plane",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, epilog, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_, epilog=epilog))
    return parser


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, through the named command's parser alone.

    argparse hands a subparser every argument after the command name,
    ``--`` included, and parses them with the subparser's own
    ``parse_known_args``, whose errors print the subparser's usage: a
    standalone parser of the same prog gives the same namespace and the
    same output.  Anything else (no command first, or arguments left
    over, which the top level refuses) goes to the full parser, which
    prints the top-level usage, help and errors.
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        _, epilog, add_args = _COMMANDS[argv[0]]
        parser = _Parser(prog=f"prioritaire {argv[0]}", epilog=epilog)
        add_args(parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def _cmd_slope(args: argparse.Namespace) -> int:
    if args.invert:
        slope = parse_rational(args.value)
        f, d = exceptional._lattice(slope.denominator, slope.numerator, args.depth)
    else:
        d = exceptional.parse_dyadic(args.value)
        f = exceptional.from_dyadic(d)
    _lift_digit_limit()
    hw, mu = f.half_width(), QuadSurd.from_rational(f.slope)
    payload = _bundle_record(f)
    payload["dyadic"] = str(d)
    payload["x_f"] = _exact(hw, args.digits)
    payload["interval"] = {
        "left": _exact(mu - hw, args.digits),
        "right": _exact(mu + hw, args.digits),
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


def _cmd_frontier(args: argparse.Namespace) -> int:
    mu = parse_rational(args.mu)
    _lift_digit_limit()
    owner, d, dp = frontier.delta_many([mu], args.depth)[0]
    payload = {
        "mu": format_rational(mu),
        "delta": _exact(d, args.digits),
        "delta_prime": _exact(dp, args.digits),
        "owner": _bundle_record(owner),
        "prioritary_bound": _exact(frontier._prioritary_bound(mu), args.digits),
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
    payload = {
        "input": {"rank": cd.rank, "c1": cd.c1, "c2": cd.c2},
        "normalized": {"rank": norm.rank, "c1": norm.c1, "c2": norm.c2, "twist": k},
        "mu": _exact(norm.slope(), digits),
        "delta": _exact(norm.discriminant(), digits),
        "region": region.tag.value,
    }
    if region.witness is not None:
        payload["witness"] = _bundle_record(region.witness)
    return payload


def _cmd_classify(args: argparse.Namespace) -> int:
    cd = ChernData(args.rank, args.c1, args.c2)
    _lift_digit_limit()
    norm, k = chern.normalize(cd)
    region = frontier._classify_normalized(norm, exceptional._cap(args.depth))
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
    d = s.chern_data()
    return _invariants(d, d.discriminant(), kind=s.kind, label=s.label(), multiplicity=s.multiplicity)


def _cmd_decompose(args: argparse.Namespace) -> int:
    cd = ChernData(args.rank, args.c1, args.c2)
    _lift_digit_limit()
    try:
        result = decompose_mod.generic_prioritary(cd, args.depth)
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


def _cmd_series(args: argparse.Namespace) -> int:
    d = exceptional.parse_dyadic(args.dyadic)
    if args.n_min > args.n_max:
        raise ParseError(f"--from {args.n_min} exceeds n_max {args.n_max}")
    f, bracket = exceptional._from_dyadic(d)
    _lift_digit_limit()
    # From the bracket the parse composed last: one walk, which no depth cap bounds.
    members = helix._series(f, bracket, args.n_min, args.n_max)
    if args.right:
        members = [g.twist(3) for g in members]
    records = []
    for n, g in zip(range(args.n_min, args.n_max + 1), members):
        # The defining vanishing: left members are right-orthogonal to f,
        # right members left-orthogonal.
        chi = (
            euler_pairing(g.chern, f.chern)
            if args.right
            else euler_pairing(f.chern, g.chern)
        )
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


def _cmd_tile(args: argparse.Namespace) -> int:
    if args.depth > helix.MAX_TILE_DEPTH:
        raise ParseError(f"tile depth {args.depth} exceeds the maximum {helix.MAX_TILE_DEPTH}")
    if args.samples > MAX_TILE_SAMPLES:
        raise ParseError(f"tile samples {args.samples} exceeds the maximum {MAX_TILE_SAMPLES}")
    svg = args.format == "svg"
    render._check(args.depth, args.samples if svg else 1)
    if args.out == "-":
        fh = sys.stdout
    else:
        try:
            fh = open(args.out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc.strerror}") from exc
    # Opened first, so that an unwritable path costs no rendering; each line
    # is written as it is made, so the document is never held whole.
    try:
        if svg:
            fh.writelines(render._svg_lines(args.depth, args.samples))
        else:
            fh.writelines(render._csv_lines(args.depth))
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    if args.depth > helix.MAX_TILE_DEPTH:
        raise ParseError(f"selfcheck depth {args.depth} exceeds the maximum {helix.MAX_TILE_DEPTH}")
    results = selfcheck.run_selfcheck(args.depth)
    ok = True
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{status:4s} {r.name}: {r.detail}")
        ok = ok and r.ok
    return 0 if ok else 2


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        # Usage errors, refused before the command walks the lattice, which
        # a deep argument makes slow, or rounds a decimal of unbounded length.
        digits = getattr(args, "digits", 1)
        if digits < 1:
            raise ParseError("digits must be >= 1")
        if digits > MAX_DIGITS:
            raise ParseError(f"digits must be <= {MAX_DIGITS}")
        return args.handler(args)
    except ValueError as exc:  # ParseError included
        print(f"prioritaire: error: {exc}", file=sys.stderr)
        return 1
    except DepthExhaustedError as exc:
        where = "" if exc.bracket is None else " (bracket {} .. {})".format(*exc.bracket)
        print(f"prioritaire: depth exhausted: {exc}{where}", file=sys.stderr)
        return 2
    except (InternalInconsistencyError, NotCoveredError) as exc:
        print(f"prioritaire: inconsistency: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush
        # at exit does not fail again, and exit 1 without a traceback, as
        # the Python documentation of SIGPIPE recommends.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
