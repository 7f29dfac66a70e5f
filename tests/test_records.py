"""The package's value records and the cost of importing the package.

Every record is immutable, compares and hashes by value (except
``Decomposition``, which compares by identity), prints the same repr a
frozen dataclass printed, and survives pickling.  Importing the package
or its command line must not pull in ``dataclasses``, ``typing``,
``inspect``, ``json``, ``fractions`` or ``decimal``, and no query but
``selfcheck`` loads the last two.  ``entry`` freezes the collector's view
of the loaded package; ``main`` does not.
"""

import gc
import itertools
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import prioritaire
from prioritaire.chern import ChernCharacter, ChernData
from prioritaire.decompose import (
    KIND_EXCEPTIONAL,
    KIND_GENERIC,
    KIND_POINT_EXT,
    Decomposition,
    PresentationReport,
    Summand,
    generic_prioritary,
)
from prioritaire.exceptional import Dyadic, ExceptionalBundle, _mutation, from_slope
from prioritaire.frontier import Region, RegionTag
from prioritaire.helix import ExtDims, Triad, _kept, ext_dims, root
from prioritaire.selfcheck import CheckResult
from prioritaire.surd import QuadSurd


def _records():
    """One instance of each record, built twice so each pair is equal
    by value and distinct in identity."""

    def build():
        f = from_slope(Fraction(-2, 5))
        t = root()
        return [
            ChernCharacter(2, 0, Fraction(-1)),
            ChernData(8, -4, 11),
            QuadSurd(Fraction(3, 2), Fraction(-1, 10), 221),
            Dyadic(-1, 2),
            ExceptionalBundle(f.rank, f.c1),
            Region(RegionTag.ABOVE_DELTA_PRIME, f),
            t,
            ExtDims(1, 0, 2),
            Summand(KIND_EXCEPTIONAL, 2, bundle=f),
            Decomposition(ChernData(5, -2, 4), 0, Region(RegionTag.SEMISTABLE_EXCEPTIONAL, f), None),
            PresentationReport(ChernData(5, -2, 4), f, 1, 0, 0, f, f),
            CheckResult("name", True, "detail"),
        ]

    return list(zip(build(), build()))


_PAIRS = _records()
_IDS = [type(a).__name__ for a, _ in _PAIRS]


def test_every_record_is_covered():
    assert len(set(_IDS)) == len(_IDS) == 12


@pytest.mark.parametrize("a, b", _PAIRS, ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(a, b):
    field = a._fields[0]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, field) is before


@pytest.mark.parametrize("a, b", _PAIRS, ids=_IDS)
def test_equality_and_hash(a, b):
    assert a is not b
    if isinstance(a, Decomposition):
        assert a != b and a == a
        assert len({a, b}) == 2
    else:
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert a != object()


@pytest.mark.parametrize("a, b", _PAIRS, ids=_IDS)
def test_pickle_round_trip(a, b):
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and repr(copy) == repr(a)
    if not isinstance(a, Decomposition):
        assert copy == a


def test_records_differ_by_any_field():
    assert ChernData(8, -4, 11) != ChernData(8, -4, 12)
    assert Dyadic(-1, 2) != Dyadic(1, 2)
    assert ExtDims(1, 0, 2) != ExtDims(1, 0, 0)
    # Equal field values in different record types are not equal.
    assert ChernData(2, 0, 1) != ChernCharacter(2, 0, 1)


def test_repr_matches_the_dataclass_text():
    assert repr(ChernData(8, -4, 11)) == "ChernData(rank=8, c1=-4, c2=11)"
    assert repr(Dyadic(-2, 3)) == "Dyadic(p=-1, q=2)"
    assert repr(from_slope(Fraction(-2, 5))) == "ExceptionalBundle(rank=5, c1=-2)"
    assert repr(Region(RegionTag.NO_PRIORITARY)) == (
        "Region(tag=<RegionTag.NO_PRIORITARY: 'no_prioritary'>, witness=None)"
    )
    assert repr(ExtDims(0, 0, 9)) == "ExtDims(hom=0, ext1=0, ext2=9)"


def _built_from_distinct_arguments():
    """(record type, arguments) for each record, the arguments pairwise
    distinct where their types allow, so that a setter bound to the wrong
    slot reads back another argument."""
    e, f, g = (from_slope(Fraction(*s)) for s in ((-1, 2), (-2, 5), (0, 1)))
    t = _kept(2, 1)
    cd = ChernData(5, -2, 4)
    region = Region(RegionTag.ABOVE_DELTA_PRIME, f)
    return [
        (ChernCharacter, (3, 1, Fraction(5, 2))),
        (ChernData, (8, -4, 11)),
        (QuadSurd, (Fraction(3, 2), Fraction(-1, 10), 221)),
        (Dyadic, (-3, 2)),
        (ExceptionalBundle, (5, -2)),
        (Region, (RegionTag.ABOVE_DELTA_PRIME, f)),
        (Triad, (t.e, t.f, t.g, 2, 1)),
        (ExtDims, (3, 1, 2)),
        (Summand, (KIND_EXCEPTIONAL, 2, f, None, -1)),
        (Decomposition, (cd, 1, region, (Summand(KIND_GENERIC, 1, data=cd),), {"p": 1})),
        (PresentationReport, (cd, f, 1, 2, 3, e, g)),
        (CheckResult, ("name", True, "detail")),
    ]


def test_each_field_reads_back_its_own_argument():
    cases = _built_from_distinct_arguments()
    assert {cls for cls, _ in cases} == {type(a) for a, _ in _PAIRS}
    for cls, args in cases:
        for a, b in itertools.combinations(args, 2):
            assert type(a) is not type(b) or a != b, (cls, a, b)
        record = cls(*args)
        assert len(record._fields) == len(args)
        for name, arg in zip(record._fields, args):
            value = getattr(record, name)
            assert type(value) is type(arg) and value == arg, (cls, name, value, arg)
    # The derived slots hold what their fields derive.
    assert ChernData(8, -4, 11)._vec == (8, -4, 16 - 22)
    for f in (ExceptionalBundle(5, -2), from_slope(Fraction(-2, 5))):
        assert (f.rank, f.c1, f.chern) == (5, -2, ChernData(5, -2, 4))
    t = Triad(*_built_from_distinct_arguments()[6][1])
    assert t.h == _mutation(t.g, t.e, t.f) and t.h not in (t.e, t.f, t.g)


class _Plain(ChernData):
    """A subclass that declares nothing."""


class _Tagged(ChernData):
    """A subclass with a slot of its own, set through its own setters."""

    __slots__ = ("tag",)

    def __init__(self, rank: int, c1: int, c2: int, tag: str) -> None:
        super().__init__(rank, c1, c2)
        (set_tag,) = __class__._setters
        set_tag(self, tag)


def test_subclasses_keep_the_parent_setters():
    # A subclass's fields are its parent's fields, then its own slots: a
    # derived slot such as ChernData._vec stays out of them, so the repr
    # and pickling, which rebuilds through __init__, keep working.
    plain = _Plain(8, -4, 11)
    assert _Plain._setters == () and len(ChernData._setters) == 4
    assert (plain.rank, plain.c1, plain.c2, plain._vec) == (8, -4, 11, (8, -4, -6))
    assert repr(plain) == "_Plain(rank=8, c1=-4, c2=11)" and plain != ChernData(8, -4, 11)
    assert pickle.loads(pickle.dumps(plain)) == plain
    tagged = _Tagged(8, -4, 11, "t")
    assert (tagged.rank, tagged.c1, tagged.c2, tagged.tag) == (8, -4, 11, "t")
    assert repr(tagged) == "_Tagged(rank=8, c1=-4, c2=11, tag='t')"
    assert pickle.loads(pickle.dumps(tagged)) == tagged != _Tagged(8, -4, 11, "u")
    with pytest.raises(AttributeError):
        tagged.tag = "u"


def test_defaults():
    region = Region(RegionTag.NO_PRIORITARY)
    assert region.witness is None
    point = Summand(KIND_POINT_EXT, 1, twist=-2)
    assert (point.bundle, point.data, point.twist) == (None, None, -2)
    assert Summand(KIND_POINT_EXT, 1).twist == 0
    d1 = Decomposition(ChernData(1, 0, 0), 0, region, None)
    d2 = Decomposition(ChernData(1, 0, 0), 0, region, None)
    assert d1.verification == {} and d1.verification is not d2.verification


def test_summand_takes_exactly_the_payload_of_its_kind():
    f = from_slope(Fraction(-2, 5))
    cd = ChernData(5, -2, 4)
    for kind, payload in (
        (KIND_EXCEPTIONAL, {}),
        (KIND_EXCEPTIONAL, {"bundle": f, "data": cd}),
        (KIND_GENERIC, {"bundle": f}),
        (KIND_GENERIC, {}),
        (KIND_POINT_EXT, {"data": cd}),
        (KIND_POINT_EXT, {"bundle": f}),
    ):
        with pytest.raises(ValueError, match=f"^a {kind} summand needs"):
            Summand(kind, 1, **payload)
    assert Summand(KIND_GENERIC, 1, data=cd).label() == "generic(5,-2,4)"
    assert Summand(KIND_EXCEPTIONAL, 2, bundle=f).chern_data() is f.chern


def test_validation_in_init():
    with pytest.raises(ValueError):
        ChernData(0, 0, 1)
    with pytest.raises(ValueError):
        ChernCharacter(1, 0, Fraction(1, 3))
    with pytest.raises(ValueError):
        Dyadic(1, -1)
    with pytest.raises(ValueError):
        QuadSurd(1, 1, -2)
    with pytest.raises(ValueError):
        Summand(KIND_EXCEPTIONAL, 0)
    with pytest.raises(ValueError):
        Summand("no such kind", 1)
    # Normal forms are applied on construction.
    assert (Dyadic(12, 4).p, Dyadic(12, 4).q) == (3, 2)
    s = QuadSurd(1, 2, 9)
    assert (s.a, s.b, s.d) == (7, 0, 0)
    assert ChernCharacter(1, 0, 1).ch2 == Fraction(1)


def test_quad_surd_keeps_its_canonical_equality():
    # Different radicand presentations of the same value are equal.
    assert QuadSurd(0, 2, 2) == QuadSurd(0, 1, 8)
    assert hash(QuadSurd(0, 2, 2)) == hash(QuadSurd(0, 1, 8))
    assert QuadSurd(Fraction(1, 2), 0, 5) == Fraction(1, 2)
    assert QuadSurd(3, 0, 0) == 3


def test_bundle_chern_is_built_once():
    f = from_slope(Fraction(-2, 5))
    assert f.chern is f.chern
    assert f.chern == ChernData(5, -2, 4)
    assert "chern" not in f._fields and "chern" not in repr(f)


def test_decomposition_compares_by_identity():
    a = generic_prioritary(ChernData(8, -4, 11))
    b = generic_prioritary(ChernData(8, -4, 11))
    assert a != b and a == a
    assert a.summands == b.summands and a.region == b.region


def _child(probe: str) -> str:
    """The stdout of ``python -S -c probe`` with the package on the path."""
    src = str(Path(prioritaire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# argparse and what it loads: re, and gettext, which loads locale while a parser is built.
_PARSING = ("argparse", "re", "gettext", "locale")


def test_import_leaves_heavy_modules_out():
    heavy = ("dataclasses", "typing", "inspect", "json", "fractions", "decimal", *_PARSING)
    probe = f"import sys, prioritaire.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    assert _child(probe).strip() == ""


_QUERY_PROBE = """
import contextlib, io, sys
from prioritaire.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main({argv!r})
print("shutil" in sys.modules)
"""


def test_a_query_that_prints_no_help_leaves_shutil_out():
    # argparse imports shutil to size its help to the terminal: a help
    # screen pays for it, an answer in its plain form does not.
    assert _child(_QUERY_PROBE.format(argv=["decompose", "--json", "--", "8", "-4", "11"])) == "False\n"
    assert _child(_QUERY_PROBE.format(argv=["slope", "-h"])) == "True\n"


# Runs a query in-process and prints its exit code, then which of modules it loaded.
_LOADED_PROBE = """
import contextlib, io, sys
from prioritaire.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    with contextlib.suppress(SystemExit):
        code = main({argv!r})
print(code, *[m for m in {modules!r} if m in sys.modules])
"""


def _loaded(argv: list[str], modules: tuple) -> list[str]:
    """The exit code of ``main(argv)`` in a fresh child, then which of modules it loaded."""
    return _child(_LOADED_PROBE.format(argv=argv, modules=modules)).split()


# One query per subcommand, with its exit code: answers, a refusal and a usage error.
_QUERIES = [
    (["slope", "--", "-5/2^4"], 0),
    (["slope", "--invert", "--json", "--", "-12/29"], 0),
    (["frontier", "--json", "--", "-1/3"], 0),
    (["classify", "--", "8", "-4", "11"], 0),
    (["decompose", "--json", "--", "8", "-4", "11"], 0),
    (["decompose", "--", "1", "0", "-5"], 0),  # no_prioritary
    (["series", "--right", "--from=-1", "--", "-1/2", "3"], 0),
    (["tile", "--depth", "2", "--format", "csv"], 0),
    (["tile", "--depth", "1", "--samples", "2"], 0),
    (["frontier", "--", "1/0"], 1),
]


@pytest.mark.parametrize("argv, code", _QUERIES, ids=[" ".join(q) for q, _ in _QUERIES])
def test_a_query_loads_no_fractions_or_decimal(argv, code):
    # Each answer is written from integers (surd's display kernel).
    assert _loaded(argv, ("fractions", "decimal")) == [str(code)]


def test_selfcheck_keeps_its_oracles():
    assert _loaded(["selfcheck", "--depth", "0"], ("fractions", "decimal")) == ["0", "fractions", "decimal"]


_TEXT_QUERIES = [(q, c) for q, c in _QUERIES if "--json" not in q]
_JSON_QUERIES = [(q, c) for q, c in _QUERIES if "--json" in q]


@pytest.mark.parametrize("argv, code", _TEXT_QUERIES, ids=[" ".join(q) for q, _ in _TEXT_QUERIES])
def test_a_text_query_loads_no_argparse_or_re(argv, code):
    # The strict reader parses it (cli._strict).
    assert _loaded(argv, _PARSING) == [str(code)]


@pytest.mark.parametrize("argv, code", _JSON_QUERIES, ids=[" ".join(q) for q, _ in _JSON_QUERIES])
def test_a_json_query_loads_json_but_no_argparse(argv, code):
    # json loads re; the parse still loads no argparse.
    assert _loaded(argv, ("argparse", "json")) == [str(code), "json"]


# Runs main in-process with argparse's width fixed at 80 columns, as the
# transcript's replay does, and prints what it wrote and whether it loaded argparse.
_BYTES_PROBE = """
import contextlib, io, json, os, sys
from prioritaire.cli import main
os.environ["COLUMNS"] = "80"
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = main({argv!r})
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, out.getvalue(), err.getvalue(), "argparse" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv, argparse",
    [(["slope", "-h"], True), (["frontier", "--", "1/0"], False)],
    ids=["slope -h", "frontier -- 1/0"],
)
def test_help_and_refusals_print_the_transcript_bytes(argv, argparse):
    # Help is argparse's, imported for it; a refused value needs no argparse.
    transcript = json.loads(Path(__file__).with_name("cli_transcript.json").read_text(encoding="utf-8"))
    entry = next(e for e in transcript if e["argv"] == argv)
    expected = [entry["code"], entry["stdout"], entry["stderr"], argparse]
    assert json.loads(_child(_BYTES_PROBE.format(argv=argv))) == expected


def test_the_module_entry_freezes_the_loaded_package():
    # The console script and python -m run entry(), which freezes the import's
    # objects before the query, so the collection at exit skips them.
    probe = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count())); "
        "sys.argv = ['prioritaire', 'classify', '--', '8', '-4', '11']; "
        "runpy.run_module('prioritaire', run_name='__main__', alter_sys=True)"
    )
    last = _child(probe).splitlines()[-1].split()
    assert last[0] == "frozen" and int(last[1]) > 0


def test_main_leaves_the_collector_alone(capsys):
    from prioritaire.cli import main

    before = gc.get_freeze_count()
    assert main(["classify", "--", "8", "-4", "11"]) == 0
    assert gc.get_freeze_count() == before
    assert "region" in capsys.readouterr().out
