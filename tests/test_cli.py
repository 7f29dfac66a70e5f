"""End-to-end checks of the command line interface.

All commands run in-process through ``main(argv)`` so the tests can
capture stdout precisely and parse the machine output back.
"""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prioritaire
from prioritaire import cli
from prioritaire.chern import ChernData
from prioritaire.cli import main
from prioritaire.exceptional import Dyadic, parse_dyadic
from prioritaire.surd import parse_rational, parse_surd


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_slope_human(capsys):
    code, out, err = run(capsys, "slope", "--", "-1/4")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "bundle   E(-2/5)"
    assert lines[1] == "dyadic   -1/4"
    assert lines[2] == "slope    -2/5"
    assert "rank     5" in lines[3]


def test_slope_json_reparses(capsys):
    code, out, _ = run(capsys, "slope", "--json", "--", "-1/4")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "E(-2/5)"
    assert (payload["rank"], payload["c1"], payload["c2"]) == (5, -2, 4)
    assert parse_rational(payload["slope"]) == Fraction(-2, 5)
    assert parse_rational(payload["delta"]) == Fraction(12, 25)
    # The exact strings must round-trip through the surd parser.
    hw = parse_surd(payload["x_f"]["exact"])
    left = parse_surd(payload["interval"]["left"]["exact"])
    assert (left + hw).compare(Fraction(-2, 5)) == 0
    # x_f = a + b sqrt(d) solves x^2 - 3x + 1/r^2 = 0: both parts of
    # (a^2 + b^2 d - 3a + 1/r^2) + (2a - 3) b sqrt(d) vanish.
    a, b, d = hw.a, hw.b, hw.d
    assert a * a + b * b * d - 3 * a + Fraction(1, 25) == 0
    assert (2 * a - 3) * b == 0


def test_slope_invert(capsys):
    code, out, _ = run(capsys, "slope", "--invert", "--json", "--", "-2/5")
    assert code == 0
    assert json.loads(out)["dyadic"] == "-1/4"


def test_slope_invert_far_from_the_band():
    # In a child process, so that a slope translated one unit at a time
    # fails on the timeout instead of stalling the suite.
    src = str(Path(prioritaire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "prioritaire", "slope", "--invert", "--", "10000000"],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1] == "dyadic   10000000"


def test_depth_exhausted_names_its_bracket(capsys):
    code, out, err = run(capsys, "frontier", "--depth", "2", "--", "-5/13")
    assert (code, out) == (2, "")
    assert err == (
        "prioritaire: depth exhausted: slope -5/13 not resolved within depth 2"
        " (bracket E(-2/5) .. O(0))\n"
    )
    code, out, err = run(capsys, "slope", "--invert", "--depth", "1", "--", "-12/29")
    assert (code, out) == (2, "")
    assert err == (
        "prioritaire: depth exhausted: slope -12/29 not resolved within depth 1"
        " (bracket E(-1/2) .. O(0))\n"
    )

    code, out, err = run(capsys, "decompose", "--depth", "1", "--", "14", "-5", "18")
    assert (code, out) == (2, "")
    assert err == (
        "prioritaire: depth exhausted: point (-5/14, 179/392) not resolved within depth 1"
        " (bracket E(-1/2) .. O(0))\n"
    )


def test_a_deep_slope_inverts_without_a_cap(capsys):
    # The image of 1/2^70, at level 70: its 97-bit rank bounds the descent.
    slope = "50095301248058391139327916261/131151201344081895336534324866"
    code, out, err = run(capsys, "slope", "--invert", "--", slope)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:3] == ["dyadic   1/1180591620717411303424", f"slope    {slope}"]
    code, out, err = run(capsys, "slope", "--invert", "--depth", "64", "--", slope)
    assert (code, out) == (2, "")
    assert err.startswith("prioritaire: depth exhausted: slope ")
    assert f"{slope} not resolved within depth 64 (bracket " in err


def test_a_stale_depth_variable_changes_nothing():
    # The cap is --depth or none: a PRIORITAIRE_MAX_DEPTH left in a shell
    # changes no byte, whatever its value.
    src = str(Path(prioritaire.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PRIORITAIRE_MAX_DEPTH"}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-m", "prioritaire", "classify", "--", "8", "4", "11"]
    unset = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    stale = subprocess.run(
        argv, capture_output=True, env=dict(env, PRIORITAIRE_MAX_DEPTH="zero"), timeout=60
    )
    assert (unset.returncode, unset.stderr) == (0, b"")
    assert unset.stdout == CLASSIFY_TEXT.encode()
    assert (stale.returncode, stale.stdout, stale.stderr) == (0, unset.stdout, b"")


def test_constructor_failure_exits_two(capsys, monkeypatch, fresh_lattice):
    # A bad mutation (the second term dropped) gives the vector 3 x(O(-1))
    # = (3, -3, 3), whose chi(F,F) is 9: the trusted builder raises an
    # inconsistency, not a usage error.
    from prioritaire import exceptional

    monkeypatch.setattr(
        exceptional,
        "_mutation",
        lambda a, b, c: exceptional._bundle(*(3 * a.rank * x for x in b.chern._vec)),
    )
    # The fixture empties the kept tree, as in a fresh process: the render
    # builds level 1.
    code, out, err = run(capsys, "tile", "--depth", "1", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "prioritaire: inconsistency: chi(F,F) != 1 for (3, -3, 3)\n"


def test_frontier_values(capsys):
    code, out, _ = run(capsys, "frontier", "--json", "--", "-1/3")
    assert code == 0
    payload = json.loads(out)
    assert parse_rational(payload["delta"]["exact"]) == Fraction(5, 9)
    dp = parse_surd(payload["delta_prime"]["exact"])
    assert dp.compare(Fraction(1, 18)) > 0  # 1/18 + sqrt(5)/6 > its rational part
    assert payload["owner"]["label"] == "O(0)"
    assert parse_rational(payload["prioritary_bound"]["exact"]) == Fraction(1, 9)


def test_classify_exit_codes(capsys):
    code, out, _ = run(capsys, "classify", "--json", "--", "2", "-1", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "semistable_exceptional"
    assert payload["witness"]["label"] == "E(-1/2)"

    code, out, _ = run(capsys, "classify", "--", "2", "-1", "0")
    assert code == 0
    assert out.splitlines()[0] == "region     no_prioritary"


def test_decompose_json_reverifies(capsys):
    code, out, _ = run(capsys, "decompose", "--json", "--", "8", "-4", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "above_delta_prime"
    # c2 is not additive, but (rank, c1, ch2) is; rebuild ch2 per summand.
    total = [Fraction(0)] * 3
    for s in payload["summands"]:
        m, r, c1, c2 = s["multiplicity"], s["rank"], s["c1"], s["c2"]
        ch2 = Fraction(c1 * c1, 2) - c2
        total[0] += m * r
        total[1] += m * c1
        total[2] += m * ch2
    assert total == [8, -4, Fraction(16, 2) - 11]


def test_decompose_no_prioritary_is_answered(capsys):
    code, out, _ = run(capsys, "decompose", "--json", "--", "2", "-1", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "no_prioritary"
    assert payload["summands"] is None
    assert "message" in payload


def test_bad_rank_is_usage_error(capsys):
    code, _, err = run(capsys, "decompose", "--", "0", "0", "1")
    assert code == 1
    assert "rank" in err


def test_argparse_failure_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slope"])  # missing positional
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [("decompose", "--", "8", "-4", "11"), ("series", "0", "2")])
def test_digits_only_where_decimals_print(capsys, argv):
    # decompose and series print no decimal, so they take --json only.
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--digits", "3", *argv[1:]])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: prioritaire")
    assert "error: unrecognized arguments: --digits" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("slope", "--digits", "0", "--", "-1/4"),
        ("frontier", "--digits", "0", "--", "-1/3"),
        ("classify", "--digits", "0", "--", "8", "4", "11"),
        ("series", "--from", "5", "--", "-1/4", "1"),
    ],
)
def test_bad_digits_print_no_half_answer(capsys, monkeypatch, argv):
    # A refused --digits or --from is a usage error, found before the
    # command enters the lattice (a deep dyadic would make it wait), so it
    # leaves stdout empty.
    from prioritaire import decompose, exceptional, frontier, helix

    entered = []
    for module, name in (
        (exceptional, "_from_dyadic"),
        (exceptional, "from_dyadic"),
        (exceptional, "_lattice"),
        (frontier, "delta_many"),
        (frontier, "_classify_normalized"),
        (decompose, "generic_prioritary"),
        (helix, "_series"),
    ):
        monkeypatch.setattr(module, name, lambda *args, n=name: entered.append(n))
    code, out, err = run(capsys, *argv)
    message = "--from 5 exceeds n_max 1" if argv[0] == "series" else "digits must be >= 1"
    assert (code, out, err) == (1, "", f"prioritaire: error: {message}\n")
    assert entered == []


def test_series_left_of_o(capsys):
    code, out, _ = run(capsys, "series", "--json", "0", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["side"] == "left"
    assert [m["rank"] for m in payload["members"]] == [1, 1, 2, 5, 13]
    assert all(m["chi"] == 0 for m in payload["members"])


def test_series_of_qstar(capsys):
    code, out, _ = run(capsys, "series", "--json", "--", "-1/2", "1")
    assert code == 0
    labels = [m["label"] for m in json.loads(out)["members"]]
    assert labels == ["O(-3)", "O(-1)"]


def test_series_bad_window(capsys):
    code, _, err = run(capsys, "series", "--from", "3", "0", "1")
    assert code == 1
    assert "exceeds" in err


def test_tile_csv_shape(capsys):
    code, out, _ = run(capsys, "tile", "--depth", "5", "--format", "csv")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[-1] == ""  # trailing CRLF
    assert lines[0] == "level,index,mu_e,delta_e,mu_f,delta_f,mu_g,delta_g"
    assert len(lines) == 65  # header + 63 rows + trailing empty


def test_tile_deterministic(capsys):
    _, svg1, _ = run(capsys, "tile", "--depth", "3")
    _, svg2, _ = run(capsys, "tile", "--depth", "3")
    assert svg1 == svg2
    assert svg1.startswith("<?xml")
    assert 'viewBox="0 0 1000 700"' in svg1
    _, csv1, _ = run(capsys, "tile", "--depth", "3", "--format", "csv")
    _, csv2, _ = run(capsys, "tile", "--depth", "3", "--format", "csv")
    assert csv1 == csv2


def test_tile_depth_cap(capsys):
    code, _, err = run(capsys, "tile", "--depth", "11")
    assert code == 1
    assert "maximum" in err


def test_tile_writes_file(tmp_path, capsys):
    target = tmp_path / "tiles.csv"
    code, out, _ = run(capsys, "tile", "--depth", "1", "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    raw = target.read_bytes()
    assert raw.count(b"\r\n") == 4  # header + 3 rows + final terminator


def test_tile_unwritable_out_is_a_usage_error(tmp_path):
    # A missing directory and a directory: one error line, no traceback.
    src = str(Path(prioritaire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for out in (tmp_path / "missing" / "x", tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "prioritaire", "tile", "--depth", "0", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr.startswith(f"prioritaire: error: cannot write {out}: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_tile_unwritable_out_fails_before_rendering(tmp_path, capsys, monkeypatch):
    # The largest render: --out is opened before a line is made.
    from prioritaire import render

    def refuse(*args):
        raise AssertionError("rendered before --out was opened")

    monkeypatch.setattr(render, "_svg_lines", refuse)
    out = tmp_path / "missing" / "x"
    code, stdout, err = run(capsys, "tile", "--depth", "10", "--samples", "256", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith(f"prioritaire: error: cannot write {out}: ") and err.count("\n") == 1


def test_tile_refused_arguments_create_no_out_file(tmp_path, capsys):
    target = tmp_path / "tiles.svg"
    for argv, message in (
        (("--depth", "-1"), "max_level must be >= 0, got -1"),
        (("--depth", "1", "--samples", "0"), "samples must be >= 1, got 0"),
    ):
        code, out, err = run(capsys, "tile", *argv, "--out", str(target))
        assert (code, out, err) == (1, "", f"prioritaire: error: {message}\n")
        assert not target.exists()


def test_tile_writes_every_tile_before_the_frontiers(tmp_path, capsys, monkeypatch):
    # The frontiers are made after the last tile line.  When they fail, most
    # of the document has already reached the file, and once it is closed
    # the file holds the header and every tile line: the lines are written
    # as they come, not held until the document is whole.
    from prioritaire import render
    from prioritaire.errors import InternalInconsistencyError

    whole = render.tile_svg(9, 128)
    target = tmp_path / "tiles.svg"
    seen = []

    def refuse(samples):
        seen.append(target.read_text(encoding="utf-8"))
        raise InternalInconsistencyError("no frontiers")

    monkeypatch.setattr(render, "_frontier_polylines", refuse)
    code, out, err = run(capsys, "tile", "--depth", "9", "--samples", "128", "--out", str(target))
    assert (code, out, err) == (2, "", "prioritaire: inconsistency: no frontiers\n")
    text = target.read_text(encoding="utf-8")
    assert text == whole[: whole.index("<polyline ")] and text.count("<path ") == 1023
    assert text.startswith(seen[0]) and len(seen[0]) > len(text) // 2


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, "selfcheck", "--depth", "3")
    assert code == 0
    assert all(line.startswith("ok") for line in out.splitlines())


def test_selfcheck_depth_zero_passes_and_negative_is_refused(capsys):
    code, out, err = run(capsys, "selfcheck", "--depth", "0")
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert len(lines) == 8 and all(line.startswith("ok ") for line in lines)
    code, out, err = run(capsys, "selfcheck", "--depth", "-1")
    assert (code, out) == (1, "")
    assert err == "prioritaire: error: depth must be >= 0, got -1\n"


def test_selfcheck_depth_past_the_kept_tree_is_refused(capsys):
    # Past the kept triad tree each level doubles the work; refused before any check runs.
    code, out, err = run(capsys, "selfcheck", "--depth", "11")
    assert (code, out) == (1, "")
    assert "maximum" in err


def test_slope_of_a_deep_dyadic(capsys):
    # A level-1500 dyadic is reached by an iterative bisection walk, not
    # 1500 nested calls; its rank has 627 digits.
    code, out, err = run(capsys, "slope", "--json", "--", "-1/2^1500")
    assert code == 0 and err == ""
    # Its c2 has 1 253 digits: lift the int-to-str limit (3.10.7 and later)
    # around the parsing only, so the test runs under any limit.
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if before is not None:
        sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(out)
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)
    assert parse_dyadic(payload["dyadic"]) == Dyadic(-1, 1500)
    assert len(str(payload["rank"])) == 627
    mu = parse_rational(payload["slope"])
    assert -1 < mu < 0 and mu.denominator == payload["rank"]


_BROKEN_SELFCHECK = """
import sys
from prioritaire import cli, selfcheck

assert False, "asserts must be stripped in this interpreter"
selfcheck.character_pairing = lambda x, y: 0  # breaks the pairing check only
sys.exit(cli.main(["selfcheck", "--depth", "1"]))
"""


def test_selfcheck_fails_under_python_O():
    # python -O strips assert statements; the checks must still run.
    src = str(Path(prioritaire.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_SELFCHECK],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stdout.splitlines()
    fails = [line for line in lines if not line.startswith("ok ")]
    assert len(lines) == 8 and len(fails) == 1
    assert fails[0].startswith("FAIL euler pairing forms: InternalInconsistencyError")


def test_slope_past_the_int_digit_limit(capsys):
    # The bundle of -349525/2^20 has a 4 256-digit rank; its c2 and the
    # denominator of its delta pass Python's 4 300-digit limit on
    # int-to-str conversion.  The answer prints in full and exits 0, and
    # the limit is back in force afterwards.
    from decimal import Decimal

    from prioritaire.exceptional import from_dyadic

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    f = from_dyadic(Dyadic(-349525, 20))
    code, out, err = run(capsys, "slope", "--", "-349525/2^20")
    assert code == 0 and err == ""
    rank_line = out.splitlines()[3].split()
    assert rank_line[:2] == ["rank", str(Decimal(f.rank))]
    assert rank_line[3:6:2] == [str(Decimal(f.c1)), str(Decimal(f.c2))]
    code, out, err = run(capsys, "slope", "--json", "--", "-349525/2^20")
    assert code == 0 and err == ""
    payload = json.loads(out, parse_int=Decimal)
    assert (payload["rank"], payload["c2"]) == (Decimal(f.rank), Decimal(f.c2))
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_closed_output_pipe_is_quiet():
    # The reader takes one line and closes the pipe; the writer must stop
    # without a traceback.  The series is far longer than a pipe buffer.
    src = str(Path(prioritaire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "prioritaire", "series", "--", "0", "400"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.startswith(b"source O(0)")
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv, where",
    [
        (["classify", "--", "8", "-4", "11"], "stdout"),
        (["classify", "--json", "--", "8", "-4", "11"], "stdout"),
        # Past the write buffer: the write fails while the tiles are written.
        (["tile", "--depth", "3"], "stdout"),
        (["tile", "--depth", "3", "--out", "/dev/full"], "/dev/full"),
        # Within the buffer: the write fails when the file is closed.
        (["tile", "--depth", "3", "--format", "csv", "--out", "/dev/full"], "/dev/full"),
        # argparse's help screens, which argparse alone would lose quietly.
        (["slope", "-h"], "stdout"),
        (["-h"], "stdout"),
    ],
)
def test_a_failed_write_is_one_error_line(argv, where):
    # A full device: one error line and exit 1, with no traceback, and no
    # failed flush reported at interpreter exit, whether stdout is buffered
    # (the write fails at a flush) or not (-u: it fails at once).
    src = str(Path(prioritaire.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    for flags in ([], ["-u"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "prioritaire", *argv],
                stdout=full if where == "stdout" else subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=60,
            )
        assert proc.returncode == 1, flags
        message = f"prioritaire: error: cannot write {where}: {os.strerror(errno.ENOSPC)}\n"
        assert (proc.stdout or "", proc.stderr) == ("", message), flags


FRONTIER_TEXT = """\
mu               11/20
delta            441/800 (~ 0.55125)
delta_prime      301/800 + 1/80*sqrt(32) (~ 0.446960678119)
owner            E(-1/2)
prioritary_bound 99/800 (~ 0.12375)
"""

FRONTIER_JSON = {
    "delta": {"approx": "0.55125", "exact": "441/800"},
    "delta_prime": {"approx": "0.446960678119", "exact": "301/800 + 1/80*sqrt(32)"},
    "mu": "11/20",
    "owner": {
        "c1": -1,
        "c2": 1,
        "delta": "3/8",
        "label": "E(-1/2)",
        "rank": 2,
        "slope": "-1/2",
    },
    "prioritary_bound": {"approx": "0.12375", "exact": "99/800"},
}

CLASSIFY_TEXT = """\
region     above_delta_prime
witness    E(-1/2)
normalized (8,-4,11) twist -1
mu         -1/2 (~ -0.5)
delta      1/2 (~ 0.5)
"""

CLASSIFY_JSON = {
    "delta": {"approx": "0.5", "exact": "1/2"},
    "input": {"c1": 4, "c2": 11, "rank": 8},
    "mu": {"approx": "-0.5", "exact": "-1/2"},
    "normalized": {"c1": -4, "c2": 11, "rank": 8, "twist": -1},
    "region": "above_delta_prime",
    "witness": {
        "c1": -1,
        "c2": 1,
        "delta": "3/8",
        "label": "E(-1/2)",
        "rank": 2,
        "slope": "-1/2",
    },
}


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_frontier_walks_the_lattice_once(capsys, monkeypatch):
    from prioritaire import exceptional

    walks = _counting(monkeypatch, exceptional, "_owners")
    code, out, err = run(capsys, "frontier", "--", "11/20")
    assert (code, out, err) == (0, FRONTIER_TEXT, "")
    assert len(walks) == 1
    code, out, err = run(capsys, "frontier", "--json", "--", "11/20")
    assert (code, err) == (0, "")
    assert out == json.dumps(FRONTIER_JSON, sort_keys=True, indent=2) + "\n"
    assert len(walks) == 2


def test_frontier_prints_the_bound_of_the_normalized_slope(capsys):
    # The prioritary bound, like delta and delta_prime, has period 1 in mu:
    # a twist changes neither the discriminant nor prioritarity.
    def bound(mu):
        code, out, err = run(capsys, "frontier", "--json", "--", str(mu))
        assert (code, err) == (0, "")
        return Fraction(json.loads(out)["prioritary_bound"]["exact"])

    for mu in (Fraction(11, 20), Fraction(-2, 7), Fraction(0)):
        assert {bound(mu + k) for k in range(-3, 4)} == {bound(mu)}
    # (20, 11, 57), of slope 11/20 and discriminant -19/800, has no
    # prioritary sheaf: the printed bound lies above that discriminant, and
    # is the bound that decompose names.
    cd = ChernData(20, 11, 57)
    assert cd.discriminant() == Fraction(-19, 800) < bound(Fraction(11, 20)) == Fraction(99, 800)
    code, out, err = run(capsys, "decompose", "--", "20", "11", "57")
    assert (code, err) == (0, "")
    assert "below the existence bound 99/800" in out
    assert bound(Fraction(5)) == 0


def test_series_walks_the_lattice_once(capsys, monkeypatch):
    # The series starts from the bracket that parsing the dyadic fetched
    # last, one middle per level, so it resolves no depth cap.
    from prioritaire import exceptional

    fetched = _counting(monkeypatch, exceptional, "_middle")
    caps = _counting(monkeypatch, exceptional, "_cap")
    code, out, err = run(capsys, "series", "--", "-5/16", "3")
    assert (code, err) == (0, "")
    assert out.startswith("source E(-179/433)  side left\n")
    assert (len(fetched), caps) == (4, [])


def test_classify_normalizes_once(capsys, monkeypatch):
    from prioritaire import chern

    normalizations = _counting(monkeypatch, chern, "normalize")
    code, out, err = run(capsys, "classify", "--", "8", "4", "11")
    assert (code, out, err) == (0, CLASSIFY_TEXT, "")
    assert len(normalizations) == 1
    code, out, err = run(capsys, "classify", "--json", "--", "8", "4", "11")
    assert (code, err) == (0, "")
    assert out == json.dumps(CLASSIFY_JSON, sort_keys=True, indent=2) + "\n"
    assert len(normalizations) == 2


@pytest.mark.parametrize(
    "argv, approx",
    [
        (("slope", "--", "1/2^40"), "2.32194019216E-34"),
        (("slope", "--digits", "30", "--", "-5592405/2^24"), "2.70528658346993452184625765546E-94404"),
        (("slope", "--", "1/2^20"), "1.21580030814E-17"),
    ],
)
def test_a_deep_half_width_keeps_every_digit(capsys, argv, approx):
    # x_f = 3/2 - sqrt(9r^2 - 4)/(2r) cancels about twice as many digits
    # as the rank has; each decimal is rounded once from the exact value.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[4].endswith(f"(~ {approx})")


def test_digits_above_the_bound_are_refused(capsys):
    from prioritaire.cli import MAX_DIGITS

    assert MAX_DIGITS == 10000
    for argv in (("slope", "-1/4"), ("frontier", "-1/3"), ("classify", "8", "4", "11")):
        code, out, err = run(capsys, argv[0], "--digits", "10001", "--", *argv[1:])
        assert (code, out, err) == (1, "", "prioritaire: error: digits must be <= 10000\n")
    code, out, _ = run(capsys, "slope", "--digits", "10000", "--", "-1/4")
    x_f = out.splitlines()[4]
    assert code == 0
    assert len(Decimal(x_f[x_f.index("(~ ") + 3 : -1]).as_tuple().digits) == 10000


def test_tile_samples_cap(capsys, tmp_path):
    from prioritaire.cli import MAX_TILE_SAMPLES

    assert MAX_TILE_SAMPLES == 256
    target = tmp_path / "tiles.svg"
    for fmt in ("svg", "csv"):
        code, out, err = run(
            capsys, "tile", "--depth", "0", "--format", fmt, "--samples", "257", "--out", str(target)
        )
        assert (code, out) == (1, "")
        assert err == "prioritaire: error: tile samples 257 exceeds the maximum 256\n"
        assert not target.exists()
    code, out, _ = run(capsys, "tile", "--depth", "0", "--samples", "256")
    assert code == 0 and out.count("<path ") == 1


_TRANSCRIPT = json.loads(Path(__file__).with_name("cli_transcript.json").read_text(encoding="utf-8"))
# The transcript's invocations that the strict reader leaves to argparse:
# help, usage errors, an abbreviation and separate values that start with a dash.
_REFUSED = [
    ["frontier", "--depth", "-3", "--", "-1/3"],
    ["classify", "--", "1", "x", "2"],
    ["classify", "--depth", "-3", "--", "8", "4", "11"],
    ["classify", "--depth", "-3", "--", "2", "-1", "0"],
    ["decompose", "--depth", "-3", "--", "2", "-1", "0"],
    ["series", "--right", "--from", "-1", "--", "-1/4", "1"],
    [],
    ["-h"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["slope", "--", "-1/4", "extra"],
    ["frontier", "--", "-1/3", "-1/4"],
    ["slope", "--bogus", "--", "0"],
    ["frontier", "-1/2"],
    ["slope", "--jso", "--", "0"],
    ["tile"],
]
# More parser inputs; the first three are not in the transcript because
# argparse's own text or exit code for them changed between 3.13 patch releases.
_EDGES = [
    ["bogus"],
    ["--", "slope", "--", "0"],
    ["tile", "--depth", "1", "--format", "png"],
    ["--help"],
    ["-h", "slope"],
    ["--", "slope"],
    ["Slope", "--", "0"],
    ["slope", "-h", "extra"],
    ["slope", "extra", "-h"],
    ["slope", "--", "-1/4", "--json"],
    ["slope", "--", "--", "0"],
    ["slope", "--de", "3", "--", "0"],
    ["slope", "--d", "3", "--", "0"],
    ["slope", "-hx"],
    ["tile", "--depth=1", "--format", "csv"],
    ["tile", "--depth", "1", "--out"],
    ["decompose", "--digits", "3", "--", "8", "-4", "11"],
]


def _outcome(parse, argv: list[str]):
    """vars() of the namespace ``parse(argv)`` gives, or the exit code,
    stdout and stderr of the SystemExit it raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _argparse_vars(argv: list[str]):
    """vars() of argparse's namespace for argv, or its SystemExit outcome."""
    return _outcome(lambda a: cli.build_parser().parse_args(a), argv)


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_one_command_parser_parses_as_the_full_parser(monkeypatch, columns):
    # _parse reads with the strict reader, which gives argparse's namespace
    # or refuses, and leaves what it refuses to the full parser.
    monkeypatch.setenv("COLUMNS", columns)
    for argv in [e["argv"] for e in _TRANSCRIPT] + _EDGES:
        full = _argparse_vars(argv)
        args = cli._strict(argv)
        assert args is None or vars(args) == full, argv
        assert _outcome(cli._parse, argv) == full, argv


def _quietly(argv: list[str]) -> None:
    """``main(argv)`` with its output and its usage exit discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(SystemExit):
            main(list(argv))


def test_a_strict_query_builds_no_parser(monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    for entry in _TRANSCRIPT:
        argv = entry["argv"]
        built.clear()
        _quietly(argv)
        assert len(built) == (argv in _REFUSED), argv
    for argv in (["bogus"], ["slope", "--dig", "5", "--", "-1/4"]):
        built.clear()
        _quietly(argv)
        assert len(built) == 1, argv


# Words a command line may hold: values of every shape the options and
# positionals meet, with dashes, Unicode digits and empty strings.
_WORDS = ["0", "3", "12", "-1", "-3", "1/2", "-1/4", "x", "\u0663", "+2", " 4", "1_0", "", "svg", "csv", "-"]


@st.composite
def _command_lines(draw) -> list[str]:
    """A command and words from its vocabulary: its options, exact, with
    ``=`` and abbreviated, help, dashes and values, often ending with ``--``
    and as many values as it has positionals."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    arguments = cli._COMMANDS[command][3]
    names = [name for name, _ in arguments if name.startswith("-")]
    option = st.sampled_from(names + [n[:-1] for n in names] + [n[:4] for n in names] + ["-h", "--help", "--"])
    word = st.sampled_from(_WORDS)
    chunk = st.one_of(
        st.tuples(option),
        st.tuples(option, word),
        st.tuples(st.sampled_from(names), st.sampled_from(_WORDS[:3])),
        st.tuples(st.builds("{}={}".format, st.sampled_from(names), word)),
        st.tuples(word),
    )
    words = [w for c in draw(st.lists(chunk, max_size=4)) for w in c]
    count = max(len(arguments) - len(names) + draw(st.sampled_from([0, 0, 0, 0, -1, 1])), 0)
    values = draw(st.lists(word, min_size=count, max_size=count))
    return [command, *words, *draw(st.sampled_from([["--"], ["--"], [], ["--", "--"]])), *values]


@settings(max_examples=400)
@given(_command_lines())
def test_the_strict_reader_reads_any_command_line_as_argparse_or_refuses(argv):
    args = cli._strict(argv)
    assert args is None or vars(args) == _argparse_vars(argv)
