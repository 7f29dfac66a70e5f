"""Replay of recorded command-line invocations, byte for byte.

``cli_transcript.json`` lists invocations of ``cli.main``: the argument
vector and the exit code, stdout and stderr that were recorded.  Each
one is replayed in-process and must give the same three values.

argparse wraps usage and help to ``COLUMNS``, which the replay sets to
80, or to an entry's ``columns``.  The entries that print the top-level
usage carry 120: at 80 columns Python 3.13 wraps that usage line
differently from 3.10-3.12, and at 120 it fits on one line everywhere.

The file is read next to this one, so the test also runs against an
installed package from outside the checkout.  To record the outputs of
the current code for the same invocations, run

    PYTHONPATH=src python tests/test_cli_transcript.py --write

and review every changed output in the diff before committing it.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from prioritaire.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")


def invoke(argv: list[str], columns: int = 80) -> dict:
    """Exit code, stdout and stderr of ``main(argv)`` with argparse's
    terminal width fixed at ``columns``."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(columns)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _entries() -> list[dict]:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def _id(entry: dict) -> str:
    return " ".join(entry["argv"])


def _replay(entry: dict) -> dict:
    return invoke(entry["argv"], entry.get("columns", 80))


@pytest.mark.parametrize("entry", _entries(), ids=_id)
def test_replay(entry):
    expected = {key: entry[key] for key in ("code", "stdout", "stderr")}
    assert _replay(entry) == expected


def test_transcript_covers_every_subcommand():
    # The one other first word is -h, the top-level help.
    first = {e["argv"][0] for e in _entries() if e["argv"]}
    assert first >= {
        "slope", "frontier", "classify", "decompose", "series", "tile", "selfcheck"
    }


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    entries = [dict(e, **_replay(e)) for e in _entries()]
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
