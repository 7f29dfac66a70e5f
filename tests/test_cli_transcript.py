"""Replay of recorded command-line invocations, byte for byte.

``cli_transcript.json`` lists invocations of ``cli.main``: the argument
vector, the value of ``PRIORITAIRE_MAX_DEPTH`` (null for unset), and the
exit code, stdout and stderr that were recorded.  Each one is replayed
in-process and must give the same three values.

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
ENV = "PRIORITAIRE_MAX_DEPTH"
# argparse wraps usage lines to the terminal width; fix it.
FIXED = {"COLUMNS": "80"}


def invoke(argv: list[str], depth_env: str | None) -> dict:
    """Exit code, stdout and stderr of ``main(argv)`` under the given env."""
    saved = {key: os.environ.pop(key, None) for key in (ENV, *FIXED)}
    os.environ.update(FIXED)
    if depth_env is not None:
        os.environ[ENV] = depth_env
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        for key, value in saved.items():
            os.environ.pop(key, None)
            if value is not None:
                os.environ[key] = value
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _entries() -> list[dict]:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def _id(entry: dict) -> str:
    env = "" if entry["env"] is None else f"{ENV}={entry['env']} "
    return env + " ".join(entry["argv"])


@pytest.mark.parametrize("entry", _entries(), ids=_id)
def test_replay(entry):
    expected = {key: entry[key] for key in ("code", "stdout", "stderr")}
    assert invoke(entry["argv"], entry["env"]) == expected


def test_transcript_covers_every_subcommand():
    commands = {e["argv"][0] for e in _entries() if e["argv"]}
    assert commands == {
        "slope", "frontier", "classify", "decompose", "series", "tile", "selfcheck"
    }


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    entries = [dict(e, **invoke(e["argv"], e["env"])) for e in _entries()]
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
