"""The code-line counter in tools/code_lines.py."""

import importlib.util
import subprocess
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a comment after code


# a comment on its own line
def f(a,
      b):
    """Function docstring."""
    total = a + \\
        b
    return total


class C:
    """Class docstring."""

    x = "not a docstring"
'''


def test_counts_code_lines_only():
    # Counted: import, the two lines of the def, the two of the
    # continued assignment, return, class and x.
    assert code_lines.code_lines(_SNIPPET) == 8
    assert code_lines.code_lines("") == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(_SNIPPET, encoding="utf-8")
    (tmp_path / "a.py").write_text("# only a comment\n\nx = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 8\ntotal 9\n"


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


def test_against_a_revision_prints_the_deltas(tmp_path, capsys, monkeypatch):
    # a.py shrinks, b.py is deleted, c.py is new, and the committed text
    # is read from git, not from the working tree.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (package / "b.py").write_text(_SNIPPET, encoding="utf-8")
    (tmp_path / "top.py").write_text("z = 3\n", encoding="utf-8")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")
    (package / "a.py").write_text("x = 1\n", encoding="utf-8")
    (package / "b.py").unlink()
    (package / "c.py").write_text("w = 4\nv = 5\nu = 6\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert code_lines.main(["--against", "HEAD", "pkg"]) == 0
    assert capsys.readouterr().out == (
        "a 2 1 -1\nb 8 0 -8\nc 0 3 +3\ntotal 10 4 -6\n"
    )
