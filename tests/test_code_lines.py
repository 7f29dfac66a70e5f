"""The code-line counter in tools/code_lines.py."""

import importlib.util
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
