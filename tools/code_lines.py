"""Count the code lines of each module of the package.

A code line carries at least one token other than a comment and lies
outside every docstring (of a module, class or function).  Blank lines,
comment-only lines and docstrings do not count; each line of a
multi-line expression or statement does.

    python tools/code_lines.py [--against REV] [PACKAGE_DIR]

prints one "module count" line per ``*.py`` file of PACKAGE_DIR (default
``src/prioritaire``), sorted by name, and then the total.  With
``--against REV`` each line is "module before after delta", where
"before" counts the module as git holds it at REV (read with
``git ls-tree`` and ``git show``, the working tree untouched); a module on
one side only counts 0 on the other.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _git(package: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=package, capture_output=True, check=True, encoding="utf-8"
    ).stdout


def _counts_at(rev: str, package: Path) -> dict[str, int]:
    """The code lines of each module of the package directory at REV."""
    # Run in the directory, ls-tree lists its entries with paths from the root.
    names = _git(package, "ls-tree", "--name-only", "--full-name", rev).splitlines()
    return {
        Path(name).stem: code_lines(_git(package, "show", f"{rev}:{name}"))
        for name in names
        if name.endswith(".py")
    }


def main(argv: list[str]) -> int:
    rev = None
    if argv[:1] == ["--against"]:
        rev, argv = argv[1], argv[2:]
    package = Path(argv[0] if argv else "src/prioritaire")
    after = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    before = {} if rev is None else _counts_at(rev, package)
    rows = [(name, before.get(name, 0), after.get(name, 0)) for name in sorted(before.keys() | after.keys())]
    rows.append(("total", sum(before.values()), sum(after.values())))
    for name, b, a in rows:
        print(f"{name} {a}" if rev is None else f"{name} {b} {a} {a - b:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
