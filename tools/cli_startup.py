"""Where the start-up time of a command-line query goes, child by child.

    python tools/cli_startup.py [ROUNDS]

byte-compiles the package in the ``src`` directory next to this one, then
runs ROUNDS (default 20) interleaved rounds of fresh ``python -S``
children: the bare interpreter, ``import prioritaire.cli``, and ``-m
prioritaire`` with one query per subcommand, and one abbreviated query that
argparse parses, which alone loads ``shutil``: argparse's help formatter
sizes itself to the terminal.  It prints the median wall time of each in
ms, and whether each query imported ``shutil``, ``fractions``,
``decimal``, ``argparse``, ``re``, ``gettext`` and ``locale``.  It
prints; it is not a gate.
"""

import compileall
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
QUERIES = [
    ["slope", "--", "-1/4"],
    ["frontier", "--json", "--", "-1/3"],
    ["classify", "--", "8", "-4", "11"],
    ["decompose", "--json", "--", "8", "-4", "11"],
    ["series", "--from=-1", "--", "0", "4"],
    ["tile", "--depth", "2", "--format", "csv"],
    ["selfcheck", "--depth", "0"],
    ["slope", "--dig", "5", "--", "-1/4"],
]
CHILDREN = {"interpreter": ["-c", "pass"], "import prioritaire.cli": ["-c", "import prioritaire.cli"]}
CHILDREN.update({" ".join(q): ["-m", "prioritaire", *q] for q in QUERIES})
# Runs a query in-process and prints, last, whether it imported each of NOTED.
NOTED = ("shutil", "fractions", "decimal", "argparse", "re", "gettext", "locale")
PROBE = "import sys; from prioritaire.cli import main; main({!r}); print(*(m in sys.modules for m in %r))" % (NOTED,)


def _stdout(args: list[str], env: dict) -> str:
    return subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True, text=True, check=True).stdout


def main(argv: list[str]) -> int:
    rounds = int(argv[0]) if argv else 20
    env = dict(os.environ, PYTHONPATH=str(SRC))
    compileall.compile_dir(SRC, quiet=1)
    times: dict[str, list[float]] = {name: [] for name in CHILDREN}
    for _ in range(rounds):
        for name, args in CHILDREN.items():
            t0 = time.perf_counter()
            _stdout(args, env)
            times[name].append(time.perf_counter() - t0)
    for name, samples in times.items():
        args = CHILDREN[name]
        note = ""
        if args[0] == "-m":
            loaded = _stdout(["-c", PROBE.format(args[2:])], env).split()[-len(NOTED) :]
            note = "".join(f"  {m} {flag}" for m, flag in zip(NOTED, loaded))
        print(f"{statistics.median(samples) * 1000:7.1f} ms  {name}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
