"""Run one CLI invocation under the layer tracer and save its summary.

Usage: python -S perfbench/cli_child.py SUMMARY_PATH ARG...

Stands in for ``python -m prioritaire ARG...`` in traced rounds of the
``cli`` workload: same arguments, same exit code, plus a JSON summary of
the spans (see ``tracing.Tracer.summary``) and the import time.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    summary_path, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import prioritaire.cli

    import_s = time.perf_counter() - t0
    import tracing

    tracer = tracing.Tracer()
    tracer.import_s = import_s
    tracer.install(prioritaire)
    before = tracing.cache_stats(prioritaire)
    code = 1
    try:
        code = prioritaire.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.add_cache(before, tracing.cache_stats(prioritaire))
        summary_path.write_text(json.dumps(tracer.summary()))
    sys.exit(code)


if __name__ == "__main__":
    main()
