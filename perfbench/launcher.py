"""Run one traced ``cyclodist`` CLI query in this process.

    python3 perfbench/launcher.py SPANS RUN_ID PREFIX PARENT_SPAN [cli args...]

Installs the span wrappers of spans.py, calls ``cyclodist.cli.main`` with
the remaining arguments, appends this process's spans to SPANS and exits
with the CLI's exit code.
"""

import sys

from spans import Tracer


def main() -> int:
    spans, run_id, prefix, parent, *argv = sys.argv[1:]
    tracer = Tracer(run_id, prefix=prefix, root_parent=parent or None)
    tracer.install()
    from cyclodist import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
