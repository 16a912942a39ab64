"""Run the ``repeaterlab`` command with the benchmark's tracer installed.

Usage: python3 perfbench/cli_traced.py SPANS_FILE SUBCOMMAND [OPTIONS...]

The spans of the run are written to SPANS_FILE when the command returns.
"""

import sys

import repeaterlab.cli as cli

from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
