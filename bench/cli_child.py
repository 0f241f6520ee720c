"""Traced stand-in for `python -m georadon.cli`, used by the traced benchmark.

Runs `georadon.cli.main` on the given arguments with the benchmark's
wrappers installed and a `cli.main` span around the call, then writes the
spans to the file named by $GEORADON_BENCH_SPANS for the parent to merge.
Stdout and the exit code are the CLI's own.
"""

import os
import sys

import georadon.cli

from tracer import CLI_MAIN_SPAN, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    row = tracer.begin(CLI_MAIN_SPAN)
    try:
        code = georadon.cli.main(sys.argv[1:])
    finally:
        tracer.end(row)
        sys.stdout.flush()
        tracer.save(os.environ["GEORADON_BENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
