"""Run the rydcav CLI once with layer spans recorded.

Usage: python3 perfbench/traced_cli.py SPANS_JSON CLI_ARGS...

Behaves like the ``rydcav`` console script (same arguments, same exit
code) and in addition writes to SPANS_JSON the spans of ``import
rydcav.cli`` and of every wrapped layer call, plus the times at which this
script started and finished, so that the parent can attribute interpreter
start-up and exit.  Needs ``src`` on PYTHONPATH.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402

from tracing import Tracer, install  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(enabled=True)
    tracer.begin("cli.import")
    import rydcav.cli

    tracer.end()
    install(tracer)
    try:
        return rydcav.cli.main(argv)
    finally:
        tracer.dump(spans_path, started=STARTED, finished=time.perf_counter())


if __name__ == "__main__":
    sys.exit(main())
