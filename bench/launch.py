"""Run one segci CLI command with the tracer installed.

Usage: python bench/launch.py TRACE_JSON COMMAND [FLAGS...]

Times ``import segci.cli`` (and numpy's share of it), installs the
wrappers from ``tracing.py``, calls ``segci.cli.main`` with the
remaining arguments, writes the spans to TRACE_JSON and exits with the
command's status. ``src`` must be on PYTHONPATH, as for ``python -m
segci.cli``.
"""

import sys

import tracing


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    cli, imports = tracing.timed_import("segci.cli")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_path, imports=imports)


if __name__ == "__main__":
    sys.exit(main())
