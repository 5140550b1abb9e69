"""Run one gaussweyl CLI command with every layer traced.

    python3 bench/trace_child.py SPANS_JSON COMMAND_ID CLI_ARGS...

Imports `gaussweyl.cli` inside a `cli.import` span, wraps the package's
public functions (see tracer.install), runs `cli.main(CLI_ARGS)`, writes the
spans to SPANS_JSON and exits with the command's own exit code.
"""

from __future__ import annotations

import importlib
import sys

from tracer import SpanRecorder, install


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], int(argv[1])
    rec = SpanRecorder(command=command)
    sid = rec.open("cli.import")
    cli = importlib.import_module("gaussweyl.cli")
    rec.close(sid)
    install(rec)
    try:
        return cli.main(argv[2:])
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
