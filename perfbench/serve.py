"""Launch ``repro serve`` for the service workload, optionally traced.

Usage: ``python3 perfbench/serve.py [--trace-out SPANS.json] -- SERVE-ARGS``.

With ``--trace-out`` the span wrappers of :mod:`tracer` are installed
before the public entry point ``repro.cli.main(["serve", ...])`` runs, and
the in-memory spans and counters are written to the given file after the
server drains on SIGTERM.  Without it, the launcher checks that no wrapper
is installed and serves exactly like ``repro serve``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import tracer  # noqa: E402


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_out:
        tracer.install()
    elif tracer.wrapped_entry_points():
        print("serve.py: wrappers installed in an untraced server", file=sys.stderr)
        return 3
    from repro.cli import main as repro_main

    code = repro_main(["serve", *argv])
    if trace_out:
        Path(trace_out).write_text(json.dumps(tracer.TRACER.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
