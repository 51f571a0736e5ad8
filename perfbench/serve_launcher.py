"""Start ``repro.cli serve`` in this process, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out SPANS.jsonl] -- serve ARGS...

With ``--trace-out`` the layer wrappers of :mod:`tracing` are installed
before the server loads its model, and the spans are written to the file
when the server exits (on SIGINT, which the CLI handles as a clean stop).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from repro.cli import main as cli_main

    if trace_out is None:
        return cli_main(argv)

    from repro.kernels import get_kernel
    from tracing import Tracer

    tracer = Tracer().install(get_kernel(None))
    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.write(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
