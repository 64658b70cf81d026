"""Traced server child: install the span tracer, then run ``serve``.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python decisionbench/serve_shim.py SPANS_PATH serve [serve options...]

The repository's own CLI runs unchanged; the tracer only wraps public
callables before it starts, and the spans are written to ``SPANS_PATH``
after the server has stopped.
"""

from __future__ import annotations

import os
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    if len(argv) < 2:
        print("usage: serve_shim.py SPANS_PATH serve [options...]", file=sys.stderr)
        return 2
    spans_path, serve_argv = argv[0], argv[1:]
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from decisionbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()  # imports every traced module, as serve would
    import_s = time.perf_counter() - start
    from repro.cli import main as cli_main

    code = cli_main(serve_argv)
    tracer.dump(spans_path, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
