"""Start a ``repro`` CLI command (``worker`` or ``serve``) for the benchmark.

Usage: ``python perfbench/launch.py OUT.json TRACE PIN -- <repro cli args>``

Imports ``repro`` from the checkout's ``src``, installs the span wrappers
when ``TRACE`` is ``1``, then hands over to ``repro.cli.main``.  With ``PIN``
``1`` the command's threads run on the lowest CPU the process may use (see
``pin_cpu``); numpy, and with it the BLAS thread pool, is imported first, so
BLAS keeps its default threads and CPUs.  The process
writes ``OUT.json`` (its spans and peak RSS) on SIGUSR1 and keeps serving, or
on SIGTERM and exits, so the benchmark can collect a server it is about to
SIGKILL as well as a worker it stops.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    out, trace, pin, separator, *argv = sys.argv[1:]
    if separator != "--" or trace not in ("0", "1") or pin not in ("0", "1"):
        raise SystemExit("usage: launch.py OUT.json TRACE(0|1) PIN(0|1) -- REPRO_ARGS...")
    import numpy  # noqa: F401 - starts BLAS before any pinning
    from spans import Tracer, install_layers, pin_cpu

    if pin == "1":
        pin_cpu()  # threads started from here on inherit it

    tracer = Tracer()
    if trace == "1":
        install_layers(tracer)

    def dump(signum, frame) -> None:
        tracer.dump(Path(out))
        if signum == signal.SIGTERM:
            sys.stdout.flush()
            os._exit(0)

    signal.signal(signal.SIGUSR1, dump)
    signal.signal(signal.SIGTERM, dump)
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
