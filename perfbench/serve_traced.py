"""``repro.cli serve`` with the per-layer instrumentation installed.

Run as ``python -m perfbench.serve_traced serve --bundle ... --trace
ring:N`` with ``src`` and the repository root on ``PYTHONPATH``.  The
wrappers are installed before the server starts, so the worker processes
it forks inherit them and ship their spans back with each result.
"""

import sys

from perfbench.instrument import Instrumentation

if __name__ == "__main__":
    Instrumentation().install()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
