"""Process set-up shared by every benchmark entry point.

Pins the numeric libraries to one thread before numpy is imported (the
benchmark forks one child per operation, and a single client on a small
machine measures more steadily without a BLAS thread pool), and imports
psicalc from the checkout's own ``src`` tree.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# run output: span files of traced runs, and each operation's stdout while it runs
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def import_cli():
    """Import psicalc from ROOT/src and return ``psicalc.cli.main``."""
    if not os.path.isfile(os.path.join(SRC, "psicalc", "cli.py")):
        raise SystemExit(f"psicalc sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import psicalc.cli

    return psicalc.cli.main
