"""Check exact CLI stdout against the benchmark's recorded references.

Runs every argv of `perfbench/refs/qgauss.json` with N <= 8 and of
`perfbench/refs/scalar.json` with N <= 16 (with --all, every argv of both)
through `psicalc.cli.main` in this one process, and compares the sha256
prefix, byte count and exit code of each stdout with its reference.  The
reference files are only read.  Exits 1 when any argv differs:

    PYTHONPATH=src python tests/check_refs.py [--all]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

from psicalc.cli import main as cli_main

REF_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "refs")
# reference file -> the largest size run without --all
LIMITS = {"qgauss": 8, "scalar": 16}


def _size(argv: list[str]) -> int:
    """The --N (or, for laguerre and nogo, --n) of an exact argv."""
    flag = "--N" if "--N" in argv else "--n"
    return int(argv[argv.index(flag) + 1])


def _run(argv: list[str]) -> tuple[str, int, int]:
    """(sha256 hex digest, byte count, exit code) of one command's stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    data = out.getvalue().encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data), rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--all", action="store_true", help="run every argv, of any size")
    args = ap.parse_args(argv)
    checked = differ = 0
    for name, limit in LIMITS.items():
        with open(os.path.join(REF_DIR, f"{name}.json"), encoding="utf-8") as fh:
            refs = json.load(fh)["refs"]
        for key, (sha, size, rc) in refs.items():
            cmd = key.split(" ")
            if not args.all and _size(cmd) > limit:
                continue
            got = _run(cmd)
            checked += 1
            if got[0][: len(sha)] != sha or got[1:] != (size, rc):
                differ += 1
                print(f"differs: {key}: sha {got[0][: len(sha)]}, {got[1]} bytes, "
                      f"exit {got[2]}; want sha {sha}, {size} bytes, exit {rc}")
    print(f"{checked} argv checked, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
