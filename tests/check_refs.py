"""Check CLI stdout against the benchmark's recorded references.

Runs every argv of `perfbench/refs/qgauss.json` with N <= 8 and of
`perfbench/refs/scalar.json` with N <= 16 through `psicalc.cli.main` in
this one process, and compares the sha256 prefix, byte count and exit
code of each stdout with its reference.  It also runs every argv of
`perfbench/refs/numeric.json` and compares its exit code: the numeric
references hold no stdout, since the floats may change in their last
bits.  With --all it runs every argv of all three.  The reference files
are only read.  Exits 1 when any argv differs:

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
from fractions import Fraction

from psicalc.cli import main as cli_main

REF_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "refs")
# reference file -> whether an argv of that size runs without --all
DEFAULT = {
    "qgauss": lambda size: size <= 8,
    "scalar": lambda size: size <= 16,
    "numeric": lambda size: True,
}


def _size(argv: list[str]) -> int:
    """The --N (or, for laguerre and nogo, --n) of an argv; 2j + 1 for spin."""
    if argv[0] == "spin":
        return int(Fraction(argv[argv.index("--j") + 1]) * 2) + 1
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
    for name, runs_by_default in DEFAULT.items():
        with open(os.path.join(REF_DIR, f"{name}.json"), encoding="utf-8") as fh:
            refs = json.load(fh)["refs"]
        for key, ref in refs.items():
            cmd = key.split(" ")
            if not args.all and not runs_by_default(_size(cmd)):
                continue
            got = _run(cmd)
            checked += 1
            if isinstance(ref, int):  # a numeric argv: its exit code alone
                have, want = f"exit {got[2]}", f"exit {ref}"
            else:
                sha, size, rc = ref
                have = f"sha {got[0][: len(sha)]}, {got[1]} bytes, exit {got[2]}"
                want = f"sha {sha}, {size} bytes, exit {rc}"
            if have != want:
                differ += 1
                print(f"differs: {key}: {have}; want {want}")
    print(f"{checked} argv checked, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
