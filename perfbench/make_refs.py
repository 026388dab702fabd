"""Record reference outputs for every argv the workload generators can draw.

Run from the repository root:

    python3 perfbench/make_refs.py [--only qgauss|scalar|numeric|verify]

Each argv runs in a freshly forked child, exactly as in a benchmark run.
Exact commands are recorded as (sha256 prefix, byte count, exit code) of
their stdout; `verify --suite all` as its check names and verdicts;
numeric commands as their exit code only, since their float values may
legitimately change.  Regenerate only when an output change is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bootstrap  # noqa: E402  (sets the environment and import path)
import menus  # noqa: E402
from runner import run_op  # noqa: E402

REF_DIR = os.path.join(HERE, "refs")
SHA_CHARS = 20


def _write(name: str, payload: dict) -> None:
    os.makedirs(REF_DIR, exist_ok=True)
    path = os.path.join(REF_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")


def _run_all(menu, cli_main):
    table = {}
    for argv in menu:
        res = run_op(argv, cli_main)
        if res.error or res.rc is None:
            raise SystemExit(f"reference run failed: {menus.key(argv)}: {res.error}")
        table[menus.key(argv)] = res
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=["qgauss", "scalar", "numeric", "verify"],
                    action="append")
    args = ap.parse_args(argv)
    chosen = args.only or ["qgauss", "scalar", "numeric", "verify"]
    cli_main = bootstrap.import_cli()
    for name in chosen:
        if name == "verify":
            res = run_op(["verify", "--suite", "all"], cli_main)
            _write("verify", {"rc": res.rc, "rows": res.check["rows"]})
            continue
        menu = {"qgauss": menus.qgauss_menu, "scalar": menus.scalar_menu,
                "numeric": menus.numeric_menu}[name]()
        table = _run_all(menu, cli_main)
        if name == "numeric":
            refs = {k: r.rc for k, r in table.items()}
        else:
            refs = {k: [r.sha[:SHA_CHARS], r.out_len, r.rc] for k, r in table.items()}
        _write(name, {"refs": refs})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
