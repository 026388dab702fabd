"""Run the benchmark over several workloads and seeds and summarise it.

Run from the repository root:

    python3 perfbench/report.py [--workloads cli-qgauss,numeric] [--seeds 1-10]
                                [--seconds 30] [--trace 0]

Each run is a separate `run.py` process, run one after another.  For each
workload it prints every metric by name and unit with the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, i.e. the
distance between the quartiles as a share of the median.  Exits 1 if any
run fails or reports a wrong result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args(argv)
    ok = True
    for wl in args.workloads.split(","):
        values: dict = {}
        units: dict = {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            got = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = got.stdout.strip().splitlines()
            if got.returncode != 0 or len(lines) < 2:
                print(f"{wl} seed {seed}: exit {got.returncode}\n{got.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(lines[-1])
            ctx = json.loads(lines[-2])["context"]
            ok = ok and res["correct"]
            print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} fail_share={ctx['fail_share']:.4f} "
                  f"wrong={ctx['wrong'][:3]}", flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"== {wl}: {len(next(iter(values.values()), []))} runs")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:28s} {units[name]:7s} median {med:<14.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
