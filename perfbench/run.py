"""psicalc benchmark: one workload, one seed, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload cli-qgauss --seed 1 --seconds 30 --trace 0

Workloads: verify-all, cli-qgauss, cli-scalar, numeric (see workloads.py and
README.md).  Every operation is a forked child of a process that has
imported psicalc once, so each starts from a freshly imported package.

--trace 0 measures the end-to-end metrics: whole rounds of the seeded
stream, stopping before a round that would end past --seconds (at least
one round runs).  --trace 1 runs exactly the first round of the stream,
each operation untraced and traced, and reports the per-layer metrics
plus the tracing overhead; a fixed operation list makes its counts repeat
exactly for a seed and compare across commits.

Every output is checked against perfbench/refs, which are loaded only after
the measured operations, so no operation's process carries them.  The last
stdout line is the result object; the line before it carries the run's
context (host facts, sample counts, fail_share and known-defect counts).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bootstrap  # noqa: E402  (pins BLAS threads before numpy loads)
import menus  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from runner import run_op  # noqa: E402

REF_DIR = os.path.join(HERE, "refs")
SETUP_REPEATS = 7
END_TO_END = ("setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "pass_share",
              "peak_rss_mb")
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import psicalc.cli; "
              "import time; print(time.monotonic_ns())")


def quantile(values, p: float) -> float:
    """Linear-interpolation quantile of a non-empty sample, 0 <= p <= 1."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup() -> float:
    """Median seconds from interpreter start until psicalc.cli is imported.

    The child reports the moment its import finished on the same monotonic
    clock the parent read before starting it, so neither interpreter
    teardown nor the parent's wait enters the figure.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, bootstrap.SRC]

    def once() -> float:
        t0 = time.monotonic_ns()
        got = subprocess.run(cmd, cwd=bootstrap.ROOT, check=True, timeout=120,
                             capture_output=True, text=True)
        return (int(got.stdout.split()[-1]) - t0) / 1e9

    once()  # compiles bytecode on a fresh checkout and warms file caches
    return statistics.median(once() for _ in range(SETUP_REPEATS))


def load_refs(workload: str) -> dict:
    name = {"verify-all": "verify", "cli-qgauss": "qgauss", "cli-scalar": "scalar",
            "numeric": "numeric"}[workload]
    with open(os.path.join(REF_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Outcome:
    """Check of one operation: units attempted, wrong, and not passed.

    `wrong` counts results that differ from what is expected at any commit
    (a changed exact output, an unexpected exit code, a raise, malformed or
    non-finite JSON); the run is correct only if none are wrong.
    `not_passed` counts results the program itself reports as failing (exit
    code other than 0, a FAIL verdict), which includes the known numeric
    defects; fail_share is not_passed over attempted.
    """

    def __init__(self, attempted: int, wrong: int, not_passed: int, known: int = 0,
                 why: str = ""):
        self.attempted = attempted
        self.wrong = wrong
        self.not_passed = not_passed
        self.known = known
        self.why = why


def check(workload: str, res, refs: dict) -> Outcome:
    out = _check(workload, res, refs)
    out.key = menus.key(res.argv)
    return out


def _check(workload: str, res, refs: dict) -> Outcome:
    if workload == "verify-all":
        want = refs["rows"]
        if res.error or res.rc is None:
            return Outcome(len(want), len(want), len(want), why=res.error)
        got = res.check.get("rows", [])
        wrong = sum(1 for i, row in enumerate(want) if i >= len(got) or got[i] != row)
        wrong += max(0, len(got) - len(want))
        if res.rc != refs["rc"] and wrong == 0:
            wrong = 1
        failing = sum(1 for row in got if row[0] == "FAIL")
        return Outcome(len(want), wrong, max(wrong, failing),
                       why="" if not wrong else "verify rows differ from reference")
    k = menus.key(res.argv)
    if workload == "numeric":
        c = res.check
        known = refs["refs"].get(k) == 1
        why = ""
        if res.error or res.rc not in (0, 1):
            why = f"exit {res.rc}: {res.error}"
        elif not (c.get("json_ok") and c.get("finite")):
            why = "malformed or non-finite JSON"
        elif (res.rc == 0) != bool(c.get("all_pass")):
            why = "exit code disagrees with the reported checks"
        elif res.rc == 1 and not known:
            why = "check failed outside the known-defect cells"
        wrong = 1 if why else 0
        failed = 1 if (wrong or res.rc != 0) else 0
        return Outcome(1, wrong, failed, known=int(known and res.rc == 1), why=why)
    ref = refs["refs"].get(k)
    why = ""
    if ref is None:
        why = "no reference for this argv"
    elif res.error or res.rc is None:
        why = f"raised: {res.error}"
    elif res.rc != ref[2]:
        why = f"exit {res.rc}, expected {ref[2]}"
    elif res.sha[:len(ref[0])] != ref[0] or res.out_len != ref[1]:
        why = "stdout differs from reference"
    elif res.argv[0] == "expand" and res.check.get("reconstruction_exact") is not True:
        why = "reconstruction_exact is not true"
    wrong = 1 if why else 0
    return Outcome(1, wrong, 1 if (wrong or res.rc != 0) else 0, why=why)


def host_facts() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _commit():
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    base = os.path.join(bootstrap.SRC, "psicalc")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(base, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_untraced(workload, seed, seconds, cli_main):
    """Whole rounds, stopping before one that would end past `seconds`."""
    results = []
    t_start = time.perf_counter()
    for rnd in workloads.rounds(workload, seed):
        t_round = time.perf_counter()
        results.extend(run_op(argv, cli_main) for argv in rnd)
        now = time.perf_counter()
        if now - t_start + (now - t_round) > seconds:
            break
    return results, time.perf_counter() - t_start


def run_traced(argvs, cli_main):
    """Each op untraced and traced (order alternating); per-layer metrics."""
    plain, traced, results, all_spans = [], [], [], []
    total: dict = {}
    out_bytes = 0
    for i, argv in enumerate(argvs):
        tracer = spans.Tracer(op_id=i)
        order = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
        for mode in order:
            if mode == "plain":
                res = run_op(argv, cli_main)
                plain.append(res.seconds)
            else:
                res = run_op(argv, cli_main, tracer)
                traced.append(res.seconds)
                spans.merge(total, res.layers or {"agg": {}, "probes": {}})
                all_spans.extend(res.spans or [])
                out_bytes += res.out_len
            results.append(res)
    p50_t = statistics.median(traced) * 1e3
    p50_p = statistics.median(plain) * 1e3
    derived = {"cli.out_bytes": out_bytes, "trace.ops": len(argvs),
               "trace.op_p50_ms": p50_t, "trace.untraced_op_p50_ms": p50_p,
               "trace.overhead_ms": p50_t - p50_p}
    return spans.layer_metrics(total, derived), results, all_spans, total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="psicalc benchmark (one workload, one seed)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli_main = bootstrap.import_cli()

    if args.trace:
        first = next(workloads.rounds(args.workload, args.seed))
        metrics, results, span_list, total = run_traced(first, cli_main)
        path = os.path.join(bootstrap.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in span_list:
                fh.write(json.dumps(rec) + "\n")
        extra = {"spans_file": os.path.relpath(path, bootstrap.ROOT),
                 "spans_kept": len(span_list),
                 "spans_dropped": total.get("spans_dropped", 0),
                 "probe_errors": total.get("probe_errors", 0)}
    else:
        setup_s = measure_setup()
        results, wall = run_untraced(args.workload, args.seed, args.seconds, cli_main)
        lat = [r.seconds for r in results]
        n = len(lat)
        extra = {"ops": n, "wall_s": wall,
                 "tail_percentile_supported": (
                     round(100.0 * (1 - 10 / n), 1) if n > 10 else None)}
        if n == 1:  # verify-all: one pass supports no tail percentile
            extra["op_p90_ms_is"] = "the single operation's latency, not a tail percentile"

    refs = load_refs(args.workload)
    outcomes = [check(args.workload, r, refs) for r in results]
    attempted = sum(o.attempted for o in outcomes)
    wrong = sum(o.wrong for o in outcomes)
    not_passed = sum(o.not_passed for o in outcomes)
    if not args.trace:
        values = (setup_s, statistics.median(lat) * 1e3, quantile(lat, 0.9) * 1e3,
                  n / sum(lat), 1.0 - not_passed / attempted,
                  max(r.rss_mb for r in results))
        units = ("s", "ms", "ms", "1/s", "ratio", "MB")
        metrics = {name: {"value": v, "unit": u}
                   for name, v, u in zip(END_TO_END, values, units)}
    problems = sorted({f"{o.key}: {o.why}" for o in outcomes if o.wrong})[:20]
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host_facts(),
        "fail_share": not_passed / attempted,
        "known_defects": sum(o.known for o in outcomes),
        "wrong": problems,
        **extra,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": wrong, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
