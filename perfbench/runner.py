"""Run one CLI operation in a forked child of an already-imported psicalc.

A real psicalc invocation is a fresh process, so no operation may see
state left behind by an earlier one.  The parent imports the package once
and never calls into it; each operation forks, the child times
``psicalc.cli.main(argv)`` with stdout written to an unlinked file inside
the checkout, reads its own peak resident set size as soon as the call
returns (before the benchmark reads, hashes or parses the output), then
digests the output and reports back over a pipe.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import tempfile
import time
from dataclasses import dataclass, field

import bootstrap


@dataclass
class OpResult:
    argv: list
    rc: int | None = None
    seconds: float = 0.0
    out_len: int = 0
    sha: str = ""
    error: str = ""
    check: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    layers: dict | None = None
    spans: list | None = None


def _finite_json(text: str):
    """Parse JSON rejecting NaN/Infinity; return (payload, all numbers finite)."""
    def bad_constant(name):
        raise ValueError(f"non-finite constant {name}")

    payload = json.loads(text, parse_constant=bad_constant)
    stack = [payload]
    while stack:
        v = stack.pop()
        if isinstance(v, float) and not math.isfinite(v):
            return payload, False
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
    return payload, True


def inspect_output(argv, text: str) -> dict:
    """Facts about one command's stdout that the checks need."""
    cmd = argv[0]
    if cmd == "verify":
        rows = []
        for line in text.splitlines():
            if line.startswith("summary:"):
                continue
            head = line.split(": ", 1)[0]
            verdict, _, name = head.partition(" ")
            rows.append([verdict, name])
        return {"rows": rows}
    if cmd in ("spin", "weyl"):
        try:
            payload, finite = _finite_json(text)
        except ValueError:
            return {"json_ok": False, "finite": False, "all_pass": False}
        reports = payload.get("reports") or [payload.get("report", {})]
        return {"json_ok": True, "finite": finite,
                "all_pass": all(r.get("pass") is True for r in reports)}
    if cmd == "expand":
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            try:
                exact = json.loads(text).get("reconstruction_exact")
            except ValueError:
                exact = None
        else:
            lines = text.splitlines()
            exact = {"reconstruction_exact: True": True,
                     "reconstruction_exact: False": False}.get(lines[-1] if lines else "")
        return {"reconstruction_exact": exact}
    return {}


def _child(argv, wfd: int, cli_main, tracer) -> None:
    fd, path = tempfile.mkstemp(dir=bootstrap.OUT_DIR, prefix="stdout-")
    os.unlink(path)
    out = open(fd, "w+", encoding="utf-8")
    err = io.StringIO()
    res = {"rc": None, "error": ""}
    if tracer is not None:
        tracer.install()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                rc = tracer.run_root(cli_main, argv)
            else:
                rc = cli_main(argv)
        except BaseException as exc:  # the op's failure is the result
            rc = None
            res["error"] = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        out.flush()
    res["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["rc"] = rc
    res["seconds"] = t1 - t0
    out.seek(0)
    text = out.read()
    out.close()
    data = text.encode("utf-8")
    res["out_len"] = len(data)
    res["sha"] = hashlib.sha256(data).hexdigest()
    res["check"] = inspect_output(argv, text)
    if rc not in (0, 1) and not res["error"]:
        res["error"] = err.getvalue()[-500:]
    if tracer is not None:
        res["layers"], res["spans"] = tracer.export()
    blob = json.dumps(res).encode("utf-8")
    view = memoryview(blob)
    while view:
        n = os.write(wfd, view)
        view = view[n:]


def run_op(argv, cli_main, tracer=None) -> OpResult:
    """Fork, run one command in the child, and collect its result."""
    os.makedirs(bootstrap.OUT_DIR, exist_ok=True)
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            _child(argv, wfd, cli_main, tracer)
        finally:
            os._exit(0)
    os.close(wfd)
    chunks = []
    with os.fdopen(rfd, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    result = OpResult(list(argv))
    raw = b"".join(chunks)
    if not raw:
        result.error = f"child produced no result (wait status {status})"
        return result
    payload = json.loads(raw)
    result.rc = payload["rc"]
    result.seconds = payload["seconds"]
    result.rss_mb = payload["rss_mb"]
    result.out_len = payload["out_len"]
    result.sha = payload["sha"]
    result.error = payload["error"]
    result.check = payload["check"]
    result.layers = payload.get("layers")
    result.spans = payload.get("spans")
    return result
