"""Byte-for-byte guard on the exact commands' stdout and exit codes.

The corpus in golden/corpus.json maps each argv (joined by spaces) to the
exit code and the exact stdout recorded for it.  Any change to canonical
strings, JSON layout, CSV quoting or the text tables shows up here.
golden/verify.txt holds the report of `verify --suite all`: exact-suite
lines and the summary are compared in full, numeric-suite lines only up
to the first ':' because their residual digits depend on the BLAS build.
golden/numeric.json holds the exit code and the report objects of the
`spin` and `weyl` text output for each argv, with every residual value
dropped and its key kept, for the same reason.

Regenerate all three (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from psicalc.cli import main

CORPUS = pathlib.Path(__file__).with_name("golden") / "corpus.json"
VERIFY_REPORT = CORPUS.with_name("verify.txt")
NUMERIC = CORPUS.with_name("numeric.json")
NUMERIC_SUITES = ("su2", "polar", "weyl")

PSIS = ("qgauss", "fibonacci")
FORMATS = ("json", "csv", "text")
DELTAS = ("derivative", "laguerre", "quadratic", "shifted")
FACTORS = ("one", "one_minus", "exp_sq", "one_minus_sq", "laguerre_order")
OPS = ("identity", "number", "qscale")
SIZE = "4"
# qgauss commands at sizes whose coefficients reach the largest q-degrees
WIDE_SIZE = "12"
WIDE_EXPAND_SIZE = "8"
# scalar tables at sizes whose constant coefficients reach the largest
# numerators and denominators
SCALAR_WIDE = (
    ["basic", "--psi", "classic", "--Q", "shifted", "--N", "28"],
    ["basic", "--psi", "square", "--Q", "laguerre", "--N", "28"],
    ["sheffer", "--psi", "fibonacci", "--Q", "shifted", "--S", "laguerre_order",
     "--alpha", "3/2", "--N", "28"],
    ["expand", "--psi", "square", "--Q", "laguerre", "--op", "qscale", "--N", "20"],
    ["expand", "--psi", "classic", "--Q", "shifted", "--op", "number", "--N", "20"],
)


def _cases() -> list[list[str]]:
    out = []
    for fmt in FORMATS:
        tail = ["--format", fmt]
        out.append(["laguerre", "--n", SIZE] + tail)
        for psi in PSIS:
            base = ["--psi", psi]
            out.append(["table"] + base + ["--N", SIZE] + tail)
            out.append(["nogo"] + base + ["--n", SIZE] + tail)
            for Q in DELTAS:
                out.append(["basic"] + base + ["--Q", Q, "--N", SIZE] + tail)
            # Sheffer factors and operators each pair with a different delta
            for i, S in enumerate(FACTORS):
                alpha = ["--alpha", "3/2"] if S == "laguerre_order" else []
                out.append(["sheffer"] + base + ["--Q", DELTAS[i % len(DELTAS)], "--S", S]
                           + alpha + ["--N", SIZE] + tail)
            for i, op in enumerate(OPS):
                out.append(["expand"] + base + ["--Q", DELTAS[i], "--op", op, "--N", SIZE]
                           + tail)
    wide = ["--psi", "qgauss"]
    tail = ["--format", "json"]
    out.append(["table"] + wide + ["--N", WIDE_SIZE] + tail)
    out.append(["nogo"] + wide + ["--n", WIDE_SIZE] + tail)
    out.append(["laguerre", "--n", WIDE_SIZE] + tail)
    for Q in DELTAS:
        out.append(["basic"] + wide + ["--Q", Q, "--N", WIDE_SIZE] + tail)
        out.append(["sheffer"] + wide + ["--Q", Q, "--S", "one_minus", "--N", WIDE_SIZE]
                   + tail)
    for op in OPS:
        out.append(["expand"] + wide + ["--Q", "laguerre", "--op", op,
                                        "--N", WIDE_EXPAND_SIZE] + tail)
    out.extend(argv + tail for argv in SCALAR_WIDE)
    return out


CASES = _cases()

# spin q values: undeformed, real (PSD moduli), and e^{i pi/7}, whose polar
# check is skipped at j = 6; q = 1.0000001 fails from j = 3/2 (bracket
# cancellation near q = 1)
SPIN_QS = (None, "0.5", "1.5", "2.0", "0.9009688679024191,0.4338837391175581")
NUMERIC_CASES = (
    [["spin", "--j", j] + ([] if q is None else ["--q", q]) + ["--format", "text"]
     for j in ("1/2", "1", "3/2", "6") for q in SPIN_QS]
    + [["spin", "--j", "6", "--q", "0.90097,0.43388", "--format", "text"],
       ["spin", "--j", "3/2", "--q", "1.0000001", "--format", "text"]]
    + [["weyl", "--N", n, "--format", "text"] for n in ("2", "5", "24")]
)


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_every_case(corpus):
    assert sorted(corpus) == sorted(" ".join(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_exact_output_matches_corpus(corpus, argv):
    code, out = _run(argv)
    want = corpus[" ".join(argv)]
    assert code == want["exit"]
    assert out == want["stdout"]


def _verify_key(line: str) -> str:
    if line.split(" ")[1] in NUMERIC_SUITES:
        return line.split(":", 1)[0]
    return line


def test_verify_report_matches_golden():
    code, out = _run(["verify", "--suite", "all"])
    want = VERIFY_REPORT.read_text(encoding="utf-8").splitlines()
    assert code == 0
    assert [_verify_key(l) for l in out.splitlines()] == [_verify_key(l) for l in want]


def _numeric_shape(argv: list[str]) -> dict:
    code, out = _run(argv)
    reports = [json.loads(line) for line in out.splitlines()]
    for r in reports:
        if "residuals" in r:
            r["residuals"] = list(r["residuals"])
    return {"exit": code, "reports": reports}


def test_numeric_reports_match_golden():
    want = json.loads(NUMERIC.read_text(encoding="utf-8"))
    assert sorted(want) == sorted(" ".join(a) for a in NUMERIC_CASES)
    for argv in NUMERIC_CASES:
        assert _numeric_shape(argv) == want[" ".join(argv)], argv


def record() -> None:
    entries = {}
    for argv in CASES:
        code, out = _run(argv)
        entries[" ".join(argv)] = {"exit": code, "stdout": out}
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    VERIFY_REPORT.write_text(_run(["verify", "--suite", "all"])[1], encoding="utf-8")
    record_numeric()


def record_numeric() -> None:
    shapes = {" ".join(argv): _numeric_shape(argv) for argv in NUMERIC_CASES}
    NUMERIC.write_text(json.dumps(shapes, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


if __name__ == "__main__":
    record()
