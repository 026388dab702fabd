"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line so a -s run reads as a checklist.
Exact criteria assert zero residuals through the verification suites;
numeric criteria assert residual norms against the stated tolerances.
"""

import inspect
import time

from psicalc.cli import main
from psicalc import verify as V


def _report(name: str, ok: bool, extra: str = "") -> None:
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, name


def _all_pass(results) -> bool:
    return all(r.passed for r in results if not r.skipped)


def test_suites_take_no_arguments():
    # each suite's sizes, seeds and tolerances are fixed in its body, so the
    # criteria below are exactly what `verify` runs
    for name, suite in V.SUITES.items():
        assert not inspect.signature(suite).parameters, name


def test_criterion_01_method_agreement():
    t0 = time.time()
    results = V.suite_method_agreement()
    took = time.time() - t0
    ok = _all_pass(results) and len(results) == 16
    _report("1 five-method agreement (4x4 grid, n<=10, exact)", ok, f"{took:.1f}s")
    assert took < 30


def test_criterion_02_laguerre_closed_form():
    t0 = time.time()
    results = V.suite_laguerre()
    took = time.time() - t0
    _report("2 closed form = solve oracle + q->1 (exact)", _all_pass(results),
            f"{took:.1f}s")
    assert took < 5


def test_criterion_03_binomial_identity():
    t0 = time.time()
    results = V.suite_binomial()
    took = time.time() - t0
    ok = _all_pass(results) and len(results) == 16
    _report("3 translation identity for basic sequences (n<=10, exact)", ok,
            f"{took:.1f}s")
    assert took < 30


def test_criterion_04_sheffer_identity():
    t0 = time.time()
    results = V.suite_sheffer()
    took = time.time() - t0
    ok = _all_pass(results) and len(results) == 48
    _report("4 translation identity for Sheffer sequences (n<=8, exact)", ok,
            f"{took:.1f}s")
    assert took < 30


def test_criterion_05_expansion_roundtrip():
    t0 = time.time()
    results = V.suite_expansion()
    took = time.time() - t0
    _report("5 expansion roundtrip (50 random + dilation, N=8, exact)",
            _all_pass(results), f"{took:.1f}s")
    assert took < 20


def test_criterion_06_qmutator_identity():
    t0 = time.time()
    results = V.suite_qmutator()
    took = time.time() - t0
    _report("6 deformed bracket identity on p_0..p_9 (exact)", _all_pass(results),
            f"{took:.1f}s")
    assert took < 10


def test_criterion_07_nogo_witnesses():
    t0 = time.time()
    results = V.suite_nogo()
    took = time.time() - t0
    witness_lines = [r for r in results if "witness" in r.name]
    emitted = all("residual" in r.detail for r in witness_lines)
    _report("7 no-go: q-table passes, witnesses emitted elsewhere",
            _all_pass(results) and emitted, f"{took:.1f}s")
    assert took < 10


def test_criterion_08_su2_commutators():
    t0 = time.time()
    results = V.suite_su2()
    took = time.time() - t0
    ok = _all_pass(results) and len(results) == 72  # 12 spins x 6 parameter choices
    _report("8 deformed commutators <= 1e-10 (j<=6, q set + undeformed)", ok,
            f"{took:.1f}s")
    assert took < 5


def test_criterion_09_polar_decomposition():
    t0 = time.time()
    results = V.suite_polar()
    took = time.time() - t0
    ran = [r for r in results if not r.skipped]
    conventions = all("convention" in r.detail for r in ran)
    _report("9 polar identities <= 1e-10 with convention line",
            _all_pass(results) and conventions and len(ran) >= 48, f"{took:.1f}s")
    assert took < 5


def test_criterion_10_weyl_pairs():
    t0 = time.time()
    results = V.suite_weyl()
    took = time.time() - t0
    flagged = all("zero diagonal" in r.detail for r in results)
    ok = _all_pass(results) and flagged and len(results) == 23
    _report("10 clock/shift identities n<=24 with diagonal deviation flagged", ok,
            f"{took:.1f}s")
    assert took < 5


def test_criterion_11_pincherle_consistency():
    t0 = time.time()
    results = V.suite_pincherle()
    took = time.time() - t0
    _report("11 formal derivative = commutator oracle (20 random, exact)",
            _all_pass(results), f"{took:.1f}s")
    assert took < 10


EXACT_CLI_COMMANDS = [
    ["table", "--psi", "qgauss", "--N", "8", "--format", "csv"],
    ["table", "--psi", "square", "--N", "8", "--format", "json"],
    ["basic", "--psi", "fibonacci", "--Q", "laguerre", "--N", "6", "--format", "json"],
    ["sheffer", "--psi", "qgauss", "--Q", "laguerre", "--S", "one_minus", "--N", "6",
     "--format", "json"],
    ["laguerre", "--n", "6", "--format", "json"],
    ["expand", "--psi", "qgauss", "--Q", "derivative", "--op", "qscale", "--N", "6",
     "--format", "json"],
    ["nogo", "--psi", "square", "--n", "3", "--format", "json"],
]


def test_criterion_12_cli_determinism_and_verify_all(capsys):
    t0 = time.time()
    ok = True
    for argv in EXACT_CLI_COMMANDS:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0 or out1 != out2 or not out1:
            ok = False
            break
    verify_code = main(["verify", "--suite", "all"])
    out = capsys.readouterr().out
    took = time.time() - t0
    lines = out.strip().splitlines()
    with capsys.disabled():
        _report(
            "12 CLI determinism + verify --suite all exit 0",
            ok and verify_code == 0 and lines[-1].startswith("summary:"),
            f"{took:.1f}s, {len(lines) - 1} checks",
        )
    assert took < 120
