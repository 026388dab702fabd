import json
import math
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

from psicalc import cli, verify
from psicalc.cli import CLOSED_STDOUT, main
from psicalc.psi import qgauss
from psicalc.sequences import q_laguerre_closed
from psicalc.su2q import su2_build
from psicalc.verify import CheckResult
from psicalc.weyl import weyl_build


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


EXACT_COMMANDS = [
    ("table", "--psi", "qgauss", "--N", "6", "--format", "csv"),
    ("table", "--psi", "fibonacci", "--N", "6", "--format", "json"),
    ("basic", "--psi", "square", "--Q", "laguerre", "--N", "5", "--format", "json"),
    ("sheffer", "--psi", "qgauss", "--Q", "derivative", "--S", "exp_sq", "--N", "5",
     "--format", "json"),
    ("laguerre", "--n", "4", "--format", "json"),
    ("expand", "--psi", "qgauss", "--Q", "derivative", "--op", "qscale", "--N", "5",
     "--format", "json"),
    ("nogo", "--psi", "fibonacci", "--n", "3", "--format", "json"),
    ("nogo", "--psi", "qgauss", "--n", "4", "--format", "text"),
]


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=lambda a: " ".join(a[:4]))
def test_exact_commands_deterministic(capsys, argv):
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip()


ONE_PER_COMMAND = [
    ("table", "--psi", "classic", "--N", "3"),
    ("basic", "--psi", "classic", "--N", "3"),
    ("sheffer", "--psi", "classic", "--S", "exp_sq", "--N", "3"),
    ("laguerre", "--n", "2"),
    ("expand", "--psi", "classic", "--N", "3"),
    ("nogo", "--psi", "fibonacci", "--n", "3"),
    ("spin", "--j", "1", "--q", "1.5"),
    ("weyl", "--N", "3"),
    ("verify", "--suite", "laguerre"),
]


@pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=lambda a: a[0])
def test_commands_return_their_output_and_write_nothing(capsys, argv):
    args = cli.build_parser().parse_args(list(argv))
    assert args.run is getattr(cli, f"cmd_{argv[0]}")
    result = args.run(args)
    assert capsys.readouterr().out == ""
    code, payload, text = result
    assert code == 0
    assert payload is None or isinstance(payload, dict)
    if isinstance(text, tuple):
        header, rows = text
        assert all(len(r) == len(header) for r in rows)
    else:
        assert isinstance(text, list) and all(isinstance(line, str) for line in text)
    # main writes exactly what the command returned
    assert run_cli(capsys, *argv) == (code, cli._stdout(getattr(args, "format", None),
                                                        payload, text))


def test_spin_and_weyl_build_matrices_only_for_json():
    for argv in (["spin", "--j", "1"], ["weyl", "--N", "3"]):
        for fmt, keyed in (("text", False), ("json", True)):
            args = cli.build_parser().parse_args(argv + ["--format", fmt])
            assert (args.run(args)[1] is not None) is keyed


def _matrix_json_per_entry(a) -> list:
    """The reference: [re, im] of each entry, one numpy scalar at a time."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def test_matrix_json_equals_the_per_entry_loop():
    special = np.array([[0.0, -0.0, np.inf], [-np.inf, np.nan, 5e-324]])
    mixed = special.astype(complex)
    mixed.imag = special[::-1]
    # a NaN whose payload differs from np.nan's; json spells both NaN
    payload_nan = np.array([[np.nan, np.int64(0x7FF8000000000123).view(float)]])
    imag_zero = np.array([[1 - 0j, complex(1, -0.0)], [complex(-0.0, 0.0), 0j]])
    rng = np.random.default_rng(0)
    distinct = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    pair = weyl_build(16)
    rep = su2_build(1.5, q=np.exp(1j * np.pi / 7))
    # where runs of equal entries can go wrong: a run may not cross a row
    # end, even onto the value the next row starts with; equal values with
    # different bits (0.0 and -0.0, NaNs of two payloads) are separate runs
    across_rows = np.array([[1.0, 2.0, 3.0], [3.0, 3.0, 4.0], [4.0, 4.0, 4.0]])
    row = np.array([[1.0, 1.0, 2.0, 2.0, 2.0, 1.0]])
    signed_zeros = np.array([[0.0, -0.0, -0.0, 0.0, 0.0], [-0.0, 0.0, 0.0, -0.0, -0.0]])
    two_nans = np.array([[np.nan, payload_nan[0, 1], payload_nan[0, 1], np.nan],
                         [np.nan, np.nan, payload_nan[0, 1], np.nan]])
    nan_cells = two_nans.astype(complex)
    nan_cells.imag = two_nans[::-1]
    zero_cells = signed_zeros.T.astype(complex)
    zero_cells.imag = signed_zeros.T[::-1]
    single = np.complex64(0.1 + 0.2j)
    runs64 = np.array([[single, single, 0, 0], [0, 0, single, single]], dtype=np.complex64)
    spins = [su2_build(60, q=q) for q in (1.5, np.exp(1j * np.pi / 7))]
    ladders = [m for r in spins for m in (r.j3, r.jplus, r.jminus)]
    clock = weyl_build(100)
    for a in (special, mixed, mixed.T, special.T, np.arange(6).reshape(2, 3),
              np.ones((2, 2), dtype=np.complex64), np.zeros((0, 3)), np.zeros((0, 0)),
              np.zeros((3, 0)), np.array([[2.5 - 1j]]), np.asfortranarray(mixed),
              payload_nan, imag_zero, distinct, np.full((64, 64), -0.5 + 0.25j),
              pair.sigma1, pair.sigma2, pair.smat, pair.pmat, rep.j3, rep.jplus, rep.jminus,
              across_rows, across_rows.T, np.full((5, 7), 3.0), row, row.T,
              signed_zeros, zero_cells, two_nans, nan_cells,
              runs64, runs64.T, distinct.astype(np.complex64), *ladders,
              clock.sigma1, clock.sigma2):
        assert cli._matrix_json(a) == json.dumps(_matrix_json_per_entry(a))


SPIN_Q = (None, "0.5", "1.5", "2.0",  # the --q values of the numeric benchmark workload
          f"{math.cos(math.pi / 7)!r},{math.sin(math.pi / 7)!r}", "1.0000001")
NUMERIC_ARGV = [
    *(["spin", "--j", j, *(["--q", q] if q else []), "--format", "json"]
      for j in ("1/2", "3/2", "7", "20") for q in SPIN_Q),
    # the benchmark's large matrices, whose rows hold long runs of equal entries
    *(["spin", "--j", j, *(["--q", q] if q else []), "--format", "json"]
      for j in ("60", "100") for q in (None, "1.5", SPIN_Q[4], "1.0000001")),
    *(["weyl", "--N", n, "--format", "json"] for n in ("2", "3", "16", "64", "101", "256")),
]


@pytest.mark.parametrize("argv", NUMERIC_ARGV, ids=" ".join)
def test_numeric_json_equals_the_per_entry_payload(capsys, monkeypatch, argv):
    code = main(argv)
    out = capsys.readouterr().out
    monkeypatch.setattr(cli, "_matrix_json", _matrix_json_per_entry)
    args = cli.build_parser().parse_args(argv)
    ref_code, payload, _ = args.run(args)
    assert (code, out) == (ref_code, json.dumps(payload) + "\n")


def test_laguerre_json_matches_library(capsys):
    code, out = run_cli(capsys, "laguerre", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    psi = qgauss()
    for n, coeffs in enumerate(payload["polys"]):
        assert coeffs == [c.render() for c in q_laguerre_closed(psi, n).coeffs]


def test_nogo_witness_exits_zero(capsys):
    code, out = run_cli(capsys, "nogo", "--psi", "fibonacci", "--n", "3",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "WITNESS"
    assert payload["b0_convention"].startswith("b_0 = 1")


def test_unknown_psi_is_usage_error(capsys):
    code = main(["table", "--psi", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "built-ins" in err


def test_malformed_custom_psi_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "psi": ["1", "0"]}))
    assert main(["table", "--psi", str(bad)]) == 2
    worse = tmp_path / "worse.json"
    worse.write_text("{not json")
    assert main(["table", "--psi", str(worse)]) == 2
    named = tmp_path / "listname.json"
    named.write_text(json.dumps({"name": ["x"], "psi": ["1", "1", "1/2"]}))
    capsys.readouterr()
    assert main(["table", "--psi", str(named), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed psi file" in captured.err
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"nmae": "mine", "psi": ["1", "1", "1/2"]}))
    assert main(["table", "--psi", str(typo), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed psi file" in captured.err and "'nmae'" in captured.err
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'\xff\xfe["1"]')
    for path in (deep, undecodable):
        assert main(["table", "--psi", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "malformed psi file" in captured.err


def test_custom_psi_file_accepted(tmp_path, capsys):
    table = tmp_path / "mine.json"
    table.write_text(json.dumps({"name": "mine", "psi": ["1", "1", "1/2", "1/6"]}))
    code, out = run_cli(capsys, "table", "--psi", str(table), "--N", "3",
                        "--format", "csv")
    assert code == 0
    assert out.splitlines()[4] == "3,3,6"


def test_spin_json_report_shape(capsys):
    code, out = run_cli(capsys, "spin", "--j", "1", "--q", "1.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    checks = {r["check"] for r in payload["reports"]}
    assert checks == {"commutators", "polar"}
    for r in payload["reports"]:
        assert r["pass"] is True


def test_spin_complex_q_skips_polar(capsys):
    code, out = run_cli(capsys, "spin", "--j", "6", "--q", "0.90097,0.43388",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    polar = [r for r in payload["reports"] if r["check"] == "polar"][0]
    assert "skipped" in polar


def test_weyl_json_report(capsys):
    code, out = run_cli(capsys, "weyl", "--N", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["pass"] is True
    assert "zero diagonal" in payload["report"]["convention"]["p_diagonal"]


def test_verify_subset_exits_zero(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "laguerre", "--suite", "nogo")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("summary:")
    assert all(l.startswith(("PASS", "SKIP")) for l in lines[:-1])


def test_verify_runs_a_repeated_suite_once_in_the_order_first_named(capsys):
    once = run_cli(capsys, "verify", "--suite", "weyl")
    assert run_cli(capsys, "verify", "--suite", "weyl", "--suite", "weyl") == once
    code, out = run_cli(capsys, "verify", "--suite", "nogo", "--suite", "laguerre",
                        "--suite", "nogo")
    assert (code, out) == run_cli(capsys, "verify", "--suite", "nogo", "--suite", "laguerre")
    suites = [line.split()[1] for line in out.splitlines()[:-1]]
    assert list(dict.fromkeys(suites)) == ["nogo", "laguerre"]


def test_verify_all_anywhere_runs_every_suite(capsys, monkeypatch):
    stub = {name: (lambda name=name: [CheckResult(name, "stub", True)])
            for name in verify.SUITES}
    monkeypatch.setattr(verify, "SUITES", stub)
    code, out = run_cli(capsys, "verify", "--suite", "su2", "--suite", "all")
    assert code == 0
    assert out.splitlines() == [f"PASS {name} stub" for name in stub] + [
        f"summary: {len(stub)} checks, {len(stub)} passed, 0 failed, 0 skipped"]
    assert run_cli(capsys, "verify", "--suite", "all", "--suite", "bogus") == (2, "")


def usable_cpus(monkeypatch, count):
    """Make run_suites see `count` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    # waitpid(-1) fails with ECHILD only when no child, running or a zombie, is left
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


CHEAP_SUITES = ["nogo", "laguerre", "weyl", "su2"]


def test_pooled_rows_equal_the_serial_rows_in_order(monkeypatch):
    serial = [r for name in CHEAP_SUITES for r in verify.SUITES[name]()]
    usable_cpus(monkeypatch, 2)
    assert verify.run_suites(CHEAP_SUITES) == serial
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_suites_fork_workers_only_with_two_cpus(monkeypatch, cpus):
    stub = {name: (lambda name=name: [CheckResult(name, str(os.getpid()), True)])
            for name in verify.SUITES}
    monkeypatch.setattr(verify, "SUITES", stub)
    usable_cpus(monkeypatch, cpus)
    rows = verify.run_suites(["su2", "all"])
    assert [r.suite for r in rows] == list(stub)  # "all" anywhere: every suite, once
    pids = {r.name for r in rows}
    assert (pids == {str(os.getpid())}) is (cpus == 1)
    assert_no_child_left()


def test_unflushed_text_is_written_once(tmp_path, monkeypatch):
    usable_cpus(monkeypatch, 2)
    # files, so block-buffered: the text is still in the buffer at the fork
    out = open(tmp_path / "out.txt", "w", encoding="utf-8")
    err = open(tmp_path / "err.txt", "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    print("to stdout before the suites")
    print("to stderr before the suites", file=sys.stderr)
    verify.run_suites(["laguerre", "nogo"])
    out.close()
    err.close()
    assert (tmp_path / "out.txt").read_text() == "to stdout before the suites\n"
    assert (tmp_path / "err.txt").read_text() == "to stderr before the suites\n"


def test_a_failed_row_from_a_worker_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(verify, "SUITES", {
        "ok": lambda: [CheckResult("ok", "row", True)],
        "fails": lambda: [CheckResult("fails", "row", False, "mismatch")],
    })
    usable_cpus(monkeypatch, 2)
    assert main(["verify", "--suite", "all"]) == 1
    assert capsys.readouterr().out == (
        "PASS ok row\nFAIL fails row: mismatch\n"
        "summary: 2 checks, 1 passed, 1 failed, 0 skipped\n")
    assert_no_child_left()


def _raises(exc):
    def suite():
        raise exc
    return suite


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("exc, message", [
    (ValueError("no such cell"), "error: no such cell\n"),
    (MemoryError(), "error: out of memory; try a smaller size\n"),
], ids=["ValueError", "MemoryError"])
def test_a_suite_that_raises_exits_2_in_a_worker_as_in_process(capsys, monkeypatch, cpus,
                                                               exc, message):
    monkeypatch.setattr(verify, "SUITES", {
        "ok": lambda: [CheckResult("ok", "row", True)],
        "raises": _raises(exc),
        "also_ok": lambda: [CheckResult("also_ok", "row", True)],
    })
    usable_cpus(monkeypatch, cpus)
    assert main(["verify", "--suite", "all"]) == 2
    assert capsys.readouterr() == ("", message)
    assert_no_child_left()


def test_a_worker_that_dies_exits_2_without_a_traceback(capsys, monkeypatch):
    test_pid = os.getpid()

    def killed():
        if os.getpid() != test_pid:  # only ever a worker
            os.kill(os.getpid(), signal.SIGKILL)
        return []

    monkeypatch.setattr(verify, "SUITES", {
        "ok": lambda: [CheckResult("ok", "row", True)],
        "killed": killed,
    })
    usable_cpus(monkeypatch, 2)
    assert main(["verify", "--suite", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a verify worker died: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert_no_child_left()


SHORT_PSI = "short.json"  # psi_0 ... psi_3 only, written by the test below


@pytest.mark.parametrize("argv", [
    ("table", "--N", "-1"),
    ("nogo", "--n", "-1"),
    ("sheffer", "--S", "laguerre_order", "--alpha", "1/0"),
    ("spin", "--j", "0.3"),
    ("spin", "--q", "nan"),
    ("spin", "--q", "inf"),
    ("table", "--tolerance", "1e-3"),
    ("verify", "--format", "json"),
    ("spin", "--format", "csv"),
    ("spin", "--j", "1", "--q", "1e200", "--format", "json"),
    ("weyl", "--tolerance", "1e-3"),
    ("spin", "--j", "1", "--q", "1.5", "--tolerance", "nan"),
    ("spin", "--j", "1", "--q", "1.5", "--tolerance", "inf"),
    ("spin", "--j", "1", "--q", "1.5", "--tolerance", "-1"),
    ("sheffer", "--psi", "classic", "--S", "one", "--alpha", "3/2", "--N", "2"),
    ("table", "--psi", SHORT_PSI, "--N", "6"),
    ("basic", "--psi", SHORT_PSI),
    ("sheffer", "--psi", SHORT_PSI, "--S", "exp_sq"),
    ("expand", "--psi", SHORT_PSI),
    ("nogo", "--psi", SHORT_PSI, "--n", "3"),
], ids=" ".join)
def test_bad_input_exits_2_with_empty_stdout(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / SHORT_PSI).write_text(json.dumps(["1", "1", "1/2", "1/6"]))
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert SHORT_PSI not in argv or "beyond truncation" in captured.err


@pytest.mark.parametrize("j, q", [("1", "1e200"), ("1", "1e-300"), ("20000", "2")],
                         ids=["1e200", "1e-300", "j20000-2"])
def test_spin_bracket_overflow_is_a_usage_error(capsys, j, q):
    # q^2 overflows at 1e200 and underflows to 0 at 1e-300; 2^k overflows at
    # k > 1023, which fails before the 40001^2 matrices would be allocated
    assert main(["spin", "--j", j, "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"overflows the deformed bracket at j = {j}\n" in captured.err


def test_basic_at_n_zero_needs_no_series_order(capsys):
    # p_0 = 1 for every delta operator, even one whose D^2 term lies past N
    code, out = run_cli(capsys, "basic", "--psi", "classic", "--Q", "quadratic",
                        "--N", "0", "--format", "json")
    assert code == 0
    assert out == '{"psi": "classic", "Q": ["0", "1"], "polys": [["1"]]}\n'


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    def too_big(n):
        raise MemoryError

    monkeypatch.setattr(cli, "weyl_build", too_big)
    assert main(["weyl", "--N", "20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory; try a smaller size\n"


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 2
    assert "error: argument command: invalid choice: " in capsys.readouterr().err
    assert main([]) == 2
    assert "error: the following arguments are required: command" in capsys.readouterr().err


PARSER_ARGV = [
    *([name, "-h"] for name in cli.COMMANDS),
    [], ["-h"], ["bogus"],
    ["table", "--N", "x"],  # bad type
    ["basic", "--Q", "nope"],  # bad choice
    ["table", "--N"],  # missing value
    ["table", "--N", "3", "extra"],  # unrecognized arguments, reported by the top level
    ["basic", "sheffer"],
]


def test_main_never_builds_the_parser_for_a_plain_argv(capsys, monkeypatch):
    def refuse():
        raise AssertionError("build_parser called on a plain argv")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["table", "--psi", "classic", "--N", "1", "--format", "csv"]) == 0
    assert main(["verify", "--suite", "laguerre", "--suite", "nogo"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_main_answers_help_and_usage_errors_as_the_full_tree(capsys, monkeypatch, columns):
    """Each PARSER_ARGV builds the parser once and prints what argparse prints."""
    monkeypatch.setenv("COLUMNS", columns)
    real = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    for argv in PARSER_ARGV:
        built.clear()
        code = main(list(argv))
        got = (code, *capsys.readouterr())
        assert len(built) == 1, argv
        with pytest.raises(SystemExit) as exc:
            real().parse_args(list(argv))
        want = (0 if exc.value.code in (0, None) else cli.USAGE_ERROR, *capsys.readouterr())
        assert got == want, argv


ROOT = pathlib.Path(__file__).resolve().parents[1]
# A few plain argv that repeat a flag or pass an empty value; the rest are
# for argparse alone: help, --flag=value, abbreviations, values starting
# with "-", "--", bad types and choices, missing values and extra words.
EDGE_ARGV = [
    ["table", "--N", "2", "--N", "3"], ["verify", "--suite", "su2", "--suite", "weyl"],
    ["table", "--psi", ""],
    ["table", "--N=3"], ["table", "--form", "csv"], ["spin", "--q", "-0.5"],
    ["spin", "--q=-0.5,0.2"], ["table", "--Q", "laguerre"], ["table", "--N"],
    ["table", "--N", "3", "-h"], ["table", "--N", "-h"], ["table", "--psi", "-h"],
    ["table", "--psi", "--N"], ["basic", "--psi", "-x"], ["table", "--", "--N", "3"],
    ["table", "--N", "3", "--"], ["table", "--N", "x"], ["spin", "--j", "0.3.1"],
    ["basic", "--Q", "nope"], ["table", "--N", "3", "extra"], ["table", "extra", "--N"],
    ["sheffer", "--alpha", "1/0"], ["spin", "--tolerance", "0"], ["spin", "--q", "1,2,3"],
    ["weyl", "--N", "-1"], ["verify", "--suite", "all", "--format", "json"],
    *PARSER_ARGV,
]


def test_plain_args_read_as_the_full_tree(capsys):
    """_plain_args agrees with argparse on every benchmark, golden and edge argv."""
    accept = [key.split(" ") for name in ("qgauss", "scalar", "numeric")
              for key in json.loads((ROOT / "perfbench" / "refs" / f"{name}.json")
                                    .read_text(encoding="utf-8"))["refs"]]
    accept += [key.split(" ") for name in ("corpus", "numeric")
               for key in json.loads((ROOT / "tests" / "golden" / f"{name}.json")
                                     .read_text(encoding="utf-8"))]
    parser = cli.build_parser()
    wrong = []
    for argv in accept + EDGE_ARGV:
        try:
            want = vars(parser.parse_args(argv))
        except SystemExit:
            want = None
        got = cli._plain_args(argv)
        if (got is None and argv in accept) or (got is not None and vars(got) != want):
            wrong.append((argv, got, want))
    capsys.readouterr()
    assert wrong == []
    assert len(accept) > 7700


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "psicalc", "table", "--psi", "classic", "--N", "4",
         "--format", "csv"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n,n_psi,n_psi_fact"
    assert proc.stdout.splitlines()[5] == "4,4,24"


def test_numeric_commands_import_no_module_after_the_cli():
    # perfbench forks every operation from a process that has imported
    # psicalc.cli, so a module imported on first use is paid in each one.
    # Both sizes are at least weyl.DIAGONAL_PRODUCT_MIN_N, so the checks
    # run on Diagonals here.
    code = (
        "import contextlib, io, sys\n"
        "import psicalc.cli as cli\n"
        "before = set(sys.modules)\n"
        "for argv in ('spin --j 40 --q 0.5', 'weyl --N 80'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        cli.main(argv.split() + ['--format', 'json'])\n"
        "    assert out.getvalue().startswith('{'), argv\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_closed_stdout_exits_without_a_traceback():
    # the reader is gone before the first write, so every write fails
    proc = subprocess.Popen(
        [sys.executable, "-m", "psicalc", "verify", "--suite", "laguerre"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == CLOSED_STDOUT
    assert err == b""


def test_reader_leaving_mid_output_exits_141():
    # 220 kB of csv, more than a pipe holds: the reader leaves after 100 bytes
    proc = subprocess.Popen(
        [sys.executable, "-m", "psicalc", "table", "--psi", "qgauss", "--N", "36",
         "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(100).startswith(b"n,n_psi,n_psi_fact\n")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == CLOSED_STDOUT
    assert err == b""
