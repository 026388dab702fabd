import json
import subprocess
import sys

import pytest

from psicalc import cli, verify
from psicalc.cli import CLOSED_STDOUT, main
from psicalc.psi import qgauss
from psicalc.sequences import q_laguerre_closed
from psicalc.verify import CheckResult


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


def test_verify_all_anywhere_runs_every_suite(capsys, monkeypatch):
    stub = {name: (lambda name=name: [CheckResult(name, "stub", True)])
            for name in verify.SUITES}
    monkeypatch.setattr(verify, "SUITES", stub)
    code, out = run_cli(capsys, "verify", "--suite", "su2", "--suite", "all")
    assert code == 0
    assert out.splitlines() == [f"PASS {name} stub" for name in stub] + [
        f"summary: {len(stub)} checks, {len(stub)} passed, 0 failed, 0 skipped"]
    assert run_cli(capsys, "verify", "--suite", "all", "--suite", "bogus") == (2, "")


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


@pytest.mark.parametrize("q", ["1e200", "1e-300"])
def test_spin_bracket_overflow_is_a_usage_error(capsys, q):
    # q^2 overflows at 1e200 and underflows to 0 at 1e-300
    assert main(["spin", "--j", "1", "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows the deformed bracket at j = 1" in captured.err


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


def test_usage_error_exit_code():
    assert main(["bogus-command"]) == 2
    assert main([]) == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "psicalc", "table", "--psi", "classic", "--N", "4",
         "--format", "csv"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n,n_psi,n_psi_fact"
    assert proc.stdout.splitlines()[5] == "4,4,24"


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
