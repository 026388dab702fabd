"""Self-tests of the benchmark itself (not of psicalc).

Run from the repository root:

    python3 -m pytest perfbench -q

A few cheap operations run for real, in forked children, as they do in
a benchmark run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bootstrap  # noqa: E402
import menus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from runner import run_op  # noqa: E402

MENUS = {
    "verify-all": lambda: [["verify", "--suite", "all"]],
    "cli-qgauss": menus.qgauss_menu,
    "cli-scalar": menus.scalar_menu,
    "numeric": menus.numeric_menu,
}


@pytest.fixture(scope="module")
def cli_main():
    return bootstrap.import_cli()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_the_draw(workload):
    menu = {menus.key(a) for a in MENUS[workload]()}
    first = workloads.draw(workload, 1, 3)
    assert first == workloads.draw(workload, 1, 3)
    other = workloads.draw(workload, 2, 3)
    assert {menus.key(a) for a in first + other} <= menu
    if workload != "verify-all":
        assert first != other
        assert sorted(map(menus.key, first)) != sorted(map(menus.key, other))


def test_qgauss_draw_covers_every_size():
    def cell(argv):
        flag = "--n" if "--n" in argv else "--N"
        return argv[0], int(argv[argv.index(flag) + 1])

    drawn = {cell(a) for a in workloads.draw("cli-qgauss", 1, 6)}
    want = {(cmd, n) for cmd in ("table", "nogo", "laguerre", "basic", "sheffer")
            for n in range(1, 13)}
    assert drawn == want | {("expand", n) for n in range(1, 9)}


@pytest.mark.parametrize("workload", ["cli-qgauss", "cli-scalar"])
def test_every_drawable_argv_has_a_reference(workload):
    refs = run.load_refs(workload)["refs"]
    missing = [menus.key(a) for a in MENUS[workload]() if menus.key(a) not in refs]
    assert missing == []
    assert all(rc == 0 for _, _, rc in refs.values())


def test_numeric_references_cover_the_menu_and_fail_only_deformed_spins():
    refs = run.load_refs("numeric")["refs"]
    assert set(refs) == {menus.key(a) for a in menus.numeric_menu()}
    failing = {k for k, rc in refs.items() if rc == 1}
    assert set(refs.values()) == {0, 1}
    assert all(k.startswith("spin ") and k.split()[4] in ("0.5", "1.5", "2.0", "1.0000001")
               for k in failing)


def test_numeric_rounds_hold_a_fixed_defect_share():
    refs = run.load_refs("numeric")["refs"]
    for seed in (1, 2, 3):
        for rnd in workloads.draw("numeric", seed, 1), workloads.draw("numeric", seed, 2):
            share = sum(refs[menus.key(a)] for a in rnd) / len(rnd)
            assert share == pytest.approx(44 / 131)


def test_verify_reference_lists_every_check():
    refs = run.load_refs("verify-all")
    assert refs["rc"] == 0 and len(refs["rows"]) == 264
    assert {v for v, _ in refs["rows"]} <= {"PASS", "SKIP"}


def _cheap_exact_argvs():
    return [
        menus.exact_argv("table", "qgauss", 3, "csv"),
        menus.exact_argv("basic", "qgauss", 2, "json", Q="laguerre"),
        menus.exact_argv("expand", "qgauss", 2, "text", Q="shifted", op="number"),
        menus.exact_argv("nogo", "qgauss", 2, "json"),
    ]


def test_corrupting_one_reference_fails_exactly_that_operation(cli_main):
    refs = run.load_refs("cli-qgauss")
    argvs = _cheap_exact_argvs()
    results = [run_op(a, cli_main) for a in argvs]
    assert [run.check("cli-qgauss", r, refs).wrong for r in results] == [0, 0, 0, 0]
    target = menus.key(argvs[2])
    sha, size, rc = refs["refs"][target]
    bad = dict(refs, refs=dict(refs["refs"], **{target: ["0" * len(sha), size, rc]}))
    assert [run.check("cli-qgauss", r, bad).wrong for r in results] == [0, 0, 1, 0]


def test_numeric_checks_accept_known_defects_and_count_them(cli_main):
    refs = run.load_refs("numeric")
    ok = run.check("numeric", run_op(menus.spin_argv(4, "0.5"), cli_main), refs)
    known = run.check("numeric", run_op(menus.spin_argv(3, "1.0000001"), cli_main), refs)
    assert (ok.wrong, ok.not_passed, ok.known) == (0, 0, 0)
    assert (known.wrong, known.not_passed, known.known) == (0, 1, 1)


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (clipped to 10); a has child d [2, 3]
    recs = [
        [0, 1, None, "root", 0.0, 10.0],
        [0, 2, 1, "a", 1.0, 4.0],
        [0, 3, 1, "b", 3.0, 6.0],
        [0, 4, 1, "c", 8.0, 12.0],
        [0, 5, 2, "d", 2.0, 3.0],
    ]
    got = spans.self_times(recs)
    assert got == {"root": 10 - 5 - 2, "a": 2.0, "b": 3.0, "c": 4.0, "d": 1.0}


def test_tracer_self_time_agrees_with_the_span_records():
    now = [0.0]  # a clock that only the traced functions advance
    tracer = spans.Tracer(clock=lambda: now[0], hot_prefixes=())

    def work(seconds):
        now[0] += seconds

    def leaf():
        work(1.0)
        return 1

    def mid():
        work(2.0)
        total = wleaf() + wleaf()
        work(0.5)
        return total

    wleaf = tracer.wrap(leaf, "x.leaf")
    wmid = tracer.wrap(mid, "x.mid")
    assert tracer.run_root(lambda: wmid() + wleaf()) == 3
    layers, recs = tracer.export()
    agg = layers["agg"]
    assert spans.self_times(recs) == {n: a[2] for n, a in agg.items()}
    assert agg["x.leaf"] == [3, 3.0, 3.0]
    assert agg["x.mid"] == [1, 4.5, 2.5]
    assert agg["cli.main"] == [1, 5.5, 0.0]


def test_install_rebinds_names_imported_elsewhere(cli_main):
    import psicalc.cli
    import psicalc.sequences
    import psicalc.verify

    before = psicalc.sequences.basic_sequence
    pid = os.fork()
    if pid == 0:  # patch only a throwaway child
        code = 1
        try:
            spans.Tracer().install()
            ok = (psicalc.cli.basic_sequence is psicalc.sequences.basic_sequence
                  is psicalc.verify.basic_sequence is not before
                  and all(hasattr(f, "__wrapped_by_perfbench__")
                          for f in psicalc.verify.SUITES.values()))
            code = 0 if ok else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert psicalc.sequences.basic_sequence is before


def test_traced_counts_repeat_exactly(cli_main):
    refs = run.load_refs("cli-qgauss")
    argvs = _cheap_exact_argvs()

    def counts():
        metrics, results, _, _ = run.run_traced(argvs, cli_main)
        assert sum(run.check("cli-qgauss", r, refs).wrong for r in results) == 0
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] in ("count", "degree", "bits", "bytes")}

    first = counts()
    assert first["ratfun.mul.calls"] > 0 and first["psi.tables_built"] == 4
    assert counts() == first


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (n, u, b) for n, u, b, _ in spans.PER_LAYER]
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-qgauss", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert got.returncode != 0
    assert '"metrics"' not in got.stdout
