"""Command-line front end: tables, sequence dumps, and verification reports.

Every command is a function `cmd_*(args)` that computes its result and
writes nothing.  It returns `(exit code, payload, text)`: `payload` is
what `--format json` prints, and `text` is either a list of lines or a
`(header, rows)` table of strings.  `main` alone writes stdout: the JSON
payload, a csv table, padded text columns, or the lines as they are.

Exact commands render scalars in the canonical string form, so repeated
invocations are byte-identical.  Exit codes: 0 for success (including a
WITNESS verdict, which is the expected outcome of the no-go check), 1 for
a verification failure, 2 for usage errors (an input too large for memory
among them), and 141 (128 + SIGPIPE, what a shell reports for a tool the
signal ends) when the reader closes stdout before all the output is written,
as `psicalc ... | head -n 1` does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction

from . import plane as plane_mod
from .expansion import expand_operator, reconstruct_operator
from .operators import (
    DELTA_FAMILIES,
    SHEFFER_FACTORS,
    OperatorSeries,
    laguerre_delta,
    scaling_matrix,
    table,
)
from .psi import BUILTIN_PSIS, PsiSequence, by_name, custom, psi_derivative, qgauss
from .poly import Poly
from .ratfun import QSYM, parse_ratfun
from .sequences import basic_sequence, q_laguerre_closed, sheffer_sequence
from .su2q import TOLERANCE, polar_decompose, su2_build, su2_commutator_check
from .verify import SUITES, run_suites
from .weyl import weyl_build, weyl_check

USAGE_ERROR = 2
CLOSED_STDOUT = 141

# --op choices: operator tables on x^0..x^{dim-1} that `expand` expands
OPERATORS = {
    "identity": lambda psi, dim: table(lambda p: p, dim),
    "number": lambda psi, dim: table(lambda p: psi_derivative(psi, p).shifted(1), dim),
    "qscale": lambda psi, dim: scaling_matrix(QSYM, dim),
}


def _load_psi(name: str) -> PsiSequence:
    if name in BUILTIN_PSIS:
        return by_name(name)
    if name.endswith(".json"):
        try:
            with open(name, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read psi file: {exc}") from None
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
            raise ValueError(f"malformed psi file: {exc}") from None
        if isinstance(payload, dict):
            unknown = sorted(set(payload) - {"name", "psi"})
            if unknown:
                raise ValueError(f"malformed psi file: unknown key {unknown[0]!r} "
                                 "(expected 'name' and 'psi')")
            label = payload.get("name", name)
            rows = payload.get("psi")
        else:
            label, rows = name, payload
        if not isinstance(label, str):
            raise ValueError("malformed psi file: name must be a string")
        if not isinstance(rows, list) or not all(isinstance(r, str) for r in rows):
            raise ValueError("malformed psi file: expected a JSON list of value strings")
        try:
            values = [parse_ratfun(r) for r in rows]
            return custom(label, values)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed psi file: {exc}") from None
    known = ", ".join(sorted(BUILTIN_PSIS))
    raise ValueError(f"unknown psi sequence {name!r}; built-ins: {known} (or a .json table)")


def _render_poly(p: Poly) -> list[str]:
    return [c.render() for c in p.coeffs]


def _series_json(s: OperatorSeries, N: int) -> list[str]:
    """a_0 ... a_{N+1} of s, rendered."""
    return [s.coeff(k).render() for k in range(N + 2)]


def cmd_table(args: argparse.Namespace) -> tuple:
    psi = _load_psi(args.psi)
    rows = [[str(n), psi.number(n).render(), psi.factorial(n).render()]
            for n in range(args.N + 1)]
    payload = {
        "psi": psi.name,
        "rows": [{"n": n, "n_psi": a, "n_psi_fact": f} for n, (_, a, f) in enumerate(rows)],
    }
    return 0, payload, (["n", "n_psi", "n_psi_fact"], rows)


def _sequence(psi: PsiSequence, delta: OperatorSeries, N: int, polys, **extra) -> tuple:
    """Payload and table of the polynomials of basic, sheffer and laguerre."""
    payload = {"psi": psi.name, "Q": _series_json(delta, N),
               "polys": [_render_poly(p) for p in polys], **extra}
    rows = [[str(n), *coeffs] for n, coeffs in enumerate(payload["polys"])]
    # The width counts the n column as a power, so the last x^k column is
    # always empty; perfbench/refs pins these tables, so it stays for now.
    header = ["n"] + [f"x^{k}" for k in range(max(map(len, rows)))]
    return payload, (header, [r + [""] * (len(header) - len(r)) for r in rows])


def _solved(args: argparse.Namespace) -> tuple:
    """(psi, Q, basic sequence p_0 ... p_N) named by --psi, --Q and --N."""
    psi = _load_psi(args.psi)
    delta = DELTA_FAMILIES[args.Q](psi)
    return psi, delta, basic_sequence(delta, args.N, method="solve")


def cmd_basic(args: argparse.Namespace) -> tuple:
    psi, delta, basic = _solved(args)
    return 0, *_sequence(psi, delta, args.N, basic)


def cmd_sheffer(args: argparse.Namespace) -> tuple:
    if args.alpha is not None and args.S != "laguerre_order":
        raise ValueError("--alpha applies only to --S laguerre_order")
    psi, delta, basic = _solved(args)
    factor = SHEFFER_FACTORS[args.S](psi, args.alpha or Fraction(0))
    polys = sheffer_sequence(factor, basic)
    return 0, *_sequence(psi, delta, args.N, polys, S=_series_json(factor, args.N))


def cmd_laguerre(args: argparse.Namespace) -> tuple:
    psi = qgauss()
    polys = [q_laguerre_closed(psi, k) for k in range(args.n + 1)]
    return 0, *_sequence(psi, laguerre_delta(psi), args.n, polys)


def cmd_expand(args: argparse.Namespace) -> tuple:
    psi, delta, basic = _solved(args)
    op = OPERATORS[args.op](psi, args.N + 1)
    coeff_polys = expand_operator(op, delta, basic)
    exact = reconstruct_operator(coeff_polys, delta, basic) == op
    payload = {
        "psi": psi.name,
        "Q": _series_json(delta, args.N),
        "op": args.op,
        "coeff_polys": [_render_poly(p) for p in coeff_polys],
        "reconstruction_exact": exact,
    }
    lines = [f"g_{n}: {coeffs}" for n, coeffs in enumerate(payload["coeff_polys"])]
    return (0 if exact else 1), payload, lines + [f"reconstruction_exact: {exact}"]


def _bivar_table(p: Poly) -> list[list[str]]:
    width = max((inner.degree for inner in p.coeffs), default=-1) + 1
    out = []
    for inner in p.coeffs:
        row = [inner.coeff(k, None) for k in range(width)]
        out.append([c.render() if c is not None else "0" for c in row])
    return out


def cmd_nogo(args: argparse.Namespace) -> tuple:
    psi = _load_psi(args.psi)
    result = plane_mod.binomial_nogo(psi, args.n)
    payload = {
        "psi": psi.name,
        "n": args.n,
        "lhs": _bivar_table(result.lhs),
        "rhs": _bivar_table(result.rhs),
        "residual": _bivar_table(result.residual),
        "verdict": result.verdict,
        "b0_convention": plane_mod.B0_CONVENTION,
    }
    lines = []
    for label in ("lhs", "rhs", "residual"):
        lines.append(f"{label} (rows = x-degree, columns = y-degree):")
        lines += ["  " + "  ".join(row) for row in payload[label]]
    return 0, payload, lines + [f"verdict: {result.verdict}",
                                f"note: {plane_mod.B0_CONVENTION}"]


def _matrix_json(a) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def cmd_spin(args: argparse.Namespace) -> tuple:
    rep = su2_build(args.j, q=args.q)
    checks = [su2_commutator_check(rep, args.tolerance), polar_decompose(rep, args.tolerance)]
    reports = [c.as_json() for c in checks]
    payload = None
    if args.format == "json":  # the matrices are serialised only to be printed
        payload = {
            "j3": _matrix_json(rep.j3),
            "jplus": _matrix_json(rep.jplus),
            "jminus": _matrix_json(rep.jminus),
            "reports": reports,
        }
    code = 0 if all(c.ok for c in checks) else 1
    return code, payload, [json.dumps(r) for r in reports]


def cmd_weyl(args: argparse.Namespace) -> tuple:
    pair = weyl_build(args.N)
    check = weyl_check(pair)
    payload = None
    if args.format == "json":  # the matrices are serialised only to be printed
        payload = {
            "n": pair.n,
            "sigma1": _matrix_json(pair.sigma1),
            "sigma2": _matrix_json(pair.sigma2),
            "smat": _matrix_json(pair.smat),
            "pmat": _matrix_json(pair.pmat),
            "report": check.as_json(),
        }
    return (0 if check.ok else 1), payload, [json.dumps(check.as_json())]


def cmd_verify(args: argparse.Namespace) -> tuple:
    results = run_suites(args.suite)
    count = Counter(r.verdict for r in results)
    summary = (f"summary: {len(results)} checks, {count['PASS']} passed, "
               f"{count['FAIL']} failed, {count['SKIP']} skipped")
    return (0 if count["FAIL"] == 0 else 1), None, [r.line() for r in results] + [summary]


def _stdout(fmt: str | None, payload, text) -> str:
    """The stdout of one command: its payload as JSON, its table as csv or
    padded columns, or its lines."""
    if fmt == "json":
        return json.dumps(payload) + "\n"
    if isinstance(text, list):
        # expand and nogo accept --format csv and print these same lines;
        # kept because perfbench/refs pins them byte for byte
        return "".join(line + "\n" for line in text)
    header, rows = text
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return buf.getvalue()
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    return "".join("  ".join(v.ljust(w) for v, w in zip(r, widths)) + "\n"
                   for r in [header, *rows])


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            values = [float(p) for p in parts]
            if all(math.isfinite(v) for v in values):
                return complex(*values)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected finite re or re,im, got {text!r}")


def _size(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite tolerance > 0, got {text!r}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational such as 3/2 or 0.5, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psicalc",
        description="Deformed finite operator calculus tables and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, cmd, help_text, formats=("json", "csv", "text"), fmt="text", psi=False,
            N=None, n=None, Q=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=cmd)
        if psi:
            p.add_argument("--psi", default="qgauss",
                           help="built-in psi name or a .json table file")
        if N is not None:
            p.add_argument("--N", type=_size, default=N)
        if n is not None:
            p.add_argument("--n", type=_size, default=n)
        if Q:
            p.add_argument("--Q", default="derivative", choices=DELTA_FAMILIES)
        if formats:
            p.add_argument("--format", default=fmt, choices=formats)
        return p

    add("table", cmd_table, "psi-number and factorial table", psi=True, N=8, fmt="csv")
    add("basic", cmd_basic, "basic polynomial sequence of a delta operator",
        psi=True, N=6, Q=True)
    p = add("sheffer", cmd_sheffer, "Sheffer sequence for a delta operator and scaling factor",
            psi=True, N=6, Q=True)
    p.add_argument("--S", default="one", choices=SHEFFER_FACTORS)
    p.add_argument("--alpha", type=_rational, default=None,
                   help="order alpha of --S laguerre_order (default 0)")
    add("laguerre", cmd_laguerre, "closed-form q-Laguerre basic polynomials", n=3)
    p = add("expand", cmd_expand, "expand an operator in powers of a delta operator",
            psi=True, N=6, Q=True)
    p.add_argument("--op", default="qscale", choices=OPERATORS)
    add("nogo", cmd_nogo, "two-sided deformed binomial expansion with verdict", psi=True, n=3)
    p = add("spin", cmd_spin, "deformed angular-momentum matrices and checks",
            formats=("json", "text"))
    p.add_argument("--j", type=_rational, default=Fraction(1))
    p.add_argument("--q", type=_parse_complex, default=None,
                   help="deformation parameter re[,im]; omit for undeformed")
    p.add_argument("--tolerance", type=_tolerance, default=TOLERANCE)
    add("weyl", cmd_weyl, "clock/shift pair, Sylvester transform and checks",
        formats=("json", "text"), N=6)
    p = add("verify", cmd_verify, "run identity suites and exit 0 only if all pass",
            formats=())
    p.add_argument("--suite", action="append", default=None,
                   help="suite name or 'all' (repeatable; 'all' anywhere runs every "
                        "suite); available: "
                        + ", ".join(SUITES))
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            code, payload, text = args.run(args)
            out = _stdout(getattr(args, "format", None), payload, text)
            # In pieces no larger than the io buffer: a larger write that the
            # reader cuts short is dropped without an error, hiding the 141.
            for i in range(0, len(out), io.DEFAULT_BUFFER_SIZE):
                sys.stdout.write(out[i:i + io.DEFAULT_BUFFER_SIZE])
        except SystemExit as exc:  # argparse has printed the help or the usage error
            code = USAGE_ERROR if exc.code not in (0, None) else 0
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = USAGE_ERROR
        except MemoryError:
            print("error: out of memory; try a smaller size", file=sys.stderr)
            code = USAGE_ERROR
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again
        # (the pattern from the notes on SIGPIPE in Python's `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT


if __name__ == "__main__":
    raise SystemExit(main())
