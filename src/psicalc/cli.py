"""Command-line front end: tables, sequence dumps, and verification reports.

Every command is a function `cmd_*(args)` that computes its result and
writes nothing.  It returns `(exit code, payload, text)`: `payload` is
what `--format json` prints, and `text` is either a list of lines or a
`(header, rows)` table of strings.  `main` alone writes stdout: the JSON
payload, a csv table, padded text columns, or the lines as they are, as
the pieces `_stdout` yields.  A payload value may be a generator of JSON
text (`_matrix_json`): `spin` and `weyl` render each matrix one row at a
time, only as `main` writes it, so neither a whole matrix's text nor the
whole output is ever held.  The banded matrices (J3, J+, J-, the clock and
the shift) are `weyl.Diagonals` and are written from their diagonals; the
dense Sylvester and P matrices by runs of equal entries.  Every command has
computed its arrays and checks before the first byte is written.
`COMMANDS` registers each command with its help and arguments.  `main`
reads a plain argv (a command and then flag, value pairs) straight from it,
and builds the argparse tree only for help and usage errors, whose texts
and exit codes it alone writes.

Exact commands render scalars in the canonical string form, so repeated
invocations are byte-identical.  Exit codes: 0 for success (including a
WITNESS verdict, which is the expected outcome of the no-go check), 1 for
a verification failure, 2 for usage errors (an input too large for memory
among them, and a verify worker process that the system killed, as the
out-of-memory killer does), and 141 (128 + SIGPIPE, what a shell reports for
a tool the signal ends) when the reader closes stdout before all the output
is written, as `psicalc ... | head -n 1` does.  An error raised before the
first write leaves stdout empty; one raised while a matrix is written (an
out-of-memory, say) cuts the output short.
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
from types import GeneratorType

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
from .ratfun import QSYM, ZERO, parse_ratfun
from .sequences import basic_sequence, q_laguerre_closed, sheffer_sequence
from .su2q import TOLERANCE, polar_decompose, su2_build, su2_commutator_check
from .verify import SUITES, run_suites
from .weyl import Diagonals, weyl_build, weyl_check

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
        out.append([inner.coeff(k, ZERO).render() for k in range(width)])
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


_ZERO_CELL = "[0.0, 0.0], "


def _diagonals_json(d: Diagonals):
    """`_matrix_json` of a `Diagonals`, read from its diagonals alone.

    One `json.dumps` spells each diagonal's entries; a row is its band
    entries with the text of as many zero cells as lie between them.
    """
    import numpy as np  # only spin and weyl print matrices

    n, bands = d.n, []
    for p, v in d.items():
        pairs = np.ascontiguousarray(v, dtype=complex).view(float).reshape(-1, 2).tolist()
        cells = json.dumps(pairs)[2:-2].split("], [")
        bands.append((p, max(0, -p), ["[" + cell + "], " for cell in cells]))
    sep = "["
    for i in range(n):
        row, col = [], 0  # col: the first column not yet written
        for p, top, cells in bands:  # diagonal p starts on row `top`
            if 0 <= i + p < n:
                row += (_ZERO_CELL * (i + p - col), cells[i - top])
                col = i + p + 1
        row.append(_ZERO_CELL * (n - col))
        yield sep + "[" + "".join(row)[:-2] + "]"
        sep = ", "
    yield "]" if n else "[]"


def _matrix_json(a):
    """The JSON text of [re, im] of every entry of the matrix `a`, a 2-D
    array or a `Diagonals`, in pieces: "[" with the first row, ", " with
    each later row, then "]".

    The text is that of `json.dumps` over the per-entry lists.  A
    `Diagonals` is written by `_diagonals_json`.  An array's row is read as
    runs of entries with equal bits, and a run of L entries is its one cell
    written L times.  Each distinct float among the run heads is written
    once, by one `json.dumps` over the distinct values, so json itself
    spells NaN, Infinity and 5e-324.  Equal and distinct mean equal and
    distinct bits: comparing values would merge -0.0 with 0.0 and every NaN
    with the others.  Nothing is read before the first piece is asked for,
    and the text is joined one row at a time.
    """
    if isinstance(a, Diagonals):
        yield from _diagonals_json(a)
        return
    import numpy as np  # only spin and weyl print matrices

    c = np.ascontiguousarray(a, dtype=complex)  # no copy: spin's and weyl's already are
    rows, cols = c.shape
    if not c.size:
        yield json.dumps([[]] * rows)
        return
    # One mark per float: 1 where its bits differ from those of the float
    # two places back (the same part of the left neighbour).  Each row's
    # first entry is then marked 2, 2, and so is an end sentinel.  Read as
    # uint16, an entry heads a run where its mark is nonzero, and starts a
    # row where it is 514; the sentinel closes the last row.
    marks = np.empty(2 * c.size + 2, dtype=np.uint8)
    bits = c.reshape(-1).view(np.int64)
    np.not_equal(bits[2:], bits[:-2], out=marks[2:-2].view(bool))
    marks[:-2].reshape(rows, 2 * cols)[:, :2] = 2
    marks[-2:] = 2
    flags = marks.view(np.uint16)
    heads = flags.nonzero()[0]
    row_runs = (flags[heads] == 514).nonzero()[0].tolist()  # each row's first run, then the count
    more = heads[1:] - heads[:-1]  # each run's length less one
    more -= 1
    floats, index = np.unique(c.reshape(-1)[heads[:-1]].view(np.int64), return_inverse=True)
    texts = np.array(json.dumps(floats.view(float).tolist())[1:-1].split(", "), dtype=object)
    # Each run is the four pieces re ", " im "], [", with the other cells of
    # a long run after its im; a row joins its runs' pieces but the last.
    cells = np.empty((len(more), 4), dtype=object)
    cells[:, 0::2] = texts[index].reshape(-1, 2)
    cells[:, 1] = ", "
    cells[:, 3] = "], ["
    long = more.nonzero()[0]
    for r, k in zip(long.tolist(), more[long].tolist()):
        re, _, im, _ = cells[r].tolist()
        cells[r, 2] = im + ("], [" + re + ", " + im) * k
    pieces = cells.reshape(-1)
    sep = "["
    for s, e in zip(row_runs, row_runs[1:]):
        yield sep + "[[" + "".join(pieces[4 * s:4 * e - 1].tolist()) + "]]"
        sep = ", "
    yield "]"


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


def _stdout(fmt: str | None, payload, text):
    """The stdout of one command, in pieces: its payload as JSON, its table
    as csv or padded columns, or its lines.

    The payload is a dict.  A value that is a generator (`_matrix_json`'s)
    yields its own JSON text in pieces, read only when its key is reached;
    every other value goes through `json.dumps`.  The pieces join to
    `json.dumps` of the payload with each generator replaced by the object
    it encodes.  A payload with no generator, and every table or list of
    lines, is one piece.
    """
    if fmt == "json":
        pieces = ["{"]
        for k, v in payload.items():
            pieces += (json.dumps(k), ": ")
            if isinstance(v, GeneratorType):
                yield "".join(pieces)
                yield from v
                pieces = []
            else:
                pieces.append(json.dumps(v))
            pieces.append(", ")
        pieces[-1] = "}\n"  # in place of the last separator
        yield "".join(pieces)
    elif isinstance(text, list):
        # expand and nogo accept --format csv and print these same lines;
        # kept because perfbench/refs pins them byte for byte
        yield "".join(line + "\n" for line in text)
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([text[0], *text[1]])
        yield buf.getvalue()
    else:
        header, rows = text
        widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
        yield "".join("  ".join(v.ljust(w) for v, w in zip(r, widths)) + "\n"
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


_PSI = ("--psi", {"default": "qgauss", "help": "built-in psi name or a .json table file"})
_Q = ("--Q", {"default": "derivative", "choices": DELTA_FAMILIES})


def _count(flag: str, default: int) -> tuple:
    return flag, {"type": _size, "default": default}


def _format(default: str = "text", choices=("json", "csv", "text")) -> tuple:
    return "--format", {"default": default, "choices": choices}


# The one definition of the CLI: name -> (command, help, arguments), each
# argument a (flag, add_argument keywords) pair, in the order help lists them.
COMMANDS = {
    "table": (cmd_table, "psi-number and factorial table",
              (_PSI, _count("--N", 8), _format("csv"))),
    "basic": (cmd_basic, "basic polynomial sequence of a delta operator",
              (_PSI, _count("--N", 6), _Q, _format())),
    "sheffer": (cmd_sheffer, "Sheffer sequence for a delta operator and scaling factor",
                (_PSI, _count("--N", 6), _Q, _format(),
                 ("--S", {"default": "one", "choices": SHEFFER_FACTORS}),
                 ("--alpha", {"type": _rational, "default": None,
                              "help": "order alpha of --S laguerre_order (default 0)"}))),
    "laguerre": (cmd_laguerre, "closed-form q-Laguerre basic polynomials",
                 (_count("--n", 3), _format())),
    "expand": (cmd_expand, "expand an operator in powers of a delta operator",
               (_PSI, _count("--N", 6), _Q, _format(),
                ("--op", {"default": "qscale", "choices": OPERATORS}))),
    "nogo": (cmd_nogo, "two-sided deformed binomial expansion with verdict",
             (_PSI, _count("--n", 3), _format())),
    "spin": (cmd_spin, "deformed angular-momentum matrices and checks",
             (_format(choices=("json", "text")),
              ("--j", {"type": _rational, "default": Fraction(1)}),
              ("--q", {"type": _parse_complex, "default": None,
                       "help": "deformation parameter re[,im]; omit for undeformed"}),
              ("--tolerance", {"type": _tolerance, "default": TOLERANCE}))),
    "weyl": (cmd_weyl, "clock/shift pair, Sylvester transform and checks",
             (_count("--N", 6), _format(choices=("json", "text")))),
    "verify": (cmd_verify, "run identity suites and exit 0 only if all pass",
               (("--suite", {"action": "append", "default": None,
                             "help": "suite name or 'all' (repeatable; 'all' anywhere runs "
                                     "every suite); available: " + ", ".join(SUITES)}),)),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command: it answers help and usage errors, and it
    is the reference that `_plain_args` reads as."""
    parser = argparse.ArgumentParser(
        prog="psicalc",
        description="Deformed finite operator calculus tables and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace `build_parser` reads from a plain argv, or None.

    Plain is a command and then (flag, value) pairs: each flag spelled as
    the command registers it, and each value one that does not start with
    "-", that the flag's type reads and that its choices hold.  Everything
    else (help, abbreviations, --flag=value, a bad value, a missing one or
    an extra word) is None, left to argparse and its messages.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    run, _, arguments = COMMANDS[argv[0]]
    options = dict(arguments)
    args = {"command": argv[0], "run": run}
    args.update((flag[2:], opts.get("default")) for flag, opts in arguments)
    for flag, text in zip(argv[1::2], argv[2::2]):
        opts = options.get(flag)
        if opts is None or text.startswith("-"):
            return None
        try:
            value = opts["type"](text) if "type" in opts else text
        except (argparse.ArgumentTypeError, ValueError, TypeError):
            return None
        if "choices" in opts and value not in opts["choices"]:
            return None
        dest = flag[2:]
        if opts.get("action") == "append":
            value = [*(args[dest] or []), value]
        args[dest] = value
    return argparse.Namespace(**args)


def main(argv=None) -> int:
    try:
        try:
            argv = sys.argv[1:] if argv is None else list(argv)
            # argparse only for what the registry cannot read directly:
            # building and running it is most of a small command's time.
            args = _plain_args(argv) or build_parser().parse_args(argv)
            code, payload, text = args.run(args)
            # In slices no larger than the io buffer: a larger write that the
            # reader cuts short is dropped without an error, hiding the 141.
            for out in _stdout(getattr(args, "format", None), payload, text):
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
