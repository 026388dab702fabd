"""The finite menus the workload generators draw argv lists from.

Every argv a generator can produce is listed here, so references can be
recorded for all of them ahead of a run (see make_refs.py).  Choices mirror
the CLI's own: --Q, --S, --op and --format take every value the parser
accepts; laguerre_order always carries --alpha 3/2.
"""

from __future__ import annotations

import math

Q_CHOICES = ("derivative", "laguerre", "quadratic", "shifted")
S_CHOICES = ("one", "one_minus", "exp_sq", "one_minus_sq", "laguerre_order")
OP_CHOICES = ("identity", "number", "qscale")
FORMATS = ("json", "csv", "text")
ALPHA = "3/2"

SCALAR_PSIS = ("classic", "fibonacci", "square")

# size ranges per workload: (low, high) inclusive
QGAUSS_SIZES = (1, 12)
QGAUSS_EXPAND_SIZES = (1, 10)
SCALAR_SIZES = (12, 28)
SCALAR_EXPAND_SIZES = (12, 20)

SPIN_J2 = tuple(range(1, 201))  # 2j: j = 1/2 .. 100
WEYL_N = tuple(range(2, 257))
# --q arguments: undeformed (None), real deformations, exp(i*pi/7), near 1
SPIN_Q = (None, "0.5", "1.5", "2.0",
          f"{math.cos(math.pi / 7)!r},{math.sin(math.pi / 7)!r}", "1.0000001")


def key(argv) -> str:
    """The reference key of an argv list."""
    return " ".join(argv)


def exact_argv(cmd: str, psi: str, n: int, fmt: str, *, Q: str = "", S: str = "",
               op: str = "") -> list[str]:
    """One exact command in the canonical flag order used by every menu."""
    if cmd == "laguerre":
        return ["laguerre", "--n", str(n), "--format", fmt]
    if cmd == "nogo":
        return ["nogo", "--psi", psi, "--n", str(n), "--format", fmt]
    argv = [cmd, "--psi", psi]
    if Q:
        argv += ["--Q", Q]
    if S:
        argv += ["--S", S]
        if S == "laguerre_order":
            argv += ["--alpha", ALPHA]
    if op:
        argv += ["--op", op]
    return argv + ["--N", str(n), "--format", fmt]


def spin_argv(j2: int, q_arg: str | None) -> list[str]:
    argv = ["spin", "--j", f"{j2 / 2:g}"]
    if q_arg is not None:
        argv += ["--q", q_arg]
    return argv + ["--format", "json"]


def weyl_argv(n: int) -> list[str]:
    return ["weyl", "--N", str(n), "--format", "json"]


def _sizes(lo_hi):
    return range(lo_hi[0], lo_hi[1] + 1)


def exact_menu(psis, sizes, expand_sizes, with_laguerre: bool) -> list[list[str]]:
    """Every exact argv drawable over the given psi tables and size ranges."""
    out = []
    for psi in psis:
        for fmt in FORMATS:
            for n in _sizes(sizes):
                out.append(exact_argv("table", psi, n, fmt))
                out.append(exact_argv("nogo", psi, n, fmt))
                for Q in Q_CHOICES:
                    out.append(exact_argv("basic", psi, n, fmt, Q=Q))
                    for S in S_CHOICES:
                        out.append(exact_argv("sheffer", psi, n, fmt, Q=Q, S=S))
            for n in _sizes(expand_sizes):
                for Q in Q_CHOICES:
                    for op in OP_CHOICES:
                        out.append(exact_argv("expand", psi, n, fmt, Q=Q, op=op))
    if with_laguerre:
        for fmt in FORMATS:
            for n in _sizes(sizes):
                out.append(exact_argv("laguerre", "qgauss", n, fmt))
    return out


def qgauss_menu() -> list[list[str]]:
    return exact_menu(("qgauss",), QGAUSS_SIZES, QGAUSS_EXPAND_SIZES, True)


def scalar_menu() -> list[list[str]]:
    # `laguerre` takes no --psi (it is the q table by definition), so the
    # scalar stream leaves it out
    return exact_menu(SCALAR_PSIS, SCALAR_SIZES, SCALAR_EXPAND_SIZES, False)


def numeric_menu() -> list[list[str]]:
    out = [spin_argv(j2, q) for q in SPIN_Q for j2 in SPIN_J2]
    out += [weyl_argv(n) for n in WEYL_N]
    return out

