"""Executable identity suites over the standard verification grid.

Each suite turns one family of identities into a list of CheckResult
rows; the CLI prints one line per row and the acceptance tests assert on
them.  Exact suites demand zero residuals, numeric suites compare
residual norms against explicit tolerances, and cells that cannot run
(e.g. a non-PSD modulus) are listed as skipped with the reason instead
of being dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import plane as plane_mod
from .expansion import expand_operator, qmutator_check, reconstruct_operator
from .operators import (
    DELTA_FAMILIES,
    SHEFFER_FACTORS,
    OperatorSeries,
    laguerre_delta,
    pincherle_commutator_matrix,
    scaling_matrix,
    table,
)
from .poly import Poly
from .psi import (
    BUILTIN_PSIS,
    PsiSequence,
    by_name,
    classic,
    monomial,
    psi_derivative,
    qgauss,
    translate,
)
from .ratfun import QSYM, RationalFunction, rf
from .sequences import (
    BASIC_BUILDERS,
    basic_sequence,
    binomial_residuals,
    q_laguerre_closed,
    sheffer_sequence,
)
from .su2q import TOLERANCE, polar_decompose, su2_build, su2_commutator_check
from .weyl import shift_spectrum_residual, weyl_build, weyl_check

PSI_GRID = tuple(BUILTIN_PSIS)
DELTA_GRID = tuple(DELTA_FAMILIES)
SHEFFER_GRID = ("one_minus", "exp_sq", "one_minus_sq")
N_TOP = 10  # top index n of methods, laguerre, binomial, qmutator and nogo
SPIN_J_MAX = 6.0  # su2 and polar run j = 1/2, 1, ..., SPIN_J_MAX

# q of the deformed ladders of su2 and polar, which also run the undeformed one
SPIN_Q_SET: tuple = (0.5, 1.5, 2.0, np.exp(1j * np.pi / 7), np.exp(1j * np.pi / 12))


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""
    skipped: str = ""

    @property
    def verdict(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        text = f"{self.verdict} {self.suite} {self.name}"
        extra = self.skipped or self.detail
        return f"{text}: {extra}" if extra else text


def _grid_psis() -> list[PsiSequence]:
    return [by_name(name) for name in PSI_GRID]


def _cells(n_top: int):
    """Every (psi, delta name, Q, basic) of the grid: Q and its basic
    sequence p_0 ... p_{n_top}, solved once here."""
    for psi in _grid_psis():
        for dname in DELTA_GRID:
            Q = DELTA_FAMILIES[dname](psi)
            yield psi, dname, Q, basic_sequence(Q, n_top, "solve")


def _exact(suite: str, name: str, ok: bool, bad: str = "nonzero residual") -> CheckResult:
    """An exact-suite row: detail "exact" on a pass, `bad` on a failure."""
    return CheckResult(suite, name, ok, "exact" if ok else bad)


# -- exact suites ------------------------------------------------------------


def suite_method_agreement() -> list[CheckResult]:
    """All five basic-sequence constructions agree on the full grid."""
    closed = [m for m in BASIC_BUILDERS if m != "solve"]
    out = []
    for psi, dname, Q, ref in _cells(N_TOP):
        method = next((m for m in closed if basic_sequence(Q, N_TOP, m) != ref), None)
        out.append(CheckResult(
            "methods", f"psi={psi.name} Q={dname} n<={N_TOP}", method is None,
            "exact agreement" if method is None else f"method {method} disagrees",
        ))
    return out


def suite_laguerre() -> list[CheckResult]:
    """Closed form equals the solve oracle; q -> 1 matches the classic table."""
    psi_q = qgauss()
    oracle = basic_sequence(laguerre_delta(psi_q), N_TOP, "solve")
    ok = all(q_laguerre_closed(psi_q, n) == oracle[n] for n in range(N_TOP + 1))
    classic_oracle = basic_sequence(laguerre_delta(classic()), N_TOP, "solve")
    n = next((n for n in range(N_TOP + 1)
              if q_laguerre_closed(psi_q, n).map_coeffs(lambda c: rf(c.eval_q(1)))
              != classic_oracle[n]), None)
    return [
        _exact("laguerre", f"closed form vs solve, n<={N_TOP}", ok, "mismatch"),
        _exact("laguerre", f"q->1 specialization, n<={N_TOP}", n is None, f"mismatch at n={n}"),
    ]


def suite_binomial() -> list[CheckResult]:
    """Translation identity for every grid basic sequence."""
    out = []
    for psi, dname, Q, basic in _cells(N_TOP):
        res = binomial_residuals(psi, basic, basic)
        out.append(_exact("binomial", f"psi={psi.name} Q={dname} n<={N_TOP}", not any(res)))
    return out


def suite_sheffer() -> list[CheckResult]:
    """Translation identity for Sheffer sequences over three scaling factors."""
    n_top = 8
    out = []
    for psi, dname, Q, basic in _cells(n_top):
        for sname in SHEFFER_GRID:
            sh = sheffer_sequence(SHEFFER_FACTORS[sname](psi), basic)
            res = binomial_residuals(psi, sh, basic)
            out.append(_exact("sheffer", f"psi={psi.name} Q={dname} S={sname} n<={n_top}",
                              not any(res)))
    return out


def _random_rf(rng: random.Random) -> RationalFunction:
    kind = rng.randrange(4)
    if kind == 0:
        return rf(Fraction(rng.randint(-4, 4)))
    if kind == 1:
        return rf(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    base = rf(Fraction(rng.randint(-2, 2)))
    return base + QSYM * rng.randint(-2, 2)


def random_nonraising_table(rng: random.Random, dim: int) -> tuple[Poly, ...]:
    """A random operator table whose column degrees never exceed the index."""
    return tuple(Poly([_random_rf(rng) for _ in range(j + 1)]) for j in range(dim))


def suite_expansion() -> list[CheckResult]:
    """Expansion/reconstruction roundtrips plus the dilation example."""
    count, size = 50, 8
    rng = random.Random(20240811)
    grid = [(Q, basic) for _, _, Q, basic in _cells(size)]
    failures = 0
    for trial in range(count):
        Q, basic = grid[trial % len(grid)]
        T = random_nonraising_table(rng, size + 1)
        gs = expand_operator(T, Q, basic)
        R = reconstruct_operator(gs, Q, basic)
        failures += R != T or expand_operator(R, Q, basic) != gs
    Q = DELTA_FAMILIES["derivative"](qgauss())
    basic = basic_sequence(Q, size, "solve")
    T = scaling_matrix(QSYM, size + 1)
    ok = reconstruct_operator(expand_operator(T, Q, basic), Q, basic) == T
    return [
        _exact("expansion", f"{count} random roundtrips at N={size}", failures == 0,
               f"{failures} failures"),
        _exact("expansion", f"q-dilation operator at N={size}", ok, "mismatch"),
    ]


def suite_qmutator() -> list[CheckResult]:
    """Deformed bracket of (Q, xhat_Q) equals the identity on the grid."""
    out = [
        _exact("qmutator", f"psi={psi.name} Q={dname} n<{N_TOP}",
               not any(qmutator_check(Q, basic)))
        for psi, dname, Q, basic in _cells(N_TOP)
    ]
    psi_q = qgauss()
    ok = all(
        psi_derivative(psi_q, xn.shifted(1)) - psi_derivative(psi_q, xn).shifted(1).scale(QSYM)
        == xn
        for xn in map(monomial, range(N_TOP))
    )
    out.append(_exact("qmutator", "q-case reduction Dq x - q x Dq = id", ok, "mismatch"))
    return out


def suite_nogo() -> list[CheckResult]:
    """Zero residuals for the q table; explicit witnesses elsewhere."""
    witness_up_to = 4
    psi_q = qgauss()

    def broken(n: int) -> bool:
        r = plane_mod.binomial_nogo(psi_q, n)
        return not r.residual.is_zero() or r.lhs != translate(psi_q, monomial(n))

    n = next((n for n in range(N_TOP + 1) if broken(n)), None)
    out = [_exact("nogo", f"psi=qgauss residuals zero, n<={N_TOP}", n is None,
                  f"failure at n={n}")]
    for name in ("fibonacci", "square"):
        psi = by_name(name)
        w = plane_mod.smallest_witness(psi, witness_up_to)
        detail = "no witness found"
        if w is not None:
            res = plane_mod.binomial_nogo(psi, w).residual
            detail = f"witness n={w}, residual {render_bivariate(res)}"
        out.append(CheckResult("nogo", f"psi={name} witness at n<={witness_up_to}",
                               w is not None, detail))
    out += [_exact("nogo", f"psi={psi.name} plane commutation n<12",
                   not any(plane_mod.commutation_check(psi, 12)))
            for psi in _grid_psis()]
    return out


def render_bivariate(p: Poly) -> str:
    """Compact string of a bivariate polynomial for report lines."""
    terms = []
    for i, inner in enumerate(p.coeffs):
        for k, c in enumerate(inner.coeffs):
            if not c:
                continue
            piece = c.render()
            if "/" in piece or "+" in piece or (piece.count("-") - piece.startswith("-")) > 0:
                piece = f"({piece})"
            xs = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            ys = "" if k == 0 else ("y" if k == 1 else f"y^{k}")
            terms.append(f"{piece}{xs}{ys}" if xs or ys else piece)
    return " + ".join(terms) if terms else "0"


def suite_pincherle() -> list[CheckResult]:
    """Formal-derivative series equals the raising-map commutator, on random
    polynomials in D of degree d_degree."""
    count, d_degree, max_degree = 20, 8, 10
    rng = random.Random(777)
    psis = _grid_psis()
    failures = 0
    for trial in range(count):
        coeffs = [_random_rf(rng) for _ in range(d_degree + 1)]
        s = OperatorSeries(psis[trial % len(psis)], coeffs)
        direct = table(s.pincherle().apply, max_degree + 1)
        failures += direct != pincherle_commutator_matrix(s, max_degree + 1)
    name = f"{count} random series, order {d_degree}, degrees<={max_degree}"
    return [_exact("pincherle", name, failures == 0, f"{failures} failures")]


# -- numeric suites ----------------------------------------------------------


def _fmt_q(q) -> str:
    if q is None:
        return "undeformed"
    qc = complex(q)
    if qc.imag == 0:
        return f"q={qc.real:g}"
    return f"q={qc.real:.6f}{qc.imag:+.6f}i"


def _spins(qs):
    """(report name, ladder matrices) for j = 1/2, 1, ..., SPIN_J_MAX and each q."""
    for j2 in range(1, int(2 * SPIN_J_MAX) + 1):
        for q in qs:
            yield f"j={j2 / 2:g} {_fmt_q(q)}", su2_build(Fraction(j2, 2), q=q)


def suite_su2() -> list[CheckResult]:
    """Ladder commutation relations for every (j, q) cell."""
    out = []
    for name, rep in _spins((None,) + SPIN_Q_SET):
        check = su2_commutator_check(rep)
        worst = max(check.residuals.values())
        out.append(CheckResult("su2", name, check.ok,
                               f"max residual {worst:.3e} (tol {TOLERANCE:g})"))
    return out


def suite_polar() -> list[CheckResult]:
    """Polar-decomposition identities; non-PSD cells are reported as skipped."""
    out = []
    # the first four q only: tests/golden/verify.txt and perfbench/refs/verify.json
    # pin polar's 60 rows
    for name, rep in _spins((None,) + SPIN_Q_SET[:4]):
        pol = polar_decompose(rep)
        if pol.skipped:
            out.append(CheckResult("polar", name, pol.ok, skipped=pol.skipped))
            continue
        worst = max(pol.residuals.values())
        out.append(CheckResult("polar", name, pol.ok,
                               f"max residual {worst:.3e} (tol {TOLERANCE:g}), "
                               f"unitary convention {pol.convention['unitary']}"))
    return out


def suite_weyl() -> list[CheckResult]:
    """Generator identities for every dimension 2..24."""
    out = []
    for n in range(2, 25):
        pair = weyl_build(n)
        rep = weyl_check(pair)
        spec_res = shift_spectrum_residual(pair)
        out.append(CheckResult(
            "weyl", f"n={n}", rep.ok and spec_res <= 1e-8,
            f"sign={rep.convention['sign']:+d}, omega^P={rep.convention['omega_p']}, "
            f"worst residual {max(rep.residuals.values()):.3e}, "
            f"shift spectrum {spec_res:.3e}; {rep.convention['p_diagonal']}",
        ))
    return out


SUITES = {
    "methods": suite_method_agreement,
    "laguerre": suite_laguerre,
    "binomial": suite_binomial,
    "sheffer": suite_sheffer,
    "expansion": suite_expansion,
    "qmutator": suite_qmutator,
    "nogo": suite_nogo,
    "pincherle": suite_pincherle,
    "su2": suite_su2,
    "polar": suite_polar,
    "weyl": suite_weyl,
}


def run_suites(names=None) -> list[CheckResult]:
    """Run the named suites in order; no names, or "all" among them, runs every suite."""
    names = list(names or ["all"])
    unknown = [name for name in names if name not in SUITES and name != "all"]
    if unknown:
        known = ", ".join(SUITES)
        raise ValueError(f"unknown suite {unknown[0]!r}; available: {known}, all")
    chosen = SUITES if "all" in names else names
    return [r for name in chosen for r in SUITES[name]()]
