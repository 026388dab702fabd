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
    OperatorMatrix,
    OperatorSeries,
    delta_by_name,
    laguerre_delta,
    pincherle_commutator_matrix,
    scaling_matrix,
    series_matrix,
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
    basic_sequence,
    binomial_residuals,
    q_laguerre_closed,
    sheffer_binomial_residuals,
    sheffer_sequence,
)
from .su2q import polar_decompose, su2_build, su2_commutator_check
from .weyl import shift_spectrum_residual, weyl_build, weyl_check

PSI_GRID = tuple(BUILTIN_PSIS)
DELTA_GRID = tuple(DELTA_FAMILIES)
SHEFFER_GRID = ("one_minus", "exp_sq", "one_minus_sq")

SU2_Q_SET: tuple = (0.5, 1.5, 2.0, np.exp(1j * np.pi / 7), np.exp(1j * np.pi / 12))
POLAR_Q_SET: tuple = (0.5, 1.5, 2.0)


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


def _grid_psis(n_max: int = 16) -> list[PsiSequence]:
    return [by_name(name, n_max) for name in PSI_GRID]


# -- exact suites ------------------------------------------------------------


def suite_method_agreement(n_top: int = 10) -> list[CheckResult]:
    """All five basic-sequence constructions agree on the full grid."""
    out = []
    for psi in _grid_psis():
        for dname in DELTA_GRID:
            Q = delta_by_name(dname, psi, n_top + 1)
            ref = basic_sequence(Q, n_top, "solve")
            same = True
            for method in ("lagrange1", "lagrange2", "rodrigues3", "rodrigues4"):
                if basic_sequence(Q, n_top, method).polys != ref.polys:
                    same = False
                    break
            out.append(
                CheckResult(
                    "methods",
                    f"psi={psi.name} Q={dname} n<={n_top}",
                    same,
                    "exact agreement" if same else f"method {method} disagrees",
                )
            )
    return out


def suite_laguerre(n_top: int = 10) -> list[CheckResult]:
    """Closed form equals the solve oracle; q -> 1 matches the classic table."""
    psi_q = qgauss()
    Q = laguerre_delta(psi_q, n_top + 1)
    oracle = basic_sequence(Q, n_top, "solve")
    out = []
    ok = all(q_laguerre_closed(psi_q, n) == oracle.polys[n] for n in range(n_top + 1))
    out.append(
        CheckResult("laguerre", f"closed form vs solve, n<={n_top}", ok,
                    "exact" if ok else "mismatch")
    )
    psi_c = classic()
    classic_oracle = basic_sequence(laguerre_delta(psi_c, n_top + 1), n_top, "solve")
    ok2 = True
    for n in range(n_top + 1):
        specialized = q_laguerre_closed(psi_q, n).map_coeffs(
            lambda c: rf(c.eval_q(1))
        )
        if specialized != classic_oracle.polys[n]:
            ok2 = False
            break
    out.append(
        CheckResult("laguerre", f"q->1 specialization, n<={n_top}", ok2,
                    "exact" if ok2 else f"mismatch at n={n}")
    )
    return out


def suite_binomial(n_top: int = 10) -> list[CheckResult]:
    """Translation identity for every grid basic sequence."""
    out = []
    for psi in _grid_psis():
        for dname in DELTA_GRID:
            Q = delta_by_name(dname, psi, n_top + 1)
            res = binomial_residuals(basic_sequence(Q, n_top, "solve"), n_top)
            ok = all(r.is_zero() for r in res)
            out.append(
                CheckResult("binomial", f"psi={psi.name} Q={dname} n<={n_top}", ok,
                            "exact" if ok else "nonzero residual")
            )
    return out


def suite_sheffer(n_top: int = 8) -> list[CheckResult]:
    """Translation identity for Sheffer sequences over three scaling factors."""
    out = []
    for psi in _grid_psis():
        for dname in DELTA_GRID:
            Q = delta_by_name(dname, psi, n_top + 1)
            for sname in SHEFFER_GRID:
                S = SHEFFER_FACTORS[sname](psi, n_top + 1)
                sh = sheffer_sequence(Q, S, n_top)
                res = sheffer_binomial_residuals(sh, n_top)
                ok = all(r.is_zero() for r in res)
                out.append(
                    CheckResult(
                        "sheffer",
                        f"psi={psi.name} Q={dname} S={sname} n<={n_top}",
                        ok,
                        "exact" if ok else "nonzero residual",
                    )
                )
    return out


def _random_rf(rng: random.Random) -> RationalFunction:
    kind = rng.randrange(4)
    if kind == 0:
        return rf(Fraction(rng.randint(-4, 4)))
    if kind == 1:
        return rf(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    base = rf(Fraction(rng.randint(-2, 2)))
    return base + QSYM * rng.randint(-2, 2)


def random_nonraising_table(rng: random.Random, dim: int) -> OperatorMatrix:
    """A random operator table whose column degrees never exceed the index."""
    cols = []
    for j in range(dim):
        cols.append(Poly([_random_rf(rng) for _ in range(j + 1)]))
    return OperatorMatrix(tuple(cols))


def suite_expansion(count: int = 50, size: int = 8, seed: int = 20240811) -> list[CheckResult]:
    """Expansion/reconstruction roundtrips plus the dilation example."""
    rng = random.Random(seed)
    psis = _grid_psis()
    out = []
    failures = 0
    cells = [
        (psi, delta_by_name(dname, psi, size + 1))
        for psi in psis
        for dname in DELTA_GRID
    ]
    basics = {id(Q): basic_sequence(Q, size, "solve") for _, Q in cells}
    for trial in range(count):
        psi, Q = cells[trial % len(cells)]
        basic = basics[id(Q)]
        T = random_nonraising_table(rng, size + 1)
        gs = expand_operator(T, Q, basic=basic)
        R = reconstruct_operator(gs, Q, size + 1, basic=basic)
        if R.cols != T.cols or expand_operator(R, Q, basic=basic) != gs:
            failures += 1
    out.append(
        CheckResult(
            "expansion",
            f"{count} random roundtrips at N={size}",
            failures == 0,
            "exact" if failures == 0 else f"{failures} failures",
        )
    )
    psi_q = qgauss()
    Q = delta_by_name("derivative", psi_q, size + 1)
    T = scaling_matrix(QSYM, size + 1)
    gs = expand_operator(T, Q)
    ok = reconstruct_operator(gs, Q, size + 1).cols == T.cols
    out.append(
        CheckResult("expansion", f"q-dilation operator at N={size}", ok,
                    "exact" if ok else "mismatch")
    )
    return out


def suite_qmutator(n_top: int = 10) -> list[CheckResult]:
    """Deformed bracket of (Q, xhat_Q) equals the identity on the grid."""
    out = []
    for psi in _grid_psis():
        for dname in DELTA_GRID:
            Q = delta_by_name(dname, psi, n_top + 1)
            rep = qmutator_check(Q, n_top, dname)
            out.append(
                CheckResult("qmutator", f"psi={psi.name} Q={dname} n<{n_top}", rep.ok,
                            "exact" if rep.ok else "nonzero residual")
            )
    psi_q = qgauss()
    ok = True
    for n in range(n_top):
        xn = monomial(n)
        lhs = psi_derivative(psi_q, xn.shifted(1)) - psi_derivative(psi_q, xn).shifted(1).scale(QSYM)
        if lhs != xn:
            ok = False
            break
    out.append(
        CheckResult("qmutator", "q-case reduction Dq x - q x Dq = id", ok,
                    "exact" if ok else "mismatch")
    )
    return out


def suite_nogo(n_top: int = 10, witness_up_to: int = 4) -> list[CheckResult]:
    """Zero residuals for the q table; explicit witnesses elsewhere."""
    out = []
    psi_q = qgauss()
    ok = True
    for n in range(n_top + 1):
        r = plane_mod.binomial_nogo(psi_q, n)
        if not r.residual.is_zero() or r.lhs != translate(psi_q, monomial(n)):
            ok = False
            break
    out.append(
        CheckResult("nogo", f"psi=qgauss residuals zero, n<={n_top}", ok,
                    "exact" if ok else f"failure at n={n}")
    )
    for name in ("fibonacci", "square"):
        psi = by_name(name)
        w = plane_mod.smallest_witness(psi, witness_up_to)
        ok = w is not None
        detail = ""
        if ok:
            res = plane_mod.binomial_nogo(psi, w).residual
            detail = f"witness n={w}, residual {render_bivariate(res)}"
        out.append(
            CheckResult("nogo", f"psi={name} witness at n<={witness_up_to}", ok,
                        detail if ok else "no witness found")
        )
    for psi in _grid_psis():
        rep = plane_mod.commutation_check(psi, 12)
        out.append(
            CheckResult("nogo", f"psi={psi.name} plane commutation n<12", rep.ok,
                        "exact" if rep.ok else "nonzero residual")
        )
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


def suite_pincherle(count: int = 20, order: int = 8, max_degree: int = 10,
                    seed: int = 777) -> list[CheckResult]:
    """Formal-derivative series equals the raising-map commutator."""
    rng = random.Random(seed)
    psis = _grid_psis(n_max=max_degree + 2)
    failures = 0
    for trial in range(count):
        psi = psis[trial % len(psis)]
        coeffs = [_random_rf(rng) for _ in range(order + 1)]
        s = OperatorSeries(psi, tuple(coeffs)).truncate(max_degree + 1)
        direct = series_matrix(s.pincherle(), max_degree + 1)
        oracle = pincherle_commutator_matrix(s, max_degree + 1)
        if direct.cols != oracle.cols:
            failures += 1
    ok = failures == 0
    return [
        CheckResult(
            "pincherle",
            f"{count} random series, order {order}, degrees<={max_degree}",
            ok,
            "exact" if ok else f"{failures} failures",
        )
    ]


# -- numeric suites ----------------------------------------------------------


def _fmt_q(q) -> str:
    if q is None:
        return "undeformed"
    qc = complex(q)
    if qc.imag == 0:
        return f"q={qc.real:g}"
    return f"q={qc.real:.6f}{qc.imag:+.6f}i"


def suite_su2(tolerance: float = 1e-10, j_max: float = 6.0) -> list[CheckResult]:
    """Ladder commutation relations for every (j, q) cell."""
    out = []
    j2 = 1
    while j2 <= int(2 * j_max):
        for q in (None,) + SU2_Q_SET:
            rep_obj = su2_build(Fraction(j2, 2), q=q)
            rep = su2_commutator_check(rep_obj, tolerance)
            worst = max(rep.residuals.values())
            out.append(
                CheckResult("su2", f"j={j2 / 2:g} {_fmt_q(q)}", rep.ok,
                            f"max residual {worst:.3e} (tol {tolerance:g})")
            )
        j2 += 1
    return out


def suite_polar(tolerance: float = 1e-10, j_max: float = 6.0) -> list[CheckResult]:
    """Polar-decomposition identities; non-PSD cells are reported as skipped."""
    out = []
    j2 = 1
    while j2 <= int(2 * j_max):
        for q in (None,) + POLAR_Q_SET + (np.exp(1j * np.pi / 7),):
            rep = su2_build(Fraction(j2, 2), q=q)
            name = f"j={j2 / 2:g} {_fmt_q(q)}"
            try:
                pol = polar_decompose(rep, tolerance)
            except ValueError as exc:
                out.append(CheckResult("polar", name, True, skipped=str(exc)))
                continue
            worst = max(pol.residuals.values())
            out.append(
                CheckResult(
                    "polar", name, pol.ok,
                    f"max residual {worst:.3e} (tol {tolerance:g}), "
                    f"unitary convention {pol.convention}",
                )
            )
        j2 += 1
    return out


def suite_weyl(n_max: int = 24) -> list[CheckResult]:
    """Generator identities for every dimension 2..n_max."""
    out = []
    for n in range(2, n_max + 1):
        pair = weyl_build(n)
        rep = weyl_check(pair)
        spec_res = shift_spectrum_residual(pair)
        ok = rep.ok and spec_res <= 1e-8
        out.append(
            CheckResult(
                "weyl",
                f"n={n}",
                ok,
                f"sign={rep.sign:+d}, omega^P={rep.convention}, "
                f"worst residual {max(rep.residuals.values()):.3e}, "
                f"shift spectrum {spec_res:.3e}; {rep.printed_diagonal_note}",
            )
        )
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
    chosen = list(SUITES) if not names or names == ["all"] else list(names)
    results: list[CheckResult] = []
    for name in chosen:
        try:
            fn = SUITES[name]
        except KeyError:
            known = ", ".join(SUITES)
            raise ValueError(f"unknown suite {name!r}; available: {known}, all") from None
        results.extend(fn())
    return results
