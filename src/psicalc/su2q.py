"""Deformed angular-momentum matrices, their commutators, and the polar split.

Representations are built directly from matrix elements in the basis that
orders the magnetic number m = j, j-1, ..., -j down the rows.  The
symmetric bracket (q^x - q^{-x})/(q - q^{-1}) replaces plain numbers when
a deformation parameter is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .weyl import NumericCheck, cyclic_shift, inf_norm

TOLERANCE = 1e-10  # default gate of both checks and of `spin --tolerance`


def q_bracket(x: float, q: complex | None) -> complex:
    """The symmetric deformed number (q^x - q^{-x})/(q - q^{-1}); x itself
    when q is None, the undeformed case."""
    if q is None:
        return complex(x)
    if q == 0 or q == 1 or q == -1:
        raise ValueError("degenerate deformation")
    qc = complex(q)
    return (qc ** x - qc ** (-x)) / (qc - qc ** -1)


def _as_half_integer(j) -> Fraction:
    jf = Fraction(j)
    if jf.denominator not in (1, 2) or jf < Fraction(1, 2):
        raise ValueError(f"j must be a positive half-integer, got {j}")
    return jf


@dataclass(frozen=True, eq=False)
class SpinRep:
    """J3 and the ladder pair for spin j, deformed when q is not None."""

    j2: int  # 2j
    q: complex | None
    j3: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray

    @property
    def dim(self) -> int:
        return self.j2 + 1

    @property
    def j(self) -> Fraction:
        return Fraction(self.j2, 2)


def su2_build(j, q: complex | None = None) -> SpinRep:
    """Ladder matrices with elements sqrt([j-m][j+m+1]) / sqrt([j+m][j-m+1]).

    The raising operator populates the superdiagonal, the lowering one the
    subdiagonal (the lowering element lives on the ket with m-1, as forced
    by the commutation relations and by adjointness at real q).
    """
    jf = _as_half_integer(j)
    j2 = int(jf * 2)
    dim = j2 + 1
    ms = [jf - i for i in range(dim)]

    j3 = np.diag(np.array([float(m) for m in ms], dtype=complex))
    jplus = np.zeros((dim, dim), dtype=complex)
    jminus = np.zeros((dim, dim), dtype=complex)
    try:
        for i in range(dim - 1):
            m_col = ms[i + 1]  # raising consumes |j, m_col>
            jplus[i, i + 1] = np.sqrt(
                q_bracket(float(jf - m_col), q) * q_bracket(float(jf + m_col + 1), q)
            )
            m_top = ms[i]  # lowering consumes |j, m_top>
            jminus[i + 1, i] = np.sqrt(
                q_bracket(float(jf + m_top), q) * q_bracket(float(jf - m_top + 1), q)
            )
    except (OverflowError, ZeroDivisionError):
        # q^x overflows, or q^-x divides by a q^x that underflowed to 0; the
        # largest bracket argument here, 2j, is also the largest the checks use
        raise ValueError(f"q = {q} overflows the deformed bracket at j = {jf}") from None
    return SpinRep(j2, q, j3, jplus, jminus)


def _params(rep: SpinRep) -> dict:
    q = None if rep.q is None else [complex(rep.q).real, complex(rep.q).imag]
    return {"j": float(rep.j), "q": q}


def su2_commutator_check(rep: SpinRep, tolerance: float = TOLERANCE) -> NumericCheck:
    """Residuals of [J3, J+/-] = +/-J+/- and [J+, J-] = bracket(2 J3)."""
    c12 = rep.j3 @ rep.jplus - rep.jplus @ rep.j3
    c13 = rep.j3 @ rep.jminus - rep.jminus @ rep.j3
    c23 = rep.jplus @ rep.jminus - rep.jminus @ rep.jplus
    target = np.diag(np.array([q_bracket(2 * d.real, rep.q) for d in np.diag(rep.j3)]))
    residuals = {
        "j3_jplus": inf_norm(c12 - rep.jplus),
        "j3_jminus": inf_norm(c13 + rep.jminus),
        "jplus_jminus": inf_norm(c23 - target),
    }
    ok = all(v <= tolerance for v in residuals.values())
    return NumericCheck("commutators", _params(rep), residuals, ok=ok)


def _psd_sqrt(prod: np.ndarray, tol: float) -> np.ndarray:
    """Square root of a diagonal, positive semidefinite ladder product.

    Off-diagonal entries, negative real parts or imaginary parts beyond tol
    reject it; negative rounding noise within tol is clipped to zero.
    """
    d = np.diag(prod)
    if inf_norm(prod - np.diag(d)) > tol:
        raise ValueError("not diagonal")
    if np.any(d.real < -tol) or np.any(np.abs(d.imag) > tol):
        raise ValueError("modulus not PSD for this q")
    return np.diag(np.sqrt(np.clip(d.real, 0.0, None).astype(complex)))


def polar_decompose(rep: SpinRep, tolerance: float = TOLERANCE) -> NumericCheck:
    """Split the ladder pair into positive moduli times a cyclic shift.

    The four identities are the polar forms of J- and its adjoint partner:
    J- = u * sqrt(J+J-) = sqrt(J-J+) * u and J+ = sqrt(J+J-) * u^dag =
    u^dag * sqrt(J-J+), with the unitary u being the cyclic shift or its
    adjoint.  Whichever direction fits is reported; the wrap-around corner
    of the shift is annihilated by the zero eigenvalue of the modulus.

    Deformations with a non-positive interior bracket value (k up to 2j)
    come back skipped, like any modulus that is not diagonal PSD: they need
    complex square roots, or degenerate the modulus where rounding dominates.
    """
    for k in range(1, rep.j2 + 1):
        v = q_bracket(k, rep.q)
        if abs(v.imag) > 1e-9 * max(1.0, abs(v)) or v.real <= 1e-9:
            return NumericCheck("polar", _params(rep), skipped="modulus not PSD for this q")
    guard = max(tolerance, 1e-12) * max(1.0, inf_norm(rep.jplus)) ** 2
    try:
        modulus = _psd_sqrt(rep.jplus @ rep.jminus, guard)
        comodulus = _psd_sqrt(rep.jminus @ rep.jplus, guard)
    except ValueError as exc:
        return NumericCheck("polar", _params(rep), skipped=str(exc))

    shift = cyclic_shift(rep.dim)
    best = None
    for name, u in (("sigma1", shift), ("adjoint(sigma1)", shift.conj().T)):
        ud = u.conj().T
        residuals = {
            "jminus_vs_u_modulus": inf_norm(rep.jminus - u @ modulus),
            "jminus_vs_comodulus_u": inf_norm(rep.jminus - comodulus @ u),
            "jplus_vs_modulus_udag": inf_norm(rep.jplus - modulus @ ud),
            "jplus_vs_udag_comodulus": inf_norm(rep.jplus - ud @ comodulus),
        }
        worst = max(residuals.values())
        if best is None or worst < best[2]:
            best = (name, residuals, worst)
    name, residuals, worst = best
    return NumericCheck("polar", _params(rep), residuals, {"unitary": name},
                        worst <= tolerance)
