"""Deformed angular-momentum matrices, their commutators, and the polar split.

A spin-j representation is its table of symmetric brackets
[k] = (q^k - q^{-k})/(q - q^{-1}) for k = 0 .. 2j (plain k when no
deformation is supplied), in the basis that orders the magnetic number
m = j, j-1, ..., -j down the rows.  The ladders read the finite structure
function [n][2j+1-n] off that table, and the checks read their targets from
it too.  J3, J+ and J- are `weyl.Diagonals` of one diagonal each, which
the checks multiply and `spin` prints as they are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .weyl import Diagonals, NumericCheck, cyclic_shift, inf_norm

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
    j3: Diagonals
    jplus: Diagonals
    jminus: Diagonals
    brackets: tuple[complex, ...]  # q_bracket(k, q) for k = 0 .. 2j

    @property
    def dim(self) -> int:
        return self.j2 + 1

    @property
    def j(self) -> Fraction:
        return Fraction(self.j2, 2)


def su2_build(j, q: complex | None = None) -> SpinRep:
    """Ladder matrices from the bracket table: J+ carries sqrt([n][2j+1-n])
    on the superdiagonal for n = 1 .. 2j, and J- is its transpose.

    The lowering element lives on the ket with m-1, as forced by the
    commutation relations; J- equals the adjoint of J+ only at real q, and
    its transpose at every q.
    """
    jf = _as_half_integer(j)
    j2 = int(jf * 2)
    try:
        b = tuple(q_bracket(k, q) for k in range(j2 + 1))
    except (OverflowError, ZeroDivisionError):
        # q^k overflows, or q^-k divides by a q^k that underflowed to 0; the
        # largest bracket argument here, 2j, is also the largest the checks use
        raise ValueError(f"q = {q} overflows the deformed bracket at j = {jf}") from None
    j3 = Diagonals(j2 + 1, {0: j2 / 2 - np.arange(j2 + 1, dtype=complex)})
    jplus = Diagonals(j2 + 1, {1: np.sqrt([b[n] * b[j2 + 1 - n] for n in range(1, j2 + 1)])})
    # J- shares J+'s vector: no Diagonals operation writes into its operands
    return SpinRep(j2, q, j3, jplus, jplus.T, b)


def _params(rep: SpinRep) -> dict:
    q = None if rep.q is None else [complex(rep.q).real, complex(rep.q).imag]
    return {"j": float(rep.j), "q": q}


def su2_commutator_check(rep: SpinRep, tolerance: float = TOLERANCE) -> NumericCheck:
    """Residuals of [J3, J+/-] = +/-J+/- and [J+, J-] = bracket(2 J3)."""
    j3, jplus, jminus = rep.j3, rep.jplus, rep.jminus
    b = rep.brackets  # [2m] for m = j .. -j, with [-x] = -[x]
    target = Diagonals(rep.dim, {0: np.array([b[x] if x >= 0 else -b[-x]
                                              for x in range(rep.j2, -rep.j2 - 1, -2)])})
    residuals = {
        "j3_jplus": inf_norm(j3 @ jplus - jplus @ j3 - jplus),
        "j3_jminus": inf_norm(j3 @ jminus - jminus @ j3 + jminus),
        "jplus_jminus": inf_norm(jplus @ jminus - jminus @ jplus - target),
    }
    ok = all(v <= tolerance for v in residuals.values())
    return NumericCheck("commutators", _params(rep), residuals, ok=ok)


def _psd_sqrt(prod: Diagonals, tol: float) -> Diagonals:
    """Square root of the diagonal of a positive semidefinite ladder product.

    Negative real parts or imaginary parts beyond tol reject it; negative
    rounding noise within tol is clipped to zero.
    """
    d = prod.diagonal()
    if np.any(d.real < -tol) or np.any(np.abs(d.imag) > tol):
        raise ValueError("modulus not PSD for this q")
    return Diagonals(prod.n, {0: np.sqrt(np.clip(d.real, 0.0, None).astype(complex))})


# J- lowers m in the basis m = j ... -j, so it sits below the diagonal, and
# so does its unitary: the adjoint of the cyclic shift, at every j.
POLAR_CONVENTION = {"unitary": "adjoint(sigma1)"}


def polar_decompose(rep: SpinRep, tolerance: float = TOLERANCE) -> NumericCheck:
    """Split the ladder pair into positive moduli times the adjoint shift.

    The four identities are the polar forms of J- and its adjoint partner:
    J- = u * sqrt(J+J-) = sqrt(J-J+) * u and J+ = sqrt(J+J-) * u^dag =
    u^dag * sqrt(J-J+), with u the adjoint of the cyclic shift
    (POLAR_CONVENTION); the wrap-around corner of the shift is annihilated
    by the zero eigenvalue of the modulus.

    Deformations with a non-positive interior bracket value (k up to 2j)
    come back skipped, like any modulus that is not PSD: they need complex
    square roots, or degenerate the modulus where rounding dominates.  A
    ladder product off the diagonal has no diagonal modulus and fails.
    """
    for v in rep.brackets[1:]:
        if abs(v.imag) > 1e-9 * max(1.0, abs(v)) or v.real <= 1e-9:
            return NumericCheck("polar", _params(rep), skipped="modulus not PSD for this q")
    jplus, jminus = rep.jplus, rep.jminus
    guard = max(tolerance, 1e-12) * max(1.0, inf_norm(jplus)) ** 2
    squares = jplus @ jminus, jminus @ jplus
    # ladders on the offsets +1 and -1 multiply to offset 0 only; a product
    # off the diagonal fails the row by the size of its off-diagonal part
    off = max(inf_norm(s - Diagonals(s.n, {0: s.diagonal()})) for s in squares)
    if off > guard:
        return NumericCheck("polar", _params(rep), {"ladder_products_offdiagonal": off},
                            POLAR_CONVENTION, False)
    try:
        modulus, comodulus = (_psd_sqrt(s, guard) for s in squares)
    except ValueError as exc:
        return NumericCheck("polar", _params(rep), skipped=str(exc))

    ud = cyclic_shift(rep.dim)
    u = ud.T  # the shift is real, so its adjoint is its transpose
    residuals = {
        "jminus_vs_u_modulus": inf_norm(jminus - u @ modulus),
        "jminus_vs_comodulus_u": inf_norm(jminus - comodulus @ u),
        "jplus_vs_modulus_udag": inf_norm(jplus - modulus @ ud),
        "jplus_vs_udag_comodulus": inf_norm(jplus - ud @ comodulus),
    }
    return NumericCheck("polar", _params(rep), residuals, POLAR_CONVENTION,
                        max(residuals.values()) <= tolerance)
