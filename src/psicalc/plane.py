"""Deformed-commuting coordinate pairs and the binomial no-go witness.

The pair A = multiply-by-x and B = y * (x^n -> b_n x^n) satisfies
BA - qhat AB = 0 once b solves the induced recurrence, checked as a
list of residuals on the monomials.  For the q table
(A + B)^n expands with the deformed binomials; for other psi tables it
provably does not, and this module produces the explicit residual.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Poly
from .psi import PsiSequence
from .ratfun import ONE, RationalFunction

B0_CONVENTION = (
    "b_0 = 1 (empty product); seeding the recurrence with b_0 = 0 would "
    "collapse the whole sequence and break the q-case check b_n = q^n"
)


def b_sequence(psi: PsiSequence, count: int) -> list[RationalFunction]:
    """Eigenvalues b_0..b_count, b_n = prod_{k<=n} ((k+1)_psi - 1)/k_psi."""
    out = [ONE]
    for k in range(1, count + 1):
        out.append(out[-1] * psi.mutator_eigenvalue(k))
    return out


def multiply_x(p: Poly) -> Poly:
    """The A coordinate on the two-variable space."""
    return p.shifted(1)


def apply_b(b: list[RationalFunction], p: Poly) -> Poly:
    """The B coordinate: scale the x^a component by b_a, then multiply by y."""
    cols = []
    for a, inner in enumerate(p.coeffs):
        if inner.is_zero() or not b[a]:
            cols.append(Poly())
        else:
            cols.append(inner.shifted(1).scale(b[a]))
    return Poly(cols)


def _mutator_scale_x(psi: PsiSequence, p: Poly) -> Poly:
    # scales the x^m component by the mutator eigenvalue; inputs here always
    # have a zero constant-in-x part, so m >= 1
    cols = [Poly()]
    for m in range(1, len(p.coeffs)):
        inner = p.coeffs[m]
        if inner.is_zero():
            cols.append(Poly())
        else:
            cols.append(inner.scale(psi.mutator_eigenvalue(m)))
    return Poly(cols)


def commutation_check(psi: PsiSequence, n_top: int) -> list[Poly]:
    """Residuals (BA - qhat AB) x^n for 0 <= n < n_top; all zero when the pair commutes."""
    b = b_sequence(psi, n_top + 1)
    residuals = []
    for n in range(n_top):
        xn = Poly([Poly()] * n + [Poly((ONE,))])
        ba = apply_b(b, multiply_x(xn))
        ab = multiply_x(apply_b(b, xn))
        residuals.append(ba - _mutator_scale_x(psi, ab))
    return residuals


@dataclass(frozen=True)
class NogoResult:
    """Both sides of the deformed binomial expansion of (A + B)^n on 1."""

    psi_name: str
    n: int
    lhs: Poly
    rhs: Poly
    residual: Poly

    @property
    def verdict(self) -> str:
        return "PASS" if self.residual.is_zero() else "WITNESS"


def binomial_nogo(psi: PsiSequence, n: int) -> NogoResult:
    """Compare (A+B)^n 1 against sum_k C(n,k)_psi A^k B^{n-k} 1."""
    b = b_sequence(psi, max(n, 1))
    one = Poly([Poly((ONE,))])
    lhs = one
    for _ in range(n):
        lhs = multiply_x(lhs) + apply_b(b, lhs)
    rhs = Poly()
    for k in range(n + 1):
        term = one
        for _ in range(n - k):
            term = apply_b(b, term)
        for _ in range(k):
            term = multiply_x(term)
        coef = psi.binomial(n, k)
        rhs = rhs + Poly([inner.scale(coef) for inner in term.coeffs])
    return NogoResult(psi.name, n, lhs, rhs, lhs - rhs)


def smallest_witness(psi: PsiSequence, up_to: int) -> int | None:
    """Smallest n <= up_to with a nonzero residual, or None."""
    for n in range(up_to + 1):
        if not binomial_nogo(psi, n).residual.is_zero():
            return n
    return None
