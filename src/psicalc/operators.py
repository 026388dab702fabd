"""Shift-invariant operators as formal power series in the psi-derivative.

A series sum_k a_k D^k (D the psi-derivative) acts exactly on every
polynomial, since D lowers degree: on p it reads only a_0 ... a_deg(p).
Each series owns its reach, so no caller passes a truncation order.
Delta operators are the series with a_0 = 0, a_1 != 0; they factor as
D * S with S invertible, which drives every construction downstream.
An operator table is a plain tuple of polynomials whose entry j is the
image of x^j (`table` builds one from a map); `combine` forms the linear
combinations that applying a table or changing basis needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .poly import Poly
from .psi import PsiSequence, monomial, psi_derivative, xhat_psi
from .ratfun import ONE, ZERO, RationalFunction, rf


def combine(polys: Sequence[Poly], coeffs: Sequence) -> Poly:
    """sum_k coeffs[k] * polys[k] in one pass; zero coefficients are skipped.

    Applying a table to p is combine(table, p.coeffs), so more coefficients
    than polynomials means p lies outside the table's domain.
    """
    if len(coeffs) > len(polys):
        raise ValueError(f"{len(coeffs)} coefficients for {len(polys)} polynomials")
    out: list = []
    for p, c in zip(polys, coeffs):
        if not c:
            continue
        for i, a in enumerate(p.coeffs):
            t = a * c
            if i < len(out):
                out[i] = out[i] + t
            else:
                out.append(t)
    return Poly(out)


@dataclass(frozen=True, eq=False)
class OperatorSeries:
    """Formal power series sum_k a_k D^k in the psi-derivative; equal only to itself.

    A series without a rule is the polynomial in D its list spells out and
    reads zero past the list's end; that is exact, not a truncation.  A
    series with a rule computes a_k = rule(k) the first time a_k is read,
    so it reaches as far as any caller asks.  `coeff` is the one read path.
    """

    psi: PsiSequence
    coeffs: list[RationalFunction] = field(repr=False)  # a_0, a_1, ...; a rule appends
    rule: Callable[[int], RationalFunction] | None = field(default=None, repr=False)

    def coeff(self, k: int) -> RationalFunction:
        """a_k, computed from the rule on its first read."""
        cs = self.coeffs
        if 0 <= k < len(cs):
            return cs[k]
        if k < 0:
            raise ValueError("negative index")
        if self.rule is None:
            return ZERO
        while len(cs) <= k:
            cs.append(self.rule(len(cs)))
        return cs[k]

    def _same(self, other: "OperatorSeries") -> None:
        if self.psi is not other.psi:
            raise ValueError("operator series over different psi sequences")

    def __mul__(self, other: "OperatorSeries") -> "OperatorSeries":
        self._same(other)
        a, b = self.coeffs, other.coeffs

        def rule(k: int) -> RationalFunction:
            self.coeff(k)  # grows a rule-backed operand through index k
            other.coeff(k)
            s = ZERO
            for i in range(max(0, k + 1 - len(b)), min(k + 1, len(a))):
                x, y = a[i], b[k - i]
                if x and y:
                    s = s + x * y
            return s

        return OperatorSeries(self.psi, [], rule)

    def invert(self) -> "OperatorSeries":
        """Multiplicative inverse; requires a_0 != 0."""
        a0 = self.coeff(0)
        if not a0:
            raise ValueError("non-invertible series")
        inv0 = a0.inverse()
        a = self.coeffs
        out = [inv0]

        def rule(k: int) -> RationalFunction:
            self.coeff(k)
            s = ZERO
            for i in range(1, min(k + 1, len(a))):
                ai = a[i]
                if ai and out[k - i]:
                    s = s + ai * out[k - i]
            return -(s * inv0) if s else ZERO

        return OperatorSeries(self.psi, out, rule)

    def pincherle(self) -> "OperatorSeries":
        """Formal derivative sum_k k a_k D^{k-1}.

        Valid as the commutator with the deformed raising map because
        [D, xhat_psi] = id; the matrix-commutator route in this module
        cross-checks it.
        """
        return OperatorSeries(self.psi, [], lambda k: self.coeff(k + 1) * (k + 1))

    def apply(self, p: Poly) -> Poly:
        """Act on a polynomial, reading a_0 ... a_deg(p); exact because D lowers degree."""
        acc = Poly()
        d = p
        for k in range(p.degree + 1):
            if k:
                d = psi_derivative(self.psi, d)
            a = self.coeff(k)
            if a:
                acc = acc + d.scale(a)
        return acc


def one_series(psi: PsiSequence) -> OperatorSeries:
    return OperatorSeries(psi, [ONE])


@dataclass(frozen=True, eq=False)
class DeltaOperator(OperatorSeries):
    """A series with no constant term and a nonzero linear term."""

    def __post_init__(self):
        if self.coeff(0):
            raise ValueError("delta operator must kill constants")
        if not self.coeff(1):
            raise ValueError("delta operator needs a nonzero linear term")

    def s_factor(self) -> OperatorSeries:
        """The invertible S with Q = D * S; coefficients shift down by one."""
        return OperatorSeries(self.psi, [], lambda k: self.coeff(k + 1))


# -- named constructors used across the verification grid -------------------


def derivative_delta(psi: PsiSequence) -> DeltaOperator:
    """Q = D itself."""
    return DeltaOperator(psi, [ZERO, ONE])


def laguerre_delta(psi: PsiSequence) -> DeltaOperator:
    """Q = D/(D - 1) = -(D + D^2 + D^3 + ...)."""
    return DeltaOperator(psi, [ZERO], lambda k: -ONE)


def quadratic_delta(psi: PsiSequence) -> DeltaOperator:
    """Q = D(1 + D); not tied to any named family, exercises generic paths."""
    return DeltaOperator(psi, [ZERO, ONE, ONE])


def exp_series(psi: PsiSequence) -> OperatorSeries:
    """Translation series sum_k psi_k D^k (the deformed exponential)."""
    return OperatorSeries(psi, [], psi.value)


def shifted_delta(psi: PsiSequence) -> DeltaOperator:
    """Q = D * E(D), the deformed shifted derivative."""
    return DeltaOperator(psi, [ZERO], lambda k: psi.value(k - 1))


def exp_sq_series(psi: PsiSequence) -> OperatorSeries:
    """The series sum_k psi_k D^{2k} (deformed exponential of D^2)."""
    return OperatorSeries(psi, [], lambda k: ZERO if k % 2 else psi.value(k // 2))


def laguerre_scaling(psi: PsiSequence, alpha: Fraction) -> OperatorSeries:
    """(1 - D)^(alpha+1) expanded with ordinary binomials of the exponent."""
    beta = Fraction(alpha) + 1
    out = [ONE]
    return OperatorSeries(psi, out, lambda k: out[k - 1] * rf((k - 1 - beta) / k))


DELTA_FAMILIES: dict[str, Callable[[PsiSequence], DeltaOperator]] = {
    "derivative": derivative_delta,
    "laguerre": laguerre_delta,
    "quadratic": quadratic_delta,
    "shifted": shifted_delta,
}


# Invertible factors S of Sheffer sequences, called as (psi, alpha); only
# laguerre_order reads alpha, the order of (1 - D)^(alpha+1).
SHEFFER_FACTORS: dict[str, Callable[..., OperatorSeries]] = {
    "one": lambda psi, alpha=0: one_series(psi),
    "one_minus": lambda psi, alpha=0: laguerre_scaling(psi, Fraction(0)),
    "exp_sq": lambda psi, alpha=0: exp_sq_series(psi),
    "one_minus_sq": lambda psi, alpha=0: laguerre_scaling(psi, Fraction(1)),
    "laguerre_order": lambda psi, alpha=0: laguerre_scaling(psi, alpha),
}


# -- operator tables on the monomial basis ----------------------------------


def table(fn: Callable[[Poly], Poly], dim: int) -> tuple[Poly, ...]:
    """Images of x^0 ... x^{dim-1} under fn, kept as polynomials so that
    degree-raising images stay exact instead of being clipped to a square."""
    return tuple(fn(monomial(j)) for j in range(dim))


def pincherle_commutator_matrix(s: OperatorSeries, dim: int) -> tuple[Poly, ...]:
    """[T, xhat_psi] assembled column-by-column; the oracle route."""
    psi = s.psi
    return table(lambda p: s.apply(xhat_psi(psi, p)) - xhat_psi(psi, s.apply(p)), dim)


def scaling_matrix(factor: RationalFunction, dim: int) -> tuple[Poly, ...]:
    """The dilation x^n -> factor^n x^n as an operator table."""
    cols = []
    power = ONE
    for j in range(dim):
        cols.append(monomial(j).scale(power))
        power = power * factor
    return tuple(cols)
