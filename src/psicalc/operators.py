"""Shift-invariant operators as truncated power series in the psi-derivative.

A series sum_k a_k D^k (D the psi-derivative) acts exactly on polynomials
whose degree does not exceed the truncation order, since D lowers degree.
Delta operators are the series with a_0 = 0, a_1 != 0; they factor as
D * S with S invertible, which drives every construction downstream.
An operator table is a plain tuple of polynomials whose entry j is the
image of x^j (`table` builds one from a map); `combine` forms the linear
combinations that applying a table or changing basis needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

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


@dataclass(frozen=True)
class OperatorSeries:
    """Truncated formal power series in the psi-derivative."""

    psi: PsiSequence
    coeffs: tuple[RationalFunction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _same(self, other: "OperatorSeries") -> None:
        if self.psi is not other.psi:
            raise ValueError("operator series over different psi sequences")

    def __mul__(self, other: "OperatorSeries") -> "OperatorSeries":
        self._same(other)
        n = min(self.order, other.order)
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return OperatorSeries(self.psi, tuple(out))

    def invert(self) -> "OperatorSeries":
        """Multiplicative inverse up to the truncation order."""
        a0 = self.coeffs[0]
        if not a0:
            raise ValueError("non-invertible series")
        inv0 = a0.inverse()
        out = [inv0]
        for k in range(1, self.order + 1):
            s = ZERO
            for i in range(1, k + 1):
                ai = self.coeffs[i]
                if ai and out[k - i]:
                    s = s + ai * out[k - i]
            out.append(-(s * inv0) if s else ZERO)
        return OperatorSeries(self.psi, tuple(out))

    def pincherle(self) -> "OperatorSeries":
        """Formal derivative sum_k k a_k D^{k-1}.

        Valid as the commutator with the deformed raising map because
        [D, xhat_psi] = id; the matrix-commutator route in this module
        cross-checks it.
        """
        if self.order == 0:
            return OperatorSeries(self.psi, (ZERO,))
        return OperatorSeries(
            self.psi, tuple(self.coeffs[k] * k for k in range(1, self.order + 1))
        )

    def truncate(self, order: int) -> "OperatorSeries":
        if order >= self.order:
            pad = (ZERO,) * (order - self.order)
            return OperatorSeries(self.psi, self.coeffs + pad)
        return OperatorSeries(self.psi, self.coeffs[: order + 1])

    def apply(self, p: Poly) -> Poly:
        """Act on a polynomial; exact because degree bounds the sum."""
        if p.degree > self.order:
            raise ValueError(
                f"series order {self.order} too low for degree {p.degree}"
            )
        acc = Poly()
        d = p
        for a in self.coeffs:
            if d.is_zero():
                break
            if a:
                acc = acc + d.scale(a)
            d = psi_derivative(self.psi, d)
        return acc


def series(psi: PsiSequence, coeffs: Iterable, order: int) -> OperatorSeries:
    """Build a series with explicit truncation order, zero padded."""
    cs = [rf(c) for c in coeffs]
    if len(cs) > order + 1:
        if any(cs[order + 1 :]):
            raise ValueError("coefficients exceed requested order")
        cs = cs[: order + 1]
    cs.extend([ZERO] * (order + 1 - len(cs)))
    return OperatorSeries(psi, tuple(cs))


def one_series(psi: PsiSequence, order: int) -> OperatorSeries:
    return series(psi, [ONE], order)


@dataclass(frozen=True)
class DeltaOperator(OperatorSeries):
    """A series with no constant term and a nonzero linear term."""

    def __post_init__(self):
        if self.coeffs[0]:
            raise ValueError("delta operator must kill constants")
        if self.order < 1 or not self.coeffs[1]:
            raise ValueError("delta operator needs a nonzero linear term")

    def s_factor(self) -> OperatorSeries:
        """The invertible S with Q = D * S; coefficients shift down by one."""
        return OperatorSeries(self.psi, self.coeffs[1:])


# -- named constructors used across the verification grid -------------------


def derivative_delta(psi: PsiSequence, order: int) -> DeltaOperator:
    """Q = D itself."""
    return DeltaOperator(psi, series(psi, [ZERO, ONE], order).coeffs)


def laguerre_delta(psi: PsiSequence, order: int) -> DeltaOperator:
    """Q = D/(D - 1) = -(D + D^2 + D^3 + ...)."""
    return DeltaOperator(psi, series(psi, [ZERO] + [-ONE] * order, order).coeffs)


def quadratic_delta(psi: PsiSequence, order: int) -> DeltaOperator:
    """Q = D(1 + D); not tied to any named family, exercises generic paths."""
    return DeltaOperator(psi, series(psi, [ZERO, ONE, ONE], order).coeffs)


def exp_series(psi: PsiSequence, shift, order: int) -> OperatorSeries:
    """Translation series sum_k shift^k psi_k D^k (the deformed exponential)."""
    s = rf(shift)
    coeffs = []
    power = ONE
    for k in range(order + 1):
        coeffs.append(power * psi.value(k))
        power = power * s
    return OperatorSeries(psi, tuple(coeffs))


def shifted_delta(psi: PsiSequence, order: int, shift=1) -> DeltaOperator:
    """Q = D * E^shift(D), the deformed shifted derivative."""
    inner = exp_series(psi, shift, order - 1)
    return DeltaOperator(psi, (ZERO,) + inner.coeffs)


def exp_sq_series(psi: PsiSequence, order: int) -> OperatorSeries:
    """The series sum_k psi_k D^{2k} (deformed exponential of D^2)."""
    coeffs = [ZERO] * (order + 1)
    for k in range(order // 2 + 1):
        coeffs[2 * k] = psi.value(k)
    return OperatorSeries(psi, tuple(coeffs))


def laguerre_scaling(psi: PsiSequence, alpha: Fraction, order: int) -> OperatorSeries:
    """(1 - D)^(alpha+1) expanded with ordinary binomials of the exponent."""
    beta = Fraction(alpha) + 1
    coeffs = [ONE]
    c = Fraction(1)
    for k in range(1, order + 1):
        c = c * (beta - (k - 1)) / k
        coeffs.append(rf(-c if k % 2 else c))
    return OperatorSeries(psi, tuple(coeffs))


DELTA_FAMILIES: dict[str, Callable[[PsiSequence, int], DeltaOperator]] = {
    "derivative": derivative_delta,
    "laguerre": laguerre_delta,
    "quadratic": quadratic_delta,
    "shifted": shifted_delta,
}


def delta_by_name(name: str, psi: PsiSequence, order: int) -> DeltaOperator:
    try:
        return DELTA_FAMILIES[name](psi, order)
    except KeyError:
        known = ", ".join(sorted(DELTA_FAMILIES))
        raise ValueError(f"unknown delta operator {name!r}; built-ins: {known}") from None


# Invertible factors S of Sheffer sequences, called as (psi, order, alpha);
# only laguerre_order reads alpha, the order of (1 - D)^(alpha+1).
SHEFFER_FACTORS: dict[str, Callable[..., OperatorSeries]] = {
    "one": lambda psi, order, alpha=0: one_series(psi, order),
    "one_minus": lambda psi, order, alpha=0: laguerre_scaling(psi, Fraction(0), order),
    "exp_sq": lambda psi, order, alpha=0: exp_sq_series(psi, order),
    "one_minus_sq": lambda psi, order, alpha=0: laguerre_scaling(psi, Fraction(1), order),
    "laguerre_order": lambda psi, order, alpha=0: laguerre_scaling(psi, alpha, order),
}


# -- operator tables on the monomial basis ----------------------------------


def table(fn: Callable[[Poly], Poly], dim: int) -> tuple[Poly, ...]:
    """Images of x^0 ... x^{dim-1} under fn, kept as polynomials so that
    degree-raising images stay exact instead of being clipped to a square."""
    return tuple(fn(monomial(j)) for j in range(dim))


def pincherle_commutator_matrix(s: OperatorSeries, dim: int) -> tuple[Poly, ...]:
    """[T, xhat_psi] assembled column-by-column; the oracle route.

    Requires the series order to exceed dim, since the raising map bumps
    intermediate degrees by one.
    """
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
