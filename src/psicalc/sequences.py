"""Basic and Sheffer polynomial sequences of a delta operator.

A delta operator Q = D*S owns a unique basic sequence p_n (p_0 = 1,
p_n(0) = 0, Q p_n = n_psi p_{n-1}), returned as a tuple of polynomials.
Four closed constructions are implemented from the factor S together
with an independent triangular solve of the defining recurrence; all five
must agree exactly, which is the backbone of the verification suite.
`BASIC_BUILDERS` is the one registry of the five, by method name.
The lowering relation and the binomial-type identities come back as
lists of residual polynomials, all zero when the identity holds.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .operators import DeltaOperator, OperatorSeries, combine, one_series
from .poly import Poly
from .psi import PsiSequence, monomial, one_poly, translate, xhat_psi
from .ratfun import ZERO, RationalFunction, dot

def basic_sequence(Q: DeltaOperator, n_top: int, method: str = "solve") -> tuple[Poly, ...]:
    """Construct p_0 ... p_{n_top}."""
    if method not in BASIC_BUILDERS:
        raise ValueError(f"unknown method {method!r}; choose from {tuple(BASIC_BUILDERS)}")
    return tuple(BASIC_BUILDERS[method](Q, n_top))


def lowering_residuals(Q: DeltaOperator, polys: tuple[Poly, ...]) -> list[Poly]:
    """Q p_n - n_psi p_{n-1}; all zero for the basic and Sheffer sequences of Q."""
    return [Q.apply(polys[n]) - polys[n - 1].scale(Q.psi.number(n))
            for n in range(1, len(polys))]


def _basic_solve(Q: DeltaOperator, n_top: int) -> list[Poly]:
    """Triangular solve of Q p_n = n_psi p_{n-1}, p_n(0) = 0, one degree at a time.

    Reads only the series coefficients (through Q.coeff) and falling
    factorials, so it stays independent of series multiplication,
    inversion and the commutator calculus used by the closed formulas.
    Q's matrix on the monomials, Q x^i = sum_k a_k falling(i, k) x^{i-k},
    and the pivots a_1 (m+1)_psi are formed once, before the first degree.
    """
    psi = Q.psi
    a = Q.coeff
    # w[i][k] for k >= 2, the entries the sums read; the k = 1 entries are the pivots
    tail = [ZERO, ZERO] + [a(k) for k in range(2, n_top + 1)]
    w = [[ak * psi.falling(i, k) if ak else ZERO for k, ak in enumerate(tail[: i + 1])]
         for i in range(n_top + 1)]
    pivots = [a(1) * psi.number(m + 1) for m in range(n_top)]
    polys = [one_poly()]
    for n in range(1, n_top + 1):
        rhs = polys[n - 1].scale(psi.number(n))
        c: list[RationalFunction] = [ZERO] * (n + 1)
        for m in range(n - 1, -1, -1):
            s = rhs.coeff(m, ZERO) - dot((w[i][i - m], c[i]) for i in range(m + 2, n + 1))
            c[m + 1] = s / pivots[m]
        polys.append(Poly(c))
    return polys


def _inverse_powers(Q: DeltaOperator, count: int) -> list[OperatorSeries]:
    """[S^0, S^-1, ..., S^-count] for the factor S of Q."""
    s_inv = Q.s_factor().invert()
    powers = [one_series(Q.psi)]
    for _ in range(count):
        powers.append(powers[-1] * s_inv)
    return powers


def _basic_lagrange1(Q: DeltaOperator, n_top: int) -> list[Poly]:
    """p_n = Q' S^{-n-1} x^n."""
    q_prime = Q.pincherle()
    powers = _inverse_powers(Q, n_top + 1)
    polys = [one_poly()]
    for n in range(1, n_top + 1):
        polys.append((q_prime * powers[n + 1]).apply(monomial(n)))
    return polys


def _basic_lagrange2(Q: DeltaOperator, n_top: int) -> list[Poly]:
    """p_n = S^{-n} x^n - (n_psi/n) (S^{-n})' x^{n-1}."""
    psi = Q.psi
    powers = _inverse_powers(Q, n_top)
    polys = [one_poly()]
    for n in range(1, n_top + 1):
        first = powers[n].apply(monomial(n))
        second = powers[n].pincherle().apply(monomial(n - 1))
        factor = psi.number(n) * Fraction(1, n)
        polys.append(first - second.scale(factor))
    return polys


def _basic_rodrigues3(Q: DeltaOperator, n_top: int) -> list[Poly]:
    """p_n = (n_psi/n) xhat_psi S^{-n} x^{n-1}."""
    psi = Q.psi
    powers = _inverse_powers(Q, n_top)
    polys = [one_poly()]
    for n in range(1, n_top + 1):
        inner = powers[n].apply(monomial(n - 1))
        polys.append(xhat_psi(psi, inner).scale(psi.number(n) * Fraction(1, n)))
    return polys


def _basic_rodrigues4(Q: DeltaOperator, n_top: int) -> list[Poly]:
    """p_n = (n_psi/n) xhat_psi (Q')^{-1} p_{n-1}, recursively."""
    psi = Q.psi
    qp_inv = Q.pincherle().invert()
    polys = [one_poly()]
    for n in range(1, n_top + 1):
        inner = qp_inv.apply(polys[n - 1])
        polys.append(xhat_psi(psi, inner).scale(psi.number(n) * Fraction(1, n)))
    return polys


BASIC_BUILDERS = {
    "lagrange1": _basic_lagrange1,
    "lagrange2": _basic_lagrange2,
    "rodrigues3": _basic_rodrigues3,
    "rodrigues4": _basic_rodrigues4,
    "solve": _basic_solve,
}


def sheffer_sequence(S: OperatorSeries, basic: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """s_n = S^{-1} p_n for an invertible shift-invariant S and the basic sequence p_n."""
    s_inv = S.invert()
    return tuple(s_inv.apply(p) for p in basic)


def q_laguerre_closed(psi: PsiSequence, n: int) -> Poly:
    """Closed form of the basic sequence of Q = D/(D-1).

    Expanding (D-1)^n in the transfer formula with ordinary binomials gives
    p_n = (n_psi/n) sum_{k=1..n} (-1)^k C(n,k) [(n-1)_psi!/(k-1)_psi!]
    (k/k_psi) x^k.  Works over any psi table; the q table recovers the
    q-Laguerre family.
    """
    if n < 0:
        raise ValueError("negative index")
    if n == 0:
        return one_poly()
    prefactor = psi.number(n) * Fraction(1, n)
    coeffs = [ZERO] * (n + 1)
    for k in range(1, n + 1):
        term = psi.falling(n - 1, n - k) * Fraction((-1) ** k * comb(n, k) * k)
        coeffs[k] = prefactor * (term / psi.number(k))
    return Poly(coeffs)


# -- binomial-type identities ------------------------------------------------


def binomial_residuals(
    psi: PsiSequence, left: tuple[Poly, ...], right: tuple[Poly, ...]
) -> list[Poly]:
    """Residuals translate(l_n) - sum_k C(n,k)_psi l_k(x) r_{n-k}(y), n < len(left).

    Bivariate polynomials; all zero when right is a basic sequence and left
    is the same sequence or a Sheffer sequence of its delta operator.
    """
    out = []
    for n in range(len(left)):
        ks = range(n + 1)
        binoms = [psi.binomial(n, k) for k in ks]
        rs = [right[n - k] for k in ks]
        # the x^i row is sum_k C(n,k)_psi [x^i] l_k * r_{n-k}(y)
        rows = [combine(rs, [b * left[k].coeff(i, ZERO) for k, b in zip(ks, binoms)])
                for i in range(max(len(left[k].coeffs) for k in ks))]
        out.append(translate(psi, left[n]) - Poly(rows))
    return out
