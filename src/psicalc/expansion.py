"""Operator expansion in a delta operator and its dual raising map.

Every linear operator preserving a truncated polynomial space has a
unique expansion T = sum_n g_n(xhat_Q) Q^n, where xhat_Q shifts the basic
sequence of Q up by one.  The coefficients g_n come out of a triangular
solve over the basic basis; reconstruction must reproduce T exactly,
which is what the roundtrip checks assert.  The deformed bracket of
(Q, xhat_Q) is checked as a list of residuals on the basic basis.

Everything here is read off the basic sequence p_0, p_1, ... of Q, which
the caller solves once and passes in; a sequence too short for the
requested size is an error.  Operator tables are tuples of polynomials,
entry j the image of x^j (see `operators.table`).
"""

from __future__ import annotations

from .operators import DeltaOperator, combine
from .poly import Poly
from .psi import monomial
from .ratfun import ZERO, RationalFunction, dot


def _need(basic: tuple[Poly, ...], n: int) -> None:
    if len(basic) <= n:
        raise ValueError(f"basic sequence of length {len(basic)} too short: need p_0 ... p_{n}")


def to_basic_coords(polys: tuple[Poly, ...], p: Poly) -> list[RationalFunction]:
    """Coordinates of p in the triangular basic basis (polys[d] of degree d).

    A back-substitution from the top degree: the x^d coefficient of p less
    that of the coordinates above d, over the lead of polys[d].
    """
    cs = p.coeffs
    if len(cs) > len(polys):
        raise ValueError(f"degree {p.degree} exceeds basis of size {len(polys)}")
    coords = [ZERO] * len(polys)
    for d in range(len(cs) - 1, -1, -1):
        s = cs[d] - dot((coords[j], polys[j].coeffs[d]) for j in range(d + 1, len(cs)))
        if s:
            coords[d] = s / polys[d].coeffs[d]
    return coords


def _monomial_coords(basic: tuple[Poly, ...], n: int) -> list[list[RationalFunction]]:
    """Basic coordinates of x^0 ... x^{n-1}, each over p_0 ... p_j only."""
    return [to_basic_coords(basic[: j + 1], monomial(j)) for j in range(n)]


def dual_xhat(basic: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """Table of the raising map p_k -> p_{k+1} on x^0 ... x^{len(basic)-2}."""
    return tuple(combine(basic[1:], c) for c in _monomial_coords(basic, len(basic) - 1))


def expand_operator(
    T: tuple[Poly, ...], Q: DeltaOperator, basic: tuple[Poly, ...]
) -> list[Poly]:
    """Coefficient polynomials g_0 ... g_N with T = sum g_n(xhat_Q) Q^n.

    The table T must not raise degree past its own size, and `basic` must
    hold p_0 ... p_N.  Processing images of the basic sequence by
    increasing index makes the system triangular: the index-m image pins
    down g_m once g_0 ... g_{m-1} are known.
    """
    N = len(T) - 1
    if max((c.degree for c in T), default=-1) > N:
        raise ValueError("truncation exceeded")
    _need(basic, N)
    psi = Q.psi
    images = [to_basic_coords(basic, combine(T, basic[m].coeffs)) for m in range(N + 1)]
    coeff_rows: list[list[RationalFunction]] = []
    for m in range(N + 1):
        # the index-m pivot is falling(m, m) = m_psi!
        fact = psi.factorial(m)
        falls = [psi.falling(m, n) if any(coeff_rows[n]) else ZERO for n in range(m)]
        row = []
        for i in range(N + 1):
            # g_n's coefficient i - m + n, for the n < m where it exists
            s = images[m][i] - dot((falls[n], coeff_rows[n][i - m + n])
                                   for n in range(max(m - i, 0), m))
            row.append(s / fact)
        coeff_rows.append(row)
    return [Poly(row) for row in coeff_rows]


def reconstruct_operator(
    coeff_polys: list[Poly], Q: DeltaOperator, basic: tuple[Poly, ...]
) -> tuple[Poly, ...]:
    """Assemble sum_n g_n(xhat_Q) Q^n as a table on x^0 ... x^{len(coeff_polys)-1}.

    `basic` must reach past the table size by however far some g_n
    raises degree beyond n (never, for a table that does not raise degree).
    Each image T p_m = sum_{n<=m} falling(m, n) g_n(xhat_Q) p_{m-n} is built
    once: its basic coordinates are the g_n shifted up by m - n, scaled by
    falling(m, n).  Column j follows by writing x^j in the basic basis.
    """
    dim = len(coeff_polys)
    psi = Q.psi
    extra = max((g.degree - n for n, g in enumerate(coeff_polys) if g.coeffs), default=0)
    M = dim - 1 + max(extra, 0)
    _need(basic, M)
    images = []
    for m in range(dim):
        gs = coeff_polys[: m + 1]
        coords = combine([g.shifted(m - n) for n, g in enumerate(gs)],
                         [psi.falling(m, n) if g else ZERO for n, g in enumerate(gs)])
        images.append(combine(basic, coords.coeffs))
    return tuple(combine(images, c) for c in _monomial_coords(basic, dim))


def _mutator_scale(psi, polys: tuple[Poly, ...], p: Poly) -> Poly:
    coords = to_basic_coords(polys, p)
    return combine(polys, [c and c * psi.mutator_eigenvalue(n) for n, c in enumerate(coords)])


def qmutator_check(Q: DeltaOperator, basic: tuple[Poly, ...]) -> list[Poly]:
    """Residuals of the deformed bracket of (Q, xhat_Q) against the identity.

    Returns Q xhat_Q p_n - qhat xhat_Q Q p_n - p_n for n < len(basic) - 1;
    all are zero when the bracket holds.  The qhat factor multiplies the
    index-n component by ((n+1)_psi - 1)/n_psi.  Zero components are
    skipped, and the component on p_0 is always zero here (xhat_Q raises
    the index), so the undefined n = 0 eigenvalue is never evaluated.

    The bracket holds only on tables with psi_1 = 1 (1_psi = 1, as on
    every built-in table); otherwise the first residual is (1_psi - 1) p_0.
    """
    _need(basic, 1)
    psi = Q.psi
    raise_map = dual_xhat(basic)
    residuals = []
    for p_n in basic[:-1]:
        first = Q.apply(combine(raise_map, p_n.coeffs))
        second = _mutator_scale(psi, basic, combine(raise_map, Q.apply(p_n).coeffs))
        residuals.append(first - second - p_n)
    return residuals
