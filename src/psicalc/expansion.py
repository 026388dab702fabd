"""Operator expansion in a delta operator and its dual raising map.

Every linear operator preserving a truncated polynomial space has a
unique expansion T = sum_n g_n(xhat_Q) Q^n, where xhat_Q shifts the basic
sequence of Q up by one.  The coefficients g_n come out of a triangular
solve over the basic basis; reconstruction must reproduce T exactly,
which is what the roundtrip checks assert.  The deformed bracket of
(Q, xhat_Q) is checked as a list of residuals on the basic basis.
"""

from __future__ import annotations

from .operators import DeltaOperator, OperatorMatrix, combine
from .poly import Poly
from .psi import monomial
from .ratfun import ZERO, RationalFunction
from .sequences import basic_sequence


def to_basic_coords(polys: tuple[Poly, ...], p: Poly) -> list[RationalFunction]:
    """Coordinates of p in the (triangular) basic basis."""
    coords = [ZERO] * len(polys)
    rem = p
    while rem.coeffs:
        d = rem.degree
        if d >= len(polys):
            raise ValueError(f"degree {d} exceeds basis of size {len(polys)}")
        c = rem.coeffs[-1] / polys[d].coeffs[-1]
        coords[d] = c
        rem = rem - polys[d].scale(c)
    return coords


def dual_xhat(Q: DeltaOperator, n: int, basic: tuple[Poly, ...] | None = None) -> OperatorMatrix:
    """Table of the raising map p_k -> p_{k+1} on monomials of degree <= n."""
    if basic is None or len(basic) <= n + 1:
        basic = basic_sequence(Q, n + 1, method="solve")
    return OperatorMatrix(tuple(
        combine(basic[1:], to_basic_coords(basic[: j + 1], monomial(j)))
        for j in range(n + 1)
    ))


def expand_operator(
    T: OperatorMatrix, Q: DeltaOperator, basic: tuple[Poly, ...] | None = None
) -> list[Poly]:
    """Coefficient polynomials g_0 ... g_N with T = sum g_n(xhat_Q) Q^n.

    The table T must not raise degree past its own size.  Processing images
    of the basic sequence by increasing index makes the system triangular:
    the index-m image pins down g_m once g_0 ... g_{m-1} are known.
    """
    N = T.dim - 1
    if T.max_degree() > N:
        raise ValueError("truncation exceeded")
    psi = Q.psi
    if basic is None or len(basic) <= N:
        basic = basic_sequence(Q, N, method="solve")
    images = [to_basic_coords(basic, T.apply(basic[m])) for m in range(N + 1)]
    coeff_rows: list[list[RationalFunction]] = []
    for m in range(N + 1):
        # the index-m pivot is falling(m, m) = m_psi!
        fact = psi.factorial(m)
        row = [ZERO] * (N + 1)
        for i in range(N + 1):
            s = images[m][i]
            for n in range(m):
                idx = i - m + n
                if 0 <= idx <= N:
                    c = coeff_rows[n][idx]
                    if c:
                        s = s - psi.falling(m, n) * c
            row[i] = s / fact
        coeff_rows.append(row)
    return [Poly(row) for row in coeff_rows]


def reconstruct_operator(
    coeff_polys: list[Poly],
    Q: DeltaOperator,
    dim: int,
    basic: tuple[Poly, ...] | None = None,
) -> OperatorMatrix:
    """Assemble sum_n g_n(xhat_Q) Q^n as a table on monomials x^0..x^{dim-1}."""
    N = dim - 1
    psi = Q.psi
    extra = max((g.degree - n for n, g in enumerate(coeff_polys) if g.coeffs), default=0)
    M = N + max(extra, 0)
    if basic is None or len(basic) <= M:
        basic = basic_sequence(Q, M, method="solve")
    cols = []
    for j in range(dim):
        a = to_basic_coords(basic[: j + 1], monomial(j))
        out = [ZERO] * (M + 1)
        for n, g in enumerate(coeff_polys):
            if n > j or not g.coeffs:
                continue
            for m in range(n, j + 1):
                am = a[m]
                if not am:
                    continue
                base = am * psi.falling(m, n)
                for t, ct in enumerate(g.coeffs):
                    if ct:
                        out[m - n + t] = out[m - n + t] + base * ct
        cols.append(combine(basic, out))
    return OperatorMatrix(tuple(cols))


def _mutator_scale(psi, polys: tuple[Poly, ...], p: Poly) -> Poly:
    coords = to_basic_coords(polys, p)
    return combine(polys, [c and c * psi.mutator_eigenvalue(n) for n, c in enumerate(coords)])


def qmutator_check(
    Q: DeltaOperator, n_top: int, basic: tuple[Poly, ...] | None = None
) -> list[Poly]:
    """Residuals of the deformed bracket of (Q, xhat_Q) against the identity.

    Returns Q xhat_Q p_n - qhat xhat_Q Q p_n - p_n for n < n_top; all are
    zero when the bracket holds.  The qhat factor multiplies the index-n
    component by ((n+1)_psi - 1)/n_psi; components on p_0 are always zero
    here, so the undefined n = 0 eigenvalue is never evaluated.
    """
    psi = Q.psi
    if basic is None or len(basic) <= n_top:
        basic = basic_sequence(Q, n_top, method="solve")
    raise_map = dual_xhat(Q, n_top - 1, basic=basic)
    residuals = []
    for n in range(n_top):
        p_n = basic[n]
        first = Q.apply(raise_map.apply(p_n))
        lowered = Q.apply(p_n)
        second = (
            _mutator_scale(psi, basic, raise_map.apply(lowered))
            if lowered.coeffs
            else Poly()
        )
        residuals.append(first - second - p_n)
    return residuals
