"""Deformed number sequences and the operators they induce on polynomials.

A psi-sequence is a table psi_0 = 1, psi_1, psi_2, ... of nonzero exact
scalars.  It generates deformed numbers n_psi = psi_{n-1}/psi_n, factorials
n_psi! = 1/psi_n, binomials, the lowering derivative (x^n -> n_psi x^{n-1}),
the deformed raising map, and the two-variable translation operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .poly import Poly
from .ratfun import ONE, QSYM, ZERO, RationalFunction, rf

DEFAULT_N_MAX = 16


@dataclass(frozen=True)
class PsiSequence:
    """Immutable table of psi values with memoized derived numbers."""

    name: str
    values: tuple[RationalFunction, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.values:
            raise ValueError("psi table must not be empty")
        if self.values[0] != ONE:
            raise ValueError("psi_0 must be 1")
        for n, v in enumerate(self.values):
            if not v:
                raise ValueError(f"psi_{n} must be nonzero")

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def _check(self, n: int) -> None:
        if n < 0:
            raise ValueError("negative index")
        if n > self.n_max:
            raise ValueError(f"beyond truncation: n={n} > N_max={self.n_max}")

    def _memo(self, key: tuple, compute: Callable[[], RationalFunction]) -> RationalFunction:
        """The one memo path: look key up in _cache, computing it on a miss."""
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = compute()
        return got

    def number(self, n: int) -> RationalFunction:
        """The deformed number n_psi; 0_psi = 0."""
        self._check(n)
        if n == 0:
            return ZERO
        return self._memo(("num", n), lambda: self.values[n - 1] / self.values[n])

    def factorial(self, n: int) -> RationalFunction:
        """The deformed factorial n_psi! = 1/psi_n; 0_psi! = 1."""
        self._check(n)
        return self._memo(("fact", n), self.values[n].inverse)

    def falling(self, n: int, k: int) -> RationalFunction:
        """Falling product n_psi (n-1)_psi ... (n-k+1)_psi; zero when k > n."""
        if k < 0:
            raise ValueError("negative falling length")
        self._check(n)
        if k == 0:
            return ONE
        if k > n:
            return ZERO
        return self._memo(("fall", n, k), lambda: self.values[n - k] / self.values[n])

    def binomial(self, n: int, k: int) -> RationalFunction:
        """Deformed binomial coefficient; requires 0 <= k <= n."""
        self._check(n)
        if k < 0 or k > n:
            raise ValueError(f"binomial index out of range: k={k}, n={n}")
        return self._memo(("binom", n, k),
                          lambda: self.values[k] * self.values[n - k] / self.values[n])

    def mutator_eigenvalue(self, n: int) -> RationalFunction:
        """Deformed-bracket eigenvalue ((n+1)_psi - 1)/n_psi; requires n >= 1."""
        return self._memo(("mut", n), lambda: (self.number(n + 1) - ONE) / self.number(n))


def classic(n_max: int = DEFAULT_N_MAX) -> PsiSequence:
    """psi_n = 1/n!, so n_psi = n and all operators are the undeformed ones."""
    vals = [rf(Fraction(1, math.factorial(n))) for n in range(n_max + 1)]
    return PsiSequence("classic", tuple(vals))


def qgauss(n_max: int = DEFAULT_N_MAX) -> PsiSequence:
    """psi_n = 1/(1_q 2_q ... n_q) with k_q = 1 + q + ... + q^{k-1}."""
    vals = [ONE]
    for k in range(1, n_max + 1):
        vals.append(vals[-1] / RationalFunction(Poly([1] * k)))
    return PsiSequence("qgauss", tuple(vals))


def fibonacci(n_max: int = DEFAULT_N_MAX) -> PsiSequence:
    """psi_n = 1/(F_1 F_2 ... F_n) over the Fibonacci numbers 1, 1, 2, 3, ..."""
    fibs = [1, 1]
    while len(fibs) < n_max + 1:
        fibs.append(fibs[-1] + fibs[-2])
    vals = [ONE]
    prod = 1
    for n in range(1, n_max + 1):
        prod *= fibs[n - 1]
        vals.append(rf(Fraction(1, prod)))
    return PsiSequence("fibonacci", tuple(vals))


def square(n_max: int = DEFAULT_N_MAX) -> PsiSequence:
    """psi_n = 1/(n!)^2, so n_psi = n^2."""
    vals = [rf(Fraction(1, math.factorial(n) ** 2)) for n in range(n_max + 1)]
    return PsiSequence("square", tuple(vals))


def custom(name: str, values: Sequence[RationalFunction]) -> PsiSequence:
    """User-supplied psi table; validated eagerly."""
    return PsiSequence(name, tuple(values))


BUILTIN_PSIS = {
    "classic": classic,
    "qgauss": qgauss,
    "fibonacci": fibonacci,
    "square": square,
}


def by_name(name: str, n_max: int = DEFAULT_N_MAX) -> PsiSequence:
    try:
        factory = BUILTIN_PSIS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_PSIS))
        raise ValueError(f"unknown psi sequence {name!r}; built-ins: {known}") from None
    return factory(n_max)


# -- polynomial space helpers ----------------------------------------------


def monomial(n: int) -> Poly:
    """x^n with rational-function coefficients."""
    return Poly((ZERO,) * n + (ONE,))


def one_poly() -> Poly:
    return Poly((ONE,))


def psi_derivative(psi: PsiSequence, p: Poly) -> Poly:
    """Linear extension of x^n -> n_psi x^{n-1}."""
    if p.degree > psi.n_max:
        raise ValueError(f"beyond truncation: degree {p.degree} > N_max={psi.n_max}")
    out = []
    for n in range(1, len(p.coeffs)):
        c = p.coeffs[n]
        out.append(c * psi.number(n) if c else ZERO)
    return Poly(out)


def xhat_psi(psi: PsiSequence, p: Poly) -> Poly:
    """Deformed raising map, x^n -> ((n+1)/(n+1)_psi) x^{n+1}."""
    if p.is_zero():
        return p
    if p.degree + 1 > psi.n_max:
        raise ValueError(
            f"beyond truncation: raising degree {p.degree} exceeds N_max={psi.n_max}"
        )
    out = [ZERO]
    for n, c in enumerate(p.coeffs):
        out.append(c * (Fraction(n + 1) / psi.number(n + 1)) if c else ZERO)
    return Poly(out)


def jackson_quotient(p: Poly, q_value: RationalFunction | None = None) -> Poly:
    """The q-difference quotient (p(x) - p(qx)) / ((1-q)x), computed exactly.

    Built as the literal quotient so it stays an independent route to the
    qgauss derivative: substitute qx, subtract, and divide out the monomial
    factor (both divisions are exact for polynomial input).
    """
    qv = QSYM if q_value is None else q_value
    scaled = p.compose(Poly((ZERO, qv)))
    diff = p - scaled
    if diff.is_zero():
        return Poly()
    denom = ONE - qv
    if not denom:
        raise ZeroDivisionError("degenerate deformation: q = 1")
    # diff has no constant term: p(x) - p(qx) vanishes at x = 0.
    out = [c / denom for c in diff.coeffs[1:]]
    return Poly(out)


def translate(psi: PsiSequence, p: Poly) -> Poly:
    """Apply the generalized translation sum_k y^k (d/dx)_psi^k / k_psi!.

    Returns a bivariate polynomial: outer coefficients index powers of x,
    inner polynomials live in y.  The k-th term divides by k_psi!, i.e.
    multiplies by psi_k.  Setting y = 0 recovers p.
    """
    if p.degree > psi.n_max:
        raise ValueError(f"beyond truncation: degree {p.degree} > N_max={psi.n_max}")
    rows = []
    d = p
    k = 0
    while not d.is_zero():
        rows.append(d.scale(psi.values[k]))
        d = psi_derivative(psi, d)
        k += 1
    cols = []
    for i in range(len(p.coeffs)):
        cols.append(Poly([row.coeff(i, ZERO) for row in rows]))
    return Poly(cols)


def bivariate_eval_y0(p: Poly) -> Poly:
    """Set y = 0 in a bivariate polynomial, returning an x-polynomial."""
    return Poly([inner.coeff(0, ZERO) for inner in p.coeffs])
