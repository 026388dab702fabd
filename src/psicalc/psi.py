"""Deformed number sequences and the operators they induce on polynomials.

A psi-sequence is a table psi_0 = 1, psi_1, psi_2, ... of nonzero exact
scalars; a built-in one is fixed by its deformed numbers n_psi and grows
on demand.  It generates deformed numbers n_psi = psi_{n-1}/psi_n, factorials
n_psi! = 1/psi_n, binomials, the lowering derivative (x^n -> n_psi x^{n-1}),
the deformed raising map, and the two-variable translation operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .poly import Poly
from .ratfun import ONE, QSYM, ZERO, RationalFunction, rf


@dataclass(frozen=True, eq=False)
class PsiSequence:
    """A psi table with memoized derived numbers; equal only to itself.

    A built-in table carries its rule n -> n_psi and computes
    psi_n = psi_{n-1}/n_psi the first time psi_n is read, so it reaches as
    far as any caller asks.  A custom table (no rule) is the finite list it
    was given, and reading past its end is the one "beyond truncation"
    error.
    """

    name: str
    _values: list[RationalFunction] = field(repr=False)  # psi_0, psi_1, ...; a rule appends
    rule: Callable[[int], RationalFunction] | None = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._values:
            raise ValueError("psi table must not be empty")
        if self._values[0] != ONE:
            raise ValueError("psi_0 must be 1")
        for n, v in enumerate(self._values):
            if not v:
                raise ValueError(f"psi_{n} must be nonzero")

    def value(self, n: int) -> RationalFunction:
        """psi_n, grown from the rule on a built-in table's first read."""
        vals = self._values
        if 0 <= n < len(vals):
            return vals[n]
        if n < 0:
            raise ValueError("negative index")
        if self.rule is None:
            raise ValueError(f"beyond truncation: n={n} > N_max={len(vals) - 1}")
        while len(vals) <= n:
            vals.append(vals[-1] / self.rule(len(vals)))
        return vals[n]

    def _memo(self, key: tuple, compute: Callable[[], RationalFunction]) -> RationalFunction:
        """The one memo path: look key up in _cache, computing it on a miss."""
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = compute()
        return got

    def number(self, n: int) -> RationalFunction:
        """The deformed number n_psi; 0_psi = 0."""
        top = self.value(n)
        if n == 0:
            return ZERO
        return self._memo(("num", n), lambda: self.value(n - 1) / top)

    def factorial(self, n: int) -> RationalFunction:
        """The deformed factorial n_psi! = 1/psi_n; 0_psi! = 1."""
        return self._memo(("fact", n), self.value(n).inverse)

    def falling(self, n: int, k: int) -> RationalFunction:
        """Falling product n_psi (n-1)_psi ... (n-k+1)_psi; zero when k > n."""
        if k < 0:
            raise ValueError("negative falling length")
        top = self.value(n)
        if k == 0:
            return ONE
        if k > n:
            return ZERO
        return self._memo(("fall", n, k), lambda: self.value(n - k) / top)

    def binomial(self, n: int, k: int) -> RationalFunction:
        """Deformed binomial coefficient; requires 0 <= k <= n."""
        top = self.value(n)
        if k < 0 or k > n:
            raise ValueError(f"binomial index out of range: k={k}, n={n}")
        return self._memo(("binom", n, k),
                          lambda: self.value(k) * self.value(n - k) / top)

    def mutator_eigenvalue(self, n: int) -> RationalFunction:
        """Deformed-bracket eigenvalue ((n+1)_psi - 1)/n_psi; requires n >= 1."""
        return self._memo(("mut", n), lambda: (self.number(n + 1) - ONE) / self.number(n))


def _fibonacci(n: int) -> RationalFunction:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return rf(a)


# n -> n_psi for each built-in table
BUILTIN_PSIS: dict[str, Callable[[int], RationalFunction]] = {
    "classic": rf,                                        # n, so psi_n = 1/n!
    "qgauss": lambda n: RationalFunction(Poly([1] * n)),  # [n]_q = 1 + q + ... + q^{n-1}
    "fibonacci": _fibonacci,                              # F_n over 1, 1, 2, 3, 5, ...
    "square": lambda n: rf(n * n),                        # n^2, so psi_n = 1/(n!)^2
}


def by_name(name: str) -> PsiSequence:
    """The built-in table called name, grown on demand from its n_psi rule."""
    try:
        rule = BUILTIN_PSIS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_PSIS))
        raise ValueError(f"unknown psi sequence {name!r}; built-ins: {known}") from None
    return PsiSequence(name, [ONE], rule)


def classic() -> PsiSequence:
    """n_psi = n: all operators are the undeformed ones."""
    return by_name("classic")


def qgauss() -> PsiSequence:
    """n_psi = [n]_q, the Gauss q-numbers."""
    return by_name("qgauss")


def fibonacci() -> PsiSequence:
    """n_psi = F_n, the Fibonacci numbers."""
    return by_name("fibonacci")


def square() -> PsiSequence:
    """n_psi = n^2."""
    return by_name("square")


def custom(name: str, values: Sequence[RationalFunction]) -> PsiSequence:
    """User-supplied finite psi table; validated eagerly."""
    return PsiSequence(name, list(values))


# -- polynomial space helpers ----------------------------------------------


def monomial(n: int) -> Poly:
    """x^n with rational-function coefficients."""
    return Poly((ZERO,) * n + (ONE,))


def one_poly() -> Poly:
    return Poly((ONE,))


def psi_derivative(psi: PsiSequence, p: Poly) -> Poly:
    """Linear extension of x^n -> n_psi x^{n-1}."""
    out = []
    for n in range(1, len(p.coeffs)):
        c = p.coeffs[n]
        out.append(c * psi.number(n) if c else ZERO)
    return Poly(out)


def xhat_psi(psi: PsiSequence, p: Poly) -> Poly:
    """Deformed raising map, x^n -> ((n+1)/(n+1)_psi) x^{n+1}."""
    if p.is_zero():
        return p
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
    rows = []
    d = p
    k = 0
    while not d.is_zero():
        rows.append(d.scale(psi.value(k)))
        d = psi_derivative(psi, d)
        k += 1
    cols = []
    for i in range(len(p.coeffs)):
        cols.append(Poly([row.coeff(i, ZERO) for row in rows]))
    return Poly(cols)
