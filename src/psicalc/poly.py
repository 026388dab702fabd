"""Dense univariate polynomials over duck-typed field scalars.

One class serves the layers above the coefficient field: polynomials in x
with RationalFunction coefficients and bivariate polynomials in x whose
coefficients are themselves polynomials in y.  Polynomials in q with int or
Fraction coefficients are what RationalFunction takes and exposes; its own
arithmetic runs on plain integer tuples.
"""

from __future__ import annotations

from typing import Iterable


class Poly:
    """Ascending-power coefficient tuple with trailing zeros trimmed.

    The zero polynomial has an empty tuple and degree -1.  Scalars must
    support +, -, *, compare with ==, and be falsy exactly when zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def coeff(self, i: int, zero):
        """Coefficient of x**i, or `zero` when out of range."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return zero

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        head = [a[i] + b[i] for i in range(len(b))]
        head.extend(a[len(b):])
        return Poly(head)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def scale(self, s):
        """Multiply every coefficient by the scalar s."""
        if not self.coeffs or not s:
            return Poly()
        return Poly([c * s for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out: list = [None] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                t = ai * bj
                k = i + j
                out[k] = t if out[k] is None else out[k] + t
        zero = a[0] * 0
        return Poly([zero if c is None else c for c in out])

    def __rmul__(self, other):
        return self.scale(other)

    def shifted(self, k: int):
        """Multiply by x**k."""
        if k == 0 or not self.coeffs:
            return self
        zero = self.coeffs[0] * 0
        return Poly((zero,) * k + self.coeffs)

    def eval_at(self, point):
        """Horner evaluation; `point` may live in any compatible scalar ring."""
        acc = point * 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def map_coeffs(self, fn) -> "Poly":
        return Poly([fn(c) for c in self.coeffs])
