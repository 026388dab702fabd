"""Exact rational-function field over the deformation symbol q.

A value is ``a/b * num/den``.  The content ``a/b`` is a pair of ints with
``b > 0`` and ``gcd(a, b) = 1``.  ``num`` and ``den`` are coprime primitive
integer polynomials in q (ascending coefficient tuples whose gcd is 1), each
with a positive leading coefficient.  Zero is ``0/1 * ()/(1,)``.  By Gauss's
lemma products and exact quotients of primitive polynomials are primitive, so
all arithmetic runs on Python ints; a ``Fraction`` appears only at the edge
(constructor, coercion, ``content``, ``eval_q``).  The form is canonical, so
equality is syntactic.  Polynomial gcds use the heuristic gcd GCDHEU (Char,
Geddes and Gonnet, J. Symbolic Comput. 8 (1989) 31-48), which also returns
the cofactors, so cancelling a common factor needs no second division.
``+`` of two values of different forms is the cross-multiplied sum.
``dot(pairs)`` is the one fused operation: the sum of products x*y over
the (x, y) pairs its caller yields, with the constant terms over one
integer lcm and the others over one Z[q] denominator, canonicalised once
at the end.  Both end in ``_canonical``, the one normalisation of a sum:
primitive part, one num/den gcd, content reduced.  Every partial sum is
an exact value, only not yet canonical, and the canonical form is unique,
so ``dot`` equals the left-to-right sum of ``+`` and ``*`` and renders
the same text.
``parse_ratfun`` reads the text form back in one left-to-right pass.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _igcd, isqrt as _isqrt, lcm as _ilcm

from .poly import Poly

_I1 = (1,)

# largest exponent parse_ratfun accepts in q^N; built-in tables stay far below
MAX_PARSED_DEGREE = 10_000


# -- integer polynomials: nonzero ascending coefficient tuples ---------------


def _mul(a: tuple, b: tuple) -> tuple:
    if len(a) == 1:
        return b if a[0] == 1 else tuple(a[0] * c for c in b)
    if len(b) == 1:
        return a if b[0] == 1 else tuple(b[0] * c for c in a)
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, bj in enumerate(b):
        if bj:
            for i, ai in enumerate(a, j):
                out[i] += ai * bj
    return tuple(out)


def _primitive(cs) -> tuple[int, tuple]:
    """(g, cs/g) with g the coefficient gcd, signed so the lead is positive."""
    g = _igcd(*cs)
    if cs[-1] < 0:
        g = -g
    if g == 1:
        return 1, tuple(cs)
    return g, tuple(c // g for c in cs)


def _split(cs) -> tuple[int, int, tuple]:
    """(g, d, p) with cs = g/d * p, d > 0, gcd(g, d) = 1 and p primitive."""
    d = _ilcm(*(c.denominator for c in cs))
    g, prim = _primitive([c.numerator * (d // c.denominator) for c in cs])
    return g, d, prim


def _combine(u: int, a: tuple, v: int, b: tuple) -> list:
    """u*a + v*b with trailing zeros trimmed."""
    if len(a) < len(b):
        a, b, u, v = b, a, v, u
    out = [u * c for c in a]
    for i, c in enumerate(b):
        out[i] += v * c
    while out and not out[-1]:
        out.pop()
    return out


def _divexact(a: tuple, b: tuple):
    """a/b if the primitive b divides a over the integers, else None."""
    db = len(b) - 1
    if not db:
        return a
    if db >= len(a):
        return None
    lb = b[-1]
    rem = list(a)
    out = [0] * (len(a) - db)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + db]
        if c:
            f, r = divmod(c, lb)
            if r:
                return None
            out[i] = f
            for k in range(db):
                rem[i + k] -= f * b[k]
    if any(rem[:db]):
        return None
    return tuple(out)


def _at(cs: tuple, x: int) -> int:
    v = 0
    for c in reversed(cs):
        v = v * x + c
    return v


def _gcd_poly(a: tuple, b: tuple) -> tuple[tuple, tuple, tuple]:
    """(g, a/g, b/g) for primitive a and b, g their primitive gcd, by GCDHEU.

    The primitive part of the symmetric x-adic digits of igcd(a(x), b(x)) is
    the gcd if it divides a and b and x >= 2*min(|a|, |b|) + 2 (max norms).
    x only grows, and with a = g*u, b = g*v the digits are +-c*g for a divisor
    c of Res(u, v) != 0 once x > 2*|Res(u, v)|*|g|, so the search ends.
    """
    x = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    while True:
        h = _igcd(_at(a, x), _at(b, x))
        half = x >> 1
        digits = []
        while h:
            d = h % x
            if d > half:
                d -= x
            digits.append(d)
            h = (h - d) // x
        g = _primitive(digits)[1]
        ca = _divexact(a, g)
        if ca is not None:
            cb = _divexact(b, g)
            if cb is not None:
                return g, ca, cb
        # the growth rule of sympy's heugcd
        x = 73794 * x * _isqrt(_isqrt(x)) // 27011


class RationalFunction:
    """Canonical a/b * num/den over primitive integer polynomials in q."""

    __slots__ = ("_a", "_b", "_num", "_den")

    def __init__(self, num, den=1):
        num, den = _coeffs(num), _coeffs(den)
        if not den:
            raise ZeroDivisionError("zero divisor")
        if not num:
            self._a, self._b, self._num, self._den = 0, 1, (), _I1
            return
        gn, dn, n = _split(num)
        gd, dd, d = _split(den)
        if len(n) > 1 and len(d) > 1:
            _, n, d = _gcd_poly(n, d)
        a, b = gn * dd, dn * gd
        g = _igcd(a, b) if b > 0 else -_igcd(a, b)
        self._a, self._b, self._num, self._den = a // g, b // g, n, d

    @property
    def content(self) -> Fraction:
        """The rational factor a/b in front of num/den."""
        return Fraction(self._a, self._b)

    @property
    def num(self) -> Poly:
        """The primitive numerator as an integer-coefficient Poly."""
        return Poly(self._num)

    @property
    def den(self) -> Poly:
        """The primitive denominator as an integer-coefficient Poly."""
        return Poly(self._den)

    # -- basic protocol ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a

    def __bool__(self) -> bool:
        return bool(self._a)

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (self._a == o._a and self._b == o._b
                and self._num == o._num and self._den == o._den)

    def __hash__(self):
        if self._den == _I1 and len(self._num) <= 1:
            # a constant equals the int or Fraction a/b, so it hashes like one
            return hash(Fraction(self._a, self._b))
        return hash((self._a, self._b, self._num, self._den))

    def __repr__(self):
        return f"RationalFunction({self.render()!r})"

    def __str__(self):
        return self.render()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        if not a2:
            return self
        if not a1:
            return o
        n1, d1, n2, d2 = self._num, self._den, o._num, o._den
        if n1 == n2 and d1 == d2:
            a, b = a1 * b2 + a2 * b1, b1 * b2
            if not a:
                return ZERO
            g = _igcd(a, b)
            return _new(a // g, b // g, n1, d1)
        num = _combine(a1 * b2, _mul(n1, d2), a2 * b1, _mul(n2, d1))
        return _canonical(b1 * b2, num, _mul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        return _new(-self._a, self._b, self._num, self._den)

    def __sub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        if not a1 or not a2:
            return ZERO
        g, h = _igcd(a1, b2), _igcd(a2, b1)
        n1, d1, n2, d2 = self._num, self._den, o._num, o._den
        if len(n1) > 1 and len(d2) > 1:
            _, n1, d2 = _gcd_poly(n1, d2)
        if len(n2) > 1 and len(d1) > 1:
            _, n2, d1 = _gcd_poly(n2, d1)
        return _new(a1 // g * (a2 // h), b1 // h * (b2 // g), _mul(n1, n2), _mul(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        a, b = self._a, self._b
        if not a:
            raise ZeroDivisionError("zero divisor")
        return _new(b, a, self._den, self._num) if a > 0 else _new(-b, -a, self._den, self._num)

    def __truediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if not self._a:
            return ZERO if n else ONE
        # coprime num and den (and a and b) stay coprime under powers
        num = den = _I1
        for _ in range(n):
            num, den = _mul(num, self._num), _mul(den, self._den)
        return _new(self._a ** n, self._b ** n, num, den)

    # -- evaluation and rendering -------------------------------------------

    def eval_q(self, point) -> Fraction:
        """Evaluate at a rational value of q; denominator must not vanish."""
        point = Fraction(point)
        d = _at(self._den, point)
        if d == 0:
            raise ZeroDivisionError("zero divisor")
        return self.content * _at(self._num, point) / d

    def render(self) -> str:
        """Integer numerator over integer denominator, e.g. "(1-q)/(2+2q)"."""
        a, b = self._a, self._b
        ns = _int_poly_str([a * c for c in self._num])
        if b == 1 and self._den == _I1:
            return ns
        return f"({ns})/({_int_poly_str([b * c for c in self._den])})"


def dot(pairs) -> RationalFunction:
    """The exact sum of x*y over an iterable of (x, y) RationalFunction pairs.

    The caller yields the terms that exist; a pair with a zero side is
    skipped, and no pairs sum to ZERO.

    Constant terms (num = den = 1) add into one integer numerator over the
    running lcm of their denominators.  The other terms add into one
    integer polynomial over an integer times one primitive Z[q]
    denominator, the lcm of the terms' denominators, which takes a gcd only
    when a term brings a new one; a term's own factors cancel crosswise as
    in ``*``.  Nothing is canonicalised until the end, where ``_canonical``
    cancels the numerator against that denominator.  The canonical form is
    unique, so the value equals the left-to-right sum of + and *.
    """
    top, bottom = 0, 1  # the constant terms sum to top/bottom
    num, scale, den = [], 1, _I1  # the others sum to num/(scale*den)
    for x, y in pairs:
        a1, a2 = x._a, y._a
        if not a1 or not a2:
            continue
        n1, d1, n2, d2 = x._num, x._den, y._num, y._den
        a, b = a1 * a2, x._b * y._b
        if len(n1) == len(d1) == len(n2) == len(d2) == 1:
            if b == bottom:
                top += a
            else:
                g = _igcd(bottom, b)
                top = top * (b // g) + a * (bottom // g)
                bottom = bottom // g * b
            continue
        if len(n1) > 1 and len(d2) > 1:
            _, n1, d2 = _gcd_poly(n1, d2)
        if len(n2) > 1 and len(d1) > 1:
            _, n2, d1 = _gcd_poly(n2, d1)
        n, d = _mul(n1, n2), _mul(d1, d2)
        if not num:
            num, scale, den = [a * c for c in n], b, d
            continue
        g = _igcd(scale, b)
        u, v = b // g, a * (scale // g)
        scale = scale // g * b
        if d == den:
            num = _combine(u, num, v, n)
        else:
            _, dt, td = _gcd_poly(den, d)
            num = _combine(u, _mul(num, td), v, _mul(n, dt))
            den = _mul(den, td)
        if not num:
            scale, den = 1, _I1
    if not num:
        if not top:
            return ZERO
        g = _igcd(top, bottom)
        return _new(top // g, bottom // g, _I1, _I1)
    if top:
        g = _igcd(scale, bottom)
        num = _combine(bottom // g, num, top * (scale // g), den)
        scale = scale // g * bottom
    return _canonical(scale, num, den)


def _canonical(b: int, num: list, den: tuple) -> RationalFunction:
    """num/(b*den) in canonical form, for b > 0 and a primitive den with a
    positive lead: the primitive part of num, one gcd of num and den, then
    the content reduced against b."""
    if not num:
        return ZERO
    k, num = _primitive(num)
    if len(num) > 1 and len(den) > 1:
        _, num, den = _gcd_poly(num, den)
    g = _igcd(k, b)
    return _new(k // g, b // g, num, den)


def _new(a: int, b: int, num: tuple, den: tuple) -> RationalFunction:
    """A value from parts already in canonical form."""
    r = object.__new__(RationalFunction)
    r._a, r._b, r._num, r._den = a, b, num, den
    return r


def _coeffs(v) -> tuple:
    if isinstance(v, Poly):
        return v.coeffs
    if isinstance(v, (int, Fraction)):
        return (v,) if v else ()
    raise TypeError(f"cannot build a polynomial from {type(v).__name__}")


def _coerce(v):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, (int, Fraction)):
        return _new(v.numerator, v.denominator, _I1, _I1) if v else ZERO
    return None


ZERO = _new(0, 1, (), _I1)
ONE = _new(1, 1, _I1, _I1)
QSYM = _new(1, 1, (0, 1), _I1)


def rf(value) -> RationalFunction:
    """Coerce an int/Fraction/Poly into the rational-function field."""
    got = _coerce(value)
    if got is not None:
        return got
    if isinstance(value, Poly):
        return RationalFunction(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to RationalFunction")


# -- canonical text form --------------------------------------------------


def _int_poly_str(cs: list[int]) -> str:
    parts = []
    for k, c in enumerate(cs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "q" if k == 1 else f"q^{k}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts) if parts else "0"


# one signed term: [+|-] N, [+|-] [N[*]]q[^K]; blanks may precede each token
# but not end the text.  Each optional sign or '*' carries its own blank run:
# two \s* runs that can touch would backtrack quadratically on a failed match.
_TERM = re.compile(r"\s*(?:([+-])\s*)?(?:(\d+)|(?=q))(?:(?:\s*\*)?\s*(q)(?:\s*\^\s*(\d+))?)?")
_MARK = re.compile(r"\s*([()/])")


def _side(text: str, pos: int) -> tuple[Poly, bool, int]:
    """Read one polynomial at text[pos:], bare or in one pair of parentheses.

    Returns the polynomial, whether it was a bare run of more than one term,
    and the end position.  Every term after the first needs a sign.
    """
    mark = _MARK.match(text, pos)
    paren = mark is not None and mark[1] == "("
    if paren:
        pos = mark.end()
    coeffs: dict[int, int] = {}
    terms = 0
    while (t := _TERM.match(text, pos)) and (t[1] or not terms):
        sign, mag, q, power = t.groups()
        power = int(power or 1) if q else 0
        if power > MAX_PARSED_DEGREE:
            raise ValueError(f"exponent {power} exceeds {MAX_PARSED_DEGREE} "
                             f"near {text[pos:pos + 8]!r}")
        coeffs[power] = coeffs.get(power, 0) + (-1 if sign == "-" else 1) * int(mag or 1)
        terms += 1
        pos = t.end()
    if not terms:
        raise ValueError(f"expected a term near {text[pos:pos + 8]!r}")
    if paren:
        mark = _MARK.match(text, pos)
        if mark is None or mark[1] != ")":
            raise ValueError(f"expected ')' near {text[pos:pos + 8]!r}")
        pos = mark.end()
    return Poly([coeffs.get(k, 0) for k in range(max(coeffs) + 1)]), not paren and terms > 1, pos


def parse_ratfun(text: str) -> RationalFunction:
    """Parse the canonical text form: a polynomial in q, optionally /(poly).

    Accepts e.g. "1+q+q^2", "-q", "3", "1/2", "(1-q^3)/(1-q)".  A side of
    '/' with more than one term must be parenthesised: "1+q/2" is rejected,
    not read as "(1+q)/(2)".  Each side takes at most one pair of
    parentheses.
    """
    num, bare, pos = _side(text, 0)
    den = 1
    mark = _MARK.match(text, pos)
    if mark is not None and mark[1] == "/":
        den, bare_den, end = _side(text, mark.end())
        if bare or bare_den:
            raise ValueError("a side of '/' with more than one term needs parentheses "
                             f"near {text[pos:pos + 8]!r}")
        pos = end
    if pos < len(text):
        raise ValueError(f"cannot parse rational function near {text[pos:pos + 8]!r}")
    return RationalFunction(num, den)
