"""Exact rational-function field over the deformation symbol q.

A value is ``content * num/den``.  ``content`` is one Fraction; ``num`` and
``den`` are primitive integer polynomials in q (ascending coefficient
tuples whose gcd is 1), each with a positive leading coefficient, and they
are coprime.  Zero is content 0 with ``num = ()`` and ``den = (1,)``.  By
Gauss's lemma every product and every exact quotient of primitive
polynomials is primitive again, so the arithmetic runs on Python ints and
all rational scaling goes through the content.  The form is canonical, so
equality is syntactic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm

from .poly import Poly

_F0 = Fraction(0)
_F1 = Fraction(1)
_I1 = (1,)

# largest exponent parse_ratfun accepts in q^N; built-in tables stay far below
MAX_PARSED_DEGREE = 10_000


def fpoly(coeffs) -> Poly:
    """Fraction-coefficient polynomial in q from ints/Fractions."""
    return Poly([Fraction(c) for c in coeffs])


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


def _split(cs) -> tuple[Fraction, tuple]:
    """Content and primitive part of nonzero int/Fraction coefficients."""
    den = _ilcm(*(c.denominator for c in cs))
    g, prim = _primitive([c.numerator * (den // c.denominator) for c in cs])
    return Fraction(g, den), prim


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


def _pseudo_rem(a: tuple, b: tuple) -> list:
    # remainder of (a scaled by powers of b's leading coefficient) mod b;
    # scalar factors are irrelevant for gcd purposes
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    for i in range(len(r) - 1 - db, -1, -1):
        top = r[i + db]
        if not top:
            continue
        # r <- lb*r - top * x^i * b, cancelling the x^(i+db) coefficient
        if lb != 1:
            for k in range(i + db):
                r[k] *= lb
        for k in range(db):
            r[i + k] -= top * b[k]
        r[i + db] = 0
    while r and not r[-1]:
        r.pop()
    return r


def _gcd_poly(a: tuple, b: tuple) -> tuple:
    """Primitive gcd of two primitive polynomials, by the primitive PRS."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)[1]
    return _I1


def _divexact(a: tuple, b: tuple) -> tuple:
    """a/b for a divisor b of a; the quotient has integer coefficients."""
    db = len(b) - 1
    lb = b[-1]
    rem = list(a)
    out = [0] * (len(a) - db)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + db]
        if c:
            f, r = divmod(c, lb)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out[i] = f
            for k in range(db):
                rem[i + k] -= f * b[k]
    if any(rem[:db]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(out)


def _cancel(num: tuple, den: tuple) -> tuple[tuple, tuple]:
    g = _gcd_poly(num, den)
    if len(g) == 1:
        return num, den
    return _divexact(num, g), _divexact(den, g)


class RationalFunction:
    """Canonical content * num/den over primitive integer polynomials in q."""

    __slots__ = ("content", "_num", "_den")

    def __init__(self, num, den=1):
        num, den = _coeffs(num), _coeffs(den)
        if not den:
            raise ZeroDivisionError("zero divisor")
        if not num:
            self.content, self._num, self._den = _F0, (), _I1
            return
        nc, n = _split(num)
        dc, d = _split(den)
        if len(n) > 1 and len(d) > 1:
            n, d = _cancel(n, d)
        self.content, self._num, self._den = nc / dc, n, d

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
        return not self.content

    def __bool__(self) -> bool:
        return bool(self.content)

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.content == o.content and self._num == o._num and self._den == o._den

    def __hash__(self):
        return hash((self.content, self._num, self._den))

    def __repr__(self):
        return f"RationalFunction({self.render()!r})"

    def __str__(self):
        return self.render()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        c1, c2 = self.content, o.content
        if not c2:
            return self
        if not c1:
            return o
        n1, d1, n2, d2 = self._num, self._den, o._num, o._den
        if n1 == n2 and d1 == d2:
            c = c1 + c2
            return _new(c, n1, d1) if c else ZERO
        # c1 = g*u1 and c2 = g*u2 with integers u1, u2
        top = _igcd(c1.numerator, c2.numerator)
        bottom = _ilcm(c1.denominator, c2.denominator)
        u1 = c1.numerator // top * (bottom // c1.denominator)
        u2 = c2.numerator // top * (bottom // c2.denominator)
        # denominator-gcd form: only a factor of g = gcd(d1, d2) can cancel afterwards
        if d1 == d2:
            g, t1, t2 = d1, _I1, _I1
        else:
            g = _gcd_poly(d1, d2) if len(d1) > 1 and len(d2) > 1 else _I1
            t1, t2 = (_divexact(d1, g), _divexact(d2, g)) if len(g) > 1 else (d1, d2)
        num = _combine(u1, _mul(n1, t2), u2, _mul(n2, t1))
        if not num:
            return ZERO
        k, num = _primitive(num)
        den = _mul(d1, t2)
        if len(g) > 1 and len(num) > 1:
            g2 = _gcd_poly(num, g)
            if len(g2) > 1:
                num, den = _divexact(num, g2), _divexact(den, g2)
        return _new(Fraction(top * k, bottom), num, den)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.content, self._num, self._den)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        c = self.content * o.content
        if not c:
            return ZERO
        n1, d1, n2, d2 = self._num, self._den, o._num, o._den
        if len(n1) > 1 and len(d2) > 1:
            n1, d2 = _cancel(n1, d2)
        if len(n2) > 1 and len(d1) > 1:
            n2, d1 = _cancel(n2, d1)
        return _new(c, _mul(n1, n2), _mul(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if not self.content:
            raise ZeroDivisionError("zero divisor")
        return _new(1 / self.content, self._den, self._num)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if not self.content:
            return ZERO if n else ONE
        # coprime num and den stay coprime under powers
        num = den = _I1
        for _ in range(n):
            num, den = _mul(num, self._num), _mul(den, self._den)
        return _new(self.content ** n, num, den)

    # -- evaluation and rendering -------------------------------------------

    def eval_q(self, point) -> Fraction:
        """Evaluate at a rational value of q; denominator must not vanish."""
        point = Fraction(point)
        d = self.den.eval_at(point)
        if d == 0:
            raise ZeroDivisionError("zero divisor")
        return self.content * self.num.eval_at(point) / d

    def render(self) -> str:
        """Integer numerator over integer denominator, e.g. "(1-q)/(2+2q)"."""
        a, b = self.content.numerator, self.content.denominator
        ns = _int_poly_str([a * c for c in self._num])
        if b == 1 and self._den == _I1:
            return ns
        return f"({ns})/({_int_poly_str([b * c for c in self._den])})"


def _new(content: Fraction, num: tuple, den: tuple) -> RationalFunction:
    """A value from parts already in canonical form."""
    r = object.__new__(RationalFunction)
    r.content, r._num, r._den = content, num, den
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
        return _new(Fraction(v), _I1, _I1) if v else ZERO
    return None


ZERO = _new(_F0, (), _I1)
ONE = _new(_F1, _I1, _I1)
QSYM = _new(_F1, (0, 1), _I1)


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


_TOKEN = re.compile(r"\s*(\(|\)|\+|-|\*|/|\^|q|\d+)")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse rational function near {text[pos:pos + 8]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _parse_int_poly(tokens: list[str]) -> Poly:
    """Parse [sign] term {(+|-) term}, a term being N, N*q^K, Nq^K or q^K."""
    coeffs: dict[int, int] = {}
    i = 0
    n = len(tokens)
    while True:
        sign = 1
        if i < n and tokens[i] in ("+", "-"):
            sign = -1 if tokens[i] == "-" else 1
            i += 1
        t = tokens[i] if i < n else "end of input"
        if not t.isdigit() and t != "q":
            raise ValueError(f"expected a term, got {t!r}")
        mag = 1
        power = 0
        if t.isdigit():
            mag = int(t)
            i += 1
            if i < n and tokens[i] == "*":
                i += 1
                if i == n or tokens[i] != "q":
                    raise ValueError("expected 'q' after '*'")
        if i < n and tokens[i] == "q":
            power = 1
            i += 1
            if i < n and tokens[i] == "^":
                if i + 1 >= n or not tokens[i + 1].isdigit():
                    raise ValueError("missing exponent after '^'")
                power = int(tokens[i + 1])
                if power > MAX_PARSED_DEGREE:
                    raise ValueError(f"exponent {power} exceeds {MAX_PARSED_DEGREE}")
                i += 2
        coeffs[power] = coeffs.get(power, 0) + sign * mag
        if i == n:
            break
        if tokens[i] not in ("+", "-"):
            raise ValueError(f"unexpected token {tokens[i]!r} after a term")
    top = max(coeffs)
    return Poly([coeffs.get(k, 0) for k in range(top + 1)])


def parse_ratfun(text: str) -> RationalFunction:
    """Parse the canonical text form: a polynomial in q, optionally /(poly).

    Accepts e.g. "1+q+q^2", "-q", "3", "1/2", "(1-q^3)/(1-q)".  A side of
    '/' with more than one term must be parenthesised: "1+q/2" is rejected,
    not read as "(1+q)/(2)".
    """
    tokens = _tokenize(text)
    depth = 0
    split = None
    for i, t in enumerate(tokens):
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        elif t == "/" and depth == 0:
            if split is not None:
                raise ValueError("more than one top-level '/'")
            split = i
    if depth != 0:
        raise ValueError("unbalanced parentheses")

    def strip(ts: list[str]) -> list[str]:
        if len(ts) >= 2 and ts[0] == "(" and ts[-1] == ")":
            inner_depth = 0
            for t in ts[:-1]:
                if t == "(":
                    inner_depth += 1
                elif t == ")":
                    inner_depth -= 1
                    if inner_depth == 0:
                        return ts
            return ts[1:-1]
        return ts

    def side(ts: list[str]) -> Poly:
        inner = strip(ts)
        if inner is ts and any(t in ("+", "-") for t in ts[1:]):
            raise ValueError("a side of '/' with more than one term needs parentheses")
        return _parse_int_poly(inner)

    if split is None:
        return RationalFunction(_parse_int_poly(strip(tokens)))
    return RationalFunction(side(tokens[:split]), side(tokens[split + 1:]))
