from fractions import Fraction

from hypothesis import given, settings, strategies as st

from psicalc.poly import Poly
from psicalc.ratfun import ONE, ZERO


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=8)
coeff_lists = st.lists(fractions, min_size=0, max_size=17)


def test_trailing_zeros_trimmed():
    assert Poly([1, 2, 0, 0]).coeffs == Poly([1, 2]).coeffs
    assert Poly([0, 0]).is_zero()
    assert Poly([]).degree == -1


def test_eval_at_zero():
    p = Poly([0, 0, 1])  # x^2
    assert p.eval_at(Fraction(0)) == 0
    assert p.eval_at(Fraction(3)) == 9


def test_product_of_conjugates():
    got = Poly([1, 1]) * Poly([-1, 1])
    assert got == Poly([-1, 0, 1])


def test_degree_of_product():
    a, b = Poly([1, 2, 3]), Poly([0, 0, 5])
    assert (a * b).degree == a.degree + b.degree


def test_rf_coefficients_work_too():
    x = Poly((ZERO, ONE))
    assert ((x + Poly((ONE,))) * (x - Poly((ONE,)))).coeffs == (-ONE, ZERO, ONE)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_mul_commutes(a, b):
    assert Poly(a) * Poly(b) == Poly(b) * Poly(a)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=40)
def test_mul_associative(a, b, c):
    pa, pb, pc = Poly(a), Poly(b), Poly(c)
    assert (pa * pb) * pc == pa * (pb * pc)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=40)
def test_mul_distributes_over_add(a, b, c):
    pa, pb, pc = Poly(a), Poly(b), Poly(c)
    assert pa * (pb + pc) == pa * pb + pa * pc
