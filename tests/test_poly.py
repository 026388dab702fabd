from fractions import Fraction

from hypothesis import given, settings, strategies as st

from psicalc.poly import Poly
from psicalc.ratfun import ONE, ZERO, fpoly


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=8)
coeff_lists = st.lists(fractions, min_size=0, max_size=17)


def poly(cs):
    return fpoly(cs)


def test_trailing_zeros_trimmed():
    assert poly([1, 2, 0, 0]).coeffs == fpoly([1, 2]).coeffs
    assert poly([0, 0]).is_zero()
    assert poly([]).degree == -1


def test_eval_at_zero():
    p = poly([0, 0, 1])  # x^2
    assert p.eval_at(Fraction(0)) == 0
    assert p.eval_at(Fraction(3)) == 9


def test_product_of_conjugates():
    got = poly([1, 1]) * poly([-1, 1])
    assert got == poly([-1, 0, 1])




def test_compose_shift():
    p = poly([0, 0, 1])
    inner = poly([1, 1])
    assert p.compose(inner) == poly([1, 2, 1])


def test_degree_of_product():
    a, b = poly([1, 2, 3]), poly([0, 0, 5])
    assert (a * b).degree == a.degree + b.degree


def test_rf_coefficients_work_too():
    x = Poly((ZERO, ONE))
    assert ((x + Poly((ONE,))) * (x - Poly((ONE,)))).coeffs == (-ONE, ZERO, ONE)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_mul_commutes(a, b):
    assert poly(a) * poly(b) == poly(b) * poly(a)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=40)
def test_mul_associative(a, b, c):
    pa, pb, pc = poly(a), poly(b), poly(c)
    assert (pa * pb) * pc == pa * (pb * pc)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=40)
def test_mul_distributes_over_add(a, b, c):
    pa, pb, pc = poly(a), poly(b), poly(c)
    assert pa * (pb + pc) == pa * pb + pa * pc
