from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psicalc.operators import shifted_delta
from psicalc.poly import Poly
from psicalc.psi import (
    BUILTIN_PSIS,
    by_name,
    classic,
    custom,
    fibonacci,
    jackson_quotient,
    monomial,
    one_poly,
    psi_derivative,
    qgauss,
    square,
    translate,
    xhat_psi,
)
from psicalc.ratfun import ONE, QSYM, ZERO, RationalFunction, parse_ratfun, rf

ALL = [classic(), qgauss(), fibonacci(), square()]
SHORT = custom("short", [ONE, ONE, rf(Fraction(1, 2)), rf(Fraction(1, 6))])  # psi_0..psi_3


def test_builtin_numbers():
    cl, qg, fib, sq = ALL
    assert cl.number(3) == 3
    assert qg.number(3) == parse_ratfun("1+q+q^2")
    assert fib.number(6) == 8
    assert sq.number(5) == 25
    for psi in ALL:
        assert psi.number(0).is_zero()


def test_number_times_psi_recovers_previous():
    for psi in ALL:
        for n in range(1, 17):
            assert psi.number(n) * psi.value(n) == psi.value(n - 1)


def test_factorial_conventions():
    for psi in ALL:
        assert psi.factorial(0) == ONE
        acc = ONE
        for n in range(1, 9):
            acc = acc * psi.number(n)
            assert psi.factorial(n) == acc


def test_binomials():
    cl, qg = ALL[0], ALL[1]
    for psi in ALL:
        assert psi.binomial(7, 0) == ONE
        assert psi.binomial(7, 7) == ONE
    assert cl.binomial(5, 2) == 10
    # oracle: expand 4_q!/(2_q! 2_q!) with raw polynomial arithmetic
    two_q = Poly([1, 1])
    three_q = Poly([1, 1, 1])
    four_q = Poly([1, 1, 1, 1])
    oracle = RationalFunction(two_q * three_q * four_q, two_q * two_q)
    assert qg.binomial(4, 2) == oracle
    assert qg.binomial(4, 2) == parse_ratfun("1+q+2q^2+q^3+q^4")


def test_binomial_symmetry_and_factorial_identity():
    for psi in ALL:
        for n in range(9):
            for k in range(n + 1):
                c = psi.binomial(n, k)
                assert c == psi.binomial(n, n - k)
                assert c * psi.factorial(k) * psi.factorial(n - k) == psi.factorial(n)


def test_index_errors():
    qg = ALL[1]
    with pytest.raises(ValueError, match="beyond truncation"):
        SHORT.number(4)
    with pytest.raises(ValueError, match="negative index"):
        qg.number(-1)
    with pytest.raises(ValueError):
        qg.binomial(4, 5)
    with pytest.raises(ValueError):
        qg.binomial(4, -1)


def test_builtin_tables_grow_on_demand():
    qg = qgauss()
    assert qg.number(40) == RationalFunction(Poly([1] * 40))
    assert qg.factorial(40) == qg.factorial(39) * qg.number(40)
    assert fibonacci().number(30) == 832040


@pytest.mark.parametrize("reach", [
    lambda: translate(SHORT, monomial(4)),
    lambda: shifted_delta(SHORT).coeff(5),
    lambda: psi_derivative(SHORT, monomial(4)),
], ids=["translate", "shifted_delta", "psi_derivative"])
def test_reading_past_a_custom_table_is_a_value_error(reach):
    with pytest.raises(ValueError, match="beyond truncation: n=4 > N_max=3"):
        reach()


def test_tables_are_equal_only_to_themselves():
    qg = qgauss()
    assert qg == qg and qg != qgauss()
    assert len({qg, qgauss()}) == 2


def test_custom_validation():
    with pytest.raises(ValueError, match="psi_0"):
        custom("bad", (QSYM,))
    with pytest.raises(ValueError, match="nonzero"):
        custom("bad", (ONE, ZERO))
    got = custom("mine", (ONE, ONE, rf(Fraction(1, 2))))
    assert got.number(2) == 2


def test_by_name_unknown():
    with pytest.raises(ValueError, match="built-ins"):
        by_name("nope")
    assert set(BUILTIN_PSIS) == {"classic", "qgauss", "fibonacci", "square"}


def test_derivative_rules():
    cl, qg = ALL[0], ALL[1]
    assert psi_derivative(qg, monomial(3)) == monomial(2).scale(qg.number(3))
    assert psi_derivative(cl, monomial(3)) == monomial(2).scale(rf(3))
    assert psi_derivative(qg, one_poly().scale(rf(5))).is_zero()


def test_derivative_drops_degree_by_one():
    for psi in ALL:
        for d in range(1, 13):
            p = Poly([psi.binomial(d, min(k, d)) for k in range(d + 1)])
            assert psi_derivative(psi, p).degree == d - 1


def test_xhat_rules():
    cl, qg = ALL[0], ALL[1]
    for n in range(6):
        assert xhat_psi(cl, monomial(n)) == monomial(n + 1)
    want = monomial(3).scale(rf(3) / qg.number(3))
    assert xhat_psi(qg, monomial(2)) == want
    for psi in ALL:
        assert xhat_psi(psi, one_poly()) == monomial(1).scale(ONE / psi.number(1))
    with pytest.raises(ValueError, match="beyond truncation: n=4 > N_max=3"):
        xhat_psi(SHORT, monomial(3))


def test_commutator_of_lowering_and_raising_is_identity():
    for psi in ALL:
        for n in range(13):
            xn = monomial(n)
            got = psi_derivative(psi, xhat_psi(psi, xn)) - xhat_psi(
                psi, psi_derivative(psi, xn)
            )
            assert got == xn


def test_jackson_examples():
    assert jackson_quotient(monomial(3)) == monomial(2).scale(parse_ratfun("1+q+q^2"))
    assert jackson_quotient(one_poly().scale(rf(9))).is_zero()
    got = jackson_quotient(monomial(2) + monomial(1))
    assert got == monomial(1).scale(ONE + QSYM) + one_poly()


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=13))
@settings(max_examples=40, deadline=None)
def test_jackson_matches_deformed_derivative(coeffs):
    qg = ALL[1]
    p = Poly([rf(c) for c in coeffs])
    assert jackson_quotient(p) == psi_derivative(qg, p)


def test_translation_at_zero_recovers_input():
    qg = ALL[1]
    p = monomial(3) + monomial(1).scale(QSYM)
    assert Poly([inner.coeff(0, ZERO) for inner in translate(qg, p).coeffs]) == p


def test_translation_of_squares():
    cl, qg = ALL[0], ALL[1]
    got = translate(cl, monomial(2))
    # x^2 + 2xy + y^2
    assert got.coeffs == (Poly((ZERO, ZERO, ONE)), Poly((ZERO, rf(2))), Poly((ONE,)))
    got_q = translate(qg, monomial(2))
    assert got_q.coeffs == (
        Poly((ZERO, ZERO, ONE)),
        Poly((ZERO, ONE + QSYM)),
        Poly((ONE,)),
    )


def test_monomial_binomial_theorem():
    for psi in ALL:
        for n in range(13):
            got = translate(psi, monomial(n))
            for i in range(n + 1):
                inner = got.coeffs[i] if i < len(got.coeffs) else Poly()
                for k in range(n - i + 1):
                    expect = psi.binomial(n, k) if i + k == n else ZERO
                    assert inner.coeff(k, ZERO) == expect
