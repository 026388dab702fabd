import random

import pytest

from psicalc.expansion import (
    dual_xhat,
    expand_operator,
    qmutator_check,
    reconstruct_operator,
    to_basic_coords,
)
from psicalc.operators import (
    DELTA_FAMILIES,
    combine,
    derivative_delta,
    laguerre_delta,
    scaling_matrix,
    table,
)
from psicalc.poly import Poly
from psicalc.psi import classic, fibonacci, monomial, psi_derivative, qgauss
from psicalc.ratfun import ONE, QSYM, ZERO, rf
from psicalc.sequences import basic_sequence, q_laguerre_closed

QG = qgauss()
CL = classic()


def test_basic_coordinate_roundtrip():
    seq = basic_sequence(laguerre_delta(QG), 7, "solve")
    p = monomial(5) + monomial(2).scale(QSYM) + monomial(0)
    coords = to_basic_coords(seq, p)
    assert combine(seq, coords) == p


def test_dual_of_derivative_is_multiplication_by_x():
    raising = dual_xhat(basic_sequence(derivative_delta(QG), 7, "solve"))
    assert len(raising) == 7
    for j in range(7):
        assert raising[j] == monomial(j + 1)


def test_dual_double_shift_and_laguerre_example():
    delta = laguerre_delta(QG)
    seq = basic_sequence(delta, 8, "solve")
    raising = dual_xhat(seq[:8])
    assert combine(raising, combine(raising, seq[0].coeffs).coeffs) == seq[2]
    assert combine(raising, seq[1].coeffs) == q_laguerre_closed(QG, 2)


def test_identity_expansion():
    delta = laguerre_delta(QG)
    coeffs = expand_operator(table(lambda p: p, 7), delta, basic_sequence(delta, 6, "solve"))
    assert coeffs[0] == Poly((ONE,))
    assert all(g.is_zero() for g in coeffs[1:])


def test_number_operator_expansion():
    number = table(lambda p: psi_derivative(QG, p).shifted(1), 7)
    delta = derivative_delta(QG)
    coeffs = expand_operator(number, delta, basic_sequence(delta, 6, "solve"))
    assert coeffs[0].is_zero()
    assert coeffs[1] == monomial(1)
    assert all(g.is_zero() for g in coeffs[2:])


def test_dilation_expansion_and_reconstruction():
    delta = derivative_delta(QG)
    basic = basic_sequence(delta, 6, "solve")
    dilation = scaling_matrix(QSYM, 7)
    coeffs = expand_operator(dilation, delta, basic)
    assert coeffs[0] == Poly((ONE,))
    assert coeffs[1] == Poly((ZERO, QSYM - 1))
    assert reconstruct_operator(coeffs, delta, basic) == dilation


def _random_table(rng, dim):
    def scalar():
        return rf(rng.randint(-3, 3)) + QSYM * rng.randint(-1, 1)

    return tuple(Poly([scalar() for _ in range(j + 1)]) for j in range(dim))


def test_random_roundtrips_and_uniqueness():
    rng = random.Random(11)
    delta = laguerre_delta(QG)
    basic = basic_sequence(delta, 8, "solve")
    for _ in range(8):
        T = _random_table(rng, 9)
        coeffs = expand_operator(T, delta, basic)
        rebuilt = reconstruct_operator(coeffs, delta, basic)
        assert rebuilt == T
        assert expand_operator(rebuilt, delta, basic) == coeffs


def test_truncation_exceeded():
    raising = table(lambda p: p.shifted(1), 4)
    delta = laguerre_delta(QG)
    with pytest.raises(ValueError, match="truncation exceeded"):
        expand_operator(raising, delta, basic_sequence(delta, 5, "solve"))


def test_short_basic_sequence_is_an_error():
    delta = laguerre_delta(QG)
    basic = basic_sequence(delta, 7, "solve")
    T = _random_table(random.Random(5), 8)
    coeffs = expand_operator(T, delta, basic)
    with pytest.raises(ValueError, match="too short"):
        expand_operator(T, delta, basic[:7])
    with pytest.raises(ValueError, match="too short"):
        reconstruct_operator(coeffs, delta, basic[:7])
    # g_0 = x^3 raises degree by three, so reconstruction needs p_0 ... p_10
    with pytest.raises(ValueError, match="too short"):
        reconstruct_operator([monomial(3)] + coeffs[1:], delta, basic)
    for short in (basic[:1], ()):
        with pytest.raises(ValueError, match="too short"):
            qmutator_check(delta, short)


def test_mutator_eigenvalue_values():
    assert CL.mutator_eigenvalue(4) == ONE
    assert QG.mutator_eigenvalue(5) == QSYM


def test_qmutator_identity_across_grid():
    for psi in (CL, QG, fibonacci()):
        for name in ("derivative", "laguerre", "quadratic", "shifted"):
            delta = DELTA_FAMILIES[name](psi)
            res = qmutator_check(delta, basic_sequence(delta, 7, "solve"))
            assert len(res) == 7
            assert not any(res), (psi.name, name, [str(r.coeffs) for r in res])


def test_q_case_reduces_to_q_commutation():
    for n in range(10):
        xn = monomial(n)
        got = psi_derivative(QG, xn.shifted(1)) - psi_derivative(QG, xn).shifted(1).scale(QSYM)
        assert got == xn
