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
    OperatorMatrix,
    combine,
    delta_by_name,
    derivative_delta,
    laguerre_delta,
    scaling_matrix,
)
from psicalc.poly import Poly
from psicalc.psi import classic, fibonacci, monomial, psi_derivative, qgauss
from psicalc.ratfun import ONE, QSYM, ZERO, rf
from psicalc.sequences import basic_sequence, q_laguerre_closed

QG = qgauss()
CL = classic()


def test_basic_coordinate_roundtrip():
    seq = basic_sequence(laguerre_delta(QG, 8), 7, "solve")
    p = monomial(5) + monomial(2).scale(QSYM) + monomial(0)
    coords = to_basic_coords(seq, p)
    assert combine(seq, coords) == p


def test_dual_of_derivative_is_multiplication_by_x():
    table = dual_xhat(derivative_delta(QG, 9), 6)
    for j in range(7):
        assert table.cols[j] == monomial(j + 1)


def test_dual_double_shift_and_laguerre_example():
    delta = laguerre_delta(QG, 10)
    seq = basic_sequence(delta, 8, "solve")
    table = dual_xhat(delta, 6, basic=seq)
    assert table.apply(table.apply(seq[0])) == seq[2]
    assert table.apply(seq[1]) == q_laguerre_closed(QG, 2)


def test_identity_expansion():
    delta = laguerre_delta(QG, 8)
    table = OperatorMatrix.from_action(lambda p: p, 7)
    coeffs = expand_operator(table, delta)
    assert coeffs[0] == Poly((ONE,))
    assert all(g.is_zero() for g in coeffs[1:])


def test_number_operator_expansion():
    table = OperatorMatrix.from_action(lambda p: psi_derivative(QG, p).shifted(1), 7)
    coeffs = expand_operator(table, derivative_delta(QG, 8))
    assert coeffs[0].is_zero()
    assert coeffs[1] == monomial(1)
    assert all(g.is_zero() for g in coeffs[2:])


def test_dilation_expansion_and_reconstruction():
    delta = derivative_delta(QG, 8)
    table = scaling_matrix(QSYM, 7)
    coeffs = expand_operator(table, delta)
    assert coeffs[0] == Poly((ONE,))
    assert coeffs[1] == Poly((ZERO, QSYM - 1))
    assert reconstruct_operator(coeffs, delta, 7).cols == table.cols


def _random_table(rng, dim):
    def scalar():
        return rf(rng.randint(-3, 3)) + QSYM * rng.randint(-1, 1)

    return OperatorMatrix(tuple(Poly([scalar() for _ in range(j + 1)]) for j in range(dim)))


def test_random_roundtrips_and_uniqueness():
    rng = random.Random(11)
    delta = laguerre_delta(QG, 9)
    basic = basic_sequence(delta, 8, "solve")
    for _ in range(8):
        table = _random_table(rng, 9)
        coeffs = expand_operator(table, delta, basic=basic)
        rebuilt = reconstruct_operator(coeffs, delta, 9, basic=basic)
        assert rebuilt.cols == table.cols
        assert expand_operator(rebuilt, delta, basic=basic) == coeffs


def test_truncation_exceeded():
    raising = OperatorMatrix.from_action(lambda p: p.shifted(1), 4)
    with pytest.raises(ValueError, match="truncation exceeded"):
        expand_operator(raising, laguerre_delta(QG, 6))


def test_mutator_eigenvalue_values():
    assert CL.mutator_eigenvalue(4) == ONE
    assert QG.mutator_eigenvalue(5) == QSYM


def test_qmutator_identity_across_grid():
    for psi in (CL, QG, fibonacci()):
        for name in ("derivative", "laguerre", "quadratic", "shifted"):
            res = qmutator_check(delta_by_name(name, psi, 9), 7)
            assert not any(res), (psi.name, name, [str(r.coeffs) for r in res])


def test_q_case_reduces_to_q_commutation():
    for n in range(10):
        xn = monomial(n)
        got = psi_derivative(QG, xn.shifted(1)) - psi_derivative(QG, xn).shifted(1).scale(QSYM)
        assert got == xn
