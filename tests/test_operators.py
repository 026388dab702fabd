import pytest

from psicalc.operators import (
    DeltaOperator,
    OperatorSeries,
    combine,
    derivative_delta,
    exp_series,
    exp_sq_series,
    laguerre_delta,
    laguerre_scaling,
    one_series,
    pincherle_commutator_matrix,
    quadratic_delta,
    shifted_delta,
    table,
)
from psicalc.psi import classic, monomial, qgauss
from psicalc.ratfun import ONE, QSYM, ZERO, rf

QG = qgauss()
CL = classic()


def same(s, t, upto):
    """Series compare by coefficients: a_k(s) == a_k(t) for k <= upto."""
    return all(s.coeff(k) == t.coeff(k) for k in range(upto + 1))


def test_series_apply_matches_monomial_rule():
    s = OperatorSeries(QG, [ZERO, ONE])  # the lowering derivative itself
    assert s.apply(monomial(3)) == monomial(2).scale(QG.number(3))


def test_list_series_reads_zero_past_its_list_and_applies_exactly():
    s = OperatorSeries(QG, [ONE, ONE])  # 1 + D, a polynomial in D
    assert s.coeff(2) == ZERO and s.coeff(50) == ZERO
    x9 = monomial(9)
    assert s.apply(x9) == x9 + monomial(8).scale(QG.number(9))
    with pytest.raises(ValueError, match="negative index"):
        s.coeff(-1)


def test_series_are_equal_only_to_themselves():
    s = one_series(QG)
    assert s == s and s != one_series(QG)
    assert len({s, one_series(QG)}) == 2


def test_mul_then_apply_is_composition():
    f = OperatorSeries(QG, [ONE, ONE])
    g = OperatorSeries(QG, [ZERO, rf(2), ONE])
    p = monomial(5) + monomial(2)
    assert (f * g).apply(p) == f.apply(g.apply(p))


def test_invert_roundtrip():
    f = OperatorSeries(QG, [ONE, QSYM, rf(3)])
    assert same(f * f.invert(), one_series(QG), 7)


def test_invert_requires_constant_term():
    with pytest.raises(ValueError, match="non-invertible"):
        OperatorSeries(QG, [ZERO, ONE]).invert()


def test_pincherle_on_basic_series():
    d = OperatorSeries(QG, [ZERO, ONE])
    assert same(d.pincherle(), one_series(QG), 4)
    d2 = d * d
    assert same(d2.pincherle(), OperatorSeries(QG, [ZERO, rf(2)]), 4)
    assert same(one_series(QG).pincherle(), OperatorSeries(QG, []), 5)


def test_pincherle_matches_commutator_oracle():
    for psi in (CL, QG):
        for coeffs in ([ZERO, ONE], [ONE, ONE, ONE], [rf(2), ZERO, QSYM, ONE]):
            f = OperatorSeries(psi, coeffs)
            direct = table(f.pincherle().apply, 8)
            oracle = pincherle_commutator_matrix(f, 8)
            assert direct == oracle


def test_delta_validation():
    with pytest.raises(ValueError, match="kill constants"):
        DeltaOperator(QG, [ONE, ONE])
    with pytest.raises(ValueError, match="linear term"):
        DeltaOperator(QG, [ZERO, ZERO, ONE])
    with pytest.raises(ValueError, match="linear term"):
        DeltaOperator(QG, [ZERO])


def test_s_factor_shifts_coefficients():
    assert same(derivative_delta(QG).s_factor(), one_series(QG), 4)
    q = laguerre_delta(QG)
    assert same(q.s_factor(), OperatorSeries(QG, [-ONE] * 5), 4)


def test_laguerre_delta_reaches_any_coefficient():
    assert laguerre_delta(QG).coeff(40) == -ONE


def test_delta_constants_kill_and_map_x_to_constant():
    for maker in (derivative_delta, laguerre_delta, quadratic_delta, shifted_delta):
        q = maker(QG)
        assert q.apply(monomial(0)).is_zero()
        image = q.apply(monomial(1))
        assert image.degree == 0 and image.coeffs[0]


def test_exp_series_coefficients():
    e = exp_series(QG)
    assert [e.coeff(k) for k in range(6)] == [QG.value(k) for k in range(6)]
    e2 = exp_sq_series(QG)
    assert e2.coeff(0) == ONE and e2.coeff(2) == QG.value(1)
    assert not e2.coeff(1) and not e2.coeff(3)


def test_builtin_series_reach_past_sixteen_terms():
    assert exp_series(QG).coeff(17) == QG.value(17)
    assert exp_sq_series(QG).coeff(34) == QG.value(17)


def test_laguerre_scaling_low_orders():
    assert same(laguerre_scaling(QG, -1), one_series(QG), 4)
    assert same(laguerre_scaling(QG, 0), OperatorSeries(QG, [ONE, -ONE]), 4)
    assert same(laguerre_scaling(QG, 1), OperatorSeries(QG, [ONE, rf(-2), ONE]), 4)


def test_operator_matrix_apply_and_bounds():
    raising = table(lambda p: p.shifted(1), 4)
    assert combine(raising, monomial(2).coeffs) == monomial(3)
    with pytest.raises(ValueError, match="5 coefficients for 4 polynomials"):
        combine(raising, monomial(4).coeffs)
