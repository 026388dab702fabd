import pytest

from psicalc.operators import (
    DeltaOperator,
    combine,
    delta_by_name,
    derivative_delta,
    exp_series,
    exp_sq_series,
    laguerre_delta,
    laguerre_scaling,
    one_series,
    pincherle_commutator_matrix,
    quadratic_delta,
    series,
    shifted_delta,
    table,
)
from psicalc.psi import classic, monomial, qgauss
from psicalc.ratfun import ONE, QSYM, ZERO, rf

QG = qgauss()
CL = classic()


def test_series_apply_matches_monomial_rule():
    s = series(QG, [ZERO, ONE], 6)  # the lowering derivative itself
    assert s.apply(monomial(3)) == monomial(2).scale(QG.number(3))


def test_series_apply_rejects_high_degree():
    s = series(QG, [ONE], 2)
    with pytest.raises(ValueError, match="order"):
        s.apply(monomial(3))


def test_mul_then_apply_is_composition():
    f = series(QG, [ONE, ONE], 8)
    g = series(QG, [ZERO, rf(2), ONE], 8)
    p = monomial(5) + monomial(2)
    assert (f * g).apply(p) == f.apply(g.apply(p))


def test_invert_roundtrip():
    f = series(QG, [ONE, QSYM, rf(3)], 7)
    prod = f * f.invert()
    assert prod.coeffs[0] == ONE
    assert all(not c for c in prod.coeffs[1:])


def test_invert_requires_constant_term():
    with pytest.raises(ValueError, match="non-invertible"):
        series(QG, [ZERO, ONE], 4).invert()


def test_pincherle_on_basic_series():
    d = series(QG, [ZERO, ONE], 5)
    assert d.pincherle() == one_series(QG, 4)
    d2 = d * d
    assert d2.pincherle() == series(QG, [ZERO, rf(2)], 4)
    assert all(not c for c in one_series(QG, 5).pincherle().coeffs)


def test_pincherle_matches_commutator_oracle():
    for psi in (CL, QG):
        for coeffs in ([ZERO, ONE], [ONE, ONE, ONE], [rf(2), ZERO, QSYM, ONE]):
            f = series(psi, coeffs, 9)
            direct = table(f.pincherle().apply, 8)
            oracle = pincherle_commutator_matrix(f, 8)
            assert direct == oracle


def test_delta_validation():
    with pytest.raises(ValueError, match="kill constants"):
        DeltaOperator(QG, series(QG, [ONE, ONE], 3).coeffs)
    with pytest.raises(ValueError, match="linear term"):
        DeltaOperator(QG, series(QG, [ZERO, ZERO, ONE], 3).coeffs)


def test_s_factor_shifts_coefficients():
    assert derivative_delta(QG, 5).s_factor() == one_series(QG, 4)
    q = laguerre_delta(QG, 5)
    assert q.s_factor() == series(QG, [-ONE] * 5, 4)


def test_delta_constants_kill_and_map_x_to_constant():
    for maker in (derivative_delta, laguerre_delta, quadratic_delta, shifted_delta):
        q = maker(QG, 6)
        assert q.apply(monomial(0)).is_zero()
        image = q.apply(monomial(1))
        assert image.degree == 0 and image.coeffs[0]


def test_exp_series_coefficients():
    e = exp_series(QG, 1, 5)
    assert e.coeffs == tuple(QG.values[k] for k in range(6))
    e2 = exp_sq_series(QG, 6)
    assert e2.coeffs[0] == ONE and e2.coeffs[2] == QG.values[1]
    assert not e2.coeffs[1] and not e2.coeffs[3]


def test_laguerre_scaling_low_orders():
    assert laguerre_scaling(QG, -1, 4) == one_series(QG, 4)
    assert laguerre_scaling(QG, 0, 4) == series(QG, [ONE, -ONE], 4)
    assert laguerre_scaling(QG, 1, 4) == series(QG, [ONE, rf(-2), ONE], 4)


def test_delta_by_name_unknown():
    with pytest.raises(ValueError, match="built-ins"):
        delta_by_name("nope", QG, 4)


def test_operator_matrix_apply_and_bounds():
    raising = table(lambda p: p.shifted(1), 4)
    assert combine(raising, monomial(2).coeffs) == monomial(3)
    with pytest.raises(ValueError, match="5 coefficients for 4 polynomials"):
        combine(raising, monomial(4).coeffs)
