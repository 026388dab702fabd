from fractions import Fraction

import pytest

from psicalc.operators import (
    delta_by_name,
    derivative_delta,
    exp_sq_series,
    laguerre_delta,
    laguerre_scaling,
    one_series,
    shifted_delta,
)
from psicalc.psi import classic, fibonacci, monomial, one_poly, qgauss, square
from psicalc.ratfun import ONE, QSYM, ZERO, rf
from psicalc.sequences import (
    BASIC_METHODS,
    basic_sequence,
    binomial_residuals,
    q_laguerre_closed,
    sheffer_binomial_residuals,
    sheffer_sequence,
)

QG = qgauss()
CL = classic()
GRID_PSIS = (CL, QG, fibonacci(), square())
GRID_DELTAS = ("derivative", "laguerre", "quadratic", "shifted")


def test_derivative_delta_has_monomial_basis():
    for method in BASIC_METHODS:
        got = basic_sequence(derivative_delta(QG, 7), 6, method)
        assert got.polys == tuple(monomial(n) for n in range(7))


def test_laguerre_first_polys():
    seq = basic_sequence(laguerre_delta(QG, 5), 3, "solve")
    assert seq.polys[1] == monomial(1).scale(rf(-1))
    assert seq.polys[2] == monomial(2) - monomial(1).scale(ONE + QSYM)


def test_invariants_on_grid_sample():
    for psi in GRID_PSIS:
        seq = basic_sequence(delta_by_name("laguerre", psi, 7), 6, "solve")
        assert seq.polys[0] == one_poly()
        for n, p in enumerate(seq.polys):
            assert p.degree == n
            if n >= 1:
                assert not p.coeff(0, ZERO)
        assert all(r.is_zero() for r in seq.lowering_residuals())


def test_all_methods_agree_small_grid():
    for psi in GRID_PSIS:
        for name in GRID_DELTAS:
            delta = delta_by_name(name, psi, 7)
            ref = basic_sequence(delta, 6, "solve").polys
            for method in ("lagrange1", "lagrange2", "rodrigues3", "rodrigues4"):
                assert basic_sequence(delta, 6, method).polys == ref, (psi.name, name, method)


def test_abel_polynomials_from_shifted_delta():
    seq = basic_sequence(shifted_delta(CL, 8, 1), 6, "solve")
    x = monomial(1)
    for n in range(1, 7):
        expect = x
        base = x - one_poly().scale(rf(n))
        for _ in range(n - 1):
            expect = expect * base
        assert seq.polys[n] == expect


def test_order_too_low_rejected():
    with pytest.raises(ValueError, match="too low"):
        basic_sequence(laguerre_delta(QG, 4), 6, "solve")
    with pytest.raises(ValueError, match="too low"):
        basic_sequence(laguerre_delta(QG, 6), 6, "lagrange1")


def test_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        basic_sequence(laguerre_delta(QG, 7), 5, "magic")


def test_sheffer_identity_scaling_gives_basic():
    delta = laguerre_delta(QG, 7)
    sh = sheffer_sequence(delta, one_series(QG, 6), 6)
    assert sh.polys == sh.basic.polys


def test_sheffer_roundtrip_and_recurrence():
    delta = derivative_delta(QG, 9)
    factor = exp_sq_series(QG, 9)
    sh = sheffer_sequence(delta, factor, 8)
    assert sh.polys[0].degree == 0 and sh.polys[0].coeffs[0]
    for n in range(1, 9):
        got = delta.apply(sh.polys[n]) - sh.polys[n - 1].scale(QG.number(n))
        assert got.is_zero()
    for n in range(9):
        assert factor.apply(sh.polys[n]) == sh.basic.polys[n]


def test_sheffer_requires_invertible_scaling():
    delta = derivative_delta(QG, 6)
    from psicalc.operators import series

    with pytest.raises(ValueError, match="non-invertible"):
        sheffer_sequence(delta, series(QG, [ZERO, ONE], 6), 5)


def test_laguerre_closed_form_examples():
    assert q_laguerre_closed(QG, 0) == one_poly()
    assert q_laguerre_closed(QG, 1) == monomial(1).scale(rf(-1))
    oracle = basic_sequence(laguerre_delta(QG, 11), 10, "solve")
    for n in range(11):
        assert q_laguerre_closed(QG, n) == oracle.polys[n]


def test_laguerre_closed_specializes_to_classic():
    classic_oracle = basic_sequence(laguerre_delta(CL, 4), 3, "solve")
    specialized = q_laguerre_closed(QG, 3).map_coeffs(lambda c: rf(c.eval_q(1)))
    assert specialized == classic_oracle.polys[3]


def test_laguerre_closed_works_for_other_tables():
    fib = fibonacci()
    oracle = basic_sequence(laguerre_delta(fib, 7), 6, "solve")
    for n in range(7):
        assert q_laguerre_closed(fib, n) == oracle.polys[n]


def test_laguerre_order_scaling_values():
    got = laguerre_scaling(QG, Fraction(1, 2), 3)
    assert got.coeffs[0] == ONE
    assert got.coeffs[1] == rf(Fraction(-3, 2))
    assert got.coeffs[2] == rf(Fraction(3, 8))


def test_binomial_identity_small():
    for psi in GRID_PSIS:
        seq = basic_sequence(delta_by_name("quadratic", psi, 7), 6, "solve")
        assert all(r.is_zero() for r in binomial_residuals(seq, 6))


def test_sheffer_binomial_identity_small():
    sh = sheffer_sequence(
        laguerre_delta(QG, 7), laguerre_scaling(QG, Fraction(0), 7), 6
    )
    assert all(r.is_zero() for r in sheffer_binomial_residuals(sh, 6))
    # n = 0: both sides are the constant s_0
    assert sheffer_binomial_residuals(sh, 0)[0].is_zero()
