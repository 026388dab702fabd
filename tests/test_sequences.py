from fractions import Fraction

import pytest

from psicalc import sequences
from psicalc.operators import (
    DELTA_FAMILIES,
    OperatorSeries,
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
    BASIC_BUILDERS,
    basic_sequence,
    binomial_residuals,
    lowering_residuals,
    q_laguerre_closed,
    sheffer_sequence,
)
from psicalc.verify import suite_method_agreement

QG = qgauss()
CL = classic()
GRID_PSIS = (CL, QG, fibonacci(), square())
GRID_DELTAS = ("derivative", "laguerre", "quadratic", "shifted")


def test_derivative_delta_has_monomial_basis():
    for method in BASIC_BUILDERS:
        got = basic_sequence(derivative_delta(QG), 6, method)
        assert got == tuple(monomial(n) for n in range(7))


def test_laguerre_first_polys():
    seq = basic_sequence(laguerre_delta(QG), 3, "solve")
    assert seq[1] == monomial(1).scale(rf(-1))
    assert seq[2] == monomial(2) - monomial(1).scale(ONE + QSYM)


def test_invariants_on_grid_sample():
    for psi in GRID_PSIS:
        delta = DELTA_FAMILIES["laguerre"](psi)
        seq = basic_sequence(delta, 6, "solve")
        assert seq[0] == one_poly()
        for n, p in enumerate(seq):
            assert p.degree == n
            if n >= 1:
                assert not p.coeff(0, ZERO)
        assert not any(lowering_residuals(delta, seq))


def test_all_methods_agree_small_grid():
    for psi in GRID_PSIS:
        for name in GRID_DELTAS:
            delta = DELTA_FAMILIES[name](psi)
            ref = basic_sequence(delta, 6, "solve")
            for method in BASIC_BUILDERS:
                assert basic_sequence(delta, 6, method) == ref, (psi.name, name, method)


@pytest.mark.parametrize("owner, name", [
    (OperatorSeries, "invert"), (OperatorSeries, "pincherle"), (sequences, "_basic_solve"),
])
def test_method_agreement_catches_a_broken_primitive(monkeypatch, owner, name):
    # the five constructions share no shortcut, so one wrong coefficient in
    # a primitive some of them use must fail every cell of the methods suite
    real = getattr(owner, name)

    def broken(*args):
        got = real(*args)
        if isinstance(got, OperatorSeries):
            return OperatorSeries(got.psi, [got.coeff(0) + ONE], got.coeff)
        return got[:-1] + [got[-1] + one_poly()]

    monkeypatch.setattr(owner, name, broken)
    # the registry holds the constructions themselves, so re-point its entry too
    for method, build in BASIC_BUILDERS.items():
        if build is real:
            monkeypatch.setitem(BASIC_BUILDERS, method, broken)
    rows = suite_method_agreement()
    assert len(rows) == 16 and not any(r.passed for r in rows)


def test_solve_uses_no_series_operation(monkeypatch):
    delta = DELTA_FAMILIES["quadratic"](QG)
    want = basic_sequence(delta, 6, "solve")

    def forbidden(*args):
        raise AssertionError("the solve oracle must not use series operations")

    for name in ("__mul__", "invert", "pincherle", "apply"):
        monkeypatch.setattr(OperatorSeries, name, forbidden)
    monkeypatch.setattr(type(delta), "s_factor", forbidden)
    assert basic_sequence(delta, 6, "solve") == want


def test_abel_polynomials_from_shifted_delta():
    seq = basic_sequence(shifted_delta(CL), 6, "solve")
    x = monomial(1)
    for n in range(1, 7):
        expect = x
        base = x - one_poly().scale(rf(n))
        for _ in range(n - 1):
            expect = expect * base
        assert seq[n] == expect


def test_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        basic_sequence(laguerre_delta(QG), 5, "magic")


def test_sheffer_identity_scaling_gives_basic():
    delta = laguerre_delta(QG)
    basic = basic_sequence(delta, 6)
    assert sheffer_sequence(one_series(QG), basic) == basic


def test_sheffer_roundtrip_and_recurrence():
    delta = derivative_delta(QG)
    factor = exp_sq_series(QG)
    basic = basic_sequence(delta, 8)
    sh = sheffer_sequence(factor, basic)
    assert sh[0].degree == 0 and sh[0].coeffs[0]
    assert not any(lowering_residuals(delta, sh))
    for n in range(9):
        assert factor.apply(sh[n]) == basic[n]


def test_sheffer_requires_invertible_scaling():
    delta = derivative_delta(QG)
    with pytest.raises(ValueError, match="non-invertible"):
        sheffer_sequence(OperatorSeries(QG, [ZERO, ONE]), basic_sequence(delta, 5))


def test_laguerre_closed_form_examples():
    assert q_laguerre_closed(QG, 0) == one_poly()
    assert q_laguerre_closed(QG, 1) == monomial(1).scale(rf(-1))
    oracle = basic_sequence(laguerre_delta(QG), 10, "solve")
    for n in range(11):
        assert q_laguerre_closed(QG, n) == oracle[n]


def test_laguerre_closed_specializes_to_classic():
    classic_oracle = basic_sequence(laguerre_delta(CL), 3, "solve")
    specialized = q_laguerre_closed(QG, 3).map_coeffs(lambda c: rf(c.eval_q(1)))
    assert specialized == classic_oracle[3]


def test_laguerre_closed_works_for_other_tables():
    fib = fibonacci()
    oracle = basic_sequence(laguerre_delta(fib), 6, "solve")
    for n in range(7):
        assert q_laguerre_closed(fib, n) == oracle[n]


def test_laguerre_order_scaling_values():
    got = laguerre_scaling(QG, Fraction(1, 2))
    assert got.coeff(0) == ONE
    assert got.coeff(1) == rf(Fraction(-3, 2))
    assert got.coeff(2) == rf(Fraction(3, 8))


def test_binomial_identity_small():
    for psi in GRID_PSIS:
        seq = basic_sequence(DELTA_FAMILIES["quadratic"](psi), 6, "solve")
        assert not any(binomial_residuals(psi, seq, seq))


def test_sheffer_binomial_identity_small():
    basic = basic_sequence(laguerre_delta(QG), 6)
    sh = sheffer_sequence(laguerre_scaling(QG, Fraction(0)), basic)
    assert not any(binomial_residuals(QG, sh, basic))
    # n = 0: both sides are the constant s_0
    assert binomial_residuals(QG, sh[:1], basic)[0].is_zero()
