import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psicalc.su2q import (
    SpinRep,
    _psd_sqrt,
    polar_decompose,
    q_bracket,
    su2_build,
    su2_commutator_check,
)
from psicalc.weyl import inf_norm

Q_SET = (0.5, 1.5, 2.0, np.exp(1j * np.pi / 7), np.exp(1j * np.pi / 12))


def test_bracket_small_values():
    q = 1.7
    assert abs(q_bracket(2, q) - (q + 1 / q)) < 1e-14
    assert q_bracket(0, q) == 0
    assert abs(q_bracket(1, q) - 1) < 1e-15


def test_bracket_without_deformation_is_the_number_itself():
    assert q_bracket(3, None) == 3
    assert type(q_bracket(3, None)) is complex


def test_bracket_unit_circle_is_real_sine_ratio():
    theta = np.pi / 9
    q = np.exp(1j * theta)
    got = q_bracket(3, q)
    assert abs(got - np.sin(3 * theta) / np.sin(theta)) < 1e-12


def test_degenerate_deformation_rejected():
    for bad in (0, 1, -1):
        with pytest.raises(ValueError, match="degenerate"):
            q_bracket(2, bad)


def test_invalid_spin_rejected():
    for bad in (0, -1, 0.3):
        with pytest.raises(ValueError, match="half-integer"):
            su2_build(bad)


def test_spin_half_deformed_matrices():
    rep = su2_build(0.5, q=1.5)
    assert inf_norm(rep.jplus - np.array([[0, 1], [0, 0]])) < 1e-15
    assert inf_norm(rep.j3 - np.diag([0.5, -0.5])) == 0


def test_spin_one_undeformed():
    rep = su2_build(1)
    assert np.allclose(np.diag(rep.jplus, 1), [np.sqrt(2), np.sqrt(2)])
    assert abs(np.trace(rep.j3)) == 0


def test_structure_of_ladders():
    rep = su2_build(2, q=0.5)
    assert inf_norm(np.tril(rep.jplus)) == 0
    assert inf_norm(np.triu(rep.jminus)) == 0
    assert inf_norm(rep.jminus - rep.jplus.conj().T) < 1e-12


def test_commutators_spin_half_exact():
    rep = su2_build(0.5, q=1.7)
    c = rep.jplus @ rep.jminus - rep.jminus @ rep.jplus
    assert inf_norm(c - np.diag([1.0, -1.0])) < 1e-15
    assert su2_commutator_check(rep).ok


def test_commutators_classical_spin_one():
    rep = su2_build(1)
    c = rep.jplus @ rep.jminus - rep.jminus @ rep.jplus
    assert inf_norm(c - 2 * rep.j3) < 1e-14


def test_commutators_grid():
    for j2 in range(1, 13):
        for q in (None,) + Q_SET:
            rep = su2_commutator_check(su2_build(j2 / 2, q=q))
            assert rep.ok, (j2, q, rep.residuals)


def test_continuity_at_undeformed_limit():
    for j2 in range(1, 9):
        near = su2_build(j2 / 2, q=1 + 1e-6)
        flat = su2_build(j2 / 2)
        assert inf_norm(near.jplus - flat.jplus) <= 1e-4


def test_diagonal_ladder_products():
    rep = su2_build(2.5, q=1.5)
    prod = rep.jplus @ rep.jminus
    assert inf_norm(prod - np.diag(np.diag(prod))) == 0


def test_polar_spin_half_hand_values():
    rep = su2_build(0.5, q=1.5)
    pol = polar_decompose(rep)
    modulus = _psd_sqrt(rep.jplus @ rep.jminus, 1e-12)
    assert np.allclose(np.diag(modulus), [1.0, 0.0])
    assert pol.ok


def test_polar_identities_grid():
    for j2 in range(1, 13):
        for q in (None, 0.5, 1.5, 2.0):
            pol = polar_decompose(su2_build(j2 / 2, q=q))
            assert pol.ok, (j2, q, pol.residuals)
            assert pol.convention["unitary"] in ("sigma1", "adjoint(sigma1)")


def test_polar_rejects_indefinite_modulus():
    pol = polar_decompose(su2_build(6, q=np.exp(1j * np.pi / 7)))
    assert pol.skipped == "modulus not PSD for this q" and pol.ok and not pol.residuals


def test_polar_skips_non_diagonal_modulus():
    rep = su2_build(1)
    bent = SpinRep(rep.j2, None, rep.j3, rep.jplus + np.triu(np.ones((3, 3)), 2), rep.jminus)
    pol = polar_decompose(bent)
    assert pol.skipped == "not diagonal" and pol.ok and not pol.residuals


def test_psd_sqrt_simple():
    got = _psd_sqrt(np.diag([4.0, 9.0]).astype(complex), 0.0)
    assert inf_norm(got - np.diag([2.0, 3.0])) == 0


def test_psd_sqrt_rejects_non_diagonal():
    with pytest.raises(ValueError, match="not diagonal"):
        _psd_sqrt(np.array([[1, 1], [0, 1]], dtype=complex), 0.0)


def test_psd_sqrt_rejects_negative_real_part():
    with pytest.raises(ValueError):
        _psd_sqrt(np.diag([-1.0, 1.0]).astype(complex), 0.0)


@given(st.lists(st.floats(min_value=1e-6, max_value=100.0), min_size=1, max_size=8))
@settings(max_examples=80)
def test_psd_sqrt_squares_back(entries):
    d = np.diag(np.array(entries, dtype=complex))
    r = _psd_sqrt(d, 0.0)
    assert inf_norm(r @ r - d) <= 1e-13
