import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psicalc.su2q import (
    _psd_sqrt,
    polar_decompose,
    q_bracket,
    su2_build,
    su2_commutator_check,
)
from psicalc.weyl import inf_norm

from matrix_forms import dense, diagonals_of

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
    assert inf_norm(dense(rep.jplus) - np.array([[0, 1], [0, 0]])) < 1e-15
    assert inf_norm(dense(rep.j3) - np.diag([0.5, -0.5])) == 0


def test_spin_one_undeformed():
    rep = su2_build(1)
    assert np.allclose(np.diag(dense(rep.jplus), 1), [np.sqrt(2), np.sqrt(2)])
    assert abs(np.trace(dense(rep.j3))) == 0


def test_structure_of_ladders():
    # J- is the transpose of J+ at every q, complex ones included, where it
    # differs from the adjoint; both are read off the one bracket table
    for j2 in range(1, 13):
        for q in (None,) + Q_SET:
            rep = su2_build(j2 / 2, q=q)
            jplus, jminus = dense(rep.jplus), dense(rep.jminus)
            assert inf_norm(np.tril(jplus)) == 0
            assert inf_norm(np.triu(jminus)) == 0
            assert np.array_equal(jminus, jplus.T), (j2, q)
            assert len(rep.brackets) == j2 + 1
            assert all(rep.brackets[k] == q_bracket(k, q) for k in range(j2 + 1)), (j2, q)


def test_commutators_spin_half_exact():
    rep = su2_build(0.5, q=1.7)
    jplus, jminus = dense(rep.jplus), dense(rep.jminus)
    c = jplus @ jminus - jminus @ jplus
    assert inf_norm(c - np.diag([1.0, -1.0])) < 1e-15
    assert su2_commutator_check(rep).ok


def test_commutators_classical_spin_one():
    rep = su2_build(1)
    jplus, jminus = dense(rep.jplus), dense(rep.jminus)
    c = jplus @ jminus - jminus @ jplus
    assert inf_norm(c - 2 * dense(rep.j3)) < 1e-14


def test_commutators_grid():
    for j2 in range(1, 13):
        for q in (None,) + Q_SET:
            rep = su2_commutator_check(su2_build(j2 / 2, q=q))
            assert rep.ok, (j2, q, rep.residuals)


def test_continuity_at_undeformed_limit():
    for j2 in range(1, 9):
        near = su2_build(j2 / 2, q=1 + 1e-6)
        flat = su2_build(j2 / 2)
        assert inf_norm(dense(near.jplus) - dense(flat.jplus)) <= 1e-4


def test_diagonal_ladder_products():
    rep = su2_build(2.5, q=1.5)
    prod = dense(rep.jplus) @ dense(rep.jminus)
    assert inf_norm(prod - np.diag(np.diag(prod))) == 0


def test_polar_spin_half_hand_values():
    rep = su2_build(0.5, q=1.5)
    pol = polar_decompose(rep)
    modulus = _psd_sqrt(diagonals_of(dense(rep.jplus) @ dense(rep.jminus)), 1e-12)
    assert np.allclose(modulus.diagonal(), [1.0, 0.0])
    assert pol.ok


def test_polar_identities_grid():
    for j2 in range(1, 13):
        for q in (None, 0.5, 1.5, 2.0):
            pol = polar_decompose(su2_build(j2 / 2, q=q))
            assert pol.ok, (j2, q, pol.residuals)
            assert pol.convention["unitary"] == "adjoint(sigma1)"


@pytest.mark.parametrize("j", [3 / 2, 3, 32])
def test_polar_fails_ladders_above_the_other_diagonal(j):
    # J- above the diagonal would fit the shift itself, not its adjoint
    rep = su2_build(j, q=1.5)
    flipped = dataclasses.replace(rep, jplus=rep.jminus, jminus=rep.jplus)
    pol = polar_decompose(flipped)
    assert not pol.ok and pol.convention["unitary"] == "adjoint(sigma1)"


def test_polar_rejects_indefinite_modulus():
    pol = polar_decompose(su2_build(6, q=np.exp(1j * np.pi / 7)))
    assert pol.skipped == "modulus not PSD for this q" and pol.ok and not pol.residuals


@pytest.mark.parametrize("j", [1, 32])
def test_polar_fails_non_diagonal_ladder_products(j):
    # only a modulus that is not PSD is a skip; a ladder product off the
    # diagonal fails the row, by the size of its off-diagonal part
    rep = su2_build(j)
    upper = diagonals_of(np.triu(np.ones((rep.dim, rep.dim)), 2))
    pol = polar_decompose(dataclasses.replace(rep, jplus=rep.jplus + upper))
    assert pol.skipped is None and not pol.ok
    assert list(pol.residuals) == ["ladder_products_offdiagonal"]
    assert pol.residuals["ladder_products_offdiagonal"] >= 1.0
    assert pol.convention["unitary"] == "adjoint(sigma1)"


# _psd_sqrt takes and returns Diagonals, of the smallest ladder product and
# of a large one
PSD_SIZES = (2, 64)


@pytest.mark.parametrize("n", PSD_SIZES)
def test_psd_sqrt_simple(n):
    roots = np.arange(2.0, n + 2.0)
    got = _psd_sqrt(diagonals_of(np.diag(roots ** 2)), 0.0)
    assert list(got) == [0]
    assert inf_norm(got - diagonals_of(np.diag(roots))) == 0


@pytest.mark.parametrize("n", PSD_SIZES)
def test_psd_sqrt_rejects_negative_real_part(n):
    d = np.ones(n, dtype=complex)
    d[0] = -1.0
    with pytest.raises(ValueError):
        _psd_sqrt(diagonals_of(np.diag(d)), 0.0)


@given(st.lists(st.floats(min_value=1e-6, max_value=100.0), min_size=1, max_size=8))
@settings(max_examples=80)
def test_psd_sqrt_squares_back(entries):
    for d in (np.diag(np.array(entries, dtype=complex)),
              np.diag(np.resize(np.array(entries, dtype=complex), 64))):
        r = _psd_sqrt(diagonals_of(d), 0.0)
        assert inf_norm(r @ r - diagonals_of(d)) <= 1e-13
