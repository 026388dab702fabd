import dataclasses

import numpy as np
import pytest

from psicalc.weyl import (
    cyclic_shift,
    inf_norm,
    p_closed_form,
    shift_spectrum_residual,
    sylvester_matrix,
    weyl_build,
    weyl_check,
)


def test_dimension_two_is_pauli():
    pair = weyl_build(2)
    assert inf_norm(pair.sigma1 - np.array([[0, 1], [1, 0]])) == 0
    assert inf_norm(pair.sigma2 - np.diag([1.0, -1.0])) < 1e-15
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert inf_norm(pair.smat - hadamard) < 1e-15
    anti = pair.sigma1 @ pair.sigma2 + pair.sigma2 @ pair.sigma1
    assert inf_norm(anti) < 1e-15


def test_pauli_reports_the_fixed_convention():
    # at n = 2, omega = -1 = omega-bar and sigma1 = sigma1^T, so the fixed
    # convention holds there too; the anticommutation is checked above
    rep = weyl_check(weyl_build(2))
    assert rep.ok
    assert (rep.convention["sign"], rep.convention["omega_p"]) == (1, "adjoint(sigma1)")


# entrywise references for the whole-array builders
def _shift_by_entries(n):
    m = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        m[i, i + 1] = 1.0
    m[n - 1, 0] = 1.0
    return m


def _p_by_entries(n):
    omega = np.exp(2j * np.pi / n)
    out = np.full((n, n), (n - 1) / 2.0, dtype=complex)
    for a in range(n):
        for b in range(n):
            if a != b:
                out[a, b] = 1.0 / (omega ** (b - a) - 1.0)
    return out


def test_whole_array_builders_match_entrywise_loops():
    for n in list(range(2, 25)) + [256]:
        assert np.array_equal(cyclic_shift(n), _shift_by_entries(n)), n
        assert np.array_equal(p_closed_form(n), _p_by_entries(n)), n


def test_shift_has_order_n():
    for n in (3, 5, 8):
        assert inf_norm(np.linalg.matrix_power(cyclic_shift(n), n) - np.eye(n)) == 0


def test_sylvester_unitary():
    for n in (2, 3, 7, 24):
        s = sylvester_matrix(n)
        assert inf_norm(s.conj().T @ s - np.eye(n)) < 1e-12


def test_p_diagonal_is_half_n_minus_one():
    for n in (3, 4, 6):
        pair = weyl_build(n)
        assert np.allclose(np.diag(pair.pmat).real, (n - 1) / 2, atol=1e-12)
        assert np.max(np.abs(np.diag(pair.pmat).imag)) < 1e-12


def test_p_matches_closed_form():
    for n in (2, 3, 4, 9):
        pair = weyl_build(n)
        assert inf_norm(pair.pmat - p_closed_form(n)) < 1e-10


def test_conjugated_clock_is_adjoint_shift():
    for n in (3, 4, 12):
        pair = weyl_build(n)
        assert inf_norm(pair.omega_p - pair.sigma1.conj().T) < 1e-8


def test_full_report_up_to_24():
    for n in range(2, 25):
        pair = weyl_build(n)
        rep = weyl_check(pair)
        assert rep.ok, (n, rep.residuals)
        assert rep.convention["omega_p"] == "adjoint(sigma1)"
        assert shift_spectrum_residual(pair) <= 1e-8
        assert "zero diagonal" in rep.convention["p_diagonal"]


def test_weyl_relation_sign():
    for n in (3, 4, 5):
        rep = weyl_check(weyl_build(n))
        assert rep.convention["sign"] == 1


def test_conjugated_clock_fails():
    # sigma2 = diag(omega-bar^k) satisfies the other convention; the check
    # tests only the one weyl_build fixes
    for n in (3, 4, 12):
        pair = weyl_build(n)
        sigma2 = pair.sigma2.conj()
        omega_p = pair.smat.conj().T @ sigma2 @ pair.smat
        rep = weyl_check(dataclasses.replace(pair, sigma2=sigma2, omega_p=omega_p))
        assert not rep.ok
        assert rep.residuals["weyl_relation"] > 0.5 and rep.residuals["omega_p_vs_shift"] > 0.5


def test_small_dimension_rejected():
    with pytest.raises(ValueError):
        weyl_build(1)


def test_inf_norm_of_zero():
    assert inf_norm(np.eye(3, dtype=complex) - np.eye(3, dtype=complex)) == 0
