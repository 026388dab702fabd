import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from psicalc.su2q import polar_decompose, su2_build, su2_commutator_check
from psicalc.weyl import (
    Diagonals,
    cyclic_shift,
    inf_norm,
    p_closed_form,
    power,
    shift_spectrum_residual,
    sylvester_matrix,
    weyl_build,
    weyl_check,
)

from matrix_forms import dense, diagonals_of


def test_dimension_two_is_pauli():
    pair = weyl_build(2)
    sigma1, sigma2 = dense(pair.sigma1), dense(pair.sigma2)
    assert inf_norm(sigma1 - np.array([[0, 1], [1, 0]])) == 0
    assert inf_norm(sigma2 - np.diag([1.0, -1.0])) < 1e-15
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert inf_norm(pair.smat - hadamard) < 1e-15
    anti = sigma1 @ sigma2 + sigma2 @ sigma1
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
        assert np.array_equal(dense(cyclic_shift(n)), _shift_by_entries(n)), n
        assert np.array_equal(p_closed_form(n), _p_by_entries(n)), n


def test_shift_has_order_n():
    for n in (3, 5, 8):
        assert inf_norm(np.linalg.matrix_power(dense(cyclic_shift(n)), n) - np.eye(n)) == 0


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
        assert inf_norm(pair.omega_p - dense(pair.sigma1).conj().T) < 1e-8


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
        sigma2 = Diagonals(n, {0: pair.sigma2.diagonal().conj()})
        omega_p = pair.smat.conj().T @ dense(sigma2) @ pair.smat
        rep = weyl_check(dataclasses.replace(pair, sigma2=sigma2, omega_p=omega_p))
        assert not rep.ok
        assert rep.residuals["weyl_relation"] > 0.5 and rep.residuals["omega_p_vs_shift"] > 0.5


def test_small_dimension_rejected():
    with pytest.raises(ValueError):
        weyl_build(1)


def test_inf_norm_of_zero():
    assert inf_norm(np.eye(3, dtype=complex) - np.eye(3, dtype=complex)) == 0


# Diagonals against the dense arrays they hold, whose products are BLAS's
PRODUCT_SIZES = (2, 63, 64, 65, 201, 256)


def _products(n):
    """(name, a, b) factor pairs."""
    rng = np.random.default_rng(n)
    diag = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    ladder = np.diag(np.sqrt(np.arange(1, n, dtype=complex)), 1)
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    full = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    signed_zero = np.diag(np.where(np.arange(n) % 3 == 0, -0.0, np.arange(n) - 2.5)) + ladder
    tri = ladder.T + diag + 1j * ladder
    return [
        ("diagonal x ladder", diag, ladder),
        ("ladder x its transpose", ladder, np.ascontiguousarray(ladder.T)),
        ("ladder transpose view x diagonal", ladder.T, diag),
        ("shift x clock", _shift_by_entries(n), clock),
        ("dense x diagonal", full, diag),
        ("all-zero x ladder", np.zeros((n, n), dtype=complex), ladder),
        ("-0.0 on the diagonal x shift", signed_zero, _shift_by_entries(n)),
        ("real -0.0 diagonal x ladder", np.diag(np.full(n, -0.0)), ladder),
        ("tridiagonal squared: three terms a diagonal entry", tri, tri),
    ]


def _product_by_entries(x, y):
    """The dense x @ y of two Diagonals: each pair of diagonals adds its
    terms to their entries, in ascending offset of x, then of y."""
    n, i = x.n, np.arange(x.n)
    out = np.zeros((n, n), dtype=complex)
    for p, a in x.items():
        for q, b in y.items():
            rows = i[(0 <= i + p) & (i + p < n) & (0 <= i + p + q) & (i + p + q < n)]
            out[rows, rows + p + q] += a[rows - max(0, -p)] * b[rows + p - max(0, -q)]
    return out


@pytest.mark.parametrize("n", PRODUCT_SIZES)
def test_operands_agree_with_dense_arrays(n):
    omega = complex(np.exp(2j * np.pi / n))
    for name, a, b in _products(n):
        x, y = diagonals_of(a), diagonals_of(b)
        assert np.array_equal(dense(x), a) and np.array_equal(dense(x.T), a.T), name
        assert np.array_equal(x.toarray(), a) and np.array_equal(x.T.toarray(), a.T), name
        # sums, differences and scalar multiples: the same entries, so the
        # same residuals bit for bit
        assert inf_norm(x - y) == inf_norm(a - b), (n, name)
        assert inf_norm(x + y) == inf_norm(a + b), (n, name)
        assert inf_norm(omega * x - y) == inf_norm(omega * a - b), (n, name)
        # products: the diagonals' sums, in their order, and BLAS's to rounding
        got, want = x @ y, a @ b
        assert np.array_equal(dense(got), _product_by_entries(x, y)), (n, name)
        assert inf_norm(dense(got) - want) <= 1e-14 * inf_norm(a) * inf_norm(b), (n, name)
        assert inf_norm(got - diagonals_of(want)) == inf_norm(dense(got) - want), (n, name)


def test_diagonal_offsets_of_the_structured_matrices():
    n = 64
    assert list(cyclic_shift(n)) == [-(n - 1), 1]
    assert list(cyclic_shift(n).T) == [-1, n - 1]
    assert list(weyl_build(n).sigma2) == [0]
    rep = su2_build(Fraction(n - 1, 2), q=0.5)
    assert (list(rep.j3), list(rep.jplus), list(rep.jminus)) == ([0], [1], [-1])
    # the tests' reader of arrays keeps the diagonals with nonzero bits
    assert list(diagonals_of(np.eye(n, k=-5))) == [-5]
    assert list(diagonals_of(np.zeros((n, n)))) == []
    assert list(diagonals_of(np.diag(np.full(n, -0.0)))) == [0]  # nonzero bits
    three = np.eye(n, k=1)
    three[n - 1, 0] = three[5, 3] = 1.0
    assert list(diagonals_of(three)) == [-(n - 1), -2, 1]
    assert inf_norm(diagonals_of(np.zeros((n, n)))) == 0.0


@pytest.mark.parametrize("n", PRODUCT_SIZES)
def test_operand_of_given_diagonals(n):
    # the cyclic shift by its two diagonals, as weyl_build and polar_decompose build it
    x = Diagonals(n, {1 - n: np.ones(1, dtype=complex), 1: np.ones(n - 1, dtype=complex)})
    assert list(x) == list(cyclic_shift(n)) == list(diagonals_of(_shift_by_entries(n)))
    assert np.array_equal(dense(x), dense(cyclic_shift(n)))
    assert np.array_equal(cyclic_shift(n).toarray(), _shift_by_entries(n))


def _dense_reference_powers(n):
    """Every k = 1 .. 2n up to n = 65; above, where one dense
    np.linalg.matrix_power costs milliseconds, the k near 1, n and 2n and
    the powers of two."""
    if n <= 65:
        return set(range(1, 2 * n + 1))
    return {1, 2, 3, n - 1, n, n + 1, 2 * n - 1, 2 * n} | {1 << e for e in range((2 * n).bit_length())}


@pytest.mark.parametrize("n", PRODUCT_SIZES)
def test_shift_and_clock_powers(n):
    pair = weyl_build(n)
    shift, clock = dense(pair.sigma1), dense(pair.sigma2)
    references = _dense_reference_powers(n)
    for k in range(1, 2 * n + 1):
        shift_k = dense(power(pair.sigma1, k))
        clock_k = dense(power(pair.sigma2, k))
        # the shift's powers are permutations, exact in every product order;
        # the clock's rounding grows with its k factors
        assert np.array_equal(shift_k, np.eye(n, k=k % n) + np.eye(n, k=k % n - n)), k
        want = np.diag(np.exp(2j * np.pi * (k * np.arange(n) % n) / n))
        assert inf_norm(clock_k - want) <= 4e-15 * k, k
        if k in references:
            assert np.array_equal(shift_k, np.linalg.matrix_power(shift, k)), k
            assert inf_norm(clock_k - np.linalg.matrix_power(clock, k)) <= 1e-13, k


def test_power_rejects_non_positive_exponents():
    with pytest.raises(ValueError):
        power(cyclic_shift(3), 0)


def _spin_residuals_by_dense_products(rep):
    """su2_commutator_check's and polar_decompose's residuals, from the dense
    ladders and BLAS products."""
    j3, jplus, jminus = dense(rep.j3), dense(rep.jplus), dense(rep.jminus)
    b = rep.brackets
    target = np.diag([b[x] if x >= 0 else -b[-x] for x in range(rep.j2, -rep.j2 - 1, -2)])
    commutators = {
        "j3_jplus": inf_norm(j3 @ jplus - jplus @ j3 - jplus),
        "j3_jminus": inf_norm(j3 @ jminus - jminus @ j3 + jminus),
        "jplus_jminus": inf_norm(jplus @ jminus - jminus @ jplus - target),
    }
    modulus, comodulus = (np.diag(np.sqrt(np.clip(np.diag(m).real, 0.0, None).astype(complex)))
                          for m in (jplus @ jminus, jminus @ jplus))
    ud = _shift_by_entries(rep.dim)
    u = ud.T
    polar = {
        "jminus_vs_u_modulus": inf_norm(jminus - u @ modulus),
        "jminus_vs_comodulus_u": inf_norm(jminus - comodulus @ u),
        "jplus_vs_modulus_udag": inf_norm(jplus - modulus @ ud),
        "jplus_vs_udag_comodulus": inf_norm(jplus - ud @ comodulus),
    }
    return [commutators, polar]


def _weyl_residuals_by_dense_products(pair):
    """weyl_check's residuals, from dense arrays and BLAS products."""
    n, one = pair.n, np.eye(pair.n)
    shift, clock = dense(pair.sigma1), dense(pair.sigma2)
    off = pair.pmat - p_closed_form(n)
    np.fill_diagonal(off, 0.0)
    return {
        "sigma1_pow_n": inf_norm(np.linalg.matrix_power(shift, n) - one),
        "sigma2_pow_n": inf_norm(np.linalg.matrix_power(clock, n) - one),
        "s_unitary": inf_norm(pair.smat.conj().T @ pair.smat - one),
        "weyl_relation": inf_norm(shift @ clock - (pair.omega * clock) @ shift),
        "omega_p_vs_shift": inf_norm(pair.omega_p - shift.conj().T),
        "p_offdiagonal": inf_norm(off),
        "p_diagonal": inf_norm(np.diag(pair.pmat) - (n - 1) / 2.0),
    }


def _assert_residuals_match(got, want):
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for name in w:
            assert abs(g[name] - w[name]) <= 1e-15 * abs(w[name]), (name, g[name], w[name])


@pytest.mark.parametrize("q", [None, 0.5, 1.5, 1.0000001])
def test_spin_residuals_match_dense_products(q):
    rep = su2_build(100, q)
    got = [su2_commutator_check(rep).residuals, polar_decompose(rep).residuals]
    _assert_residuals_match(got, _spin_residuals_by_dense_products(rep))


@pytest.mark.parametrize("n", [64, 101])
def test_weyl_residuals_match_dense_products(n):
    pair = weyl_build(n)
    got = weyl_check(pair).residuals
    want = _weyl_residuals_by_dense_products(pair)
    # BLAS rounds the clock's complex products its own way: sigma2**n
    # differs in the last bits, within the clock-power bound above
    assert abs(got.pop("sigma2_pow_n") - want.pop("sigma2_pow_n")) <= 4e-15 * n
    _assert_residuals_match([got], [want])


def _peak_bytes(fn, *args):
    fn(*args)  # first-call work is not the check's
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spin_build_holds_no_dense_matrix_at_large_j():
    # J3, J+ and J- are built as their diagonals: three 201 x 201 complex
    # arrays would take 1.9 MB
    one_matrix = 201 ** 2 * 16
    assert _peak_bytes(su2_build, 100, 0.5) < one_matrix // 10


def test_spin_checks_hold_no_dense_matrix_at_large_j():
    # the checks work on diagonals: their peak stays below
    # one 201 x 201 complex array, which each dense product or difference is
    rep = su2_build(100, q=0.5)
    one_matrix = rep.dim ** 2 * 16
    assert _peak_bytes(su2_commutator_check, rep) < one_matrix
    assert _peak_bytes(polar_decompose, rep) < one_matrix


def test_weyl_check_holds_one_dense_temporary_at_a_time():
    # each residual that reads smat, omega_p or pmat is one n x n array,
    # differenced in place and freed before the next; p_closed_form's index
    # table and its result set the peak (a 256 x 256 complex array is 1 MiB)
    assert _peak_bytes(weyl_check, weyl_build(256)) < 3_000_000
