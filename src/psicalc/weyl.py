"""Generalized Pauli (clock and shift) pair with the Sylvester transform.

For dimension n and omega = exp(2*pi*i/n): sigma1 is the cyclic shift,
sigma2 the diagonal clock omega^Q with Q = diag(0..n-1), and the unitary
Sylvester matrix (omega^{kl}/sqrt(n)) conjugates the clock into the adjoint
shift.  P = S^dagger Q S realizes sigma1^dagger as omega^P.

Also home to what the numeric layer shares: the entrywise sup norm every
residual is measured in, the check record `su2q` and this module return,
and the matrix product their diagonal, ladder and shift matrices go through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def inf_norm(a: np.ndarray) -> float:
    """Largest entry magnitude."""
    return float(np.max(np.abs(a)))


@dataclass(frozen=True)
class NumericCheck:
    """One numeric identity check: named residual norms and the conventions tested.

    A check that could not run carries the reason in `skipped` and passes.
    """

    check: str
    params: dict
    residuals: dict = field(default_factory=dict)
    convention: dict = field(default_factory=dict)
    ok: bool = True
    skipped: str | None = None

    def as_json(self) -> dict:
        """The report object `spin` and `weyl` print."""
        if self.skipped is not None:
            return {"check": self.check, "params": self.params, "skipped": self.skipped,
                    "pass": self.ok}
        return {"check": self.check, "params": self.params, "residuals": self.residuals,
                "convention": self.convention, "pass": self.ok}


# Below this size matmul leaves every product to BLAS.  On a 2-vCPU x86_64
# VM (numpy 2.4, one BLAS thread) a diagonal times a ladder takes 32 us by
# diagonals and 44 us by BLAS at n = 64, 30 us either way at n = 56, and
# 26 against 9 us at n = 32.
DIAGONAL_PRODUCT_MIN_N = 64


def _diagonals(a: np.ndarray) -> tuple[int, ...] | None:
    """The offsets (column less row) of a's nonzero diagonals, ascending,
    or None when there are more than two.

    Nonzero means nonzero bits, so -0.0 counts.  The scan reads each
    float as an int64 word; a plain `np.unique` here would import numpy.ma
    on its first call, in every forked CLI process.
    """
    n, words = len(a), a.itemsize // 8
    nonzero = np.flatnonzero(np.ascontiguousarray(a).view(np.int64) != 0)
    if len(nonzero) > 2 * n * words:  # more than two diagonals hold
        return None
    if not len(nonzero):
        return ()
    entries = nonzero // words
    offsets = entries % n - entries // n
    lo, hi = int(offsets.min()), int(offsets.max())
    if lo == hi:
        return (lo,)
    return (lo, hi) if np.all((offsets == lo) | (offsets == hi)) else None


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for finite square float64 or complex128 operands of one size.

    When n >= DIAGONAL_PRODUCT_MIN_N and each factor has at most two nonzero
    diagonals (a diagonal, a ladder, the cyclic shift and its powers), each
    pair of diagonals is multiplied and summed in O(n).  That drops only
    terms with a zero factor, and an entry is then one product or the sum
    of two, so it agrees with BLAS to rounding.  Every other product is
    `a @ b`.
    """
    n = len(a)
    if n < DIAGONAL_PRODUCT_MIN_N or not a.shape == b.shape == (n, n):
        return a @ b
    da = _diagonals(a)
    db = da if b is a else _diagonals(b)
    if da is None or db is None:
        return a @ b
    out = np.zeros((n, n), dtype=np.result_type(a, b))
    flat = out.reshape(-1)
    for p in da:
        for q in db:
            r = p + q
            # rows i with a[i, i+p], b[i+p, i+r] and out[i, i+r] all inside
            lo, hi = max(0, -p, -r), min(n, n - p, n - r)
            if lo < hi:
                ia, ib = lo - max(0, -p), lo + p - max(0, -q)
                flat[lo * (n + 1) + r:(hi - 1) * (n + 1) + r + 1:n + 1] += (
                    np.diagonal(a, p)[ia:ia + hi - lo] * np.diagonal(b, q)[ib:ib + hi - lo])
    return out


def matrix_power(a: np.ndarray, k: int) -> np.ndarray:
    """a**k for k >= 1, squaring through `matmul` in the order numpy's
    own matrix power multiplies."""
    if k < 1:
        raise ValueError(f"power must be at least 1, got {k}")
    result = None
    while True:
        k, bit = divmod(k, 2)
        if bit:
            result = a if result is None else matmul(result, a)
        if not k:
            return result
        a = matmul(a, a)


def cyclic_shift(n: int) -> np.ndarray:
    """Ones on the superdiagonal plus a bottom-left corner entry."""
    m = np.eye(n, k=1, dtype=complex)
    m[-1, 0] = 1.0
    return m


def sylvester_matrix(n: int) -> np.ndarray:
    """(omega^{kl} / sqrt(n)), read from one table of the n roots at kl mod n."""
    k = np.arange(n)
    roots = np.exp(2j * np.pi * k / n) / np.sqrt(n)
    return roots[np.outer(k, k) % n]


@dataclass(frozen=True, eq=False)
class WeylPair:
    n: int
    omega: complex
    sigma1: np.ndarray
    sigma2: np.ndarray
    pmat: np.ndarray
    smat: np.ndarray
    omega_p: np.ndarray  # S^dagger sigma2 S, the conjugated clock


def weyl_build(n: int) -> WeylPair:
    """Construct the full set of dimension-n generators.

    Q = diag(0, 1, ..., n-1): the clock sigma2 = omega^Q fixes the 0 in the
    first slot (a diagonal starting at 1 would not reproduce sigma2's unit
    top-left entry).  omega^P is computed by conjugating sigma2 with the
    Sylvester matrix rather than exponentiating P, which keeps the
    functional calculus exact up to rounding.
    """
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    omega = complex(np.exp(2j * np.pi / n))
    sigma2 = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    sigma1 = cyclic_shift(n)
    smat = sylvester_matrix(n)
    sdag = smat.conj().T
    # a diagonal factor scales the columns of S^dagger
    pmat = (sdag * np.arange(n)) @ smat
    omega_p = (sdag * np.diagonal(sigma2)) @ smat
    return WeylPair(n, omega, sigma1, sigma2, pmat, smat, omega_p)


def p_closed_form(n: int) -> np.ndarray:
    """Entrywise formula for S^dagger Q S.

    Off the diagonal the geometric-sum identity gives 1/(omega^{col-row} - 1);
    the diagonal averages Q's trace to (n-1)/2.  Some treatments print a zero
    diagonal, which contradicts trace preservation under conjugation.
    """
    omega = np.exp(2j * np.pi / n)
    k = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):  # 1/0 at d = 0, the diagonal
        table = 1.0 / (omega ** np.arange(1 - n, n) - 1.0)  # at d + n - 1: omega^d
    out = table[(n - 1) - np.subtract.outer(k, k)]  # d = col - row
    np.fill_diagonal(out, (n - 1) / 2.0)
    return out


PRINTED_DIAGONAL_NOTE = (
    "computed diagonal of P is (n-1)/2 from trace preservation; the "
    "commonly printed zero diagonal deviates from S^dagger Q S"
)

# the gate on each weyl_check residual, in report order, and on
# shift_spectrum_residual, which verify's weyl suite adds
WEYL_GATES = {
    "sigma1_pow_n": 1e-10,
    "sigma2_pow_n": 1e-10,
    "s_unitary": 1e-12,
    "weyl_relation": 1e-10,
    "omega_p_vs_shift": 1e-8,
    "p_offdiagonal": 1e-10,
    "p_diagonal": 1e-10,
    "shift_spectrum": 1e-8,
}


# The convention the construction fixes: the shift's ones
# sit above the diagonal and the clock is diag(omega^k), so
# sigma1 sigma2 = omega sigma2 sigma1; and (S^dagger sigma2 S)_ab =
# (1/n) sum_k omega^{k(b-a+1)} is nonzero only at b = a-1, the adjoint shift.
WEYL_CONVENTION = {"sign": 1, "omega_p": "adjoint(sigma1)",
                   "p_diagonal": PRINTED_DIAGONAL_NOTE}


def weyl_check(pair: WeylPair) -> NumericCheck:
    """Test every generator identity in the convention WEYL_CONVENTION
    records, and gate each residual by WEYL_GATES."""
    n = pair.n
    eye = np.eye(n, dtype=complex)
    diff = pair.pmat - p_closed_form(n)
    res = {
        "sigma1_pow_n": inf_norm(matrix_power(pair.sigma1, n) - eye),
        "sigma2_pow_n": inf_norm(matrix_power(pair.sigma2, n) - eye),
        "s_unitary": inf_norm(pair.smat.conj().T @ pair.smat - eye),
        "weyl_relation": inf_norm(
            matmul(pair.sigma1, pair.sigma2) - matmul(pair.omega * pair.sigma2, pair.sigma1)),
        "omega_p_vs_shift": inf_norm(pair.omega_p - pair.sigma1.conj().T),
        "p_offdiagonal": inf_norm(diff - np.diag(np.diag(diff))),
        "p_diagonal": inf_norm(np.diag(pair.pmat) - (n - 1) / 2.0),
    }
    return NumericCheck("weyl", {"n": n}, res, WEYL_CONVENTION,
                        all(res[k] <= WEYL_GATES[k] for k in res))


def shift_spectrum_residual(pair: WeylPair) -> float:
    """Largest |det(omega^k I - sigma1)| over the n-th roots of unity."""
    n = pair.n
    worst = 0.0
    for k in range(n):
        lam = np.exp(2j * np.pi * k / n)
        worst = max(worst, abs(np.linalg.det(lam * np.eye(n, dtype=complex) - pair.sigma1)))
    return worst
