"""Generalized Pauli (clock and shift) pair with the Sylvester transform.

For dimension n and omega = exp(2*pi*i/n): sigma1 is the cyclic shift,
sigma2 the diagonal clock omega^Q with Q = diag(0..n-1), and the unitary
Sylvester matrix (omega^{kl}/sqrt(n)) conjugates the clock into the adjoint
shift.  P = S^dagger Q S realizes sigma1^dagger as omega^P.

Also home to what the numeric layer shares: the entrywise sup norm every
residual is measured in, the check record `su2q` and this module return,
and the form their diagonal, ladder and shift matrices are multiplied in
(`operand`: the dense array below DIAGONAL_PRODUCT_MIN_N, its `Diagonals`
from there on).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def inf_norm(a) -> float:
    """Largest entry magnitude of an array or of `Diagonals`."""
    if isinstance(a, Diagonals):
        return float(np.max(np.abs(np.concatenate(list(a.values()))))) if a else 0.0
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


# Below this size a check's matrices stay dense and every product is BLAS's;
# from it on they are their Diagonals.  On a 2-vCPU x86_64 VM (numpy 2.4,
# one BLAS thread) the residual |D L - L| of a diagonal D and a ladder L
# takes 66 us from dense arrays and 41 us from Diagonals (their scans
# included) at n = 64, 47 against 40 us at n = 56 and 17 against 36 us at
# n = 32.  64 also keeps verify's numeric suites (n <= 24) and the small
# operations, which set the benchmark's median, clear of the first use of
# the Diagonals code in each forked CLI process.
DIAGONAL_PRODUCT_MIN_N = 64


class Diagonals(dict):
    """An n x n matrix as its nonzero diagonals: offset (column less row)
    -> the vector of that diagonal, in ascending offset.

    Sums, differences and scalar multiples hold the dense result's entries
    (a zero's sign aside), and `inf_norm` reads them, in O(n) per diagonal;
    so a residual `inf_norm(x - y)` is the dense one bit for bit.  A product
    multiplies each pair of diagonals in O(n) and sums each entry's terms in
    ascending offset of the left factor, then of the right; it drops only
    terms with a zero factor, so it agrees with BLAS to rounding.
    """

    __slots__ = ("n",)
    __array_ufunc__ = None  # numpy defers: c * d reaches __rmul__, array - d raises

    def __init__(self, n: int, diagonals):
        """`diagonals`: {offset: vector} or (offset, vector) pairs, ascending."""
        super().__init__(diagonals)
        self.n = n

    @classmethod
    def of(cls, a: np.ndarray) -> "Diagonals":
        """The diagonals of the square array a that hold nonzero bits (so
        -0.0 counts), as views of a.

        The scan reads each float as an int64 word; a plain `np.unique` here
        would import numpy.ma on its first call, in every forked CLI process.
        """
        n, words = len(a), a.itemsize // 8
        entries = np.flatnonzero(np.ascontiguousarray(a).view(np.int64) != 0) // words
        held = np.zeros(2 * n - 1, dtype=bool)
        held[entries % n - entries // n + (n - 1)] = True
        return cls(n, {p: a.diagonal(p) for p in (np.flatnonzero(held) - (n - 1)).tolist()})

    @property
    def T(self) -> "Diagonals":
        return Diagonals(self.n, [(-p, v) for p, v in reversed(self.items())])

    def diagonal(self, offset: int = 0) -> np.ndarray:
        """The entries of one diagonal, as `ndarray.diagonal` reads them."""
        v = self.get(offset)
        return np.zeros(self.n - abs(offset), dtype=complex) if v is None else v

    def __matmul__(self, other: "Diagonals") -> "Diagonals":
        n, out = self.n, {}
        for p, a in self.items():
            for q, b in other.items():
                r = p + q
                # rows i with a[i, i+p], b[i+p, i+r] and out[i, i+r] all inside
                lo, hi = max(0, -p, -r), min(n, n - p, n - r)
                if lo < hi:
                    ia, ib = lo - max(0, -p), lo + p - max(0, -q)
                    term = a[ia:ia + hi - lo] * b[ib:ib + hi - lo]
                    if r not in out:
                        out[r] = np.zeros(n - abs(r), dtype=term.dtype)
                    out[r][lo - max(0, -r):hi - max(0, -r)] += term
        return Diagonals(n, sorted(out.items()))

    def __add__(self, other: "Diagonals") -> "Diagonals":
        out = dict(self)
        for q, v in other.items():
            out[q] = out[q] + v if q in out else v
        return Diagonals(self.n, sorted(out.items()))

    def __sub__(self, other: "Diagonals") -> "Diagonals":
        out = dict(self)
        for q, v in other.items():
            out[q] = out[q] - v if q in out else -v
        return Diagonals(self.n, sorted(out.items()))

    def __rmul__(self, c: complex) -> "Diagonals":
        return Diagonals(self.n, {p: c * v for p, v in self.items()})


def operand(a):
    """The form a check computes with, of a square array or of the matrix
    with the diagonals {offset: vector} (ascending, at least one): below
    DIAGONAL_PRODUCT_MIN_N the dense array (a itself when it is one), from
    there on its Diagonals.

    Below the size a matrix given by diagonals is built with `np.diag`,
    which its ladders already went through, and no Diagonals, generator or
    Python scalar sum runs: in a freshly forked CLI process the first use of
    each costs page faults and tens of microseconds, and the small
    operations set the benchmark's median.
    """
    if not isinstance(a, dict):  # a square array
        return a if len(a) < DIAGONAL_PRODUCT_MIN_N else Diagonals.of(a)
    diagonals = iter(a.items())
    p, v = next(diagonals)
    if len(v) + abs(p) >= DIAGONAL_PRODUCT_MIN_N:
        return Diagonals(len(v) + abs(p), a)
    out = np.diag(v, p)
    for p, v in diagonals:
        out = out + np.diag(v, p)
    return out


def power(a, k: int):
    """a**k for an operand and k >= 1, squaring in the order numpy's own
    matrix power multiplies."""
    if k < 1:
        raise ValueError(f"power must be at least 1, got {k}")
    result = None
    while True:
        k, bit = divmod(k, 2)
        if bit:
            result = a if result is None else result @ a
        if not k:
            return result
        a = a @ a


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
    one, shift, clock = operand(eye), operand(pair.sigma1), operand(pair.sigma2)
    diff = pair.pmat - p_closed_form(n)
    res = {
        "sigma1_pow_n": inf_norm(power(shift, n) - one),
        "sigma2_pow_n": inf_norm(power(clock, n) - one),
        "s_unitary": inf_norm(pair.smat.conj().T @ pair.smat - eye),
        "weyl_relation": inf_norm(shift @ clock - (pair.omega * clock) @ shift),
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
