"""Generalized Pauli (clock and shift) pair with the Sylvester transform.

For dimension n and omega = exp(2*pi*i/n): sigma1 is the cyclic shift,
sigma2 the diagonal clock omega^Q with Q = diag(0..n-1), and the unitary
Sylvester matrix (omega^{kl}/sqrt(n)) conjugates the clock into the adjoint
shift.  P = S^dagger Q S realizes sigma1^dagger as omega^P.

Also home to what the numeric layer shares: the entrywise sup norm every
residual is measured in, the check record `su2q` and this module return,
and `Diagonals`, the form of the banded matrices from build to print.  The
clock and the shift here, and J3, J+ and J- in `su2q`, are built as their
diagonals, checked at every size and printed from them; S, P and omega^P
stay dense arrays.
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

    @property
    def T(self) -> "Diagonals":
        return Diagonals(self.n, [(-p, v) for p, v in reversed(self.items())])

    def diagonal(self, offset: int = 0) -> np.ndarray:
        """The entries of one diagonal, as `ndarray.diagonal` reads them."""
        v = self.get(offset)
        return np.zeros(self.n - abs(offset), dtype=complex) if v is None else v

    def toarray(self) -> np.ndarray:
        """The dense n x n complex array, zero off the diagonals."""
        n = self.n
        out = np.zeros((n, n), dtype=complex)
        for p, v in self.items():  # diagonal p starts at flat index p, or -p rows down
            out.reshape(-1)[p if p >= 0 else -p * n::n + 1][:len(v)] = v
        return out

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


def power(a, k: int):
    """a**k for Diagonals (or an array) and k >= 1, squaring in the order
    numpy's own matrix power multiplies."""
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


def cyclic_shift(n: int) -> Diagonals:
    """Ones on the superdiagonal plus a bottom-left corner entry."""
    ones = np.ones(n, dtype=complex)
    return Diagonals(n, {1 - n: ones[:1], 1: ones[1:]})


def sylvester_matrix(n: int) -> np.ndarray:
    """(omega^{kl} / sqrt(n)), read from one table of the n roots at kl mod n."""
    k = np.arange(n)
    roots = np.exp(2j * np.pi * k / n) / np.sqrt(n)
    return roots[np.outer(k, k) % n]


@dataclass(frozen=True, eq=False)
class WeylPair:
    n: int
    omega: complex
    sigma1: Diagonals  # the shift
    sigma2: Diagonals  # the clock
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
    clock = np.exp(2j * np.pi * np.arange(n) / n)  # sigma2's diagonal, omega^k
    smat = sylvester_matrix(n)
    sdag = smat.conj().T
    # a diagonal factor scales the columns of S^dagger
    pmat = (sdag * np.arange(n)) @ smat
    omega_p = (sdag * clock) @ smat
    return WeylPair(n, omega, cyclic_shift(n), Diagonals(n, {0: clock}), pmat, smat, omega_p)


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
    one = Diagonals(n, {0: np.ones(n, dtype=complex)})
    shift, clock = pair.sigma1, pair.sigma2
    res = {"sigma1_pow_n": inf_norm(power(shift, n) - one),
           "sigma2_pow_n": inf_norm(power(clock, n) - one)}
    # Each dense residual is one n x n array, differenced in place and
    # freed before the next (subtracting 0 off the diagonal keeps its bits).
    diff = pair.smat.conj().T @ pair.smat
    diff.flat[::n + 1] -= 1.0  # the diagonal
    res["s_unitary"] = inf_norm(diff)
    del diff
    res["weyl_relation"] = inf_norm(shift @ clock - (pair.omega * clock) @ shift)
    diff = shift.T.toarray()  # a dense copy of the adjoint, to hold the difference
    np.conjugate(diff, out=diff)
    np.subtract(pair.omega_p, diff, out=diff)
    res["omega_p_vs_shift"] = inf_norm(diff)
    del diff
    diff = p_closed_form(n)
    np.subtract(pair.pmat, diff, out=diff)
    np.fill_diagonal(diff, 0.0)
    res["p_offdiagonal"] = inf_norm(diff)
    res["p_diagonal"] = inf_norm(np.diag(pair.pmat) - (n - 1) / 2.0)
    return NumericCheck("weyl", {"n": n}, res, WEYL_CONVENTION,
                        all(res[k] <= WEYL_GATES[k] for k in res))


def shift_spectrum_residual(pair: WeylPair) -> float:
    """Largest |det(omega^k I - sigma1)| over the n-th roots of unity."""
    n, shift = pair.n, pair.sigma1.toarray()
    worst = 0.0
    for k in range(n):
        lam = np.exp(2j * np.pi * k / n)
        worst = max(worst, abs(np.linalg.det(lam * np.eye(n, dtype=complex) - shift)))
    return worst
