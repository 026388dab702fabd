"""The tests' readers between `weyl.Diagonals` and dense arrays.

Both are built from numpy indexing alone, apart from the `Diagonals`
methods that the tests check against them.
"""

import numpy as np

from psicalc.weyl import Diagonals


def dense(x: Diagonals) -> np.ndarray:
    """The n x n complex array of x, every entry's bits as x holds them."""
    out = np.zeros((x.n, x.n), dtype=complex)
    for p, v in x.items():
        k = np.arange(len(v))
        out[k + max(0, -p), k + max(0, p)] = v
    return out


def diagonals_of(a) -> Diagonals:
    """The diagonals of the square array a that hold nonzero bits (so -0.0
    counts), as complex copies."""
    n, c = len(a), np.asarray(a, dtype=complex)
    held = ((p, np.ascontiguousarray(c.diagonal(p))) for p in range(1 - n, n))
    return Diagonals(n, {p: v for p, v in held if v.view(np.int64).any()})
