"""Random cells for the exact layer: identities checked off the verify grid.

Every delta operator of the verify grid has a_1 = +-1 and every psi table
there is a built-in one, so a fault that only shows at other values passes
`verify`.  A cell here is a delta operator whose a_1 is any nonzero value
in Q(q), with a finite or rule-backed tail, over a built-in table or a
random finite custom one, and a random operator table to expand.  The draw
is derandomized, so every run checks the same cells.

`tests/test_mutants.py` runs `test_random_cells` as the catcher of the
mutants that no verify suite sees.
"""

from __future__ import annotations

from hypothesis import Phase, example, given, settings, strategies as st

from psicalc.expansion import expand_operator, qmutator_check, reconstruct_operator
from psicalc.operators import DeltaOperator
from psicalc.poly import Poly
from psicalc.psi import BUILTIN_PSIS, by_name, classic, custom
from psicalc.ratfun import ONE, ZERO, RationalFunction, rf
from psicalc.sequences import (
    BASIC_BUILDERS,
    basic_sequence,
    binomial_residuals,
    lowering_residuals,
)

N_MAX = 5
ints = st.integers(min_value=-3, max_value=3)


@st.composite
def values(draw, nonzero=False):
    """A small value of Q(q): constant, polynomial or a ratio of polynomials."""
    num = draw(st.lists(ints, min_size=1, max_size=3))
    if nonzero and not any(num):
        num[-1] = draw(st.sampled_from([-2, -1, 1, 2, 3]))
    den = draw(st.lists(ints, min_size=1, max_size=2).filter(any))
    return RationalFunction(Poly(num), Poly(den))


@st.composite
def cells(draw):
    """(Q, N, T): a delta operator, the top index N and a table on x^0 ... x^N."""
    n_top = draw(st.integers(min_value=1, max_value=N_MAX))
    if draw(st.booleans()):
        psi = by_name(draw(st.sampled_from(sorted(BUILTIN_PSIS))))
    else:
        # psi_1 ... psi_N and up to two entries past them, which nothing reads
        rest = draw(st.lists(values(nonzero=True), min_size=n_top, max_size=n_top + 2))
        psi = custom("random", [ONE, *rest])
    a1 = draw(values(nonzero=True))
    if draw(st.booleans()):
        tail = draw(st.lists(values(), max_size=4))
        Q = DeltaOperator(psi, [ZERO, a1, *tail])
    else:
        c, r = draw(values()), draw(values())
        Q = DeltaOperator(psi, [ZERO, a1], lambda k: c * r ** (k - 2))
    T = tuple(Poly([draw(values()) for _ in range(j + 1)]) for j in range(n_top + 1))
    return Q, n_top, T


def _cell(psi, coeffs, n_top):
    """An explicit cell with the identity table on x^0 ... x^n_top."""
    Q = DeltaOperator(psi, [rf(c) for c in coeffs])
    return Q, n_top, tuple(Poly([ZERO] * j + [ONE]) for j in range(n_top + 1))


@given(cells())
# a_1 = 2: the four closed constructions disagree with a solve that
# multiplies by a_1 where it should divide
@example(_cell(classic(), [0, 2, 1], 4))
# No shrink phase: as a mutant's catcher the test must fail within its
# budget, and a failing cell reads as drawn.
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
def test_random_cells(cell):
    Q, n_top, T = cell
    basic = basic_sequence(Q, n_top, "solve")
    for method in BASIC_BUILDERS:
        assert basic_sequence(Q, n_top, method) == basic, method
    assert not any(lowering_residuals(Q, basic))
    assert not any(binomial_residuals(Q.psi, basic, basic))
    assert reconstruct_operator(expand_operator(T, Q, basic), Q, basic) == T
    # The bracket at p_0 is Q xhat_Q p_0 - p_0 = (1_psi - 1) p_0, zero only
    # where 1_psi = psi_0/psi_1 is 1, as in every built-in table.
    first, *rest = qmutator_check(Q, basic)
    assert first == Poly([Q.psi.number(1) - ONE])
    assert not any(rest)
