"""Exact deformed finite operator calculus with a numeric Clifford/spin side.

Exact layer: rational functions of the deformation symbol q, psi-number
tables, the deformed derivative and raising maps, shift-invariant operator
series, delta operators with their basic and Sheffer sequences, operator
expansion in a delta operator, and the quantum-plane no-go construction.

Numeric layer: deformed angular-momentum matrices, their commutation and
polar-decomposition checks, and the generalized Pauli clock/shift pair
diagonalized by the Sylvester matrix.
"""

from .expansion import dual_xhat, expand_operator, qmutator_check, reconstruct_operator
from .operators import (
    DeltaOperator,
    OperatorSeries,
    delta_by_name,
    derivative_delta,
    exp_series,
    exp_sq_series,
    laguerre_delta,
    laguerre_scaling,
    quadratic_delta,
    series,
    shifted_delta,
)
from .plane import b_sequence, binomial_nogo, commutation_check, smallest_witness
from .poly import Poly
from .psi import (
    PsiSequence,
    by_name,
    classic,
    custom,
    fibonacci,
    jackson_quotient,
    monomial,
    psi_derivative,
    qgauss,
    square,
    translate,
    xhat_psi,
)
from .ratfun import QSYM, RationalFunction, parse_ratfun, rf
from .sequences import (
    basic_sequence,
    binomial_residuals,
    lowering_residuals,
    q_laguerre_closed,
    sheffer_sequence,
)
from .su2q import SpinRep, polar_decompose, q_bracket, su2_build, su2_commutator_check
from .verify import run_suites
from .weyl import WeylPair, weyl_build, weyl_check

__version__ = "0.1.0"
