"""Exact deformed finite operator calculus with a numeric Clifford/spin side.

Exact layer: rational functions of the deformation symbol q, psi-number
tables, the deformed derivative and raising maps, shift-invariant operator
series, delta operators with their basic and Sheffer sequences, operator
expansion in a delta operator, and the quantum-plane no-go construction.

Numeric layer: deformed angular-momentum matrices, their commutation and
polar-decomposition checks, and the generalized Pauli clock/shift pair
diagonalized by the Sylvester matrix.
"""

__version__ = "0.1.0"
