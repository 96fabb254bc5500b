"""Additive conjucyclic codes over GF(q^2), built from q-ary cyclic codes.

Exact arithmetic throughout: field towers GF(q) <= GF(q^2) with canonical
(Conway) moduli, factorization of x^(2n) - 1, cyclic codes and their
symplectic duals, the trace-pair expansion linking conjucyclic codes of
length n to cyclic codes of length 2n, alternating duals, largest cyclic
subcodes, exhaustive weight distributions, and derived quantum
stabilizer-code parameters.
"""

from .conju import (
    ConjucyclicCode,
    alternating_inner,
    conjucyclic_shift,
    contract,
    expand,
    is_alternating_dual_containing,
    is_conjucyclic,
    largest_cyclic_subcode,
    trace_pair,
)
from .cyclic import CyclicCode, symplectic_swap
from .errors import (
    BudgetExceededError,
    ConjucyclicError,
    FieldTooLargeError,
    LengthMismatchError,
    NoPrimitivePolynomialError,
    NotADivisorError,
    NotDualContainingError,
    NotPrimeError,
    OddLengthError,
    WrongCharacteristicError,
    ZeroConstantTermError,
)
from .field import FieldTower, build_tower, tower_for_q
from .poly import (
    Factorization,
    enumerate_divisors,
    factor_x2n_minus_1,
    monic_reciprocal,
)
from .weights import (
    DEFAULT_BUDGET,
    StabilizerParams,
    WeightDistribution,
    stabilizer_params,
    weight_distribution,
)

__all__ = [
    "BudgetExceededError",
    "ConjucyclicCode",
    "ConjucyclicError",
    "CyclicCode",
    "DEFAULT_BUDGET",
    "Factorization",
    "FieldTower",
    "FieldTooLargeError",
    "LengthMismatchError",
    "NoPrimitivePolynomialError",
    "NotADivisorError",
    "NotDualContainingError",
    "NotPrimeError",
    "OddLengthError",
    "StabilizerParams",
    "WeightDistribution",
    "WrongCharacteristicError",
    "ZeroConstantTermError",
    "alternating_inner",
    "build_tower",
    "conjucyclic_shift",
    "contract",
    "enumerate_divisors",
    "expand",
    "factor_x2n_minus_1",
    "is_alternating_dual_containing",
    "is_conjucyclic",
    "largest_cyclic_subcode",
    "monic_reciprocal",
    "stabilizer_params",
    "symplectic_swap",
    "tower_for_q",
    "trace_pair",
    "weight_distribution",
]

__version__ = "0.1.0"
