"""Exact classical reference by exhaustive enumeration.

Valid at desk scale (n <= 20): finds the maximum feasible profit, the set of
optimal profiles, and the exact minimum of the penalized cost, all in exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hamiltonian import QUBIT_CAP, _index_table
from .lattice import PitLattice


@dataclass(frozen=True)
class OracleResult:
    p_opt_value: int
    optimal_set: frozenset[int]  # basis indices of optimal feasible profiles
    ground_cost: Fraction
    ground_set: frozenset[int]  # argmin indices of the penalized cost


def enumerate_lattice(lattice: PitLattice, gamma: Fraction) -> OracleResult:
    """Scan all 2^n bitstrings exactly."""
    if lattice.n > QUBIT_CAP:
        raise ResourceWarning(
            f"enumeration over 2^{lattice.n} strings exceeds cap {QUBIT_CAP}"
        )
    gamma = Fraction(gamma)
    p, s = _index_table(lattice)
    feasible = s == 0
    p_opt = int(p[feasible].max())
    optimal = np.flatnonzero(feasible & (p == p_opt))
    # cost * denominator stays integral, so min/argmin are exact
    scaled = -p * gamma.denominator + gamma.numerator * s
    ground_scaled = int(scaled.min())
    ground = np.flatnonzero(scaled == ground_scaled)
    return OracleResult(
        p_opt_value=p_opt,
        optimal_set=frozenset(int(i) for i in optimal),
        ground_cost=Fraction(ground_scaled, gamma.denominator),
        ground_set=frozenset(int(i) for i in ground),
    )


def p_opt(dist: np.ndarray, oracle: OracleResult) -> float:
    """Probability mass on optimal feasible profiles."""
    dist = np.asarray(dist, dtype=float)
    idx = sorted(oracle.optimal_set)
    if idx and idx[-1] >= dist.size:
        raise ValueError("distribution smaller than the oracle's outcome space")
    return float(dist[idx].sum())


def violation_probability(dist: np.ndarray, lattice: PitLattice) -> float:
    """Probability mass on profiles that violate smoothness."""
    dist = np.asarray(dist, dtype=float)
    if dist.size != 1 << lattice.n:
        raise ValueError(
            f"distribution over {dist.size} outcomes, lattice needs {1 << lattice.n}"
        )
    _, s = _index_table(lattice)
    return float(dist[s > 0].sum())
