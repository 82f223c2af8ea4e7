"""Diagonal penalty Hamiltonian C(z) = -P(z) + gamma * S(z).

The operator is diagonal in the computational basis, so it is represented as
a cost function over bitstrings; gamma is kept as an exact Fraction so that
third-integer penalty values stay exact until expectation evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .lattice import PitLattice, profit, smoothness

# Largest qubit count any module allocates 2^n entries for.
QUBIT_CAP = 20


@dataclass(frozen=True)
class DiagonalCost:
    lattice: PitLattice
    gamma: Fraction

    def __post_init__(self):
        g = Fraction(self.gamma)
        if g < 0:
            raise ValueError(f"penalty gamma must be >= 0, got {g}")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "_dense_cache", {})

    @property
    def n(self) -> int:
        return self.lattice.n

    def cost(self, z: Sequence[int]) -> Fraction:
        """Exact cost -profit + gamma * violations of a single bitstring."""
        return -profit(self.lattice, z) + self.gamma * smoothness(self.lattice, z)

    def profit_vector(self) -> np.ndarray:
        """P(z) for every basis index z, as int64; bit i of the index is z_i."""
        return _index_table(self.lattice)[0]

    def smoothness_vector(self) -> np.ndarray:
        """S(z) for every basis index z, as int64."""
        return _index_table(self.lattice)[1]

    def dense_diagonal(self) -> np.ndarray:
        """Materialize cost over all 2^n basis indices as float64.

        Index convention: bit i of the index equals z_i (qubit 0 least
        significant).  Cached; capped at 2^20 amplitudes.
        """
        cached = self._dense_cache.get("diag")
        if cached is None:
            if self.n > QUBIT_CAP:
                raise ResourceWarning(
                    f"dense diagonal needs 2^{self.n} entries (cap n <= {QUBIT_CAP})"
                )
            p, s = _index_table(self.lattice)
            cached = -p.astype(np.float64) + float(self.gamma) * s.astype(np.float64)
            self._dense_cache["diag"] = cached
        return cached


@functools.lru_cache(maxsize=64)
def _index_table(lattice: PitLattice) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-basis-index profit and violation counts (cached)."""
    n = lattice.n
    if n > QUBIT_CAP:
        raise ResourceWarning(f"enumeration needs 2^{n} entries (cap {QUBIT_CAP})")
    idx = np.arange(1 << n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1
    p = bits @ np.asarray(lattice.profits, dtype=np.int64)
    s = np.zeros(1 << n, dtype=np.int64)
    for i, j in lattice.pairs():
        s += bits[:, i] * (1 - bits[:, j])
    return p, s


def penalty_heuristic(lattice: PitLattice) -> Fraction:
    """Initial penalty max_i (w_i - sum of parents' w_j) / 3."""
    if lattice.n == 0:
        raise ValueError("empty lattice")
    best = max(
        b.profit - sum(lattice.blocks[j].profit for j in lattice.parent_lists[i])
        for i, b in enumerate(lattice.blocks)
    )
    return Fraction(best, 3)


def index_to_bits(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> i) & 1 for i in range(n))


def bits_to_index(z: Sequence[int]) -> int:
    return sum(int(zi) << i for i, zi in enumerate(z))
