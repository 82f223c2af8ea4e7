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


@functools.lru_cache(maxsize=4)
def _index_table(lattice: PitLattice) -> tuple[np.ndarray, np.ndarray]:
    """Per-basis-index profit and violation counts, int64 (cached).

    Built bit by bit by doubling: bit k's half of the table is the lower half
    plus w_k, and each pair whose higher index is k adds its term to the half
    where it applies, so no 2^n x n bit matrix is formed.  A few lattices
    stay cached; each pair of 2^20 tables takes 16 MB.
    """
    from .simulator import _pair_views  # the simulator imports this module

    n = lattice.n
    if n > QUBIT_CAP:
        raise ResourceWarning(f"enumeration needs 2^{n} entries (cap {QUBIT_CAP})")
    p = np.zeros(1 << n, dtype=np.int64)
    s = np.zeros(1 << n, dtype=np.int64)
    pairs_at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for child, parent in lattice.pairs():
        pairs_at[max(child, parent)].append((child, parent))
    for k, w in enumerate(lattice.profits):
        low, high = slice(0, 1 << k), slice(1 << k, 2 << k)
        p[high] = p[low] + w
        s[high] = s[low]
        for child, parent in pairs_at[k]:
            # z_child (1 - z_parent): the other block's bit picks every other
            # run of its 2^bit indices in the half where z_k makes the term live
            if child == k:  # z_k = 1, parent bit 0
                live, _ = _pair_views(s[high], -1, parent)
            else:  # parent == k: z_k = 0, child bit 1
                _, live = _pair_views(s[low], -1, child)
            live += 1
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
