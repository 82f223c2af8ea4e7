"""Seeded graded-ore cross-sections and an independent ultimate-pit reference.

A lattice is a stack of rows, surface first, each row a run of columns
starting at column 0.  Ore grade rises with depth and falls off with the
horizontal distance from a seeded centre column; profit is grade minus a
flat mining cost plus seeded noise, rounded to an integer.

``max_closure`` solves the ultimate-pit problem exactly as a maximum
closure (Picard 1976) by one s-t minimum cut, so the benchmark can check
the program's enumeration oracle against a reference that shares no code
with it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from pitvqe.lattice import PitLattice, make_lattice

GRADE_PER_ROW = 4.0
ORE_SPREAD = 1.2  # standard deviation of the ore body across columns
MINING_COST = 3.0
NOISE = 1.0
MAX_DRAWS = 1000


def max_closure(lattice: PitLattice) -> tuple[int, tuple[int, ...]]:
    """Maximum feasible profit and one optimal pit profile (0/1 per block).

    Source -> block edges carry positive profits, block -> sink edges carry
    negative ones, and child -> parent edges are uncuttable; the blocks left
    on the source side of a minimum cut form a maximum-profit closed set.
    """
    n = lattice.n
    source, sink = n, n + 1
    profits = lattice.profits
    positive = sum(w for w in profits if w > 0)
    uncuttable = positive + sum(-w for w in profits if w < 0) + 1
    cap = np.zeros((n + 2, n + 2), dtype=np.int32)
    for i, w in enumerate(profits):
        if w > 0:
            cap[source, i] = w
        elif w < 0:
            cap[i, sink] = -w
    for child, parent in lattice.pairs():
        cap[child, parent] = uncuttable
    flow = maximum_flow(csr_matrix(cap), source, sink)
    residual = cap - flow.flow.toarray()
    reached = np.zeros(n + 2, dtype=bool)
    reached[source] = True
    frontier = [source]
    while frontier:
        u = frontier.pop()
        for v in np.flatnonzero((residual[u] > 0) & ~reached):
            reached[v] = True
            frontier.append(int(v))
    profile = tuple(int(reached[i]) for i in range(n))
    return positive - int(flow.flow_value), profile


def exact_gamma(lattice: PitLattice) -> Fraction:
    """A penalty whose ground states are exactly the optimal pits.

    Any profile that breaks a slope constraint costs at least
    -P(z) + gamma > 0 when gamma exceeds the sum of positive profits, while
    the empty pit already costs 0, so no infeasible profile can tie or beat
    the best feasible one.
    """
    return Fraction(1 + sum(w for w in lattice.profits if w > 0))


def graded_ore(rng: np.random.Generator, widths: tuple[int, ...]) -> PitLattice:
    """Draw ore cross-sections until one has a non-trivial optimal pit.

    A draw is rejected when the best pit is worth nothing (P_opt = 0) or
    when excavating every block is optimal; either makes the instance a
    one-line answer.
    """
    for _ in range(MAX_DRAWS):
        centre = rng.uniform(0.0, max(widths) - 1.0)
        rows = []
        for r, width in enumerate(widths):
            cols = np.arange(width)
            grade = GRADE_PER_ROW * (r + 1) * np.exp(
                -((cols - centre) ** 2) / (2.0 * ORE_SPREAD**2)
            )
            noise = rng.normal(0.0, NOISE, size=width)
            profit = np.rint(grade - MINING_COST + noise).astype(int)
            rows.append([(int(c), int(w)) for c, w in zip(cols, profit)])
        lattice = make_lattice(rows)
        best, _ = max_closure(lattice)
        if 0 < best and best != sum(lattice.profits):
            return lattice
    raise RuntimeError(f"no non-trivial lattice in {MAX_DRAWS} draws for {widths}")
