"""Mean-field domain decomposition.

The lattice is split into disjoint fragments; each fragment keeps its own
small variational circuit, and parent-child pairs severed by the cut enter
the fragment's effective cost through the mean <Z> value of the out-of-
fragment block.  A sweep performs one optimizer iteration per fragment and
updates the mean fields, repeated to self-consistency.

Entanglement enters only in fragments with intra pairs, whose circuits carry
controlled rotations; they run on statevectors.  A fragment without one is
one Ry per qubit, a product state, and its effective cost is affine in the
bits, so ``ProductObjective`` gives its cost, gradient and mean fields in
closed form, with no 2^size vector.  Every row fragment is one, since a
parent is always one row up.  With every fragment a product state, the
mean-field energy is the multilinear extension of the cost C(z), taken at
the excavation probabilities, so a horizontal sweep is block coordinate
descent on that extension: a classical naive mean field, which exercises no
entanglement.  Entangled fragments, such as 2x2 tiles of the paper's
4-qubit shape, are what the quantum circuits add.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ansatz import ParamCircuit, build_circuit, prepare
from .hamiltonian import QUBIT_CAP
from .lattice import PitLattice, content_lines
from .simulator import (
    _INIT_MATRIX, InitKind, StateVector, excavation_probabilities, probabilities,
)
from .vqe import DescentState, Objective, Optimizer, _row_costs

INIT_PARAM_RANGE = (0.0, np.pi / 10)  # initial parameters drawn uniformly
BOUNDS = (0.0, np.pi)  # box bounds on every fragment parameter
TOLERANCE = 1e-6  # energy change between sweeps that counts as converged
KICK_EPSILON = 1e-3  # parameters this close to a bound get kicked inward
KICK_TEMPERATURE = 0.1  # ... by a uniform draw from (0, KICK_TEMPERATURE]


@dataclass(frozen=True)
class Partition:
    fragments: tuple[tuple[int, ...], ...]  # sorted block ids per fragment

    def __post_init__(self):
        frags = tuple(tuple(sorted(f)) for f in self.fragments)
        object.__setattr__(self, "fragments", frags)
        seen: set[int] = set()
        for f in frags:
            if not f:
                raise ValueError("empty fragment")
            if len(set(f)) < len(f):
                raise ValueError(f"fragment {f} lists a block twice")
            overlap = seen.intersection(f)
            if overlap:
                raise ValueError(f"blocks {sorted(overlap)} appear in two fragments")
            seen.update(f)

    @property
    def fragment_of(self) -> dict[int, int]:
        return {b: a for a, f in enumerate(self.fragments) for b in f}


def partition_horizontal(lattice: PitLattice) -> Partition:
    """One fragment per lattice row."""
    return Partition(tuple(tuple(r) for r in lattice.rows() if r))


def _require_cover(lattice: PitLattice, blocks: Iterable[int]) -> None:
    """Reject block ids that are not exactly the lattice's blocks."""
    expected, got = set(range(lattice.n)), set(blocks)
    if got != expected:
        missing, extra = sorted(expected - got), sorted(got - expected)
        raise ValueError(f"partition mismatch: missing blocks {missing}, "
                         f"extra blocks {extra}")


def partition_custom(lattice: PitLattice, assignment: Mapping[int, int]) -> Partition:
    """Partition from an explicit block -> fragment-id map."""
    _require_cover(lattice, assignment)
    by_frag: dict[int, list[int]] = {}
    for block, frag in assignment.items():
        by_frag.setdefault(frag, []).append(block)
    return Partition(tuple(tuple(sorted(by_frag[a])) for a in sorted(by_frag)))


def load_partition(path, lattice: PitLattice) -> Partition:
    """One fragment per line, whitespace-separated block ids; ``#`` starts a
    comment.  A token that is not an integer raises ValueError naming the
    file and line."""
    frags = []
    with open(path, encoding="ascii") as fh:
        for lineno, text in content_lines(fh):
            try:
                frags.append(tuple(int(tok) for tok in text.split()))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected block ids, got {text!r}") from None
    return partition_custom(lattice, Partition(tuple(frags)).fragment_of)


@dataclass(frozen=True)
class FragmentProblem:
    fragment_id: int
    blocks: tuple[int, ...]  # sorted global block ids; local qubit = position
    intra_pairs: tuple[tuple[int, int], ...]  # (child, parent), both local
    child_in_pairs: tuple[tuple[int, int], ...]  # child global in, parent global out
    child_out_pairs: tuple[tuple[int, int], ...]  # child global out, parent global in
    circuit: ParamCircuit
    profits: tuple[int, ...]  # per local qubit
    # global block ids as index arrays: the fragment's blocks, and the mean
    # fields of the severed pairs, the parents of child_in_pairs then the
    # children of child_out_pairs, with the sign each field takes (+1, -1)
    block_index: np.ndarray = field(repr=False, compare=False)
    field_index: np.ndarray = field(repr=False, compare=False)
    field_sign: np.ndarray = field(repr=False, compare=False)
    _intra_cache: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    @property
    def size(self) -> int:
        return len(self.blocks)

    def local(self, block: int) -> int:
        return self.blocks.index(block)

    def _terms(self, gamma: float):
        """(intra diagonal, pair bits), the parts of ``effective_diagonal`` no
        mean field changes, cached per gamma and read-only: the intra diagonal
        holds the profit and intra-fragment penalty terms, and row k of the
        (pairs, 2^size) pair bits is z_i for child_in pair k, then 1 - z_j for
        each child_out pair."""
        terms = self._intra_cache.get(gamma)
        if terms is None:
            idx = np.arange(1 << self.size, dtype=np.int64)
            bits = (idx[:, None] >> np.arange(self.size)) & 1  # bit k of index
            diag = -(bits @ np.array(self.profits, dtype=float))
            for child, parent in self.intra_pairs:
                diag = diag + gamma * bits[:, self.local(child)] * (
                    1 - bits[:, self.local(parent)]
                )
            children = [self.local(i) for i, _ in self.child_in_pairs]
            parents = [self.local(j) for _, j in self.child_out_pairs]
            pair_bits = np.concatenate((bits[:, children].T, 1 - bits[:, parents].T))
            terms = (diag, pair_bits.astype(float))
            for term in terms:
                term.setflags(write=False)
            self._intra_cache[gamma] = terms
        return terms


def build_fragment_problems(
    lattice: PitLattice, partition: Partition
) -> list[FragmentProblem]:
    """One problem per fragment; the fragments must cover every block (a
    ``Partition`` already lists each block at most once)."""
    _require_cover(lattice, partition.fragment_of)
    problems = []
    for a, blocks in enumerate(partition.fragments):
        members = set(blocks)
        intra, child_in, child_out = [], [], []
        for child, parent in lattice.pairs():
            if child in members and parent in members:
                intra.append((child, parent))
            elif child in members:
                child_in.append((child, parent))
            elif parent in members:
                child_out.append((child, parent))
        qubit_of = {b: k for k, b in enumerate(blocks)}
        circuit = build_circuit(lattice, pair_filter=intra, qubit_of=qubit_of)
        problems.append(
            FragmentProblem(
                fragment_id=a,
                blocks=tuple(blocks),
                intra_pairs=tuple(intra),
                child_in_pairs=tuple(child_in),
                child_out_pairs=tuple(child_out),
                circuit=circuit,
                profits=tuple(lattice.blocks[b].profit for b in blocks),
                block_index=np.array(blocks, dtype=np.int64),
                field_index=np.array([j for _, j in child_in] + [i for i, _ in child_out],
                                     dtype=np.int64),
                field_sign=np.repeat((1.0, -1.0), (len(child_in), len(child_out))),
            )
        )
    return problems


def effective_diagonal(
    fp: FragmentProblem, mean_z: np.ndarray, gamma: float,
    include_child_out: bool = True,
) -> np.ndarray:
    """Dense effective cost over the fragment's local basis.

    ``mean_z`` holds <Z_b> for every block b of the lattice.  Mean fields
    replace the out-of-fragment end of each severed pair:
    a severed child i inside the fragment contributes z_i (1 + <Z_j>)/2 and a
    severed parent j inside contributes (1 - <Z_i>)/2 (1 - z_j).  The trace
    reported per fragment books each severed pair on the child's side, which
    is what ``include_child_out=False`` computes.

    A pair term is its bit row times the coefficient gamma (1 +- <Z>) / 2:
    for a bit of 0 or 1 that is the float, signed zero included, of gamma
    times the bit times (1 +- <Z>), halved.  A running sum adds the terms
    one at a time, in pair order.
    """
    diag, pair_bits = fp._terms(gamma)
    pairs = len(pair_bits) if include_child_out else len(fp.child_in_pairs)
    if not pairs:
        return diag
    coef = fp.field_sign[:pairs] * mean_z.take(fp.field_index[:pairs])
    coef += 1.0
    coef *= gamma
    coef /= 2.0
    terms = np.empty((pairs + 1, diag.size))
    terms[0] = diag
    np.multiply(pair_bits[:pairs], coef[:, None], out=terms[1:])
    return np.add.accumulate(terms)[-1]


def fragment_mean_fields(fp: FragmentProblem, state: StateVector) -> np.ndarray:
    """<Z_b> for every block of the fragment from its local state, in
    ``fp.blocks`` order."""
    return 1.0 - 2.0 * excavation_probabilities(state)


def _fragment_energy(fp: FragmentProblem, state: StateVector,
                     mean_z: np.ndarray, gamma: float) -> float:
    """A fragment's part of ``total_energy``: its intra-fragment terms exactly,
    its severed pairs on the child's side."""
    diag = effective_diagonal(fp, mean_z, gamma, include_child_out=False)
    return float(np.dot(probabilities(state), diag))


def total_energy(
    problems: Sequence[FragmentProblem],
    states: Sequence[StateVector],
    gamma: float,
) -> float:
    """Global mean-field energy with each severed pair counted once."""
    if len(states) != len(problems):
        raise ValueError("one state per fragment required")
    mean_z = np.empty(sum(fp.size for fp in problems))
    for fp, st in zip(problems, states):
        mean_z[fp.block_index] = fragment_mean_fields(fp, st)
    total = 0.0
    for fp, st in zip(problems, states):
        total += _fragment_energy(fp, st, mean_z, gamma)
    return total


class ProductObjective:
    """A fragment without intra pairs as ``Objective`` sees it, in closed form.

    Such a fragment's circuit is one Ry per qubit, so its state is a product
    state, and its effective cost is affine in the bits: C(z) = d0 +
    sum_i c_i z_i.  For the init's single-qubit state (u0, u1) = (cos phi,
    sin phi), qubit i is 1 with amplitude a_i = u1 cos(t_i/2) + u0 sin(t_i/2),
    taken as the statevector's leading layer takes it, so the cost is d0 +
    sum_i c_i a_i^2, the mean field <Z_i> = 1 - 2 a_i^2 and the gradient
    c_i a_i (u0 cos(t_i/2) - u1 sin(t_i/2)) = c_i sin(t_i + 2 phi) / 2: no
    2^size vector until ``state``.

    c and d0 are affine in the mean fields of the severed pairs: pair k's
    coefficient gamma (1 + s_k <Z>) / 2, ``effective_diagonal``'s, enters c
    with sign s_k at the pair's end inside the fragment (+1 for a
    child_in pair's child, -1 for a child_out pair's parent), and d0 for a
    child_out pair.  So (c, d0) is a constant plus a (size + 1, pairs)
    matrix times those fields, both built once.  ``values``, ``record``,
    ``__call__`` and ``gradient`` are ``Objective``'s; each block row's cost
    is taken by ``_row_costs``'s ddot and a call is a block of one, so both
    agree bitwise.
    """

    def __init__(self, fp: FragmentProblem, gamma: float, init: InitKind):
        self.fp, self.init, self.n = fp, init, fp.size
        (self._u0, _), (self._u1, _) = _INIT_MATRIX[init].tolist()
        self._twice_phase = 2.0 * np.arctan2(self._u1, self._u0)
        pairs, n_in = len(fp.field_index), len(fp.child_in_pairs)
        ends = [fp.local(i) for i, _ in fp.child_in_pairs]
        ends += [fp.local(j) for _, j in fp.child_out_pairs]
        signed = np.zeros((fp.size + 1, pairs))  # rows: c, then d0
        signed[ends, np.arange(pairs)] = fp.field_sign
        signed[-1, n_in:] = 1.0
        half, profit = gamma / 2.0, -np.array(fp.profits, dtype=float)
        weights = half * signed * fp.field_sign
        self._fields = np.append(profit, 0.0) + half * signed.sum(axis=1), weights
        # the trace books child_in pairs only, and so has no d0
        self._trace_fields = (profit + half * signed[:-1, :n_in].sum(axis=1),
                              weights[:-1, :n_in].copy(), fp.field_index[:n_in])
        self.c, self.d0 = profit, 0.0

    def set_fields(self, mean_z: np.ndarray) -> None:
        base, weights = self._fields
        cost = base + weights @ mean_z.take(self.fp.field_index)
        self.c, self.d0 = cost[:-1], float(cost[-1])

    def _excavated(self, params: np.ndarray) -> np.ndarray:
        """a_i per qubit, for one parameter row or a block of them."""
        half = params / 2.0
        return self._u1 * np.cos(half) + self._u0 * np.sin(half)

    def values(self, rows: np.ndarray) -> list[float]:
        d0 = self.d0
        return [v + d0 for v in _row_costs(self._excavated(rows), self.c)]

    def record(self, params: np.ndarray, value: float) -> float:
        return value

    def __call__(self, params: np.ndarray) -> float:
        return self.record(params, self.values(params[None])[0])

    def gradient(self, params: np.ndarray) -> np.ndarray:
        return self.c / 2.0 * np.sin(params + self._twice_phase)

    def mean_fields(self, params: np.ndarray) -> np.ndarray:
        a = self._excavated(params)
        return 1.0 - 2.0 * (a * a)

    def trace_energy(self, params: np.ndarray, mean_z: np.ndarray) -> float:
        """``_fragment_energy``: severed pairs on the child's side only."""
        base, weights, index = self._trace_fields
        a = self._excavated(params)
        return float(np.dot(a * a, base + weights @ mean_z.take(index)))

    def state(self, params: np.ndarray) -> StateVector:
        return prepare(self.fp.circuit, params, self.init)


class _StateObjective(Objective):
    """A fragment with intra pairs: its statevector under the effective
    diagonal, with ``ProductObjective``'s fragment methods.  Its ``state``
    is the amplitudes of the point the last step ended at, so the mean
    fields, the trace row and the final state run no pass of their own."""

    def __init__(self, fp: FragmentProblem, gamma: float, init: InitKind):
        super().__init__(fp.circuit, None, init)
        self.fp, self.gamma = fp, gamma

    def set_fields(self, mean_z: np.ndarray) -> None:
        self.diag = effective_diagonal(self.fp, mean_z, self.gamma)

    def mean_fields(self, params: np.ndarray) -> np.ndarray:
        return fragment_mean_fields(self.fp, self.state(params))

    def trace_energy(self, params: np.ndarray, mean_z: np.ndarray) -> float:
        return _fragment_energy(self.fp, self.state(params), mean_z, self.gamma)

    def state(self, params: np.ndarray) -> StateVector:
        return StateVector(self.n, self.amplitudes(params))


@dataclass(frozen=True)
class ScfConfig:
    init: InitKind = InitKind.SUPERPOSITION
    optimizer: Optimizer = Optimizer.GRADIENT_DESCENT
    seed: int = 0
    max_sweeps: int = 500

    def __post_init__(self):
        if self.optimizer is Optimizer.SPSA:
            raise ValueError("the self-consistent sweep supports gd and qnb only")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")


@dataclass
class ScfResult:
    traces: list[list[float]]  # per sweep: negative local cost per fragment
    energy_trace: list[float]
    final_states: list[StateVector]
    final_distribution: np.ndarray
    sweeps: int
    converged: bool


def boundary_kick(params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Shift parameters within KICK_EPSILON of a bound inward by
    U(0, KICK_TEMPERATURE]."""
    lo, hi = BOUNDS
    out = np.array(params, dtype=float)
    for k, v in enumerate(out.tolist()):
        if v - lo < KICK_EPSILON:
            out[k] = lo + KICK_TEMPERATURE * (1.0 - rng.uniform(0.0, 1.0))
        elif hi - v < KICK_EPSILON:
            out[k] = hi - KICK_TEMPERATURE * (1.0 - rng.uniform(0.0, 1.0))
    return out


def sum_constraint_project(circuit: ParamCircuit, params: np.ndarray) -> np.ndarray:
    """Rescale the circuit's rotation groups whose parameter sum exceeds the
    upper bound; groups with no controlled member are left alone.

    A group has a few members, so its sum and rescale run on Python floats,
    whose arithmetic is numpy's: the sum adds the members in gate order, as
    ``.sum()`` does for fewer than 8 terms.
    """
    upper = BOUNDS[1]
    out = np.array(params, dtype=float)
    values = out.tolist()
    for ids in circuit.shared_rotation_groups:
        total = values[ids[0]]
        for k in ids[1:]:
            total += values[k]
        if total > upper:
            scale = upper / total
            for k, v in zip(ids, [values[k] * scale for k in ids]):
                out[k] = values[k] = v
    return out


def _product_distribution(problems, states, n):
    """Each global basis index's product of fragment probabilities, taken in
    fragment order.  Outer products lay one axis per block, a fragment's
    highest local bit first, and the last one writes through a view of the
    result whose axes are the global bits in that order."""
    factors = [probabilities(st).reshape((2,) * len(fp.blocks))
               for fp, st in zip(problems, states)]
    dist = np.empty(1 << n)
    axes = [n - 1 - b for fp in problems for b in reversed(fp.blocks)]
    prod = functools.reduce(np.multiply.outer, factors[:-1], np.ones(()))
    np.multiply.outer(prod, factors[-1], out=dist.reshape((2,) * n).transpose(axes))
    return dist


def scf_run(
    lattice: PitLattice,
    partition: Partition,
    gamma: Fraction | float,
    config: ScfConfig = ScfConfig(),
) -> ScfResult:
    """Self-consistent sweep: one optimizer iteration per fragment per loop."""
    if lattice.n > QUBIT_CAP:
        raise ResourceWarning(
            f"product distribution needs 2^{lattice.n} entries (cap n <= {QUBIT_CAP})"
        )
    gamma_f = float(gamma)
    problems = build_fragment_problems(lattice, partition)
    rng = np.random.default_rng(config.seed)
    quasi_newton = config.optimizer is Optimizer.QUASI_NEWTON_BOUNDED
    opt_states = [
        DescentState(
            rng.uniform(*INIT_PARAM_RANGE, size=fp.circuit.param_count),
            BOUNDS, quasi_newton,
        )
        for fp in problems
    ]
    costs = [(_StateObjective if fp.intra_pairs else ProductObjective)(
        fp, gamma_f, config.init) for fp in problems]
    mean_z = np.empty(lattice.n)
    for fp, opt, cost in zip(problems, opt_states, costs):
        mean_z[fp.block_index] = cost.mean_fields(opt.params)
    traces: list[list[float]] = []
    energy_trace: list[float] = []
    converged = False
    sweep = 0
    while sweep < config.max_sweeps:
        sweep += 1
        for fp, opt, cost in zip(problems, opt_states, costs):
            # the fields, and maybe the point, moved since the last step
            cost.set_fields(mean_z)
            opt.iterate(cost, cost.gradient, refresh=True)
            if fp.intra_pairs:
                opt.params = sum_constraint_project(fp.circuit, opt.params)
            opt.params = boundary_kick(opt.params, rng)
            mean_z[fp.block_index] = cost.mean_fields(opt.params)
        # every fragment's mean fields are current, so the trace row holds the
        # total_energy terms: severed pairs booked once, on the child's side
        traces.append([-cost.trace_energy(opt.params, mean_z)
                       for opt, cost in zip(opt_states, costs)])
        energy_trace.append(-sum(traces[-1]))
        if len(energy_trace) >= 3 and (
            abs(energy_trace[-1] - energy_trace[-2]) < TOLERANCE
            and abs(energy_trace[-2] - energy_trace[-3]) < TOLERANCE
        ):
            converged = True
            break
    states = [cost.state(opt.params) for opt, cost in zip(opt_states, costs)]
    return ScfResult(
        traces=traces,
        energy_trace=energy_trace,
        final_states=states,
        final_distribution=_product_distribution(problems, states, lattice.n),
        sweeps=sweep,
        converged=converged,
    )
