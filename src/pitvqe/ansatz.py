"""Parameterized circuit: one Ry per block, then one controlled-Ry per
retained parent-child pair (control = child, target = parent)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .lattice import PitLattice
from .simulator import InitKind, Program, StateVector

# The gate-by-gate kernels a compiled circuit reproduces, importable from here
# under the names perfbench/tracing.py wraps.
from .simulator import apply_cry, apply_ry, init_state  # noqa: F401


@dataclass(frozen=True)
class SingleRy:
    qubit: int
    param_id: int


@dataclass(frozen=True)
class ControlledRy:
    control: int
    target: int
    param_id: int


@dataclass(frozen=True)
class ParamCircuit:
    n: int
    gates: tuple[SingleRy | ControlledRy, ...]

    @property
    def param_count(self) -> int:
        return len(self.gates)

    def dump(self) -> str:
        """One gate per line: ``ry q<i> p<k>`` / ``cry q<c> q<t> p<k>``."""
        lines = []
        for g in self.gates:
            if isinstance(g, SingleRy):
                lines.append(f"ry q{g.qubit} p{g.param_id}")
            else:
                lines.append(f"cry q{g.control} q{g.target} p{g.param_id}")
        return "\n".join(lines)

    def bind(self, params: Sequence[float]) -> np.ndarray:
        """The parameter vector as floats; rejects a wrong parameter count."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.param_count,):
            raise ValueError(f"expected {self.param_count} parameters, got {params.shape}")
        return params

    @cached_property
    def shared_rotation_groups(self) -> tuple[tuple[int, ...], ...]:
        """Parameter ids per target qubit, in gate order, for each qubit that
        two or more rotations target: its single rotation together with every
        controlled rotation targeting it."""
        groups: dict[int, list[int]] = {}
        for g in self.gates:
            target = g.qubit if isinstance(g, SingleRy) else g.target
            groups.setdefault(target, []).append(g.param_id)
        return tuple(tuple(ids) for ids in groups.values() if len(ids) > 1)

    @cached_property
    def program(self) -> Program:
        """The circuit compiled once, on first use.

        A qubit's first gate, if it is a Ry, joins the leading layer: every
        earlier gate acts on other qubits, so it commutes to the front.
        """
        layer = [-1] * self.n
        tail_param, tail_control, tail_target = [], [], []
        touched: set[int] = set()
        for g in self.gates:
            if isinstance(g, SingleRy):
                control, target = -1, g.qubit
            else:
                control, target = g.control, g.target
            if control < 0 and target not in touched and 0 <= target < self.n:
                layer[target] = g.param_id
            else:
                tail_param.append(g.param_id)
                tail_control.append(control)
                tail_target.append(target)
            touched.update((control, target))
        return Program(self.n, layer, tail_param, tail_control, tail_target)


def build_circuit(
    lattice: PitLattice,
    pair_filter: Iterable[tuple[int, int]] | None = None,
    qubit_of: dict[int, int] | None = None,
) -> ParamCircuit:
    """Build the ansatz over a lattice or a subset of its blocks.

    ``pair_filter`` keeps only the listed (child, parent) pairs (default all);
    ``qubit_of`` maps block ids to circuit qubits for fragment circuits
    (default identity over all blocks).
    """
    all_pairs = lattice.pairs()
    if pair_filter is None:
        pairs = all_pairs
    else:
        pairs = sorted(pair_filter)
        bad = [p for p in pairs if p not in all_pairs]
        if bad:
            raise ValueError(f"pair_filter entries are not parent-child pairs: {bad}")
    if qubit_of is None:
        qubit_of = {i: i for i in range(lattice.n)}
    gates: list[SingleRy | ControlledRy] = []
    for block in sorted(qubit_of, key=qubit_of.get):
        gates.append(SingleRy(qubit=qubit_of[block], param_id=len(gates)))
    for child, parent in pairs:
        gates.append(
            ControlledRy(
                control=qubit_of[child], target=qubit_of[parent], param_id=len(gates)
            )
        )
    return ParamCircuit(n=len(qubit_of), gates=tuple(gates))


def prepare(circuit: ParamCircuit, params: Sequence[float], init: InitKind) -> StateVector:
    """Apply the bound circuit to the chosen initial product state."""
    params = circuit.bind(params)
    return StateVector(circuit.n, circuit.program.amplitudes(params, init))
