"""Real-amplitude statevector engine.

Only Y rotations and controlled-Y rotations are supported, so amplitudes stay
real throughout; basis index bit i is z_i with qubit 0 least significant.

``_pair_views`` alone defines a gate's pairs, the amplitudes it rotates
together, as two strided views of a flat vector; ``apply_ry`` and
``apply_cry`` rotate those views of a ``StateVector``.  A whole circuit runs
as a ``Program``: its leading Ry layer is built directly as a product state,
and the remaining gates act through index pairs, the same views of
``arange(2^n)``, in one of two passes.  ``amplitudes`` streams one parameter
row: each gate gathers its pairs, rotates them and scatters them back, so a
one-off program keeps nothing.  ``forward`` runs a block of rows, each
bitwise as ``amplitudes`` runs it, on a tape with one row per parameter
row: the product state, then every gate's output in a slot of its own, each
gate gathering its input through a source table, so no gate scatters.  The
exact gradient is a reverse sweep on a one-row tape that reads the state
from a kept forward row.  The tables of both tapes describe one row, so a
program builds at most two table sets.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Sequence

import numpy as np

from .hamiltonian import QUBIT_CAP, DiagonalCost


class InitKind(Enum):
    ALL_ZERO = "zero"
    ALL_ONE = "one"
    SUPERPOSITION = "plus"


# Per initial single-qubit state (u0, u1), the matrix ((u0, -u1), (u1, u0))
# that takes (cos, sin) of theta/2 to Ry(theta) (u0, u1).
_INIT_MATRIX = {
    kind: np.array(((u0, -u1), (u1, u0)))
    for kind, (u0, u1) in (
        (InitKind.ALL_ZERO, (1.0, 0.0)),
        (InitKind.ALL_ONE, (0.0, 1.0)),
        (InitKind.SUPERPOSITION, (np.sqrt(0.5), np.sqrt(0.5))),
    )
}

# Ry(t) = ((c, -s), (s, c)) from ((c, s), (s, c)): the sign of each entry.
_ROTATION_SIGN = np.array((((1.0,), (-1.0,)), ((1.0,), (1.0,))))


class StateVector:
    """Normalized real amplitude vector over 2^n basis states."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: np.ndarray):
        self.n = n
        self.amps = amps

    def norm(self) -> float:
        return float(np.dot(self.amps, self.amps))


def _check_qubit_count(n: int) -> None:
    if not 1 <= n <= QUBIT_CAP:
        raise ResourceWarning(f"qubit count {n} outside [1, {QUBIT_CAP}]")


def _check_qubit(n: int, qubit: int) -> None:
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")


def _check_pair(n: int, control: int, target: int) -> None:
    _check_qubit(n, control)
    _check_qubit(n, target)
    if control == target:
        raise ValueError("control and target must differ")


def init_state(n: int, kind: InitKind) -> StateVector:
    _check_qubit_count(n)
    amps = np.zeros(1 << n)
    if kind is InitKind.ALL_ZERO:
        amps[0] = 1.0
    elif kind is InitKind.ALL_ONE:
        amps[-1] = 1.0
    else:
        amps[:] = 2.0 ** (-n / 2)
    return StateVector(n, amps)


def _rotate(a0: np.ndarray, a1: np.ndarray, theta: float) -> None:
    """In place (a0, a1) <- Ry(theta) (a0, a1) on two views of equal shape."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    old0 = a0.copy()
    a0 *= c
    a0 -= s * a1
    a1 *= c
    a1 += s * old0


def _pair_views(x: np.ndarray, control: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """A gate's pairs as two strided views of a flat 2^n vector: the entries
    with target bit 0, then those with target bit 1, each in ascending index
    order, and with control bit 1 unless ``control`` is -1 (a plain Ry)."""
    if control < 0:
        view = x.reshape(-1, 2, 1 << target)
        return view[:, 0], view[:, 1]
    hi, lo = max(control, target), min(control, target)
    view = x.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)  # bits hi, lo
    if control == hi:
        return view[:, 1, :, 0], view[:, 1, :, 1]
    return view[:, 0, :, 1], view[:, 1, :, 1]


def apply_ry(state: StateVector, qubit: int, theta: float) -> StateVector:
    """In-place Ry(theta) = [[c, -s], [s, c]] on one qubit, c=cos(theta/2)."""
    _check_qubit(state.n, qubit)
    _rotate(*_pair_views(state.amps, -1, qubit), theta)
    return state


def apply_cry(state: StateVector, control: int, target: int, theta: float) -> StateVector:
    """In-place Ry(theta) on target restricted to the control=1 subspace."""
    _check_pair(state.n, control, target)
    _rotate(*_pair_views(state.amps, control, target), theta)
    return state


def _tail_pairs(n: int, control: np.ndarray, target: np.ndarray) -> list[np.ndarray]:
    """Each gate's (2, m) pairs, its ``_pair_views`` of ``arange(2^n)``:
    each kind's pairs are one (K, 2, m) table, filled row by row, and each
    gate gets its row as a view."""
    index = np.arange(1 << n)
    gates = list(zip(control.tolist(), target.tolist()))
    pairs: list = [None] * len(gates)
    for controlled in (False, True):
        kind = [k for k, (c, _) in enumerate(gates) if (c >= 0) == controlled]
        if not kind:
            continue
        table = np.empty((len(kind), 2, 1 << (n - 1 - controlled)), dtype=index.dtype)
        for k, row in zip(kind, table):
            low, high = _pair_views(index, *gates[k])
            both = row.reshape(2, *low.shape)
            both[0], both[1] = low, high
            pairs[k] = row
    return pairs


class Program:
    """A circuit compiled to flat arrays.

    ``layer_param[q]`` is the parameter of the leading Ry on qubit q, or -1
    where the qubit has none; that layer acts on the initial product state and
    is built as a product state.  The remaining gates form the tail, in
    circuit order: gate k has parameter ``tail_param[k]``, target
    ``tail_target[k]`` and control ``tail_control[k]`` (-1 for a plain Ry).
    Its (2, m) index pairs are built by ``_tail_pairs`` where a pass or a
    table build needs them.

    A program keeps only its tape tables, built on first use and laid out
    for one row, whatever the block size: ``forward``'s on the first pass
    and ``gradient``'s on the first gradient, each sum(2m) + 2^n indices
    over the tail gates, so at most two table sets; a program without a
    tail builds none.  Each build makes the pairs once and is about one
    pass of integer work.  At n = 12 a table set takes 0.2 MB for
    stringer12's 11 controlled rotations and 0.35 MB for smooth12's 19; for
    20 blocks with 36 parent-child pairs, 152 MiB, and the pairs the build
    holds while it runs another 144 MiB.
    """

    def __init__(
        self,
        n: int,
        layer_param: Sequence[int],
        tail_param: Sequence[int],
        tail_control: Sequence[int],  # -1 for an uncontrolled Ry
        tail_target: Sequence[int],
    ):
        _check_qubit_count(n)
        self.n = n
        self.layer_param = np.asarray(layer_param, dtype=np.intp)
        self.tail_param = np.asarray(tail_param, dtype=np.intp)
        self._layer_ids, self._tail_ids = self.layer_param.tolist(), self.tail_param.tolist()
        # where each gate's cos and sin of the half angle sit in a row of
        # (cos, sin) pairs whose first pair is the zero angle (index -1)
        cos_at = 2 * (self.layer_param + 1)
        self._layer_trig = np.array((cos_at, cos_at + 1))  # (2, n): c, s
        cos_at = 2 * (self.tail_param + 1)
        self._tail_trig = np.array(((cos_at, cos_at + 1), (cos_at + 1, cos_at)))
        for control, target in zip(tail_control, tail_target):
            if control < 0:
                _check_qubit(n, target)
            else:
                _check_pair(n, control, target)
        self.tail_control = np.asarray(tail_control, dtype=np.intp)
        self.tail_target = np.asarray(tail_target, dtype=np.intp)
        self._forward = self._reverse = None  # the tape tables, built on first use

    def _tape_tables(self, order) -> tuple:
        """The layout and tables of one row of a tape for a sweep that
        visits the tail gates in ``order``.

        A row holds the state, then each tail gate's output in a slot of its
        own: one block of (2, m) slots per kind of gate, the uncontrolled
        rotations' first.  Every slot is aligned to its size and the row
        padded to a whole number of the largest, so the row reshaped to
        (-1, 2, m) holds a gate's output as the view ``view[j]``.  The
        tables replay the sweep's writes on positions, from the state's
        ``arange``: a gate's source table takes the latest position of each
        amplitude on its pairs, then its slot's own ``arange`` becomes their
        latest.  Returns (size, head, shapes, steps, final): the row's and
        the state's length, each kind's view shape, per gate in ``order``
        its (gate, kind, slot, source table), and the latest position of
        every amplitude at the end; without a tail, no tape and no steps.
        """
        pairs = _tail_pairs(self.n, self.tail_control, self.tail_target)
        if not pairs:
            return 0, 0, [], [], None
        size = head = 1 << self.n
        widths = sorted({p.shape[1] for p in pairs}, reverse=True)
        place = {}
        for kind, width in enumerate(widths):
            for k, p in enumerate(pairs):
                if p.shape[1] == width:
                    place[k] = kind, size
                    size += 2 * width
        size += -size % (2 * widths[0])
        shapes = [(-1, 2, width) for width in widths]
        latest = np.arange(head)
        steps = []
        for k in order:
            kind, start = place[k]
            steps.append((k, kind, start // pairs[k].size, latest.take(pairs[k])))
            latest[pairs[k]] = np.arange(start, start + pairs[k].size).reshape(2, -1)
        return size, head, shapes, steps, latest

    def _layer(self, rows: np.ndarray, init: InitKind) -> tuple:
        """The leading layer on a (B, P) block: (trig, v, prefixes, last),
        where ``trig`` holds each row's (cos, sin) of every half angle, the
        zero angle first, and the caller multiplies ``last``, the top
        qubit's (B, 2, 1) state, into ``prefixes[-1]`` for the product state."""
        b = len(rows)
        half = np.zeros((b, rows.shape[1] + 1, 1))
        half[:, 1:, 0] = rows
        half /= 2.0
        trig = np.concatenate((np.cos(half), np.sin(half)), axis=2).reshape(b, -1)
        v = _INIT_MATRIX[init] @ trig.take(self._layer_trig, axis=1)
        *states, last = v.transpose(2, 0, 1)[..., None]
        prefixes = [np.ones((b, 1, 1))]
        for state in states:  # (v0 * prefix, v1 * prefix)
            prefixes.append((state * prefixes[-1]).reshape(b, 1, -1))
        return trig, v, prefixes, last

    def _rotations(self, trig: np.ndarray) -> np.ndarray:
        """Each tail gate's (B, 2, 2) matrices, stored (B, 2, 2, K) so a
        gate's 2x2 has the strides of a single row's."""
        rotations = trig.take(self._tail_trig, axis=1) * _ROTATION_SIGN
        return rotations.transpose(3, 0, 1, 2)

    def forward(self, rows: np.ndarray, init: InitKind):
        """Run the circuit on a (B, P) block of parameter rows, keeping what
        the gradient reads.

        Returns (v, prefixes, rotations, outputs, amplitudes): ``v[:, :, q]``
        is qubit q's state after its leading Ry, ``prefixes[q]`` the
        (B, 1, 2^q) product state of qubits below q, ``rotations[k]`` tail
        gate k's (B, 2, 2) matrices and ``outputs[k]`` its (B, 2, m) output,
        the amplitudes on its pairs just after it (none without a tail), and
        the amplitudes are (B, 2^n).

        The pass writes into a tape of its own, a new (B, size) buffer whose
        rows each have the one-row layout of ``_tape_tables``: the product
        state, then every gate's output in its own slot.  A gate gathers its
        input pairs with one ``take`` along the rows through its source
        table, the tape position of each amplitude's latest value, and its
        2x2 product goes straight into its slot, so no gate scatters; the
        amplitudes are one last ``take``.  The tables are built on the first
        pass, whatever its block size, about one pass of integer work, and
        kept.  A kept pass holds B 2^n doubles for the product state,
        B 2^(n-1) for each controlled rotation and B 2^n for each
        uncontrolled one, and the tables as many indices as one row.
        Each row goes through the ops, shapes and strides of a block of one,
        so every row is bitwise what running it alone gives.
        """
        b = len(rows)
        if self._forward is None:
            self._forward = self._tape_tables(range(len(self.tail_param)))
        size, head, shapes, steps, final = self._forward
        trig, v, prefixes, last = self._layer(rows, init)
        if not steps:
            return v, prefixes, (), (), (last * prefixes[-1]).reshape(b, -1)
        tape = np.empty((b, size))
        np.multiply(last, prefixes[-1], tape[:, :head].reshape(b, 2, -1))
        views = [tape.reshape(b, *shape) for shape in shapes]
        rotations = self._rotations(trig)
        outputs = []
        for rot, (_, kind, j, source) in zip(rotations, steps):
            out = views[kind][:, j]
            np.matmul(rot, tape.take(source, axis=1), out)
            outputs.append(out)
        return v, prefixes, rotations, outputs, tape.take(final, axis=1)

    def amplitudes(self, params: np.ndarray, init: InitKind) -> np.ndarray:
        """The bound circuit applied to the initial product state: (2^n,)
        amplitudes, bitwise a ``forward`` row's.

        The streaming pass: the tail gates' pairs are built for the call,
        and each gate gathers its pairs, rotates them and scatters them back
        into the state, so a program run once builds no tape tables.
        """
        trig, _, prefixes, last = self._layer(params[None], init)
        amps = (last * prefixes[-1]).reshape(-1)
        for rot, pairs in zip(self._rotations(trig),
                              _tail_pairs(self.n, self.tail_control, self.tail_target)):
            pairs = pairs[None]
            amps[pairs] = rot @ amps.take(pairs)
        return amps

    def gradient(self, params: np.ndarray, diag: np.ndarray, init: InitKind,
                 forward=None) -> np.ndarray:
        """Exact gradient of <psi|diag|psi> by one reverse sweep.

        With lam = diag psi, a gate's derivative is dRy(t) = Ry(t + pi) / 2,
        so its term is lam . Ry(pi) psi taken just after the gate (control
        bit 1 only for a controlled rotation).  The forward pass kept psi
        just after each gate on the gate's pairs, so the sweep carries lam
        alone, undoing one gate on it per step.  It runs on a tape of its
        own, as ``forward`` does: lam, then each gate's undone pairs, read
        back through reverse source tables built on the first gradient, so
        no step scatters; the tape holds 2^n + sum(2m) doubles for the call.
        The leading layer's terms come from contracting lam with the
        product state from the top qubit down.

        ``forward`` is a (pass, row) pair: row ``row`` of a ``forward`` pass
        whose rows included ``params``; the pass is only read.  A row has
        the strides of a block of one, so the gradient is bitwise the one a
        pass of its own gives; without ``forward`` the pass is run here.
        """
        if forward is None:
            forward = self.forward(params[None], init), 0
        (v, prefixes, rotations, outputs, psi), row = forward
        v = v[row]
        grad = [0.0] * params.size
        if outputs:
            if self._reverse is None:
                self._reverse = self._tape_tables(range(len(outputs) - 1, -1, -1))
            size, head, shapes, steps, final = self._reverse
            tape = np.empty(size)
            np.multiply(diag, psi[row], tape[:head])
            views = [*map(tape.reshape, shapes)]
            for k, kind, j, source in steps:
                a, l = outputs[k][row], tape.take(source)
                grad[self._tail_ids[k]] += l[1] @ a[0] - l[0] @ a[1]
                np.matmul(rotations[k, row].T, l, views[kind][j])
            lam = tape.take(final)
        else:
            lam = diag * psi[row]
        rest = lam  # lam contracted with the layer states of qubits above q
        v0, v1 = v.tolist()
        for q in range(self.n - 1, -1, -1):
            rest = rest.reshape(2, -1)
            p = self._layer_ids[q]
            if p >= 0:
                d0, d1 = (rest @ prefixes[q][row, 0]).tolist()
                grad[p] += v0[q] * d1 - v1[q] * d0
            rest = v[:, q] @ rest
        return np.array(grad)


def probabilities(state: StateVector) -> np.ndarray:
    return state.amps * state.amps


def expect_diagonal(state: StateVector, h: DiagonalCost) -> float:
    """<state| H |state> for a diagonal cost operator."""
    if h.n != state.n:
        raise ValueError(f"operator on {h.n} qubits, state on {state.n}")
    return float(np.dot(probabilities(state), h.dense_diagonal()))


# Qubit counts up to which the marginals gather through a cached index table,
# n 2^(n-1) entries: at most 5,120 here, where the 20-qubit table would take
# 80 MB.
MARGINAL_TABLE_QUBITS = 10


@functools.cache
def _bit_set_indices(n: int) -> np.ndarray:
    """(n, 2^(n-1)) table: row q lists the basis indices with bit q set, in
    index order."""
    index = np.arange(1 << n)
    table = np.array([_pair_views(index, -1, q)[1].ravel() for q in range(n)])
    table.setflags(write=False)
    return table


def excavation_probabilities(state: StateVector) -> np.ndarray:
    """Per-qubit p(z_i = 1): the mass on basis indices with bit i set.

    Each sum adds the bit-set entries contiguously in index order, as a
    boolean mask's selection would: up to ``MARGINAL_TABLE_QUBITS`` qubits
    one gather lays out every qubit's entries as a row, above that a raveled
    copy per qubit.
    """
    p = probabilities(state)
    if state.n <= MARGINAL_TABLE_QUBITS:
        return p.take(_bit_set_indices(state.n)).sum(axis=1)
    return np.array([_pair_views(p, -1, q)[1].ravel().sum() for q in range(state.n)])
