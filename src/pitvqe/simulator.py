"""Real-amplitude statevector engine.

Only Y rotations and controlled-Y rotations are supported, so amplitudes stay
real throughout; basis index bit i is z_i with qubit 0 least significant.

``apply_ry`` and ``apply_cry`` act gate by gate on a ``StateVector``.  A whole
circuit runs as a ``Program``: its leading Ry layer is built directly as a
product state, and the remaining gates act through index pairs, in one of
two passes.  ``amplitudes`` streams one parameter row: it builds the pairs
for the call, and each gate gathers its pairs, rotates them and scatters
them back into the state, so a one-off program keeps nothing.  ``forward``
runs a block of rows, each bitwise as ``amplitudes`` runs it, and keeps
what the gradient reads: its pass writes a tape, the product state and then
every gate's output in a slot of its own, and each gate gathers its input
through a source table, the tape position of each amplitude's latest value,
so no gate scatters.  The exact gradient is a reverse sweep on a tape of its
own that reads the state from the gate outputs a forward pass kept, which
can be a row of a pass already run.
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


def apply_ry(state: StateVector, qubit: int, theta: float) -> StateVector:
    """In-place Ry(theta) = [[c, -s], [s, c]] on one qubit, c=cos(theta/2)."""
    _check_qubit(state.n, qubit)
    view = state.amps.reshape(-1, 2, 1 << qubit)
    _rotate(view[:, 0], view[:, 1], theta)
    return state


def apply_cry(state: StateVector, control: int, target: int, theta: float) -> StateVector:
    """In-place Ry(theta) on target restricted to the control=1 subspace."""
    _check_pair(state.n, control, target)
    hi, lo = max(control, target), min(control, target)
    view = state.amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)  # bits hi, lo
    if control == hi:
        _rotate(view[:, 1, :, 0], view[:, 1, :, 1], theta)
    else:
        _rotate(view[:, 0, :, 1], view[:, 1, :, 1], theta)
    return state


def _insert_zero(x: np.ndarray, bit: np.ndarray) -> np.ndarray:
    """``x`` with a zero bit inserted at position ``bit``, higher bits moved up."""
    return (x >> bit << (bit + 1)) | (x & ((1 << bit) - 1))


def _ones(b: int) -> np.ndarray:
    """The read-only (b, 1, 1) ones that start a block's product state."""
    ones = np.ones((b, 1, 1))
    ones.setflags(write=False)
    return ones


def _tail_pairs(n: int, control: np.ndarray, target: np.ndarray) -> list[np.ndarray]:
    """Each gate's (2, m) pairs: the basis indices with target bit 0 (and
    control bit 1), in ascending order, over the same with target bit 1.

    The free bits of all gates of a kind count up together: inserting the
    fixed bits into ``arange``, lowest position first, keeps every row
    ascending.  Each kind's pairs are one (K, 2, m) table, and each gate
    gets its row as a view.
    """
    pairs: list = [None] * len(control)
    for controlled in (False, True):
        gates = np.flatnonzero((control >= 0) == controlled)
        if not gates.size:
            continue
        c, t = control[gates, None], target[gates, None]
        lo = np.arange(1 << (n - 1 - controlled))
        if controlled:
            lo = _insert_zero(_insert_zero(lo, np.minimum(c, t)), np.maximum(c, t))
            lo |= 1 << c
        else:
            lo = _insert_zero(lo, t)
        table = np.stack((lo, lo | (1 << t)), axis=1)
        for gate, row in zip(gates.tolist(), table):
            pairs[gate] = row
    return pairs


class Program:
    """A circuit compiled to flat arrays.

    ``layer_param[q]`` is the parameter of the leading Ry on qubit q, or -1
    where the qubit has none; that layer acts on the initial product state and
    is built as a product state.  The remaining gates form the tail, in
    circuit order: gate k has parameter ``tail_param[k]``, target
    ``tail_target[k]`` and control ``tail_control[k]`` (-1 for a plain Ry).
    Its (2, m) pairs, the basis indices it rotates (target bit 0 and 1,
    control bit 1 for a controlled rotation), are built by ``_tail_pairs``
    where a pass or a table build needs them.

    A program keeps only its tape tables, built on first use: ``forward``'s
    per block size B, sum(B 2m) + B 2^n indices over the tail gates, on the
    block size's first pass, and ``gradient``'s, sum(2m) + 2^n, on the first
    gradient; a program without a tail builds none.  Each build makes the
    pairs once and is about one pass of integer work.  At n = 12 a table set
    takes 0.2 MB for stringer12's 11 controlled rotations and 0.35 MB for
    smooth12's 19; for 20 blocks with 36 parent-child pairs, 152 MiB, and
    the pairs the build holds while it runs another 144 MiB.
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
        self._tables: dict[int, tuple] = {}  # forward's tape tables per block size
        self._reverse = None  # the gradient's tape tables, built on first use

    def _tape_tables(self, lead: tuple, order) -> tuple:
        """The tape layout and tables of a sweep over states of leading shape
        ``lead``, ``(b,)`` or ``()``, visiting the tail gates in ``order``.

        The tape holds the states first, then each tail gate's output in a
        slot of its own: one block of (*lead, 2, m) slots per kind of gate,
        the uncontrolled rotations' before the controlled ones'.  Every slot
        is aligned to its size and the tape padded to a whole number of the
        largest, so the tape reshaped to (-1, *lead, 2, m) holds a gate's
        output as the integer-index view ``view[j]``.  The tables come from
        replaying the sweep's writes on tape positions, starting from the
        states' ``arange``: a gate's source table takes the latest position
        of each amplitude on its pairs, built once for the call, then its
        slot's own ``arange`` becomes their latest.  Returns (size, head,
        shapes, steps, final): the tape's length, the states' length, each
        kind's view shape, per gate in ``order`` its (gate, kind, slot,
        source table), and the latest position of every amplitude once the
        sweep ends.  Without a tail there is no tape, and no steps.
        """
        pairs = _tail_pairs(self.n, self.tail_control, self.tail_target)
        if not pairs:
            return 0, 0, [], [], None
        count = int(np.prod(lead, dtype=int))
        size = head = count << self.n
        widths = sorted({p.shape[1] for p in pairs}, reverse=True)
        place = {}
        for kind, width in enumerate(widths):
            for k, p in enumerate(pairs):
                if p.shape[1] == width:
                    place[k] = kind, size
                    size += 2 * count * width
        size += -size % (2 * count * widths[0])
        shapes = [(-1, *lead, 2, width) for width in widths]
        latest = np.arange(head).reshape(*lead, -1)
        steps = []
        for k in order:
            kind, start = place[k]
            slot = np.arange(start, start + 2 * count * widths[kind]).reshape(shapes[kind][1:])
            steps.append((k, kind, start // slot.size, latest.take(pairs[k], axis=-1)))
            latest[..., pairs[k]] = slot
        return size, head, shapes, steps, latest

    def _forward_tables(self, b: int) -> tuple:
        """Per block size ``b``: the ones that start the product state and
        the forward tape's (size, head, shapes, steps, final)."""
        tables = self._tables.get(b)
        if tables is None:
            tables = self._tables[b] = (
                _ones(b), *self._tape_tables((b,), range(len(self.tail_param))))
        return tables

    def _layer(self, rows: np.ndarray, init: InitKind, ones: np.ndarray) -> tuple:
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
        prefixes = [ones]
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

        The pass writes into a tape of its own, a new flat buffer: the
        product state, then every gate's output in its own slot.  A gate
        gathers its input pairs with one ``take`` through its source table,
        the tape position of each amplitude's latest value, and its 2x2
        product goes straight into its slot, so no gate scatters; the
        amplitudes are one last ``take``.  The tables are built on a block
        size's first pass, about one pass of integer work, and kept.  A kept
        pass holds B 2^n doubles for the product state, B 2^(n-1) for each
        controlled rotation and B 2^n for each uncontrolled one, and the
        tables take as many indices.  Each row goes through the ops, shapes
        and strides of a block of one, so every row is bitwise what running
        it alone gives.
        """
        b = len(rows)
        ones, size, head, shapes, steps, final = self._forward_tables(b)
        trig, v, prefixes, last = self._layer(rows, init, ones)
        if not steps:
            return v, prefixes, (), (), (last * prefixes[-1]).reshape(b, -1)
        tape = np.empty(size)
        np.multiply(last, prefixes[-1], tape[:head].reshape(b, 2, -1))
        views = [*map(tape.reshape, shapes)]
        rotations = self._rotations(trig)
        outputs = []
        for rot, (_, kind, j, source) in zip(rotations, steps):
            out = views[kind][j]
            np.matmul(rot, tape.take(source), out)
            outputs.append(out)
        return v, prefixes, rotations, outputs, tape.take(final)

    def amplitudes(self, params: np.ndarray, init: InitKind) -> np.ndarray:
        """The bound circuit applied to the initial product state: (2^n,)
        amplitudes, bitwise a ``forward`` row's.

        The streaming pass: the tail gates' pairs are built for the call,
        and each gate gathers its pairs, rotates them and scatters them back
        into the state, so a program run once builds no tape tables.
        """
        trig, _, prefixes, last = self._layer(params[None], init, _ones(1))
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
                self._reverse = self._tape_tables((), range(len(outputs) - 1, -1, -1))
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
    table = np.array([index[(index >> q) & 1 == 1] for q in range(n)])
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
    return np.array([p.reshape(-1, 2, 1 << q)[:, 1].ravel().sum()
                     for q in range(state.n)])
