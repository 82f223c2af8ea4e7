"""Real-amplitude statevector engine.

Only Y rotations and controlled-Y rotations are supported, so amplitudes stay
real throughout; basis index bit i is z_i with qubit 0 least significant.

``apply_ry`` and ``apply_cry`` act gate by gate on a ``StateVector``.  A whole
circuit runs as a ``Program``: its leading Ry layer is built directly as a
product state, and the remaining gates act through index pairs computed once
per program.  A program runs a block of parameter rows at once, each row
bitwise as it runs alone, and gives the exact gradient by a reverse sweep,
which can start from a row of a forward pass already run.
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


class Program:
    """A circuit compiled to flat arrays.

    ``layer_param[q]`` is the parameter of the leading Ry on qubit q, or -1
    where the qubit has none; that layer acts on the initial product state and
    is built as a product state.  The remaining gates form the tail, in
    circuit order: gate k has parameter ``tail_param[k]`` and a (2, m) array
    of basis indices whose columns are the amplitude pairs it rotates (target
    bit 0 and 1, control bit 1 for a controlled rotation).
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
        index = np.arange(1 << n)
        self.tail_pairs = []
        for control, target in zip(tail_control, tail_target):
            if control < 0:
                _check_qubit(n, target)
                lo = index[(index >> target) & 1 == 0]
            else:
                _check_pair(n, control, target)
                lo = index[((index >> control) & 1 == 1) & ((index >> target) & 1 == 0)]
            self.tail_pairs.append(np.stack((lo, lo | (1 << target))))
        self._blocks: dict[int, tuple] = {}

    def _block(self, b: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per block size ``b``: the (b, 1, 1) ones that start the product
        state, read-only, and each tail gate's (b, 2, m) pairs into ``b``
        rows laid end to end."""
        block = self._blocks.get(b)
        if block is None:
            ones = np.ones((b, 1, 1))
            ones.setflags(write=False)
            offsets = (np.arange(b) << self.n)[:, None, None]
            block = self._blocks[b] = ones, [p + offsets for p in self.tail_pairs]
        return block

    def forward(self, rows: np.ndarray, init: InitKind):
        """Run the circuit on a (B, P) block of parameter rows.

        Returns (v, prefixes, rotations, amplitudes): ``v[:, :, q]`` is qubit
        q's state after its leading Ry, ``prefixes[q]`` the (B, 1, 2^q)
        product state of qubits below q, ``rotations[k]`` tail gate k's
        (B, 2, 2) matrices (none without a tail), and the amplitudes are
        (B, 2^n).  Each row goes through the ops, shapes and strides of a
        block of one, so every row is bitwise what running it alone gives.
        """
        b = len(rows)
        half = np.zeros((b, rows.shape[1] + 1, 1))
        half[:, 1:, 0] = rows
        half /= 2.0
        # per row (cos, sin) of each half angle, the zero angle first
        trig = np.concatenate((np.cos(half), np.sin(half)), axis=2).reshape(b, -1)
        v = _INIT_MATRIX[init] @ trig.take(self._layer_trig, axis=1)
        ones, block_pairs = self._block(b)
        prefixes = [ones]
        for state in v.transpose(2, 0, 1)[..., None]:  # (v0 * prefix, v1 * prefix)
            prefixes.append((state * prefixes[-1]).reshape(b, 1, -1))
        amps = prefixes.pop().reshape(b, -1)
        if not block_pairs:
            return v, prefixes, (), amps
        flat = amps.reshape(-1)
        # stored (B, 2, 2, K), so a gate's 2x2 has the strides of a single row's
        rotations = trig.take(self._tail_trig, axis=1) * _ROTATION_SIGN
        rotations = rotations.transpose(3, 0, 1, 2)
        for rot, pairs in zip(rotations, block_pairs):
            flat[pairs] = rot @ flat.take(pairs)
        return v, prefixes, rotations, amps

    def run(self, rows: np.ndarray, init: InitKind) -> np.ndarray:
        """The bound circuit on a (B, P) block of parameter rows: (B, 2^n) amplitudes."""
        return self.forward(rows, init)[3]

    def amplitudes(self, params: np.ndarray, init: InitKind) -> np.ndarray:
        """The bound circuit applied to the initial product state."""
        return self.run(params[None], init)[0]

    def gradient(self, params: np.ndarray, diag: np.ndarray, init: InitKind,
                 forward=None) -> np.ndarray:
        """Exact gradient of <psi|diag|psi> by one reverse sweep.

        With lam = diag psi, a gate's derivative is dRy(t) = Ry(t + pi) / 2,
        so its term is lam . Ry(pi) psi taken just after the gate (control
        bit 1 only for a controlled rotation); undoing the gate on psi and
        lam moves the sweep one gate back.  The leading layer's terms come
        from contracting lam with the product state from the top qubit down.

        ``forward`` is a (pass, row) pair: row ``row`` of a ``forward`` pass
        whose rows included ``params``.  A row has the strides of a block of
        one, so the gradient is bitwise the one a pass of its own gives;
        without ``forward`` the pass is run here.
        """
        if forward is None:
            forward = self.forward(params[None], init), 0
        (v, prefixes, rotations, phi), row = forward
        # phi is swept back in place, and a kept pass's amplitudes are shared
        v, phi = v[row], phi[row].copy()
        lam = diag * phi
        grad = [0.0] * params.size
        for k in range(len(self.tail_pairs) - 1, -1, -1):
            pairs = self.tail_pairs[k]
            a, l = phi.take(pairs), lam.take(pairs)
            grad[self._tail_ids[k]] += l[1] @ a[0] - l[0] @ a[1]
            back = rotations[k, row].T
            phi[pairs] = back @ a
            lam[pairs] = back @ l
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
