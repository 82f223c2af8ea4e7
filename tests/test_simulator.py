"""Statevector engine: gate kernels, expectations, and numerical hygiene."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitvqe.ansatz import build_circuit
from pitvqe.hamiltonian import DiagonalCost
from pitvqe.lattice import make_lattice
from pitvqe.simulator import (
    InitKind,
    Program,
    apply_cry,
    apply_ry,
    excavation_probabilities,
    expect_diagonal,
    init_state,
    probabilities,
)


def test_init_states():
    zero = init_state(3, InitKind.ALL_ZERO)
    assert zero.amps[0] == 1.0 and zero.amps[1:].sum() == 0.0
    one = init_state(3, InitKind.ALL_ONE)
    assert one.amps[-1] == 1.0
    plus = init_state(2, InitKind.SUPERPOSITION)
    assert np.allclose(plus.amps, 0.5)


def test_init_qubit_range():
    with pytest.raises(ResourceWarning):
        init_state(0, InitKind.ALL_ZERO)
    with pytest.raises(ResourceWarning):
        init_state(21, InitKind.ALL_ZERO)


def test_ry_matrix_convention():
    # Ry(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>
    st_ = apply_ry(init_state(1, InitKind.ALL_ZERO), 0, np.pi / 3)
    assert st_.amps[0] == pytest.approx(np.cos(np.pi / 6))
    assert st_.amps[1] == pytest.approx(np.sin(np.pi / 6))
    # and the |1> column picks up the minus sign
    st_ = apply_ry(init_state(1, InitKind.ALL_ONE), 0, np.pi / 3)
    assert st_.amps[0] == pytest.approx(-np.sin(np.pi / 6))


def test_ry_pi_flips_qubit():
    st_ = apply_ry(init_state(2, InitKind.ALL_ZERO), 1, np.pi)
    assert st_.amps[0b10] == pytest.approx(1.0)


def test_expect_z_after_half_rotation():
    # <Z> = 1 - 2 p(|1>), read from the per-qubit marginal
    st_ = apply_ry(init_state(1, InitKind.ALL_ZERO), 0, np.pi / 2)
    assert 1.0 - 2.0 * excavation_probabilities(st_)[0] == pytest.approx(0.0)


def test_cry_inactive_on_zero_control():
    st_ = apply_cry(init_state(2, InitKind.ALL_ZERO), 0, 1, 2.0)
    assert st_.amps[0] == pytest.approx(1.0)


def test_cry_rotates_target_when_control_set():
    st_ = apply_ry(init_state(2, InitKind.ALL_ZERO), 0, np.pi)  # control on
    apply_cry(st_, 0, 1, np.pi)
    assert st_.amps[0b11] == pytest.approx(1.0)


def test_cry_rejects_equal_wires():
    with pytest.raises(ValueError):
        apply_cry(init_state(2, InitKind.ALL_ZERO), 1, 1, 0.5)


def test_qubit_out_of_range():
    with pytest.raises(ValueError):
        apply_ry(init_state(2, InitKind.ALL_ZERO), 2, 0.1)


def test_expect_diagonal_against_dense_sum():
    lat = make_lattice([[(0, -1), (1, 2), (2, -1)], [(1, 5)]])
    h = DiagonalCost(lat, Fraction(4))
    st_ = init_state(4, InitKind.SUPERPOSITION)
    assert expect_diagonal(st_, h) == pytest.approx(h.dense_diagonal().mean())


def test_expect_diagonal_size_mismatch():
    lat = make_lattice([[(0, 1)]])
    h = DiagonalCost(lat, Fraction(0))
    with pytest.raises(ValueError):
        expect_diagonal(init_state(2, InitKind.ALL_ZERO), h)


def test_excavation_probabilities_convention():
    st_ = apply_ry(init_state(3, InitKind.ALL_ZERO), 1, np.pi / 2)
    p = excavation_probabilities(st_)
    assert p == pytest.approx([0.0, 0.5, 0.0])


def test_norm_preserved_over_long_random_sequence():
    # acceptance-criterion scale: 10^4 random gates on 12 qubits
    rng = np.random.default_rng(7)
    st_ = init_state(12, InitKind.SUPERPOSITION)
    for _ in range(10_000):
        theta = rng.uniform(-np.pi, np.pi)
        if rng.uniform() < 0.5:
            apply_ry(st_, int(rng.integers(12)), theta)
        else:
            c, t = rng.choice(12, size=2, replace=False)
            apply_cry(st_, int(c), int(t), theta)
    assert abs(st_.norm() - 1.0) <= 1e-12


@settings(max_examples=40)
@given(st.integers(1, 5), st.floats(-10, 10, allow_nan=False))
def test_single_ry_preserves_norm(n, theta):
    st_ = init_state(n, InitKind.SUPERPOSITION)
    apply_ry(st_, n - 1, theta)
    assert st_.norm() == pytest.approx(1.0, abs=1e-12)


def test_probabilities_sum_to_one():
    st_ = apply_ry(init_state(4, InitKind.SUPERPOSITION), 2, 1.234)
    assert probabilities(st_).sum() == pytest.approx(1.0)


def test_compiling_a_circuit_at_the_qubit_cap_allocates_no_pairs():
    # 20 blocks in rows of 7, 6, 4 and 3: 36 parent-child pairs, whose index
    # pairs would take 144 MiB; a program builds them only in its passes
    lattice = make_lattice([[(c, 1) for c in range(width)] for width in (7, 6, 4, 3)])
    assert lattice.n == 20 and len(lattice.pairs()) == 36
    tracemalloc.start()
    try:
        build_circuit(lattice).program
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_program_builds_one_forward_and_one_reverse_table_set(monkeypatch):
    # one column of four blocks: three controlled rotations below a Ry layer
    lattice = make_lattice([[(0, w)] for w in (-1, 3, -2, 5)])
    circuit = build_circuit(lattice)
    program = circuit.program
    builds = []
    build = Program._tape_tables

    def counted(self, *args):  # args end with the order of the sweep's gates
        builds.append(list(args[-1]))
        return build(self, *args)

    monkeypatch.setattr(Program, "_tape_tables", counted)
    rows = np.random.default_rng(4).uniform(-np.pi, np.pi, (16, circuit.param_count))
    passes = [program.forward(rows[:b], InitKind.SUPERPOSITION) for b in (1, 5, 16)]
    diag = DiagonalCost(lattice, Fraction(8, 3)).dense_diagonal()
    program.gradient(rows[3], diag, InitKind.SUPERPOSITION, (passes[2], 3))
    tail = list(range(len(program.tail_param)))
    assert tail and builds == [tail, tail[::-1]]
