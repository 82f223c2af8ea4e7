"""Circuit construction from the parent relation, and state preparation."""

import numpy as np
import pytest

from pitvqe import bundled_instance_path
from pitvqe.ansatz import ControlledRy, ParamCircuit, SingleRy, build_circuit, prepare
from pitvqe.lattice import load_instance, parse_instance
from pitvqe.simulator import InitKind, apply_cry, apply_ry, init_state

MINI4 = parse_instance("rows 2\n0:-1 1:2 2:-1\n1:5\n")


def test_mini4_circuit_structure():
    circ = build_circuit(MINI4)
    assert circ.n == 4
    assert circ.param_count == 7
    assert circ.gates == (
        SingleRy(0, 0), SingleRy(1, 1), SingleRy(2, 2), SingleRy(3, 3),
        ControlledRy(3, 0, 4), ControlledRy(3, 1, 5), ControlledRy(3, 2, 6),
    )


def test_one_single_per_block_one_cry_per_pair():
    lat = load_instance(bundled_instance_path("step9"))
    circ = build_circuit(lat)
    singles = [g for g in circ.gates if isinstance(g, SingleRy)]
    crys = [g for g in circ.gates if isinstance(g, ControlledRy)]
    assert len(singles) == lat.n
    assert len(crys) == len(lat.pairs())
    # control sits on the child, target on the parent
    assert [(g.control, g.target) for g in crys] == lat.pairs()


def test_singles_precede_entanglers():
    circ = build_circuit(load_instance(bundled_instance_path("smooth12")))
    kinds = [isinstance(g, SingleRy) for g in circ.gates]
    assert kinds == sorted(kinds, reverse=True)


def test_pair_filter_restricts_entanglers():
    circ = build_circuit(MINI4, pair_filter=[(3, 0), (3, 2)])
    crys = [(g.control, g.target) for g in circ.gates
            if isinstance(g, ControlledRy)]
    assert crys == [(3, 0), (3, 2)]


def test_pair_filter_rejects_non_pairs():
    with pytest.raises(ValueError, match="parent-child"):
        build_circuit(MINI4, pair_filter=[(0, 3)])


def test_qubit_of_relabelling():
    # reversed wiring relabels both gate kinds
    relabel = {i: 3 - i for i in range(4)}
    circ = build_circuit(MINI4, qubit_of=relabel)
    # singles come out in wire order regardless of block numbering
    singles = [g.qubit for g in circ.gates if isinstance(g, SingleRy)]
    assert singles == [0, 1, 2, 3]
    crys = [(g.control, g.target) for g in circ.gates
            if isinstance(g, ControlledRy)]
    assert crys == [(0, 3), (0, 2), (0, 1)]


def test_prepare_matches_manual_gate_application():
    circ = build_circuit(MINI4)
    rng = np.random.default_rng(3)
    params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
    got = prepare(circ, params, InitKind.ALL_ZERO)
    want = init_state(4, InitKind.ALL_ZERO)
    for q in range(4):
        apply_ry(want, q, params[q])
    for k, (child, parent) in enumerate(MINI4.pairs()):
        apply_cry(want, child, parent, params[4 + k])
    assert np.allclose(got.amps, want.amps, atol=1e-14)


def test_prepare_rejects_wrong_param_count():
    circ = build_circuit(MINI4)
    with pytest.raises(ValueError):
        prepare(circ, np.zeros(circ.param_count - 1), InitKind.ALL_ZERO)


def test_zero_params_leave_init_state_unchanged():
    circ = build_circuit(MINI4)
    state = prepare(circ, np.zeros(circ.param_count), InitKind.ALL_ONE)
    assert state.amps[-1] == pytest.approx(1.0)


def test_out_of_range_gates_fail_at_prepare():
    circ = ParamCircuit(2, (SingleRy(qubit=2, param_id=0),))
    with pytest.raises(ValueError):
        prepare(circ, np.zeros(1), InitKind.ALL_ZERO)
