"""Property tests: the compiled engine and its adjoint gradient against the
gate-by-gate kernels and central differences, and the evaluation budget."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pitvqe.ansatz import ControlledRy, ParamCircuit, SingleRy, build_circuit, prepare
from pitvqe.decomposition import (
    build_fragment_problems,
    effective_diagonal,
    partition_custom,
)
from pitvqe.hamiltonian import DiagonalCost
from pitvqe.lattice import make_lattice
from pitvqe.simulator import InitKind, apply_cry, apply_ry, init_state
from pitvqe.vqe import Optimizer, VqeConfig, gradient_adjoint, gradient_fd, run

MAX_BLOCKS = 8


@st.composite
def lattices(draw):
    """Up to three rows over four columns, at most MAX_BLOCKS blocks."""
    rows, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if n == MAX_BLOCKS:
            break
        room = min(4, MAX_BLOCKS - n)
        cols = draw(st.sets(st.integers(0, 3), min_size=1, max_size=room))
        rows.append([(c, draw(st.integers(-6, 6))) for c in sorted(cols)])
        n += len(cols)
    return make_lattice(rows)


def angles(size):
    return arrays(np.float64, size, elements=st.floats(-np.pi, np.pi))


gammas = st.integers(0, 30).map(lambda k: Fraction(k, 3))
inits = st.sampled_from(list(InitKind))


class _DenseCost:
    """A dense diagonal with the two members ``evaluate`` reads."""

    def __init__(self, diag):
        self.n = diag.size.bit_length() - 1
        self._diag = diag

    def dense_diagonal(self):
        return self._diag


@settings(max_examples=40, deadline=None)
@given(st.data(), lattices(), gammas, inits)
def test_adjoint_matches_central_differences_on_the_vqe_cost(data, lattice, gamma,
                                                             init):
    h = DiagonalCost(lattice, gamma)
    circuit = build_circuit(lattice)
    params = data.draw(angles(circuit.param_count))
    got = gradient_adjoint(circuit, params, h.dense_diagonal(), init)
    want = gradient_fd(circuit, params, h, init)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.data(), lattices(), gammas, inits)
def test_adjoint_matches_central_differences_on_a_fragment_cost(data, lattice, gamma,
                                                                init):
    labels = data.draw(st.lists(st.integers(0, 2), min_size=lattice.n, max_size=lattice.n))
    used = {f: k for k, f in enumerate(sorted(set(labels)))}
    partition = partition_custom(lattice, {b: used[f] for b, f in enumerate(labels)})
    fields = data.draw(st.lists(st.floats(-1, 1), min_size=lattice.n, max_size=lattice.n))
    mf = dict(enumerate(fields))
    for fp in build_fragment_problems(lattice, partition):
        diag = effective_diagonal(fp, mf, float(gamma))
        params = data.draw(angles(fp.circuit.param_count))
        got = gradient_adjoint(fp.circuit, params, diag, init)
        want = gradient_fd(fp.circuit, params, _DenseCost(diag), init)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


@st.composite
def hand_circuits(draw):
    """Random Ry/CRy sequences that start with a CRy, so two qubits have no
    leading Ry, and end with a Ry on the target of a CRy."""
    n = draw(st.integers(2, MAX_BLOCKS))
    qubit = st.integers(0, n - 1)
    pairs = st.tuples(qubit, qubit).filter(lambda p: p[0] != p[1])
    first = draw(pairs)
    middle = draw(st.lists(st.one_of(qubit, pairs), max_size=12))
    last = draw(pairs)
    wires = [first, *middle, last, last[1]]
    gates = tuple(SingleRy(w, k) if isinstance(w, int) else ControlledRy(*w, k)
                  for k, w in enumerate(wires))
    return ParamCircuit(n, gates)


@settings(max_examples=60, deadline=None)
@given(st.data(), hand_circuits(), inits)
def test_prepare_matches_gate_by_gate_application(data, circuit, init):
    params = data.draw(angles(circuit.param_count))
    want = init_state(circuit.n, init)
    for g in circuit.gates:
        if isinstance(g, SingleRy):
            apply_ry(want, g.qubit, params[g.param_id])
        else:
            apply_cry(want, g.control, g.target, params[g.param_id])
    assert (circuit.program.layer_param < 0).any()
    np.testing.assert_allclose(prepare(circuit, params, init).amps, want.amps,
                               rtol=0, atol=1e-12)
    diag = data.draw(arrays(np.float64, 1 << circuit.n, elements=st.floats(-5, 5)))
    np.testing.assert_allclose(
        gradient_adjoint(circuit, params, diag, init),
        gradient_fd(circuit, params, _DenseCost(diag), init), rtol=0, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(lattices(), gammas, inits, st.sampled_from(list(Optimizer)),
       st.integers(1, 300), st.integers(0, 2**31))
def test_budget_is_never_exceeded(lattice, gamma, init, optimizer, budget, seed):
    circuit = build_circuit(lattice)
    config = VqeConfig(init=init, optimizer=optimizer, max_evaluations=budget, seed=seed)
    result = run(circuit, DiagonalCost(lattice, gamma), config)
    assert 1 <= result.evaluations_used <= budget
    assert [k for k, _ in result.history] == list(range(len(result.history)))
    if optimizer is not Optimizer.SPSA and budget < 2 * circuit.param_count + 1:
        # the first gradient does not fit: one evaluation, no descent step
        assert result.evaluations_used == 1 and len(result.history) == 1


def test_a_gradient_is_charged_two_evaluations_per_parameter():
    lattice = make_lattice([[(0, 1), (1, -1)], [(1, 3)]])
    circuit = build_circuit(lattice)
    budget = 2 * circuit.param_count + 1
    config = VqeConfig(optimizer=Optimizer.QUASI_NEWTON_BOUNDED, max_evaluations=budget)
    result = run(circuit, DiagonalCost(lattice, Fraction(2)), config)
    # first cost, then the first gradient; the line search finds no budget left
    assert result.evaluations_used == budget
    assert len(result.history) == 1


def test_non_finite_gradient_raises():
    lattice = make_lattice([[(0, 1)], [(0, 2)]])
    circuit = build_circuit(lattice)
    diag = np.array([0.0, np.nan, 1.0, 2.0])
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        gradient_adjoint(circuit, np.full(circuit.param_count, 0.3), diag,
                         InitKind.SUPERPOSITION)
