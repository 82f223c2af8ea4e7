"""Property tests: the compiled engine and its adjoint gradient against the
gate-by-gate kernels, central differences and a long-double adjoint, the
evaluation budget, blocks of rows against single runs, block costs against a
dot per row, taped forward passes against the scatter loop and the streaming
run, passes of one program against shared memory, gradients from a kept
forward pass against fresh ones and on Python floats against numpy scalars,
block line searches against plain callables, the closed-form objective of
fragments without intra pairs against the statevector objective, central
differences and single calls, the cost tables against
per-bitstring sums, the marginals and the
product distribution against index-mask loops, per-qubit copies and
half-index tables, the distribution CSV against Python's per-row format, the
compiled gates' index pairs against per-gate masks, and the sum-constraint
projection against a loop over rotation groups."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pitvqe.ansatz import ControlledRy, ParamCircuit, SingleRy, build_circuit, prepare
from pitvqe.decomposition import (
    BOUNDS,
    ProductObjective,
    ScfConfig,
    _fragment_energy,
    _product_distribution,
    build_fragment_problems,
    effective_diagonal,
    fragment_mean_fields,
    partition_custom,
    partition_horizontal,
    scf_run,
    sum_constraint_project,
)
from pitvqe.hamiltonian import DiagonalCost, _index_table, index_to_bits
from pitvqe.lattice import Block, PitLattice, make_lattice, profit, smoothness
from pitvqe.sampling import distribution_to_csv
from pitvqe.simulator import (
    MARGINAL_TABLE_QUBITS,
    InitKind,
    Program,
    StateVector,
    _bit_set_indices,
    apply_cry,
    apply_ry,
    excavation_probabilities,
    init_state,
    probabilities,
)
from pitvqe.vqe import (
    DescentState,
    Objective,
    Optimizer,
    VqeConfig,
    _BudgetExhausted,
    _Evaluator,
    _line_search,
    _row_costs,
    gradient_adjoint,
    gradient_fd,
    run,
)

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
    partition = _random_partition(data, lattice)
    fields = data.draw(st.lists(st.floats(-1, 1), min_size=lattice.n, max_size=lattice.n))
    mf = np.array(fields)
    for fp in build_fragment_problems(lattice, partition):
        diag = effective_diagonal(fp, mf, float(gamma))
        params = data.draw(angles(fp.circuit.param_count))
        got = gradient_adjoint(fp.circuit, params, diag, init)
        want = gradient_fd(fp.circuit, params, _DenseCost(diag), init)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def _random_partition(data, lattice):
    labels = data.draw(st.lists(st.integers(0, 2), min_size=lattice.n, max_size=lattice.n))
    used = {f: k for k, f in enumerate(sorted(set(labels)))}
    return partition_custom(lattice, {b: used[f] for b, f in enumerate(labels)})


def _effective_diagonal_by_pairs(fp, mf, gamma, include_child_out):
    """``effective_diagonal`` built one pair at a time from the bit table."""
    bits = (np.arange(1 << fp.size)[:, None] >> np.arange(fp.size)) & 1
    diag = -(bits @ np.array(fp.profits, dtype=float))
    for child, parent in fp.intra_pairs:
        diag = diag + gamma * bits[:, fp.local(child)] * (1 - bits[:, fp.local(parent)])
    for child, parent in fp.child_in_pairs:
        diag = diag + gamma * bits[:, fp.local(child)] * (1.0 + mf[parent]) / 2.0
    if include_child_out:
        for child, parent in fp.child_out_pairs:
            diag = diag + gamma * (1.0 - mf[child]) / 2.0 * (1 - bits[:, fp.local(parent)])
    return diag


@settings(max_examples=60, deadline=None)
@given(st.data(), lattices(), gammas, st.booleans())
def test_effective_diagonal_adds_pair_terms_in_order(data, lattice, gamma,
                                                     include_child_out):
    fields = data.draw(st.lists(st.floats(-1, 1), min_size=lattice.n, max_size=lattice.n))
    mf = np.array(fields)
    for fp in build_fragment_problems(lattice, _random_partition(data, lattice)):
        got = effective_diagonal(fp, mf, float(gamma), include_child_out)
        want = _effective_diagonal_by_pairs(fp, mf, float(gamma), include_child_out)
        assert got.tobytes() == want.tobytes()


@st.composite
def hand_circuits(draw, max_qubits=MAX_BLOCKS):
    """Random Ry/CRy sequences that start with a CRy, so two qubits have no
    leading Ry, and end with a Ry on the target of a CRy."""
    n = draw(st.integers(2, max_qubits))
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


@st.composite
def shuffled_lattices(draw):
    """1 to 12 blocks on up to four rows of six columns, listed in any order,
    so a parent's index can exceed its child's and columns can leave blocks
    without parents."""
    cells = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)),
                          min_size=1, max_size=12, unique=True))
    blocks = tuple(Block(id=k, row=r, col=c, profit=draw(st.integers(-9, 9)))
                   for k, (r, c) in enumerate(cells))
    return PitLattice(blocks)


@settings(max_examples=60, deadline=None)
@given(shuffled_lattices())
def test_index_table_matches_per_bitstring_sums(lattice):
    p, s = _index_table(lattice)
    assert p.dtype == s.dtype == np.int64
    for z in range(1 << lattice.n):
        bits = index_to_bits(z, lattice.n)
        assert p[z] == profit(lattice, bits)
        assert s[z] == smoothness(lattice, bits)


def test_index_table_of_one_block_and_of_an_orphan_row():
    p, s = _index_table(make_lattice([[(0, 5)]]))
    assert p.tolist() == [0, 5] and s.tolist() == [0, 0]
    # the second row sits two columns away: its block has no parent
    lattice = make_lattice([[(0, 1)], [(2, -3)]])
    assert lattice.pairs() == []
    p, s = _index_table(lattice)
    assert p.tolist() == [0, 1, -3, -2] and s.tolist() == [0, 0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.one_of(hand_circuits(), lattices().map(build_circuit)), inits,
       st.integers(1, 20))
def test_block_rows_equal_single_runs_bitwise(data, circuit, init, rows):
    block = data.draw(arrays(np.float64, (rows, circuit.param_count),
                             elements=st.floats(-np.pi, np.pi)))
    amps = circuit.program.run(block, init)
    assert amps.shape == (rows, 1 << circuit.n)
    for row, got in zip(block, amps):
        assert got.tobytes() == prepare(circuit, row, init).amps.tobytes()


@pytest.mark.parametrize("init", list(InitKind))
@pytest.mark.parametrize("rows", [1, 5])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), circuit=st.one_of(hand_circuits(), lattices().map(build_circuit)))
def test_gradient_from_a_kept_row_equals_a_fresh_gradient_bitwise(data, circuit, init,
                                                                  rows):
    block = data.draw(arrays(np.float64, (rows, circuit.param_count),
                             elements=st.floats(-np.pi, np.pi)))
    diag = data.draw(arrays(np.float64, 1 << circuit.n, elements=st.floats(-5, 5)))
    program = circuit.program
    forward = program.forward(block, init)
    outputs, amps = [out.copy() for out in forward[3]], forward[4].copy()
    for row, params in enumerate(block):
        got = program.gradient(params, diag, init, (forward, row))
        assert got.tobytes() == program.gradient(params, diag, init).tobytes()
    # the kept pass is only read
    assert [out.tobytes() for out in forward[3]] == [out.tobytes() for out in outputs]
    assert forward[4].tobytes() == amps.tobytes()


def _outputs_by_scatters(program, v, prefixes, rotations):
    """A pass's gate outputs and amplitudes as the in-place loop computes
    them: each gate gathers its pairs from the state, rotates them and
    scatters them back."""
    b = len(v)
    amps = (v[:, :, -1, None] * prefixes[-1]).reshape(b, -1)
    flat = amps.reshape(-1)
    offsets = (np.arange(b) << program.n)[:, None, None]
    outputs = []
    for rot, pairs in zip(rotations, program.tail_pairs):
        pairs = pairs + offsets
        outputs.append(rot @ flat.take(pairs))
        flat[pairs] = outputs[-1]
    return outputs, amps


@pytest.mark.parametrize("init", list(InitKind))
@pytest.mark.parametrize("rows", [1, 5])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), circuit=st.one_of(hand_circuits(), lattices().map(build_circuit)))
def test_taped_pass_matches_the_scatter_loop_bitwise(data, circuit, init, rows):
    block = data.draw(arrays(np.float64, (rows, circuit.param_count),
                             elements=st.floats(-np.pi, np.pi)))
    program = circuit.program
    v, prefixes, rotations, outputs, amps = program.forward(block, init)
    assert amps.tobytes() == program.run(block, init).tobytes()
    want, want_amps = _outputs_by_scatters(program, v, prefixes, rotations)
    assert amps.tobytes() == want_amps.tobytes()
    assert len(outputs) == len(want) == len(program.tail_pairs)
    for got, ref in zip(outputs, want):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_passes_of_one_program_share_no_memory():
    # Ry and CRy gates in the tail, so the tape holds a block of each kind
    circuit = ParamCircuit(5, (ControlledRy(0, 1, 0), SingleRy(2, 1), SingleRy(1, 2),
                               ControlledRy(1, 3, 3), SingleRy(3, 4), ControlledRy(4, 0, 5),
                               SingleRy(4, 6)))
    program, init = circuit.program, InitKind.SUPERPOSITION
    rng = np.random.default_rng(5)
    rows_a, rows_b = rng.uniform(-np.pi, np.pi, (2, 3, circuit.param_count))
    diag = rng.normal(size=1 << circuit.n)
    a, b = program.forward(rows_a, init), program.forward(rows_b, init)

    def kept(pass_):  # the tape, the gate outputs in it and the amplitudes
        return [pass_[3][0].base, *pass_[3], pass_[4]]

    assert len(a[3]) == 6 and a[3][0].base is not None
    for x in kept(a):
        for y in kept(b):
            assert not np.shares_memory(x, y)
    saved = [[x.tobytes() for x in kept(p)] for p in (a, b)]
    first = program.gradient(rows_a[1], diag, init, (a, 1))
    program.gradient(rows_b[1], diag, init, (b, 1))
    assert program.gradient(rows_a[1], diag, init, (a, 1)).tobytes() == first.tobytes()
    assert [[x.tobytes() for x in kept(p)] for p in (a, b)] == saved


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(1, 128), st.integers(0, 2**32 - 1))
def test_block_costs_match_a_dot_per_row_bitwise(n, rows, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(rows, 1 << n))
    diag = np.where(rng.random(1 << n) < 0.5, rng.integers(-9, 9, 1 << n),
                    rng.normal(scale=7.0, size=1 << n))
    want = [float(np.dot(row * row, diag)) for row in amps]
    assert np.array(_row_costs(amps, diag)).tobytes() == np.array(want).tobytes()


class _ScriptedObjective:
    """Trial j of a line search from 0 along -1 at t0 = 1 costs ``costs[j]``.

    ``values`` and ``record`` follow ``_Evaluator``: record charges one
    evaluation of ``budget`` and rejects a non-finite cost before booking it.
    """

    def __init__(self, n, costs, budget):
        self.n, self.costs, self.budget = n, costs, budget
        self.booked = []

    def _cost(self, cand):
        return self.costs[round(-np.log2(-cand[0]))]  # cand = -0.5^j

    def values(self, rows):
        return [self._cost(row) for row in rows]

    def record(self, params, value):
        if len(self.booked) == self.budget:
            raise _BudgetExhausted
        if not np.isfinite(value):
            raise FloatingPointError(value)
        self.booked.append((params.tobytes(), value))
        return value

    def __call__(self, params):
        return self.record(params, self._cost(params))


def _search_outcome(f):
    try:
        cand, fc, step = _line_search(f, np.zeros(3), 1.0, -np.ones(3), -3.0, None)
    except (_BudgetExhausted, FloatingPointError) as exc:
        return type(exc).__name__
    return cand.tobytes(), fc, step


trial_costs = st.lists(st.sampled_from([2.0, 2.0, 2.0, 0.5, 1.0, np.nan, np.inf,
                                        -np.inf]), min_size=60, max_size=60)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), trial_costs, st.integers(0, 70))
def test_block_line_search_replays_trials_as_a_plain_callable_runs_them(n, costs,
                                                                        budget):
    block = _ScriptedObjective(n, costs, budget)
    plain = _ScriptedObjective(n, costs, budget)
    assert _search_outcome(block) == _search_outcome(lambda theta: plain(theta))
    assert block.booked == plain.booked


@pytest.mark.parametrize("stop, budget, want", [
    (np.nan, 20, "FloatingPointError"),  # a non-finite cost mid-block
    (-np.inf, 20, "FloatingPointError"),  # one that would pass the Armijo test
    (2.0, 5, "_BudgetExhausted"),  # the budget runs out mid-block
    (2.0, 20, None),  # trial 9 accepted, rows 10-15 not booked
])
def test_block_line_search_stops_mid_block_at_the_plain_trial(stop, budget, want):
    costs = [2.0] * 60
    costs[5], costs[9] = stop, 0.5
    block = _ScriptedObjective(4, costs, budget)  # one block of 16 trials
    plain = _ScriptedObjective(4, costs, budget)
    got = _search_outcome(block)
    assert got == _search_outcome(lambda theta: plain(theta))
    assert block.booked == plain.booked
    if want is None:
        assert got[1:] == (0.5, 0.5 ** 9) and len(block.booked) == 10
    else:
        assert got == want and len(block.booked) == min(5, budget)


def _gradient_on_numpy_scalars(program, params, diag, init):
    """``Program.gradient`` with the gradient accumulated in an array and the
    layer terms taken on numpy scalars."""
    (v, prefixes, rotations, outputs, psi), row = program.forward(params[None], init), 0
    v = v[row]
    lam = diag * psi[row]
    grad = np.zeros(params.size)
    for k in range(len(program.tail_pairs) - 1, -1, -1):
        pairs = program.tail_pairs[k]
        a, l = outputs[k][row], lam.take(pairs)
        grad[program.tail_param[k]] += l[1] @ a[0] - l[0] @ a[1]
        lam[pairs] = rotations[k, row].T @ l
    rest = lam
    for q in range(program.n - 1, -1, -1):
        rest = rest.reshape(2, -1)
        if program.layer_param[q] >= 0:
            d0, d1 = rest @ prefixes[q][row, 0]
            grad[program.layer_param[q]] += v[0, q] * d1 - v[1, q] * d0
        rest = v[:, q] @ rest
    return grad


@settings(max_examples=60, deadline=None)
@given(st.data(), st.one_of(hand_circuits(), lattices().map(build_circuit)), inits)
def test_gradient_on_python_floats_matches_numpy_scalars_bitwise(data, circuit, init):
    params = data.draw(angles(circuit.param_count))
    diag = data.draw(arrays(np.float64, 1 << circuit.n, elements=st.floats(-5, 5)))
    got = circuit.program.gradient(params, diag, init)
    want = _gradient_on_numpy_scalars(circuit.program, params, diag, init)
    assert got.tobytes() == want.tobytes()


def _act(vec, gate, m, control_zero=1.0):
    """The 2x2 ``m`` applied to ``vec`` on the gate's target, where its
    control (if any) is 1; the amplitudes it leaves alone are multiplied by
    ``control_zero``."""
    index = np.arange(vec.size)
    target = gate.qubit if isinstance(gate, SingleRy) else gate.target
    lo = index[(index >> target) & 1 == 0]
    if isinstance(gate, ControlledRy):
        lo = lo[(lo >> gate.control) & 1 == 1]
    hi = lo | (1 << target)
    out = vec * control_zero
    out[lo] = m[0, 0] * vec[lo] + m[0, 1] * vec[hi]
    out[hi] = m[1, 0] * vec[lo] + m[1, 1] * vec[hi]
    return out


def _gradient_on_long_doubles(circuit, params, diag, init):
    """The adjoint gradient gate by gate in ``np.longdouble``: every state
    after each gate kept, lam swept back, dRy(t) = (-s, -c; c, -s) / 2."""
    u = {InitKind.ALL_ZERO: (1, 0), InitKind.ALL_ONE: (0, 1),
         InitKind.SUPERPOSITION: (np.sqrt(np.longdouble(0.5)),) * 2}[init]
    psi = np.ones(1, dtype=np.longdouble)
    for _ in range(circuit.n):
        psi = np.concatenate((psi * u[0], psi * u[1]))
    half = np.asarray(params, dtype=np.longdouble) / 2
    c, s = np.cos(half), np.sin(half)
    states = [psi]
    for g in circuit.gates:
        k = g.param_id
        states.append(_act(states[-1], g, np.array(((c[k], -s[k]), (s[k], c[k])))))
    lam = np.asarray(diag, dtype=np.longdouble) * states[-1]
    grad = np.zeros(len(params), dtype=np.longdouble)
    for g, before in zip(reversed(circuit.gates), reversed(states[:-1])):
        k = g.param_id
        d = np.array(((-s[k], -c[k]), (c[k], -s[k]))) / 2
        grad[k] += 2 * np.dot(lam, _act(before, g, d, control_zero=0))
        lam = _act(lam, g, np.array(((c[k], s[k]), (-s[k], c[k]))))
    return grad


@settings(max_examples=60, deadline=None)
@given(st.data(), st.one_of(hand_circuits(max_qubits=9), lattices().map(build_circuit)),
       inits)
def test_gradient_matches_a_long_double_adjoint(data, circuit, init):
    params = data.draw(angles(circuit.param_count))
    diag = data.draw(arrays(np.float64, 1 << circuit.n, elements=st.floats(-5, 5)))
    got = circuit.program.gradient(params, diag, init)
    want = _gradient_on_long_doubles(circuit, params, diag, init)
    np.testing.assert_allclose(got, want.astype(float), rtol=0, atol=1e-12)


def _descend(f, grad, params, bounds, quasi_newton, iterates=40):
    """Iterate until convergence, budget exhaustion or ``iterates`` steps;
    returns the state and the number of the iterate that ran out of budget."""
    state = DescentState(params, bounds, quasi_newton)
    for k in range(iterates):
        try:
            if state.iterate(f, grad):
                break
        except _BudgetExhausted:
            return state, k
    return state, None


@settings(max_examples=60, deadline=None)
@given(st.data(), lattices(), gammas, inits, st.booleans(), st.booleans(),
       st.integers(1, 400))
def test_block_line_search_matches_a_plain_callable(data, lattice, gamma, init,
                                                    quasi_newton, bounded, budget):
    circuit = build_circuit(lattice)
    h = DiagonalCost(lattice, gamma)
    params = data.draw(angles(circuit.param_count))
    bounds = (0.0, np.pi) if bounded else None
    block = _Evaluator(circuit, h, init, budget)
    plain = _Evaluator(circuit, h, init, budget)
    got, got_stop = _descend(block, block.gradient, params, bounds, quasi_newton)
    want, want_stop = _descend(lambda theta: plain(theta), plain.gradient, params,
                               bounds, quasi_newton)
    assert got_stop == want_stop
    assert got.params.tobytes() == want.params.tobytes()
    assert got.fx == want.fx and got.accepted == want.accepted
    assert block.history == plain.history and block.used == plain.used
    assert [a.tobytes() for a in block.snapshots] == [a.tobytes() for a in plain.snapshots]


@settings(max_examples=25, deadline=None)
@given(lattices(), gammas, inits, st.sampled_from([Optimizer.GRADIENT_DESCENT,
                                                   Optimizer.QUASI_NEWTON_BOUNDED]),
       st.booleans(), st.integers(0, 2**31))
def test_scf_with_a_plain_objective_matches_the_block_run(lattice, gamma, init,
                                                          optimizer, by_rows, seed):
    if by_rows:
        partition = partition_horizontal(lattice)
    else:
        partition = partition_custom(lattice, {b.id: b.col for b in lattice.blocks})
    config = ScfConfig(init=init, optimizer=optimizer, seed=seed, max_sweeps=15)
    want = scf_run(lattice, partition, gamma, config)
    iterate = DescentState.iterate

    def plain_iterate(self, f, *args, **kwargs):
        return iterate(self, lambda theta: f(theta), *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DescentState, "iterate", plain_iterate)
        got = scf_run(lattice, partition, gamma, config)
    assert (got.sweeps, got.converged) == (want.sweeps, want.converged)
    assert got.energy_trace == want.energy_trace and got.traces == want.traces
    assert got.final_distribution.tobytes() == want.final_distribution.tobytes()
    assert [s.amps.tobytes() for s in got.final_states] == [
        s.amps.tobytes() for s in want.final_states]


def _product_setup(data, lattice, gamma, init):
    """Per fragment without intra pairs of a horizontal or a random cut: (fp,
    closed form, statevector objective, mean fields, parameters in BOUNDS)."""
    if data.draw(st.booleans()):
        partition = partition_horizontal(lattice)
    else:
        partition = _random_partition(data, lattice)
    mf = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=lattice.n,
                                     max_size=lattice.n)))
    for fp in build_fragment_problems(lattice, partition):
        if fp.intra_pairs:
            continue
        closed = ProductObjective(fp, float(gamma), init)
        closed.set_fields(mf)
        dense = Objective(fp.circuit, effective_diagonal(fp, mf, float(gamma)), init)
        params = data.draw(arrays(np.float64, fp.size, elements=st.floats(*BOUNDS)))
        yield fp, closed, dense, mf, params


def _rounding_bound(closed):
    """Rounding of either side's sums: 1e-13 times a bound on the cost's size
    (|d0| + sum |c_i| + 1), about 450 ulps of it; 300 random lattices of this
    strategy's kind reached 8e-16 times it."""
    return 1e-13 * (abs(closed.d0) + np.abs(closed.c).sum() + 1.0)


@settings(max_examples=80, deadline=None)
@given(st.data(), lattices(), gammas, inits)
def test_product_objective_matches_the_statevector_objective(data, lattice, gamma, init):
    for fp, closed, dense, mf, params in _product_setup(data, lattice, gamma, init):
        tol = _rounding_bound(closed)
        assert closed(params) == pytest.approx(dense(params), rel=0, abs=tol)
        np.testing.assert_allclose(closed.gradient(params), dense.gradient(params),
                                   rtol=0, atol=tol)
        state = prepare(fp.circuit, params, init)
        np.testing.assert_allclose(closed.mean_fields(params),
                                   fragment_mean_fields(fp, state), rtol=0, atol=1e-14)
        assert closed.trace_energy(params, mf) == pytest.approx(
            _fragment_energy(fp, state, mf, float(gamma)), rel=0, abs=tol)
        assert closed.state(params).amps.tobytes() == state.amps.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data(), lattices(), gammas, inits)
def test_product_gradient_matches_central_differences_of_its_cost(data, lattice, gamma,
                                                                  init):
    step = 1e-5
    for _, closed, _, _, params in _product_setup(data, lattice, gamma, init):
        want = [(closed(params + e) - closed(params - e)) / (2 * step)
                for e in np.eye(params.size) * step]
        np.testing.assert_allclose(closed.gradient(params), want, rtol=0, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.data(), lattices(), gammas, inits, st.integers(1, 40))
def test_product_block_values_equal_single_calls_bitwise(data, lattice, gamma, init, rows):
    for fp, closed, _, _, _ in _product_setup(data, lattice, gamma, init):
        block = data.draw(arrays(np.float64, (rows, fp.size),
                                 elements=st.floats(-np.pi, np.pi)))
        got = closed.values(block)
        assert all(type(v) is float for v in got)
        assert got == [closed(row) for row in block]


@pytest.mark.parametrize("n", range(1, 19))  # strided sums differ from 16 qubits up
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_marginals_match_index_mask_sums_bitwise(n, seed):
    amps = np.random.default_rng(seed).normal(size=1 << n)
    state = StateVector(n, amps / np.linalg.norm(amps))
    p, index = probabilities(state), np.arange(1 << n)
    want = np.array([p[(index >> q) & 1 == 1].sum() for q in range(n)])
    assert excavation_probabilities(state).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [MARGINAL_TABLE_QUBITS - 1, MARGINAL_TABLE_QUBITS,
                               MARGINAL_TABLE_QUBITS + 1])
def test_marginal_table_matches_the_per_qubit_copies_around_its_bound(n):
    amps = np.random.default_rng(n).normal(size=1 << n)
    state = StateVector(n, amps / np.linalg.norm(amps))
    p = probabilities(state)
    by_copies = np.array([p.reshape(-1, 2, 1 << q)[:, 1].ravel().sum() for q in range(n)])
    by_table = p.take(_bit_set_indices(n)).sum(axis=1)
    assert by_table.tobytes() == by_copies.tobytes()
    _bit_set_indices.cache_clear()
    assert excavation_probabilities(state).tobytes() == by_copies.tobytes()
    # the table is kept only up to the bound
    assert _bit_set_indices.cache_info().currsize == int(n <= MARGINAL_TABLE_QUBITS)


def _product_by_shifts(problems, states, n):
    """The product distribution built with one shift pass per block."""
    idx = np.arange(1 << n)
    dist = np.ones(1 << n)
    for fp, state in zip(problems, states):
        local_idx = np.zeros(1 << n, dtype=np.int64)
        for k, b in enumerate(fp.blocks):
            local_idx |= ((idx >> b) & 1) << k
        dist *= probabilities(state)[local_idx]
    return dist


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 14), st.integers(0, 2**32 - 1))
def test_product_distribution_matches_the_per_block_shift_loop(data, n, seed):
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    problems = [SimpleNamespace(blocks=tuple(b for b in range(n) if labels[b] == f))
                for f in sorted(set(labels))]
    rng = np.random.default_rng(seed)
    states = []
    for fp in problems:
        amps = rng.normal(size=1 << len(fp.blocks))
        states.append(StateVector(len(fp.blocks), amps / np.linalg.norm(amps)))
    got = _product_distribution(problems, states, n)
    assert got.tobytes() == _product_by_shifts(problems, states, n).tobytes()


def _product_by_half_tables(problems, states, n):
    """The product distribution gathered through two half-index tables: index
    hi << low | lo maps to a fragment's local index as the OR of what its
    blocks among the low bits give for lo and what those among the high bits
    give for hi."""
    low = n // 2
    halves = np.arange(1 << low), np.arange(1 << (n - low))
    dist = np.ones(1 << n)
    for fp, state in zip(problems, states):
        tables = [np.zeros(half.size, dtype=np.int64) for half in halves]
        for k, b in enumerate(fp.blocks):
            half = int(b >= low)
            tables[half] |= ((halves[half] >> (b - low * half)) & 1) << k
        dist *= probabilities(state)[(tables[1][:, None] | tables[0]).reshape(-1)]
    return dist


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_product_distribution_matches_the_half_index_tables_bitwise(data, n, seed):
    # any partition, fragments in any order, each listing its blocks in any order
    order = data.draw(st.permutations(range(n)))
    cuts = data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    problems = [SimpleNamespace(blocks=tuple(order[a:b])) for a, b in zip(bounds, bounds[1:])]
    rng = np.random.default_rng(seed)
    states = [StateVector(len(fp.blocks), rng.normal(size=1 << len(fp.blocks)))
              for fp in problems]
    got = _product_distribution(problems, states, n)
    assert got.tobytes() == _product_by_half_tables(problems, states, n).tobytes()


def _csv_by_rows(dist, n):
    return "bitstring,probability\n" + "".join(
        "%s,%.12g\n" % ("".join(str(i >> q & 1) for q in range(n)), p)
        for i, p in enumerate(dist.tolist()))


def _power_of_ten_neighbours(k):
    x = 10.0 ** -k
    return [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]


# Values the exact float path must get right or leave to Python's format.
csv_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, 9.9999999999999, 9.99999999999951,
                     10.0, np.nan, np.inf, -np.inf]),
    st.floats(0.0, 2.2250738585072014e-308),  # subnormals
    st.integers(0, 324).flatmap(lambda k: st.sampled_from(_power_of_ten_neighbours(k))),
    st.integers(0, 8192).map(lambda k: k / 8192),  # shot fractions, with exact ties
    st.floats(10.0, 1e308),
    st.floats(max_value=-0.0),
    st.floats(0.0, 10.0),
)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([1, 10, 11, 14]), st.integers(0, 2**32 - 1))
def test_distribution_csv_matches_the_per_row_format(data, n, seed):
    rng = np.random.default_rng(seed)
    # random float64 bit patterns in [0, 10), then the drawn values in place
    dist = rng.integers(0, 0x4024000000000000, 1 << n).view(np.float64)
    special = data.draw(st.lists(csv_values, max_size=min(64, 1 << n)))
    dist[rng.choice(1 << n, size=len(special), replace=False)] = special
    assert distribution_to_csv(dist, n) == _csv_by_rows(dist, n)


def test_distribution_csv_matches_the_per_row_format_on_every_edge_case():
    """Every power of ten down to 1e-324 with its neighbours and every shot
    fraction k/8192, over several chunks."""
    n = 14
    edges = [x for k in range(325) for x in _power_of_ten_neighbours(k)]
    edges += [k / 8192 for k in range(8193)]
    dist = np.random.default_rng(3).uniform(size=1 << n)
    dist[:len(edges)] = edges
    assert distribution_to_csv(dist, n) == _csv_by_rows(dist, n)


def _pairs_by_masks(n, control, target):
    """A gate's index pairs as the per-gate mask passes built them."""
    index = np.arange(1 << n)
    if control < 0:
        lo = index[(index >> target) & 1 == 0]
    else:
        lo = index[((index >> control) & 1 == 1) & ((index >> target) & 1 == 0)]
    return np.stack((lo, lo | (1 << target)))


@pytest.mark.parametrize("n", range(1, 13))
def test_pair_tables_match_the_per_gate_masks(n):
    """Every Ry and every (control, target) CRy, the two kinds interleaved."""
    gates = [(-1, t) for t in range(n)] + [(c, t) for c in range(n) for t in range(n)
                                           if c != t]
    gates = [gates[k] for k in np.random.default_rng(n).permutation(len(gates))]
    control, target = zip(*gates)
    program = Program(n, [-1] * n, range(len(gates)), control, target)
    for pairs, (c, t) in zip(program.tail_pairs, gates, strict=True):
        want = _pairs_by_masks(n, c, t)
        assert (pairs.dtype, pairs.shape) == (want.dtype, want.shape)
        assert pairs.tobytes() == want.tobytes()


def _project_by_groups(circuit, params):
    """The per-group loop the column sums replaced."""
    groups = {}
    for g in circuit.gates:
        groups.setdefault(g.qubit if isinstance(g, SingleRy) else g.target, []).append(
            g.param_id)
    out = np.array(params, dtype=float)
    for ids in groups.values():
        ids = np.array(ids)
        if len(ids) >= 2 and out[ids].sum() > np.pi:
            out[ids] *= np.pi / out[ids].sum()
    return out


@settings(max_examples=150, deadline=None)
@given(st.data(), st.one_of(hand_circuits(), lattices().map(build_circuit)))
def test_sum_constraint_projection_matches_the_group_loop_bitwise(data, circuit):
    # .sum() adds 8 or more terms pairwise, the projection one by one
    assume(max(map(len, circuit.shared_rotation_groups), default=0) < 8)
    params = data.draw(arrays(np.float64, circuit.param_count,
                              elements=st.floats(0.0, np.pi)))
    got = sum_constraint_project(circuit, params)
    assert got.tobytes() == _project_by_groups(circuit, params).tobytes()


def test_sum_constraint_projection_matches_the_group_loop_on_shared_parameter_ids():
    # p0 and p1 sit in the groups of qubits 0 and 1; p2 twice in qubit 2's
    gates = (SingleRy(0, 0), ControlledRy(1, 0, 1), SingleRy(1, 1), ControlledRy(0, 1, 0),
             SingleRy(2, 2), ControlledRy(0, 2, 2))
    circuit = ParamCircuit(3, gates)
    params = np.array([2.5, 1.5, 2.0, 0.0, 0.0, 0.0])
    got = sum_constraint_project(circuit, params)
    assert got.tobytes() == _project_by_groups(circuit, params).tobytes()
