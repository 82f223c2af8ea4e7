"""Fragment decomposition: bookkeeping exactness and the mean-field sweep."""

from fractions import Fraction

import numpy as np
import pytest

from pitvqe import bundled_instance_path
from pitvqe.ansatz import build_circuit
from pitvqe.decomposition import (
    Partition,
    ScfConfig,
    boundary_kick,
    build_fragment_problems,
    effective_diagonal,
    fragment_mean_fields,
    load_partition,
    partition_custom,
    partition_horizontal,
    scf_run,
    sum_constraint_project,
    total_energy,
)
from pitvqe.hamiltonian import DiagonalCost, index_to_bits
from pitvqe.lattice import load_instance, parse_instance
from pitvqe.oracle import enumerate_lattice, p_opt
from pitvqe import decomposition, vqe
from pitvqe.simulator import InitKind, Program, StateVector, init_state
from pitvqe.vqe import Optimizer

MINI4 = parse_instance("rows 2\n0:-1 1:2 2:-1\n1:5\n")
STEP9 = load_instance(bundled_instance_path("step9"))
# 21 blocks in three rows of 7: small fragments, too many blocks in all
WIDE21 = parse_instance("rows 3\n" + "0:1 1:1 2:1 3:1 4:1 5:1 6:1\n" * 3)


def _basis_states(problems, z):
    """Per-fragment basis states encoding the global bitstring z."""
    states = []
    for fp in problems:
        local = sum(z[b] << k for k, b in enumerate(fp.blocks))
        amps = np.zeros(1 << fp.size)
        amps[local] = 1.0
        states.append(StateVector(fp.size, amps))
    return states


def test_partition_validation():
    with pytest.raises(ValueError, match="empty"):
        Partition(((0, 1), ()))
    with pytest.raises(ValueError, match="two fragments"):
        Partition(((0, 1), (1, 2)))
    # a repeated block would give a fragment more blocks than circuit qubits
    with pytest.raises(ValueError, match="twice"):
        Partition(((0, 0, 1, 2), (3,)))
    with pytest.raises(ValueError, match="mismatch"):
        partition_custom(MINI4, {0: 0, 1: 0, 2: 0})


def test_horizontal_partition_one_fragment_per_row():
    part = partition_horizontal(STEP9)
    assert part.fragments == ((0, 1, 2, 3, 4), (5, 6, 7), (8,))


def test_load_partition_roundtrip(tmp_path):
    path = tmp_path / "cut.txt"
    path.write_text("0 2 1\n3  # deep block alone\n")
    part = load_partition(path, MINI4)
    assert part.fragments == ((0, 1, 2), (3,))


def test_load_partition_rejects_a_block_on_two_lines(tmp_path):
    path = tmp_path / "cut.txt"
    path.write_text("0 1\n0 2\n3\n")
    with pytest.raises(ValueError, match="two fragments"):
        load_partition(path, MINI4)
    path.write_text("0 0 1 2\n3\n")
    with pytest.raises(ValueError, match="twice"):
        load_partition(path, MINI4)


def test_fragment_pair_bookkeeping_covers_every_pair_once():
    part = partition_custom(STEP9, {b.id: b.id % 3 for b in STEP9.blocks})
    problems = build_fragment_problems(STEP9, part)
    booked = []
    for fp in problems:
        booked.extend(fp.intra_pairs)
        booked.extend(fp.child_in_pairs)  # child side books severed pairs
    assert sorted(booked) == STEP9.pairs()
    # and every severed pair shows up once more as the parent-side view
    severed_parent_side = [p for fp in problems for p in fp.child_out_pairs]
    severed_child_side = [p for fp in problems for p in fp.child_in_pairs]
    assert sorted(severed_parent_side) == sorted(severed_child_side)


@pytest.mark.parametrize("lattice", [MINI4, STEP9], ids=["mini4", "step9"])
def test_total_energy_exact_on_basis_states(lattice):
    # decomposition exactness: for every bitstring and several partitions the
    # mean-field energy of the basis-product state equals the exact cost
    gamma = Fraction(7, 3)
    h = DiagonalCost(lattice, gamma)
    rng = np.random.default_rng(0)
    partitions = [partition_horizontal(lattice)]
    for _ in range(10):
        nfrag = int(rng.integers(1, lattice.n + 1))
        assignment = {b: int(rng.integers(nfrag)) for b in range(lattice.n)}
        used = sorted(set(assignment.values()))
        relabel = {f: k for k, f in enumerate(used)}
        partitions.append(
            partition_custom(lattice, {b: relabel[f] for b, f in assignment.items()})
        )
    for part in partitions:
        problems = build_fragment_problems(lattice, part)
        for idx in range(1 << lattice.n):
            z = index_to_bits(idx, lattice.n)
            states = _basis_states(problems, z)
            assert total_energy(problems, states, float(gamma)) == pytest.approx(
                float(h.cost(z)), abs=1e-9
            )


def test_effective_cost_uses_mean_fields():
    # two fragments around the mini4 cut: the deep block sees its three
    # parents only through their mean fields
    part = partition_custom(MINI4, {0: 0, 1: 0, 2: 0, 3: 1})
    problems = build_fragment_problems(MINI4, part)
    deep = problems[1]
    assert deep.child_in_pairs == ((3, 0), (3, 1), (3, 2))
    gamma = 7.0 / 3.0
    # parents undug: <Z> = +1, digging the child costs -5 + 3 gamma; the deep
    # block's own entry is not read
    mean_z = np.array([1.0, 1.0, 1.0, np.nan])
    assert effective_diagonal(deep, mean_z, gamma)[1] == pytest.approx(-5 + 3 * gamma)
    # parents dug: the severed penalty vanishes
    mean_z = np.array([-1.0, -1.0, -1.0, np.nan])
    assert effective_diagonal(deep, mean_z, gamma)[1] == pytest.approx(-5.0)
    # a partition leaving blocks without a fragment has no field for them
    with pytest.raises(ValueError, match=r"mismatch: missing blocks \[0, 1, 2\]"):
        build_fragment_problems(MINI4, Partition(((3,),)))


def test_fragment_mean_fields_convention():
    part = partition_horizontal(MINI4)
    problems = build_fragment_problems(MINI4, part)
    state = init_state(3, InitKind.ALL_ZERO)
    assert np.array_equal(fragment_mean_fields(problems[0], state), [1.0, 1.0, 1.0])
    state = init_state(1, InitKind.ALL_ONE)
    assert np.array_equal(fragment_mean_fields(problems[1], state), [-1.0])


def test_boundary_kick_moves_only_stuck_parameters():
    rng = np.random.default_rng(1)
    params = np.array([0.0, 1.5, np.pi])
    kicked = boundary_kick(params, rng)
    assert kicked[1] == 1.5
    assert 0.0 < kicked[0] <= 0.1
    assert np.pi - 0.1 <= kicked[2] < np.pi


def test_sum_constraint_rescales_overfull_qubit_groups():
    circuit = build_circuit(MINI4)
    params = np.zeros(circuit.param_count)
    # qubit 0 group: single p0 plus cry p4 targeting it
    params[0], params[4] = 2.5, 1.5
    out = sum_constraint_project(circuit, params)
    assert out[0] + out[4] == pytest.approx(np.pi)
    assert out[0] / out[4] == pytest.approx(2.5 / 1.5)
    # qubit 3 has no controlled member: left alone even beyond the range
    params = np.zeros(circuit.param_count)
    params[3] = 5.0
    assert sum_constraint_project(circuit, params)[3] == 5.0


def test_scf_config_rejects_spsa():
    with pytest.raises(ValueError, match="spsa|gd and qnb"):
        ScfConfig(optimizer=Optimizer.SPSA)


def test_scf_config_rejects_no_sweeps():
    with pytest.raises(ValueError, match="max_sweeps"):
        ScfConfig(max_sweeps=0)


def test_scf_converges_on_mini4():
    gamma = Fraction(7, 3)
    oracle = enumerate_lattice(MINI4, gamma)
    result = scf_run(MINI4, partition_horizontal(MINI4), gamma, ScfConfig(seed=1))
    assert result.converged
    assert result.energy_trace[-1] == pytest.approx(-5.0, abs=1e-3)
    assert p_opt(result.final_distribution, oracle) >= 0.99
    # the plotted per-fragment traces sum to the (negated) energy
    assert sum(result.traces[-1]) == pytest.approx(-result.energy_trace[-1], abs=1e-9)


def test_scf_deterministic_per_seed():
    gamma = Fraction(8, 3)
    r1 = scf_run(STEP9, partition_horizontal(STEP9), gamma, ScfConfig(seed=4))
    r2 = scf_run(STEP9, partition_horizontal(STEP9), gamma, ScfConfig(seed=4))
    assert r1.energy_trace == r2.energy_trace
    assert np.array_equal(r1.final_distribution, r2.final_distribution)


@pytest.mark.parametrize("cut", ["rows", "columns"])
def test_energy_trace_is_total_energy_of_final_states(cut):
    gamma = Fraction(8, 3)
    if cut == "rows":
        part = partition_horizontal(STEP9)
    else:
        part = partition_custom(STEP9, {b.id: b.col for b in STEP9.blocks})
    result = scf_run(STEP9, part, gamma, ScfConfig(seed=3, max_sweeps=40))
    problems = build_fragment_problems(STEP9, part)
    want = total_energy(problems, result.final_states, float(gamma))
    if cut == "rows":
        # row fragments have no intra pair, so the sweep's energy is the
        # closed form, which sums in another order than the statevectors'
        # 2^k terms: 2.1e-14 apart here, against an energy of about 16
        assert result.energy_trace[-1] == pytest.approx(want, rel=0, abs=1e-12)
    else:
        assert result.energy_trace[-1] == want


def test_uncut_effective_diagonal_is_cached_and_read_only():
    # a single fragment severs no pair, so its effective diagonal is the
    # cached intra-fragment terms themselves
    (fp,) = build_fragment_problems(STEP9, Partition((tuple(range(STEP9.n)),)))
    assert not fp.child_in_pairs and not fp.child_out_pairs
    mean_z = np.zeros(STEP9.n)
    diag = effective_diagonal(fp, mean_z, 8 / 3)
    assert effective_diagonal(fp, mean_z + 0.5, 8 / 3) is diag
    assert effective_diagonal(fp, mean_z, 7 / 3) is not diag
    with pytest.raises(ValueError, match="read-only"):
        diag[0] = 0.0


@pytest.mark.parametrize("cut, calls, rows", [("rows", 0, 0), ("columns", 38, 1528)],
                         ids=["rows", "columns"])
def test_scf_forward_passes_are_pinned(monkeypatch, cut, calls, rows):
    # each fragment with intra pairs reuses, for its refresh cost and
    # gradient, the forward pass of the point its previous step ended at; the
    # first pass gives its initial state.  A fragment without one runs no
    # pass: every row fragment, and the one-block columns 0 and 4
    if cut == "rows":
        part = partition_horizontal(STEP9)
    else:
        part = partition_custom(STEP9, {b.id: b.col for b in STEP9.blocks})
    counts = [0, 0]
    forward = Program.forward

    def counted(self, block, init):
        counts[0] += 1
        counts[1] += len(block)
        return forward(self, block, init)

    monkeypatch.setattr(Program, "forward", counted)
    scf_run(STEP9, part, Fraction(8, 3), ScfConfig(seed=2, max_sweeps=10))
    assert counts == [calls, rows]


def test_scf_checks_qubit_cap_before_sweeping():
    assert WIDE21.n == 21
    with pytest.raises(ResourceWarning):
        scf_run(WIDE21, partition_horizontal(WIDE21), Fraction(1),
                ScfConfig(max_sweeps=1))


def test_single_fragment_scf_tracks_plain_vqe():
    # with the whole lattice in one fragment there are no severed pairs, so
    # the sweep is just a bounded VQE; both must find the same optimum
    gamma = Fraction(7, 3)
    oracle = enumerate_lattice(MINI4, gamma)
    part = Partition((tuple(range(MINI4.n)),))
    result = scf_run(
        MINI4, part, gamma,
        ScfConfig(seed=2, optimizer=Optimizer.QUASI_NEWTON_BOUNDED),
    )
    assert result.energy_trace[-1] == pytest.approx(float(oracle.ground_cost),
                                                    abs=1e-4)
    assert p_opt(result.final_distribution, oracle) >= 0.99


def test_one_fragment_steps_start_from_the_cost_at_their_start_point(monkeypatch):
    # the sum constraint and the kick move a whole-lattice fragment's point
    # between steps, so each line search must start from the cost there
    line_search = vqe._line_search
    starts = []

    def checked(f, params, fx, *args, **kwargs):
        amps = f.circuit.program.amplitudes(params, f.init)
        starts.append((fx, float(np.dot(amps * amps, f.diag))))
        return line_search(f, params, fx, *args, **kwargs)

    monkeypatch.setattr(vqe, "_line_search", checked)
    scf_run(STEP9, Partition((tuple(range(STEP9.n)),)), Fraction(8, 3),
            ScfConfig(seed=2, optimizer=Optimizer.QUASI_NEWTON_BOUNDED))
    assert len(starts) > 30
    assert [fx for fx, _ in starts] == [want for _, want in starts]


def test_a_row_sweep_runs_no_pass_and_no_effective_diagonal(monkeypatch):
    # row fragments have no intra pairs, so their closed-form objective needs
    # no statevector; the dense states are built once, after the last sweep
    def refuse(name):
        def called(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return called

    monkeypatch.setattr(Program, "forward", refuse("Program.forward"))
    monkeypatch.setattr(Program, "gradient", refuse("Program.gradient"))
    monkeypatch.setattr(decomposition, "effective_diagonal", refuse("effective_diagonal"))
    result = scf_run(STEP9, partition_horizontal(STEP9), Fraction(8, 3),
                     ScfConfig(seed=2, max_sweeps=10))
    assert [st.n for st in result.final_states] == [5, 3, 1]
