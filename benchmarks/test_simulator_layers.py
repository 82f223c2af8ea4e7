"""Per-call timings of the compiled engine: ``Program.forward`` and
``Program.gradient`` on stringer12 and smooth12 with one parameter row, as a
VQE solve runs them, and on a 4-qubit column band with a block of 16 rows,
as a mean-field line search runs a fragment.

Each case uses seeded angles in [-pi, pi) and the cost diagonal of its
lattice at the gamma perfbench gives it (53/3 for stringer12, 8/3 for
smooth12 and the band).  A gradient is taken at the middle row of a forward
pass already run, as a solve takes it at its line search's accepted trial,
so it times the reverse sweep alone.

The first calls on a new program are timed apart, on stringer12 and the
band: compiling the circuit plus its first ``forward``, which builds the
forward tape tables, and the first ``gradient``, which builds the reverse
tables.  On the band, the first 1-row ``forward`` after a 16-row one is
timed too: the tables describe one row whatever the block size, so it
builds none.  ``_tail_pairs`` on smooth12 times the pairs each table build
and streaming pass makes.  ``amplitudes`` on an 11-block lattice (rows of
4, 4 and 3 blocks, shots_mitigate's largest shape) times the streaming pass
a circuit run once takes, the pairs it builds for the call included.

    python -m pytest benchmarks                        # time every case
    python -m pytest benchmarks --benchmark-disable    # run each case once

These cases sit outside ``testpaths``, so the tier-1 suite does not run them.
"""

from fractions import Fraction

import numpy as np
import pytest

from pitvqe import bundled_instance_path
from pitvqe.ansatz import ParamCircuit, build_circuit
from pitvqe.hamiltonian import DiagonalCost
from pitvqe.lattice import load_instance, make_lattice
from pitvqe.simulator import InitKind, _tail_pairs

BAND = make_lattice([[(0, w)] for w in (-1, 3, -2, 5)])  # one column, four rows
CASES = {  # name: (lattice, gamma, init, rows per block)
    "stringer12": (load_instance(bundled_instance_path("stringer12")), Fraction(53, 3),
                   InitKind.ALL_ZERO, 1),
    "smooth12": (load_instance(bundled_instance_path("smooth12")), Fraction(8, 3),
                 InitKind.ALL_ZERO, 1),
    "band4-b16": (BAND, Fraction(8, 3), InitKind.SUPERPOSITION, 16),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    lattice, gamma, init, b = CASES[request.param]
    circuit = build_circuit(lattice)
    rows = np.random.default_rng(lattice.n).uniform(-np.pi, np.pi, (b, circuit.param_count))
    return circuit.program, rows, DiagonalCost(lattice, gamma).dense_diagonal(), init


def test_forward(benchmark, case):
    program, rows, _, init = case
    amps = benchmark(program.forward, rows, init)[-1]
    assert amps.shape == (len(rows), 1 << program.n)


def test_gradient(benchmark, case):
    program, rows, diag, init = case
    kept = program.forward(rows, init), len(rows) // 2
    grad = benchmark(program.gradient, rows[kept[1]], diag, init, kept)
    assert grad.shape == rows[0].shape and np.isfinite(grad).all()


@pytest.mark.parametrize("name", ["stringer12", "band4-b16"])
def test_compile_and_first_forward(benchmark, name):
    lattice, _, init, b = CASES[name]
    circuit = build_circuit(lattice)
    rows = np.random.default_rng(lattice.n).uniform(-np.pi, np.pi, (b, circuit.param_count))

    def first_forward():  # a new circuit compiles a new program
        return ParamCircuit(circuit.n, circuit.gates).program.forward(rows, init)

    assert benchmark(first_forward)[-1].shape == (b, 1 << lattice.n)


def test_first_one_row_forward_after_a_block(benchmark):
    lattice, _, init, b = CASES["band4-b16"]
    circuit = build_circuit(lattice)
    rows = np.random.default_rng(lattice.n).uniform(-np.pi, np.pi, (b, circuit.param_count))

    def after_a_block():  # a new program that has run one 16-row pass
        program = ParamCircuit(circuit.n, circuit.gates).program
        program.forward(rows, init)
        return (program, rows[:1], init), {}

    amps = benchmark.pedantic(lambda program, *args: program.forward(*args),
                              setup=after_a_block, rounds=200)[-1]
    assert amps.shape == (1, 1 << lattice.n)


def test_tail_pairs(benchmark):
    program = build_circuit(CASES["smooth12"][0]).program
    pairs = benchmark(_tail_pairs, program.n, program.tail_control, program.tail_target)
    assert len(pairs) == len(program.tail_param)


@pytest.mark.parametrize("name", ["stringer12", "band4-b16"])
def test_first_gradient(benchmark, name):
    lattice, gamma, init, b = CASES[name]
    circuit = build_circuit(lattice)
    rows = np.random.default_rng(lattice.n).uniform(-np.pi, np.pi, (b, circuit.param_count))
    diag = DiagonalCost(lattice, gamma).dense_diagonal()

    def new_pass():  # a program with one forward pass run and no gradient taken
        program = ParamCircuit(circuit.n, circuit.gates).program
        kept = program.forward(rows, init), b // 2
        return (program, rows[kept[1]], diag, init, kept), {}

    grad = benchmark.pedantic(lambda program, *args: program.gradient(*args),
                              setup=new_pass, rounds=200)
    assert grad.shape == rows[0].shape and np.isfinite(grad).all()


def test_run_one_row_on_eleven_blocks(benchmark):
    lattice = make_lattice([[(c, w) for c, w in enumerate(profits)]
                            for profits in ((-2, -1, -2, -3), (1, 4, 2, -1), (3, 6, 2))])
    circuit = build_circuit(lattice)
    params = np.random.default_rng(lattice.n).uniform(-np.pi, np.pi, circuit.param_count)
    amps = benchmark(circuit.program.amplitudes, params, InitKind.ALL_ZERO)
    assert lattice.n == 11 and amps.shape == (1 << 11,)
