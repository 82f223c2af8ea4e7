"""Per-call timings of the compiled engine: ``Program.forward`` and
``Program.gradient`` on stringer12 and smooth12 with one parameter row, as a
VQE solve runs them, and on a 4-qubit column band with a block of 16 rows,
as a mean-field line search runs a fragment.

Each case uses seeded angles in [-pi, pi) and the cost diagonal of its
lattice at the gamma perfbench gives it (53/3 for stringer12, 8/3 for
smooth12 and the band).  A gradient is taken at the middle row of a forward
pass already run, as a solve takes it at its line search's accepted trial,
so it times the reverse sweep alone.

    python -m pytest benchmarks                        # time every case
    python -m pytest benchmarks --benchmark-disable    # run each case once

These cases sit outside ``testpaths``, so the tier-1 suite does not run them.
"""

from fractions import Fraction

import numpy as np
import pytest

from pitvqe import bundled_instance_path
from pitvqe.ansatz import build_circuit
from pitvqe.hamiltonian import DiagonalCost
from pitvqe.lattice import load_instance, make_lattice
from pitvqe.simulator import InitKind

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
