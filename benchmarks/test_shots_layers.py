"""Per-call timings of the shots pipeline's layers at n = 8 and n = 11, of
mitigation also at n = 14 and 16, and of one readout-channel pass at n = 8,
11 and 16.

Each case times one public call on inputs shaped like a ``pitvqe sample``
run: rows of 4, 4, 3 and 3, or four rows of 4, blocks starting at column 0
(n = 8 and 11 take the first two or three rows), Ry angles near pi on the
upper-left blocks and near 0 elsewhere, CRy angles near 0, 8192 shots and
the default flip model.  The channel pass corrupts a seeded Dirichlet
distribution, since a 16-block circuit is not needed to time it.

    python -m pytest benchmarks                        # time every case
    python -m pytest benchmarks --benchmark-disable    # run each case once

These cases sit outside ``testpaths``, so the tier-1 suite does not run them.
"""

import functools

import numpy as np
import pytest

from pitvqe.ansatz import ParamCircuit, SingleRy, build_circuit, prepare
from pitvqe.lattice import make_lattice
from pitvqe.sampling import (corrupt_counts, corrupt_distribution, flip_model, mitigate,
                             sample)
from pitvqe.simulator import InitKind

SHOTS = 8192
WIDTHS = {8: (4, 4), 11: (4, 4, 3), 14: (4, 4, 3, 3), 16: (4, 4, 4, 4)}


@functools.cache
def _inputs(n):
    rows = [[(col, 3 - col + row) for col in range(width)]
            for row, width in enumerate(WIDTHS[n])]
    circuit = build_circuit(make_lattice(rows))
    rng = np.random.default_rng(n)
    params = np.empty(circuit.param_count)
    for gate in circuit.gates:
        if isinstance(gate, SingleRy):
            jitter = abs(rng.normal(0.0, 0.2))
            params[gate.param_id] = np.pi - jitter if gate.qubit % 4 < 2 else jitter
        else:
            params[gate.param_id] = rng.normal(0.0, 0.1)
    state = prepare(circuit, params, InitKind.ALL_ZERO)
    model = flip_model(n)
    counts = sample(state, SHOTS, seed=n)
    noisy = corrupt_counts(counts, model, seed=n + 1)
    return circuit, state, model, counts, noisy.to_distribution(n)


@pytest.fixture(scope="module", params=[8, 11], ids=lambda n: f"n{n}")
def shots(request):
    return _inputs(request.param)


def test_flip_model(benchmark, shots):
    circuit = shots[0]
    assert benchmark(flip_model, circuit.n).n == circuit.n


def test_sample(benchmark, shots):
    state = shots[1]
    assert benchmark(sample, state, SHOTS, 7).shots == SHOTS


def test_corrupt_counts(benchmark, shots):
    _, _, model, counts, _ = shots
    assert benchmark(corrupt_counts, counts, model, 8).shots == SHOTS


@pytest.mark.parametrize("n", [8, 11, 16], ids=lambda n: f"n{n}")
def test_corrupt_distribution(benchmark, n):
    dist = np.random.default_rng(n).dirichlet(np.ones(1 << n))
    noisy = benchmark(corrupt_distribution, dist, flip_model(n))
    assert noisy.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("n", sorted(WIDTHS), ids=lambda n: f"n{n}")
def test_mitigate(benchmark, n):
    _, _, model, _, raw = _inputs(n)
    assert benchmark(mitigate, raw, model).sum() == pytest.approx(1.0)


def test_compile(benchmark, shots):
    circuit = shots[0]
    program = benchmark(lambda: ParamCircuit(circuit.n, circuit.gates).program)
    assert program.n == circuit.n
