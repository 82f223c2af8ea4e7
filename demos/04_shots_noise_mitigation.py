"""Finite shots through noisy readout, then undo the damage.

Samples the converged 4-block state with per-qubit asymmetric bit flips
applied to every shot, then inverts the confusion channel by least squares
over the probability simplex. The inversion is matrix-free: each iteration
applies the channel one qubit at a time, O(n·2^n), so it runs the same way
on the 12-block instances. The Bhattacharyya distance to the exact
distribution shows how much of the error the mitigation removes.
"""

from fractions import Fraction

from pitvqe import bundled_instance_path
from pitvqe.ansatz import build_circuit, prepare
from pitvqe.hamiltonian import DiagonalCost
from pitvqe.lattice import load_instance
from pitvqe.oracle import enumerate_lattice, p_opt, violation_probability
from pitvqe.sampling import (
    bhattacharyya,
    corrupt_counts,
    flip_model,
    mitigate,
    sample,
)
from pitvqe.simulator import InitKind, probabilities
from pitvqe.vqe import VqeConfig, run_with_restarts

lattice = load_instance(bundled_instance_path("mini4"))
gamma = Fraction(7, 3)
h = DiagonalCost(lattice, gamma)
circuit = build_circuit(lattice)
oracle = enumerate_lattice(lattice, gamma)
result = run_with_restarts(circuit, h, VqeConfig(seed=1), oracle)
state = prepare(circuit, result.best_params, InitKind.ALL_ZERO)
exact = probabilities(state)

model = flip_model(lattice.n)  # p(1->0) = 0.03, p(0->1) = 0.015 per qubit
counts = corrupt_counts(sample(state, 8192, seed=1), model, seed=2)
raw = counts.to_distribution(lattice.n)
mitigated = mitigate(raw, model)

for label, dist in (("raw", raw), ("mitigated", mitigated)):
    print(f"{label:9s}  p_opt {p_opt(dist, oracle):.4f}  "
          f"p_violation {violation_probability(dist, lattice):.4f}  "
          f"d(., exact) {bhattacharyya(dist, exact):.4f}")
