"""Solve a bundled instance end to end and watch the profile emerge.

Builds the penalty Hamiltonian for the 4-block toy pit, runs the bounded
quasi-Newton optimizer from the all-undug state, and prints how the per-block
excavation probabilities evolve along the optimization trace.
"""

from fractions import Fraction

import numpy as np

from pitvqe import bundled_instance_path
from pitvqe.ansatz import build_circuit
from pitvqe.hamiltonian import DiagonalCost, penalty_heuristic
from pitvqe.lattice import load_instance
from pitvqe.oracle import enumerate_lattice, p_opt
from pitvqe.simulator import InitKind
from pitvqe.vqe import VqeConfig, profile_evolution, run_with_restarts

lattice = load_instance(bundled_instance_path("mini4"))
print("blocks:", [(b.row, b.col, b.profit) for b in lattice.blocks])
print("penalty heuristic:", penalty_heuristic(lattice))

gamma = Fraction(7, 3)
h = DiagonalCost(lattice, gamma)
circuit = build_circuit(lattice)
oracle = enumerate_lattice(lattice, gamma)
print(f"exact optimum: profit {oracle.p_opt_value}, "
      f"ground cost {oracle.ground_cost}")

config = VqeConfig(init=InitKind.ALL_ZERO, seed=1)
result = run_with_restarts(circuit, h, config, oracle)
# the budget charges each gradient 2P evaluations; the trace holds only the
# cost evaluations themselves
print(f"final cost {result.final_cost:.6f} after "
      f"{result.evaluations_used} evaluations ({len(result.history)} of them "
      f"cost evaluations), p_opt {p_opt(result.final_distribution, oracle):.4f}")

checkpoints = np.linspace(0, len(result.param_snapshots) - 1, 6, dtype=int)
print("\nexcavation probabilities along the trace:")
for cp, profile in zip(checkpoints,
                       profile_evolution(circuit, result, config.init,
                                         checkpoints)):
    cost = result.history[cp][1]
    bar = " ".join(f"{p:4.2f}" for p in profile)
    print(f"  eval {cp:4d}  cost {cost:+8.4f}  p(dig) = [{bar}]")
