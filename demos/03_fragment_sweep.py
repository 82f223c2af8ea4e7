"""Mean-field decomposition: solve row fragments to self-consistency.

Cuts the graded 12-block pit into one fragment per row. Each sweep gives
every fragment one optimizer iteration against the frozen mean fields of the
others, then refreshes the fields; the summed per-fragment negative costs
climb to the maximum profit.

A row fragment has no parent-child pair inside it, so its circuit is one Ry
per qubit: a product state, whose cost, gradient and mean fields the sweep
takes in closed form, with no statevector. Summed over the rows, the energy
is the multilinear extension of the pit cost C(z) at the excavation
probabilities, so this sweep is block coordinate descent on that extension,
a classical naive mean field. Entanglement enters only in fragments that
keep a pair inside, such as 2x2 tiles.
"""

from fractions import Fraction

from pitvqe import bundled_instance_path
from pitvqe.decomposition import ScfConfig, partition_horizontal, scf_run
from pitvqe.lattice import load_instance
from pitvqe.oracle import enumerate_lattice, p_opt
from pitvqe.simulator import excavation_probabilities

lattice = load_instance(bundled_instance_path("smooth12"))
gamma = Fraction(8, 3)
oracle = enumerate_lattice(lattice, gamma)
partition = partition_horizontal(lattice)
print("fragments:", partition.fragments)

result = scf_run(lattice, partition, gamma, ScfConfig(seed=1))
print(f"stopped after {result.sweeps} sweeps "
      f"(energy {result.energy_trace[-1]:+.5f}, "
      f"target {-oracle.p_opt_value})")
print(f"p_opt of the product state: "
      f"{p_opt(result.final_distribution, oracle):.4f}")

print("\nsummed negative fragment costs per sweep (every 3rd):")
for sweep in range(0, result.sweeps, 3):
    print(f"  sweep {sweep + 1:3d}: {sum(result.traces[sweep]):8.4f}")

print("\nfinal per-fragment dig probabilities:")
for fragment_id, state in enumerate(result.final_states):
    probs = " ".join(f"{p:4.2f}" for p in excavation_probabilities(state))
    print(f"  fragment {fragment_id}: [{probs}]")
