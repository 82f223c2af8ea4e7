"""Race the three optimizers on the 12-block diagonal stringer.

All three reach the same optimum; what differs is how many cost evaluations
each one spends getting there. SPSA needs only two evaluations per step but
many steps. The quasi-Newton method is charged 2P evaluations per gradient,
what a parameter-shift gradient over P parameters costs on hardware (here the
gradient itself comes exactly from one adjoint sweep), and still finishes far
cheaper.
"""

from fractions import Fraction

from pitvqe import bundled_instance_path
from pitvqe.ansatz import build_circuit
from pitvqe.hamiltonian import DiagonalCost
from pitvqe.lattice import load_instance
from pitvqe.oracle import enumerate_lattice
from pitvqe.simulator import InitKind
from pitvqe.vqe import Optimizer, VqeConfig, compare_optimizers

lattice = load_instance(bundled_instance_path("stringer12"))
gamma = Fraction(53, 3)
h = DiagonalCost(lattice, gamma)
circuit = build_circuit(lattice)
oracle = enumerate_lattice(lattice, gamma)
print(f"target cost: {-oracle.p_opt_value}")

budgets = {Optimizer.SPSA: 40000, Optimizer.GRADIENT_DESCENT: 5000,
           Optimizer.QUASI_NEWTON_BOUNDED: 5000}
configs = [VqeConfig(init=InitKind.ALL_ZERO, optimizer=opt, seed=1,
                     max_evaluations=budget)
           for opt, budget in budgets.items()]
for report in compare_optimizers(circuit, h, configs, oracle):
    print(f"  {report.optimizer.value:4s}  "
          f"evaluations {report.evaluations_to_converge:6d}  "
          f"final cost {report.final_cost:+.6f}")
