"""Per-call timings of the mean-field sweep: ``scf_run`` on smooth12 cut by
rows, whose fragments have no intra pairs and so take the closed-form
objective, and on step9 cut by columns, whose bands carry controlled
rotations and run on statevectors.  Both at gamma 8/3, the plus init and
gradient descent, as perfbench's scf_fragments ops run them.

Each case runs one sweep and eleven sweeps from the same seed; neither
converges that early.  The one-sweep run also pays the set-up (fragment
problems, circuits, initial mean fields) and the final states and product
distribution, so one sweep's cost is the difference of the two medians over
ten.

    python -m pytest benchmarks/test_scf_layers.py                      # time every case
    python -m pytest benchmarks/test_scf_layers.py --benchmark-disable  # run each case once

These cases sit outside ``testpaths``, so the tier-1 suite does not run them.
"""

from fractions import Fraction

import pytest

from pitvqe import bundled_instance_path
from pitvqe.decomposition import ScfConfig, partition_custom, partition_horizontal, scf_run
from pitvqe.lattice import load_instance
from pitvqe.simulator import InitKind
from pitvqe.vqe import Optimizer

SMOOTH12 = load_instance(bundled_instance_path("smooth12"))
STEP9 = load_instance(bundled_instance_path("step9"))
CASES = {
    "smooth12-rows": (SMOOTH12, partition_horizontal(SMOOTH12)),
    "step9-columns": (STEP9, partition_custom(STEP9, {b.id: b.col for b in STEP9.blocks})),
}


@pytest.mark.parametrize("sweeps", [1, 11])
@pytest.mark.parametrize("name", list(CASES))
def test_scf_sweeps(benchmark, name, sweeps):
    lattice, partition = CASES[name]
    config = ScfConfig(init=InitKind.SUPERPOSITION, optimizer=Optimizer.GRADIENT_DESCENT,
                       seed=1, max_sweeps=sweeps)
    result = benchmark(scf_run, lattice, partition, Fraction(8, 3), config)
    assert result.sweeps == sweeps and not result.converged
