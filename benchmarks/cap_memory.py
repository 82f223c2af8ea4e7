"""Peak memory of a VQE solve at the qubit cap.

    python3 benchmarks/cap_memory.py [CHECKOUT]

For each of two 20-block lattices, graded-ore rows of widths 7-6-4-3 (36
parent-child pairs) and 8-7-5 (34 pairs), a process of its own imports
``src`` and ``perfbench`` from CHECKOUT (default: the tree this script sits
in), draws ``graded_ore(default_rng(5), widths)``, builds the full circuit
and runs ``vqe.run`` with the quasi-Newton optimizer, seed 1, 400
evaluations and gamma 5.  It prints one line per lattice: the widths, the
block and pair counts, the final cost (``repr``, so a float shows its own
bits) and the process's peak resident set (``ru_maxrss``) in MB.

Each process peaks near 1 GB, so this script is not part of any test suite;
run it on an otherwise quiet machine, one lattice at a time, as it does.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIDTHS = ((7, 6, 4, 3), (8, 7, 5))

# Run in a fresh interpreter per lattice, so ru_maxrss is that solve's peak.
SOLVE = """
import resource, sys
from fractions import Fraction
root, widths = sys.argv[1], tuple(int(w) for w in sys.argv[2].split("-"))
sys.path[:0] = [root + "/src", root + "/perfbench"]
import numpy as np
from orebody import graded_ore
from pitvqe.ansatz import build_circuit
from pitvqe.hamiltonian import DiagonalCost
from pitvqe.vqe import Optimizer, VqeConfig, run
lattice = graded_ore(np.random.default_rng(5), widths)
config = VqeConfig(optimizer=Optimizer.QUASI_NEWTON_BOUNDED, max_evaluations=400, seed=1)
result = run(build_circuit(lattice), DiagonalCost(lattice, Fraction(5)), config)
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(f"{sys.argv[2]}: {lattice.n} blocks, {len(lattice.pairs())} pairs, "
      f"final cost {result.final_cost!r}, peak RSS {rss_mb:.0f} MB")
"""


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]).resolve() if argv else ROOT
    for widths in WIDTHS:
        label = "-".join(map(str, widths))
        subprocess.run([sys.executable, "-c", SOLVE, str(checkout), label], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
