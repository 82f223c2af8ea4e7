import numpy as np
import pytest

from orebody import exact_gamma, graded_ore, max_closure
from pitvqe.lattice import make_lattice
from pitvqe.oracle import enumerate_lattice
from workloads import SCF_SHAPES, SHOTS_SHAPES

SHAPES = SCF_SHAPES + SHOTS_SHAPES


@pytest.mark.parametrize("shape", SHAPES)
def test_same_seed_same_lattice(shape):
    a = graded_ore(np.random.default_rng(7), shape)
    b = graded_ore(np.random.default_rng(7), shape)
    assert a == b
    assert [len(r) for r in a.rows()] == list(shape)


@pytest.mark.parametrize("seed", range(12))
def test_generated_lattices_are_never_trivial(seed):
    rng = np.random.default_rng(seed)
    for shape in SHOTS_SHAPES + SCF_SHAPES[-1:]:
        lattice = graded_ore(rng, shape)
        result = enumerate_lattice(lattice, exact_gamma(lattice))
        full_pit = (1 << lattice.n) - 1
        assert result.p_opt_value > 0
        assert full_pit not in result.optimal_set


@pytest.mark.parametrize("seed", range(30))
def test_max_closure_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, 5, size=rng.integers(1, 4))
    lattice = make_lattice(
        [[(c, int(rng.integers(-6, 7))) for c in range(w)] for w in widths])
    gamma = exact_gamma(lattice)
    result = enumerate_lattice(lattice, gamma)
    best, profile = max_closure(lattice)
    assert best == result.p_opt_value
    index = sum(z << i for i, z in enumerate(profile))
    assert index in result.optimal_set
    # the penalty is exact: every ground state is an optimal feasible pit
    assert result.ground_set <= result.optimal_set
