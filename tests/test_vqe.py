"""Variational minimization: evaluation, gradients, optimizers, restarts."""

from fractions import Fraction

import numpy as np
import pytest

from pitvqe import bundled_instance_path
from pitvqe.ansatz import build_circuit, prepare
from pitvqe.hamiltonian import DiagonalCost
from pitvqe.lattice import load_instance, parse_instance
from pitvqe.oracle import enumerate_lattice, p_opt
from pitvqe.simulator import InitKind, probabilities
from pitvqe.vqe import (
    DescentState,
    Objective,
    Optimizer,
    VqeConfig,
    compare_optimizers,
    evaluate,
    gradient_adjoint,
    gradient_fd,
    profile_evolution,
    run,
    run_with_restarts,
    spsa_step,
)

MINI4 = parse_instance("rows 2\n0:-1 1:2 2:-1\n1:5\n")


@pytest.fixture(scope="module")
def mini4_problem():
    h = DiagonalCost(MINI4, Fraction(4))
    return build_circuit(MINI4), h, enumerate_lattice(MINI4, Fraction(4))


def test_zero_params_superposition_gives_mean_cost(mini4_problem):
    circuit, h, _ = mini4_problem
    value = evaluate(circuit, np.zeros(circuit.param_count), h,
                     InitKind.SUPERPOSITION)
    assert value == pytest.approx(h.dense_diagonal().mean())
    assert value == pytest.approx(0.5)


def test_zero_params_all_zero_costs_nothing(mini4_problem):
    circuit, h, _ = mini4_problem
    assert evaluate(circuit, np.zeros(circuit.param_count), h,
                    InitKind.ALL_ZERO) == pytest.approx(0.0)


def test_gradient_fd_matches_richardson(mini4_problem):
    # halving the step must shrink the central-difference error about 4x
    circuit, h, _ = mini4_problem
    rng = np.random.default_rng(11)
    ratios = []
    for _ in range(20):
        params = rng.uniform(-np.pi, np.pi, size=circuit.param_count)
        g1 = gradient_fd(circuit, params, h, InitKind.ALL_ZERO, step=2e-3)
        g2 = gradient_fd(circuit, params, h, InitKind.ALL_ZERO, step=1e-3)
        g0 = gradient_fd(circuit, params, h, InitKind.ALL_ZERO, step=1e-5)
        e1 = np.linalg.norm(g1 - g0)
        e2 = np.linalg.norm(g2 - g0)
        if e2 > 1e-9:
            ratios.append(e1 / e2)
    assert 3.5 <= np.median(ratios) <= 4.5


def test_gradient_fd_rejects_bad_step(mini4_problem):
    circuit, h, _ = mini4_problem
    with pytest.raises(ValueError):
        gradient_fd(circuit, np.zeros(circuit.param_count), h,
                    InitKind.ALL_ZERO, step=0.0)


def test_spsa_step_descends_on_quadratic():
    rng = np.random.default_rng(5)
    params = np.full(4, 2.0)
    for k in range(200):
        params = spsa_step(params, lambda p: float(p @ p), k, 0.3, 10.0, rng)
    assert np.linalg.norm(params) < 0.3


def test_qnb_solves_mini4_spec_point(mini4_problem):
    circuit, h, oracle = mini4_problem
    config = VqeConfig(init=InitKind.ALL_ZERO,
                       optimizer=Optimizer.QUASI_NEWTON_BOUNDED, seed=1)
    result = run_with_restarts(circuit, h, config, oracle)
    assert result.final_cost == pytest.approx(-5.0, abs=1e-6)
    assert p_opt(result.final_distribution, oracle) >= 0.99


def test_all_zero_near_zero_params_keeps_probabilities_small(mini4_problem):
    circuit, h, _ = mini4_problem
    config = VqeConfig(init=InitKind.ALL_ZERO, seed=3)
    result = run(circuit, h, config)
    dist0 = profile_evolution(circuit, result, InitKind.ALL_ZERO, [0])[0]
    # initial angles are below pi/10, so every dig probability < sin^2(pi/20)
    assert dist0.max() < 0.05


def test_budget_respected_and_history_dense(mini4_problem):
    circuit, h, _ = mini4_problem
    config = VqeConfig(seed=0, max_evaluations=37)
    result = run(circuit, h, config)
    assert result.evaluations_used <= 37
    assert [k for k, _ in result.history] == list(range(len(result.history)))


def test_variational_bound_never_violated(mini4_problem):
    circuit, h, oracle = mini4_problem
    floor = float(oracle.ground_cost) - 1e-9
    for optimizer in Optimizer:
        config = VqeConfig(optimizer=optimizer, seed=2, max_evaluations=800)
        result = run(circuit, h, config)
        assert all(cost >= floor for _, cost in result.history)


def test_descent_costs_non_increasing(mini4_problem):
    circuit, h, _ = mini4_problem
    config = VqeConfig(optimizer=Optimizer.QUASI_NEWTON_BOUNDED, seed=4)
    result = run(circuit, h, config)
    # the best-so-far envelope of the trace is monotone by construction;
    # the accepted-iterate sequence is what the driver keeps, ends at the best
    assert result.final_cost == pytest.approx(min(c for _, c in result.history))


def test_same_seed_reproduces_bitwise(mini4_problem):
    circuit, h, _ = mini4_problem
    config = VqeConfig(optimizer=Optimizer.SPSA, seed=9, max_evaluations=600)
    r1, r2 = run(circuit, h, config), run(circuit, h, config)
    assert np.array_equal(r1.best_params, r2.best_params)
    assert r1.history == r2.history


def test_restart_policy_reseeds_on_failure():
    lat = load_instance(bundled_instance_path("smooth12"))
    gamma = Fraction(8, 3)
    h = DiagonalCost(lat, gamma)
    circuit = build_circuit(lat)
    oracle = enumerate_lattice(lat, gamma)
    # seed 6 from AllZero stalls without restarts but recovers with them
    config = VqeConfig(init=InitKind.ALL_ZERO,
                       optimizer=Optimizer.QUASI_NEWTON_BOUNDED, seed=6)
    stuck = run(circuit, h, config)
    assert p_opt(stuck.final_distribution, oracle) < 0.5
    recovered = run_with_restarts(circuit, h, config, oracle)
    assert p_opt(recovered.final_distribution, oracle) >= 0.99


def test_compare_optimizers_reports_all():
    # the instance-default penalty 7/3, where all three methods succeed
    h = DiagonalCost(MINI4, Fraction(7, 3))
    circuit = build_circuit(MINI4)
    oracle = enumerate_lattice(MINI4, Fraction(7, 3))
    configs = [VqeConfig(optimizer=opt, seed=1, max_evaluations=3000)
               for opt in Optimizer]
    reports = compare_optimizers(circuit, h, configs, oracle)
    assert [r.optimizer for r in reports] == list(Optimizer)
    for report in reports:
        assert report.final_cost == pytest.approx(-5.0, abs=1e-3)


def test_profile_evolution_checkpoints():
    h = DiagonalCost(MINI4, Fraction(7, 3))
    circuit = build_circuit(MINI4)
    result = run(circuit, h, VqeConfig(seed=1))
    last = len(result.param_snapshots) - 1
    best = int(np.argmin([c for _, c in result.history]))
    first, at_best = profile_evolution(circuit, result, InitKind.ALL_ZERO,
                                       [0, best])
    assert first.shape == at_best.shape == (4,)
    assert at_best.min() > 0.9  # converged profile digs every block
    with pytest.raises(ValueError):
        profile_evolution(circuit, result, InitKind.ALL_ZERO, [last + 1])


def test_config_validation():
    with pytest.raises(ValueError):
        VqeConfig(max_evaluations=0)


class _Counted:
    """Cost and gradient of the mini4 VQE problem, counting gradient calls."""

    def __init__(self, problem):
        self.circuit, self.h, _ = problem
        self.gradients = 0

    def cost(self, theta):
        return evaluate(self.circuit, theta, self.h, InitKind.SUPERPOSITION)

    def grad(self, theta):
        self.gradients += 1
        return gradient_fd(self.circuit, theta, self.h, InitKind.SUPERPOSITION)


@pytest.mark.parametrize("quasi_newton", [False, True])
def test_refreshing_descent_takes_the_gradients_it_reads(mini4_problem, quasi_newton):
    problem = _Counted(mini4_problem)
    state = DescentState(np.full(problem.circuit.param_count, 0.3), (0.0, np.pi),
                         quasi_newton)
    for _ in range(5):
        before = problem.gradients
        state.iterate(problem.cost, problem.grad, refresh=True)
        # the refresh gradient, plus the new point's for the curvature update;
        # gradient descent reads the new one only when its cost window is flat
        assert problem.gradients - before == (2 if quasi_newton else 1)


def test_pending_gradient_is_taken_at_the_accepted_point(mini4_problem):
    problem = _Counted(mini4_problem)
    state = DescentState(np.full(problem.circuit.param_count, 0.3), None, False)
    state.iterate(problem.cost, problem.grad)
    accepted = state.params.copy()
    state.params = accepted + 0.25  # moved by the caller, as a projection does
    assert problem.gradients == 1
    np.testing.assert_array_equal(state.grad, problem.grad(accepted))


def test_objective_with_a_replaced_diagonal_matches_a_fresh_one(mini4_problem):
    circuit, h, _ = mini4_problem
    init, diag = InitKind.SUPERPOSITION, h.dense_diagonal()
    start = np.full(circuit.param_count, 0.3)
    rows = np.array([start + 0.1, start + 0.2])
    f = Objective(circuit, -diag, init)
    f(start)
    f.gradient(start)
    f.values(rows)  # passes run under the old diagonal
    f.diag = diag
    fresh = Objective(circuit, diag, init)
    costs = f.values(rows)
    assert costs == fresh.values(rows)
    assert costs == [evaluate(circuit, row, h, init) for row in rows]
    assert f(start.copy()) == fresh(start.copy())
    assert f.gradient(start).tobytes() == fresh.gradient(start).tobytes()
    kept = f.point(start.copy())
    f.values(rows)  # a block leaves the last point in place
    assert f.point(start.copy()) is kept
    # a block row's point reuses the row's forward pass, and so does its gradient
    assert f.point(rows[1].copy())[2][1] == 1
    assert f.gradient(rows[1]).tobytes() == fresh.gradient(rows[1]).tobytes()
    assert f.gradient(rows[1]).tobytes() == gradient_adjoint(
        circuit, rows[1], diag, init).tobytes()
    row_amps = f.amplitudes(rows[1].copy())
    f.amplitudes(start + 0.5)  # a new row replaces the block and the last point
    assert f.amplitudes(rows[1].copy()) is not row_amps


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("optimizer", list(Optimizer))
@pytest.mark.parametrize("name, gamma", [("mini4", Fraction(7, 3)),
                                         ("stringer12", Fraction(53, 3))])
def test_final_distribution_equals_a_fresh_run_of_the_best_params(name, gamma, optimizer,
                                                                  seed):
    # the solve takes it from its own passes, not from a streaming pass
    lattice = load_instance(bundled_instance_path(name))
    circuit, h = build_circuit(lattice), DiagonalCost(lattice, gamma)
    config = VqeConfig(optimizer=optimizer, seed=seed)
    result = run(circuit, h, config)
    fresh = build_circuit(lattice)  # a program of its own, with no pass run
    want = probabilities(prepare(fresh, result.best_params, config.init))
    assert result.final_distribution.tobytes() == want.tobytes()
