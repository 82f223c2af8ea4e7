"""Variational minimization of the diagonal cost over circuit parameters.

Three optimizers are provided, all self-contained: SPSA, gradient descent
with backtracking, and a bounded BFGS-style quasi-Newton method.  All runs
are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

# The ufunc np.clip calls on float bounds, without its Python wrappers.
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from .ansatz import ParamCircuit, prepare
from .hamiltonian import DiagonalCost
from .oracle import OracleResult, p_opt
from .simulator import InitKind, excavation_probabilities, expect_diagonal, probabilities


class Optimizer(Enum):
    SPSA = "spsa"
    GRADIENT_DESCENT = "gd"
    QUASI_NEWTON_BOUNDED = "qnb"


# SPSA gain schedules a_k = a/(A+k+1)^SPSA_ALPHA and c_k = SPSA_C/(k+1)^SPSA_GAMMA;
# each run sets a (calibrated for a ~0.1 rad first step) and A (1% of the budget)
SPSA_C = 0.2
SPSA_ALPHA = 0.602
SPSA_GAMMA = 0.101
INIT_PARAM_RANGE = (-np.pi / 10, np.pi / 10)  # initial parameters drawn uniformly
TOLERANCE = 1e-6  # spread of the last accepted costs that counts as converged
GRAD_TOLERANCE = 1e-3  # stationarity check for the descent methods
# Amplitudes a line search runs at once: its trial points go through the
# circuit in blocks of 256 >> n rows, so circuits of 9 or more qubits run one
# trial at a time.
BLOCK_AMPLITUDES = 256
RESTART_P_OPT = 0.5  # restart while the best run's p_opt is below this


@dataclass(frozen=True)
class VqeConfig:
    init: InitKind = InitKind.ALL_ZERO
    optimizer: Optimizer = Optimizer.QUASI_NEWTON_BOUNDED
    max_evaluations: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be positive")


@dataclass
class VqeResult:
    best_params: np.ndarray
    history: list[tuple[int, float]]
    param_snapshots: list[np.ndarray]
    final_cost: float
    final_distribution: np.ndarray
    evaluations_used: int


class _BudgetExhausted(Exception):
    pass


def _row_costs(amps: np.ndarray, diag: np.ndarray) -> list[float]:
    """Each row's cost under the diagonal, as floats.  A (1, 2^n) by (2^n,)
    product per row runs the ddot of ``np.dot`` on that row, which one
    (B, 2^n) by (2^n,) product would not."""
    sq = amps * amps
    return np.matmul(sq[:, None, :], diag)[:, 0].tolist()


class Objective:
    """The cost of a circuit's state under a dense diagonal, as a descent
    step takes it.

    ``values`` runs a (B, P) block of parameter rows and returns their costs
    as floats, each row's taken by the same ddot as ``expect_diagonal``'s
    ``np.dot``; it books nothing.  ``record`` books one cost in ``history``,
    so a line search books only the trials it reaches; called directly the
    objective does both for one row.  A point is (params, amplitudes,
    forward), where ``forward`` is the (pass, row) of the ``Program.forward``
    pass that ran ``params``.  ``point`` keeps the last point it returned,
    across blocks, and otherwise takes a row of the last block, so the cost,
    amplitudes and gradient at one point, or at a trial the line search ran,
    share one forward pass.  No pass depends on ``diag``, so a caller may
    replace it between steps.
    """

    def __init__(self, circuit: ParamCircuit, diag: np.ndarray, init: InitKind,
                 history: list[tuple[int, float]]):
        self.circuit, self.diag, self.init, self.history = circuit, diag, init, history
        self.n = circuit.n
        self._rows = np.empty((0, circuit.param_count))  # the last block run
        self._forward = self._last = None

    def _run(self, rows: np.ndarray) -> np.ndarray:
        self._rows = rows
        self._forward = self.circuit.program.forward(rows, self.init)
        return self._forward[4]

    def values(self, rows: np.ndarray) -> list[float]:
        return _row_costs(self._run(rows), self.diag)

    def record(self, params: np.ndarray, value: float) -> float:
        self.history.append((len(self.history), value))
        return value

    def __call__(self, params: np.ndarray) -> float:
        params = self.circuit.bind(params)
        amps = self.amplitudes(params)
        return self.record(params, float(np.dot(amps * amps, self.diag)))

    def point(self, params: np.ndarray) -> tuple:
        """The point at ``params``: the last one or a row of the last block
        when its bits match, else a run of its own."""
        key = params.tobytes()
        if self._last is not None and self._last[0].tobytes() == key:
            return self._last
        keys = self._rows.tobytes()
        at = keys.find(key)
        while at > 0 and at % len(key):  # a match straddling two rows
            at = keys.find(key, at + 1)
        if at < 0:
            self._run(params[None])
            at = 0
        row = at // len(key)
        self._last = (self._rows[row], self._forward[4][row], (self._forward, row))
        return self._last

    def amplitudes(self, params: np.ndarray) -> np.ndarray:
        return self.point(params)[1]

    def gradient(self, params: np.ndarray) -> np.ndarray:
        params = self.circuit.bind(params)
        return gradient_adjoint(self.circuit, params, self.diag, self.init,
                                self.point(params)[2])


class _Evaluator(Objective):
    """An ``Objective`` that charges the budget and tracks the best point.

    A cost evaluation costs 1 and gets one trace row and parameter snapshot.
    A gradient costs 2P, what a central-difference or parameter-shift
    gradient takes, charged in full or not at all; it adds no trace rows.
    """

    def __init__(self, circuit, h, init, budget):
        super().__init__(circuit, h.dense_diagonal(), init, [])
        self.budget = budget
        self.used = 0
        self.snapshots: list[np.ndarray] = []
        self.best_cost = np.inf
        self.best_params: np.ndarray | None = None

    def _charge(self, evaluations: int) -> None:
        if self.used + evaluations > self.budget:
            raise _BudgetExhausted
        self.used += evaluations

    def record(self, params: np.ndarray, value: float) -> float:
        self._charge(1)
        if not np.isfinite(value):
            raise FloatingPointError(
                f"non-finite cost {value} at parameters {params!r}"
            )
        super().record(params, value)
        self.snapshots.append(np.array(params))
        if value < self.best_cost:
            self.best_cost = value
            self.best_params = np.array(params)
        return value

    def gradient(self, params: np.ndarray) -> np.ndarray:
        self._charge(2 * params.size)
        return super().gradient(params)


def evaluate(
    circuit: ParamCircuit, params: Sequence[float], h: DiagonalCost, init: InitKind
) -> float:
    """Expectation of the diagonal cost in the prepared state."""
    return expect_diagonal(prepare(circuit, params, init), h)


def gradient_fd(
    circuit: ParamCircuit,
    params: Sequence[float],
    h: DiagonalCost,
    init: InitKind,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of evaluate() in parameter space."""
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for k in range(params.size):
        e = np.zeros_like(params)
        e[k] = step
        grad[k] = (
            evaluate(circuit, params + e, h, init)
            - evaluate(circuit, params - e, h, init)
        ) / (2 * step)
    return grad


def gradient_adjoint(
    circuit: ParamCircuit, params: Sequence[float], diag: np.ndarray, init: InitKind,
    forward=None,
) -> np.ndarray:
    """Exact gradient of the expectation of a dense diagonal ``diag``.

    One forward and one reverse sweep over the circuit (Jones & Gacon 2020,
    arXiv:2009.02823) instead of gradient_fd's 2P circuit runs; ``forward``,
    the (pass, row) of a forward pass that ran ``params``, stands in for the
    forward sweep (see ``Program.gradient``).
    """
    params = circuit.bind(params)
    if np.shape(diag) != (1 << circuit.n,):
        raise ValueError(f"diagonal of shape {np.shape(diag)} for {circuit.n} qubits")
    grad = circuit.program.gradient(params, diag, init, forward)
    if not np.isfinite(grad).all():
        raise FloatingPointError(f"non-finite gradient at parameters {params!r}")
    return grad


def spsa_step(
    params: np.ndarray,
    cost_fn: Callable[[np.ndarray], float],
    k: int,
    a: float,
    A: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One SPSA update: two evaluations along a random +-1 perturbation."""
    ak = a / (A + k + 1) ** SPSA_ALPHA
    ck = SPSA_C / (k + 1) ** SPSA_GAMMA
    delta = rng.integers(0, 2, size=params.size) * 2.0 - 1.0
    e_plus = cost_fn(params + ck * delta)
    e_minus = cost_fn(params - ck * delta)
    ghat = (e_plus - e_minus) / (2.0 * ck) / delta
    return params - ak * ghat


def _window_converged(costs: list[float], tol: float, window: int = 10) -> bool:
    if len(costs) < window:
        return False
    tail = costs[-window:]
    return max(tail) - min(tail) < tol


def _project(params: np.ndarray, bounds: tuple[float, float] | None) -> np.ndarray:
    if bounds is None:
        return params
    return _clip(params, bounds[0], bounds[1])


def _line_search(
    f, params, fx, direction, slope, bounds, t0=1.0, shrink=0.5, c1=1e-4, tries=60
):
    """Backtracking Armijo search along direction, projected into bounds.

    Trial steps t0 shrink^j run in blocks of ``BLOCK_AMPLITUDES >> f.n``
    rows when ``f`` has ``values`` (a block's costs as floats, no side
    effects) and ``record`` (charge and record one cost): one call costs the
    whole block, then the trials replay in order, each recorded and given
    the Armijo test on its float, up to the first accepted one.  Charges,
    history, the budget and the non-finite check so act at the trial they
    would act at one trial at a time, and rows past the accepted trial count
    for nothing.  A plain callable is a block of one that records as it
    evaluates.

    Returns (new_params, new_cost, accepted_step).
    """
    if hasattr(f, "values"):
        rows, values, record = max(1, BLOCK_AMPLITUDES >> f.n), f.values, f.record
    else:  # a plain callable: a block of one that records as it evaluates
        rows, values, record = 1, lambda block: [f(block[0])], lambda cand, fc: fc
    t = t0
    for start in range(0, tries, rows):
        steps = []
        for _ in range(min(rows, tries - start)):
            steps.append(t)
            t *= shrink
        cands = _project(params + np.array(steps)[:, None] * direction, bounds)
        for step, cand, fc in zip(steps, cands, values(cands)):
            fc = record(cand, fc)
            if fc <= fx + c1 * slope * step or fc < fx - 1e-15:
                return cand, fc, step
    return params, fx, t


class DescentState:
    """Stepwise gradient-descent / BFGS driver.

    One ``iterate`` call performs one accepted-iterate update (gradient,
    backtracking line search, curvature update) from the cost ``f`` and its
    gradient ``grad``, keeping every parameter inside ``bounds`` (lo, hi) unless
    it is None.  Both the batch VQE loop (unbounded) and the per-fragment
    self-consistent sweep (bounded) drive this same object.  The gradient at
    an accepted point is taken when first read: by the curvature update, the
    stationarity check, or the next iterate unless that one refreshes.
    """

    def __init__(self, params, bounds: tuple[float, float] | None, quasi_newton: bool):
        self.params = _project(np.array(params, dtype=float), bounds)
        self.bounds = bounds
        self.quasi_newton = quasi_newton
        self.H = np.eye(self.params.size)
        self.fx: float | None = None
        self._grad: np.ndarray | None = None
        self._pending = None  # (grad, params) of a gradient not taken yet
        self.accepted: list[float] = []
        # gradient descent grows the trial step after successful searches so
        # flat directions with tiny gradients still make O(1) progress
        self.step_scale = 1.0

    @property
    def grad(self) -> np.ndarray | None:
        """The gradient at the last accepted point, taken on first read."""
        if self._pending is not None:
            grad, params = self._pending
            self._grad, self._pending = grad(params), None
        return self._grad

    def iterate(self, f, grad, refresh: bool = False) -> bool:
        """Advance one iteration; returns True when converged.

        ``refresh`` re-evaluates cost and gradient at the current point first,
        for callers whose cost function changed since the previous call.
        """
        if self.fx is None or refresh:
            self.fx = f(self.params)
            self._grad, self._pending = grad(self.params), None
            if not self.accepted:
                self.accepted.append(self.fx)
        g = self.grad
        if self.quasi_newton:
            direction = -self.H @ g
            if np.dot(direction, g) >= 0:
                self.H = np.eye(self.params.size)
                direction = -g
        else:
            direction = -g
        slope = float(np.dot(g, direction))
        if abs(slope) < 1e-14 and np.linalg.norm(g) < 1e-9:
            return True
        t0 = self.step_scale if not self.quasi_newton else 1.0
        new_params, new_fx, t = _line_search(
            f, self.params, self.fx, direction, slope, self.bounds, t0=t0
        )
        if not self.quasi_newton:
            self.step_scale = min(max(t * 4.0, 1.0), 1e15)
        # np.allclose's test on finite parameters, without its wrapper
        if new_fx >= self.fx - 1e-15 and bool((abs(new_params - self.params) <= (
                1e-8 + 1e-5 * abs(self.params))).all()):
            return True
        old_params = self.params
        self.params, self.fx, self._pending = new_params, new_fx, (grad, new_params)
        if self.quasi_newton:
            s = new_params - old_params
            y = self.grad - g
            sy = float(np.dot(s, y))
            if sy > 1e-12:
                rho = 1.0 / sy
                I = np.eye(s.size)
                V = I - rho * np.outer(s, y)
                self.H = V @ self.H @ V.T + rho * np.outer(s, s)
        self.accepted.append(new_fx)
        # a flat cost window alone can fire while crawling out of a saddle,
        # so also require approximate stationarity
        return _window_converged(self.accepted, TOLERANCE) and bool(
            np.max(np.abs(self.grad)) < GRAD_TOLERANCE
        )


def _descent_loop(f, params, quasi_newton: bool):
    """Shared driver for gradient descent and the quasi-Newton method."""
    state = DescentState(params, None, quasi_newton)
    while not state.iterate(f, f.gradient):
        pass
    return state.params


def _spsa_loop(f, params, rng: np.random.Generator):
    A = 0.01 * max(1, (f.budget - f.used) // 3)
    # first-step calibration: aim the k=0 update at ~0.1 rad per parameter
    mags = []
    for _ in range(5):
        delta = rng.integers(0, 2, size=params.size) * 2.0 - 1.0
        diff = f(params + SPSA_C * delta) - f(params - SPSA_C * delta)
        mags.append(abs(diff) / (2.0 * SPSA_C))
    mean_mag = max(np.mean(mags), 1e-10)
    a = 0.1 * (A + 1) ** SPSA_ALPHA / mean_mag
    accepted = []
    k = 0
    while True:
        params = spsa_step(params, f, k, a, A, rng)
        accepted.append(f(params))  # trace + best-point tracking at the iterate
        k += 1
        if _window_converged(accepted, TOLERANCE):
            break
    return params


def run(circuit: ParamCircuit, h: DiagonalCost, config: VqeConfig) -> VqeResult:
    """Minimize the cost; deterministic given config.seed."""
    rng = np.random.default_rng(config.seed)
    params = rng.uniform(*INIT_PARAM_RANGE, size=circuit.param_count)
    f = _Evaluator(circuit, h, config.init, config.max_evaluations)
    try:
        if config.optimizer is Optimizer.SPSA:
            _spsa_loop(f, params, rng)
        else:
            _descent_loop(
                f, params,
                quasi_newton=config.optimizer is Optimizer.QUASI_NEWTON_BOUNDED,
            )
    except _BudgetExhausted:
        pass
    dist = probabilities(prepare(circuit, f.best_params, config.init))
    return VqeResult(
        best_params=f.best_params,
        history=f.history,
        param_snapshots=f.snapshots,
        final_cost=f.best_cost,
        final_distribution=dist,
        evaluations_used=f.used,
    )


def run_with_restarts(
    circuit: ParamCircuit,
    h: DiagonalCost,
    config: VqeConfig,
    oracle: OracleResult | None = None,
    restarts: int = 5,
) -> VqeResult:
    """Re-run with fresh seeds when the oracle says the run got stuck."""
    if restarts < 0:
        raise ValueError(f"restarts must be non-negative, got {restarts}")
    result = run(circuit, h, config)
    if oracle is None:
        return result
    best = result
    attempt = 0
    while p_opt(best.final_distribution, oracle) < RESTART_P_OPT and attempt < restarts:
        attempt += 1
        config = replace(config, seed=config.seed + 104729 * attempt)
        result = run(circuit, h, config)
        if result.final_cost < best.final_cost:
            best = result
    return best


@dataclass(frozen=True)
class OptimizerReport:
    optimizer: Optimizer
    evaluations_to_converge: int
    final_cost: float


def compare_optimizers(
    circuit: ParamCircuit,
    h: DiagonalCost,
    configs: Sequence[VqeConfig],
    oracle: OracleResult | None = None,
    restarts: int = 5,
) -> list[OptimizerReport]:
    """Run each config on the same problem and report convergence effort."""
    reports = []
    for config in configs:
        result = run_with_restarts(circuit, h, config, oracle=oracle, restarts=restarts)
        reports.append(
            OptimizerReport(
                optimizer=config.optimizer,
                evaluations_to_converge=result.evaluations_used,
                final_cost=result.final_cost,
            )
        )
    return reports


def profile_evolution(
    circuit: ParamCircuit,
    result: VqeResult,
    init: InitKind,
    checkpoints: Sequence[int],
) -> list[np.ndarray]:
    """Per-site excavation probabilities p(z_i = 1) at chosen evaluations."""
    out = []
    for cp in checkpoints:
        if not 0 <= cp < len(result.param_snapshots):
            raise ValueError(f"checkpoint {cp} outside recorded history")
        state = prepare(circuit, result.param_snapshots[cp], init)
        out.append(excavation_probabilities(state))
    return out
