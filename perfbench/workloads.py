"""The three workloads: their seeded inputs, one op each, and output checks.

An op is the sequence of public calls one CLI mode makes, minus argument
parsing and process start.  Ops look every program function up through its
module (``vqe.run_with_restarts``, not a local name) so that a tracer can
replace it.  ``check`` runs after the op's clock stops.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from pitvqe import (
    ansatz,
    bundled_instance_path,
    decomposition,
    hamiltonian,
    oracle,
    sampling,
    simulator,
    vqe,
)
from pitvqe.lattice import PitLattice, load_instance
from pitvqe.simulator import InitKind

from orebody import exact_gamma, graded_ore, max_closure

# Penalties of the bundled instances used by the acceptance suite.
BUNDLED_GAMMA = {"stringer12": Fraction(53, 3), "smooth12": Fraction(8, 3),
                 "step9": Fraction(8, 3)}
VQE_RESTARTS = 5  # the CLI default
VQE_MAX_EVALS = 5000  # the CLI default
# The CLI runs up to 500 sweeps; mean-field sweeps on the generated lattices
# never meet the energy criterion, so every op would run all 500 and a run
# would hold only a few ops.  The per-sweep work is unchanged by the cap.
SCF_MAX_SWEEPS = 100
# Rows widths, surface first: 18, 17 and 16 blocks, four rows each, so row
# fragments hold 4-5 qubits (16-32 amplitudes) and column bands 4.
SCF_SHAPES = ((5, 5, 4, 4), (5, 4, 4, 4), (4, 4, 4, 4))
# 11, 10, 9 and 8 blocks; the dense mitigation grows about 9x per qubit.
SHOTS_SHAPES = ((4, 4, 3), (5, 5), (5, 4), (4, 4))
# Lattices drawn per shape.  Op cost depends on the draw, so a run spreads
# its ops over many lattices rather than repeating a few.
SCF_DRAWS = 4
SHOTS_DRAWS = 8
SHOTS = 8192
ANGLE_JITTER = 0.2  # radians; Ry angles sit this close to 0 or pi
CRY_JITTER = 0.1
PROB_TOL = 1e-9


@dataclass(frozen=True)
class Instance:
    name: str
    lattice: PitLattice
    gamma: Fraction
    p_opt_value: int  # from the independent min-cut reference
    target: tuple[int, ...]  # one optimal pit profile


def _instance(name: str, lattice: PitLattice, gamma: Fraction) -> Instance:
    best, profile = max_closure(lattice)
    return Instance(name, lattice, gamma, best, profile)


def _bundled(name: str) -> Instance:
    return _instance(name, load_instance(bundled_instance_path(name)),
                     BUNDLED_GAMMA[name])


def _generated(rng: np.random.Generator, shapes, draws: int) -> list[Instance]:
    """``draws`` lattices of every shape, interleaved shape by shape."""
    out = []
    for k in range(draws):
        for shape in shapes:
            lattice = graded_ore(rng, shape)
            out.append(_instance(f"ore{lattice.n}.{k}", lattice, exact_gamma(lattice)))
    return out


def op_rng(seed: int, index: int) -> np.random.Generator:
    """Per-op random stream, fixed by the workload seed and the op index."""
    return np.random.default_rng([seed, index])


def _is_distribution(p) -> bool:
    p = np.asarray(p)
    return bool(np.all(np.isfinite(p)) and np.all(p >= 0.0)
                and abs(p.sum() - 1.0) <= PROB_TOL)


def _sha(data: str | np.ndarray) -> str:
    raw = data.encode() if isinstance(data, str) else np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(raw).hexdigest()


@dataclass(frozen=True)
class Verdict:
    ok: bool  # valid output: finite, a probability vector, oracle agrees
    solved: bool  # meets the workload's own success threshold
    digest: tuple  # exact fingerprint of the op's results
    stats: dict = field(default_factory=dict)  # per-op solver counts


# -- vqe_qnb: the ``solve`` mode ------------------------------------------------

class VqeInputs:
    def __init__(self, seed: int):
        self.seed = seed
        stringer, smooth = _bundled("stringer12"), _bundled("smooth12")
        # Two quick stringer12 solves per smooth12 solve keep the median and
        # the tail inside one instance's spread of solve times instead of in
        # the gap between the two instances.
        self.instances = [stringer, smooth, stringer]

    def op_input(self, index: int):
        inst = self.instances[index % len(self.instances)]
        return inst, int(op_rng(self.seed, index).integers(2**31))

    def check(self, inp, out) -> Verdict:
        inst, _ = inp
        result, orc = out["result"], out["oracle"]
        ok = (orc.p_opt_value == inst.p_opt_value
              and math.isfinite(result.final_cost)
              and _is_distribution(result.final_distribution)
              and out["csv"].count("\n") == (1 << inst.lattice.n) + 1)
        solved = (abs(result.final_cost + orc.p_opt_value) < 1e-4
                  and out["p_opt"] >= 0.99)
        digest = (result.final_cost, result.evaluations_used, out["p_opt"],
                  _sha(result.final_distribution), _sha(out["csv"]))
        return Verdict(ok, solved, digest)


def vqe_op(inp) -> dict[str, Any]:
    inst, vqe_seed = inp
    lat, gamma = inst.lattice, inst.gamma
    h = hamiltonian.DiagonalCost(lat, gamma)
    circuit = ansatz.build_circuit(lat)
    orc = oracle.enumerate_lattice(lat, gamma)
    config = vqe.VqeConfig(init=InitKind.ALL_ZERO,
                           optimizer=vqe.Optimizer.QUASI_NEWTON_BOUNDED,
                           max_evaluations=VQE_MAX_EVALS, seed=vqe_seed)
    result = vqe.run_with_restarts(circuit, h, config, orc, restarts=VQE_RESTARTS)
    popt = oracle.p_opt(result.final_distribution, orc)
    csv = sampling.distribution_to_csv(result.final_distribution, lat.n)
    return {"oracle": orc, "result": result, "p_opt": popt, "csv": csv}


# -- scf_fragments: the ``decompose`` mode --------------------------------------

class ScfInputs:
    def __init__(self, seed: int):
        self.seed = seed
        generated = _generated(np.random.default_rng(seed), SCF_SHAPES, SCF_DRAWS)
        step9 = _bundled("step9")
        self.cycle = []
        for k in range(SCF_DRAWS):  # each round: one lattice per shape, then step9
            for inst in generated[k * len(SCF_SHAPES):(k + 1) * len(SCF_SHAPES)]:
                self.cycle += [(inst, "rows"), (inst, "columns")]
            self.cycle += [(step9, "rows"), (step9, "columns")]

    def op_input(self, index: int):
        inst, cut = self.cycle[index % len(self.cycle)]
        return inst, cut, int(op_rng(self.seed, index).integers(2**31))

    def check(self, inp, out) -> Verdict:
        inst = inp[0]
        result, orc = out["result"], out["oracle"]
        ok = (orc.p_opt_value == inst.p_opt_value
              and all(math.isfinite(e) for e in result.energy_trace)
              and _is_distribution(result.final_distribution)
              and out["csv"].count("\n") == (1 << inst.lattice.n) + 1)
        digest = (result.sweeps, result.converged, tuple(result.energy_trace),
                  out["p_opt"], _sha(result.final_distribution), _sha(out["csv"]))
        return Verdict(ok, out["p_opt"] >= 0.9, digest,
                       {"sweeps": result.sweeps, "converged": result.converged})


def scf_op(inp) -> dict[str, Any]:
    inst, cut, scf_seed = inp
    lat, gamma = inst.lattice, inst.gamma
    if cut == "rows":  # Ry-only fragments
        partition = decomposition.partition_horizontal(lat)
    else:  # one band per column: fragments with CRy gates
        partition = decomposition.partition_custom(
            lat, {b.id: b.col for b in lat.blocks})
    config = decomposition.ScfConfig(init=InitKind.SUPERPOSITION,
                                     optimizer=vqe.Optimizer.GRADIENT_DESCENT,
                                     seed=scf_seed, max_sweeps=SCF_MAX_SWEEPS)
    result = decomposition.scf_run(lat, partition, gamma, config)
    orc = oracle.enumerate_lattice(lat, gamma)
    popt = oracle.p_opt(result.final_distribution, orc)
    csv = sampling.distribution_to_csv(result.final_distribution, lat.n)
    return {"oracle": orc, "result": result, "p_opt": popt, "csv": csv}


# -- shots_mitigate: sampling, readout noise and mitigation ---------------------

class ShotsInputs:
    def __init__(self, seed: int):
        self.seed = seed
        self.instances = _generated(np.random.default_rng(seed), SHOTS_SHAPES,
                                    SHOTS_DRAWS)
        self._oracles: dict[str, oracle.OracleResult] = {}

    def op_input(self, index: int):
        """A circuit bound near the target pit, standing in for a solve."""
        inst = self.instances[index % len(self.instances)]
        rng = op_rng(self.seed, index)
        circuit = ansatz.build_circuit(inst.lattice)
        params = np.empty(circuit.param_count)
        for gate in circuit.gates:
            if isinstance(gate, ansatz.SingleRy):
                jitter = abs(rng.normal(0.0, ANGLE_JITTER))
                params[gate.param_id] = (np.pi - jitter if inst.target[gate.qubit]
                                         else jitter)
            else:
                params[gate.param_id] = rng.normal(0.0, CRY_JITTER)
        return inst, params, int(rng.integers(2**31))

    def check(self, inp, out) -> Verdict:
        inst = inp[0]
        if inst.name not in self._oracles:
            self._oracles[inst.name] = oracle.enumerate_lattice(inst.lattice, inst.gamma)
        orc = self._oracles[inst.name]
        ok = (orc.p_opt_value == inst.p_opt_value
              and out["noisy"].shots == SHOTS
              and _is_distribution(out["raw"])
              and _is_distribution(out["mitigated"])
              and math.isfinite(out["d_raw"]) and math.isfinite(out["d_mit"]))
        digest = (tuple(sorted(out["noisy"].histogram.items())),
                  oracle.p_opt(out["raw"], orc), oracle.p_opt(out["mitigated"], orc),
                  out["d_raw"], out["d_mit"], _sha(out["mitigated"]), _sha(out["csv"]))
        return Verdict(ok, out["d_mit"] < out["d_raw"], digest)


def shots_op(inp) -> dict[str, Any]:
    inst, params, shot_seed = inp
    n = inst.lattice.n
    circuit = ansatz.build_circuit(inst.lattice)
    state = ansatz.prepare(circuit, params, InitKind.ALL_ZERO)
    exact = simulator.probabilities(state)
    counts = sampling.sample(state, SHOTS, shot_seed)
    model = sampling.flip_model(n)
    noisy = sampling.corrupt_counts(counts, model, shot_seed + 1)
    raw = noisy.to_distribution(n)
    mitigated = sampling.mitigate(raw, model)
    return {
        "exact": exact, "noisy": noisy, "raw": raw, "mitigated": mitigated,
        "d_raw": sampling.bhattacharyya(raw, exact),
        "d_mit": sampling.bhattacharyya(mitigated, exact),
        "csv": (sampling.counts_to_csv(noisy, n)
                + sampling.distribution_to_csv(raw, n)
                + sampling.distribution_to_csv(mitigated, n)),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], Any]  # seed -> inputs with op_input and check
    op: Callable[[Any], dict]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("vqe_qnb", VqeInputs, vqe_op),
        Workload("scf_fragments", ScfInputs, scf_op),
        Workload("shots_mitigate", ShotsInputs, shots_op),
    )
}
