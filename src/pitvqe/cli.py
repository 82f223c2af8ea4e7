"""Experiment runner: solve, decompose, oracle, compare-optimizers, sample.

Every mode resolves its settings, runs the experiment, prints a one-line
summary, and (with --out) writes plot-ready CSVs plus a run.meta file that
records every flag as resolved.  Identical settings and seed reproduce the
output files byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Callable

import numpy as np

from . import BUNDLED_INSTANCES, bundled_instance_path
from .ansatz import build_circuit, prepare
from .decomposition import (
    Partition,
    ScfConfig,
    load_partition,
    partition_horizontal,
    scf_run,
)
from .hamiltonian import DiagonalCost, penalty_heuristic
from .lattice import PitLattice, load_instance
from .oracle import enumerate_lattice, p_opt, violation_probability
from .sampling import (
    ReadoutModel,
    bhattacharyya,
    corrupt_counts,
    counts_to_csv,
    distribution_to_csv,
    identity_model,
    load_readout_model,
    mitigate,
    sample,
)
from .simulator import InitKind, probabilities
from .vqe import Optimizer, VqeConfig, compare_optimizers, run_with_restarts

INITS = {"zero": InitKind.ALL_ZERO, "one": InitKind.ALL_ONE,
         "plus": InitKind.SUPERPOSITION}
OPTIMIZERS = {"spsa": Optimizer.SPSA, "gd": Optimizer.GRADIENT_DESCENT,
              "qnb": Optimizer.QUASI_NEWTON_BOUNDED}


class UserError(Exception):
    """Bad flags or unreadable input; maps to exit code 1."""


def _resolve_instance(spec: str) -> tuple[str, PitLattice]:
    if os.path.exists(spec):
        return spec, load_instance(spec)
    if spec in BUNDLED_INSTANCES:
        return spec, load_instance(bundled_instance_path(spec))
    raise UserError(f"instance file not found: {spec}")


def _resolve_gamma(text: str, lattice: PitLattice) -> Fraction:
    if text == "auto":
        return penalty_heuristic(lattice)
    try:
        gamma = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UserError(f"--gamma must be a rational like 53/3 or 'auto', got {text!r}")
    if gamma < 0:
        raise UserError(f"--gamma must be non-negative, got {text!r}")
    return gamma


def _resolve_partition(spec: str, lattice: PitLattice) -> Partition:
    if spec == "horizontal":
        return partition_horizontal(lattice)
    if not os.path.exists(spec):
        raise UserError(f"partition file not found: {spec}")
    return load_partition(spec, lattice)


def _resolve_noise(spec: str, n: int) -> ReadoutModel | None:
    if spec == "none":
        return None
    if not os.path.exists(spec):
        raise UserError(f"noise model file not found: {spec}")
    return load_readout_model(spec, n)


def _resolve(args) -> PitLattice:
    """Load the instance, and replace ``args.gamma`` by the penalty used, as
    run.meta records it; ``args.instance`` stays as given, a file path or a
    bundled instance's name, so run.meta does not depend on the install."""
    args.instance, lattice = _resolve_instance(args.instance)
    args.gamma = _resolve_gamma(args.gamma, lattice)
    return lattice


def _problem(args):
    """The resolved instance, its cost, its circuit and its exact oracle."""
    lattice = _resolve(args)
    return (lattice, DiagonalCost(lattice, args.gamma), build_circuit(lattice),
            enumerate_lattice(lattice, args.gamma))


class _OutDir:
    """The output directory, made with run.meta in it: every parsed flag but
    ``fn`` and ``out``, as resolved, one ``key=value`` line each in key order."""

    def __init__(self, args):
        self.path = args.out
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)
        self.write("run.meta", _lines, [f"{k}={v}" for k, v in sorted(vars(args).items())
                                        if k not in ("fn", "out")])

    def write(self, name: str, render: Callable[..., str], *args) -> None:
        """Write ``render(*args)``; without an output directory, render nothing."""
        if self.path is None:
            return
        with open(os.path.join(self.path, name), "w", encoding="ascii") as fh:
            fh.write(render(*args))


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _trace_csv(history) -> str:
    return _lines(["evaluation,cost"]
                  + [f"{evaluation},{cost:.12g}" for evaluation, cost in history])


def _fragments_csv(traces) -> str:
    return _lines(["sweep,fragment,negative_cost"]
                  + [f"{sweep},{fragment},{value:.12g}"
                     for sweep, row in enumerate(traces, start=1)
                     for fragment, value in enumerate(row)])


def _solve_config(args, optimizer: Optimizer) -> VqeConfig:
    return VqeConfig(
        init=INITS[args.init],
        optimizer=optimizer,
        max_evaluations=args.max_evals,
        seed=args.seed,
    )


def _cmd_oracle(args) -> int:
    oracle = _problem(args)[3]
    _OutDir(args).write("oracle.csv", _lines, [
        "p_opt_value,ground_cost,optimal_count",
        f"{oracle.p_opt_value},{oracle.ground_cost},{len(oracle.optimal_set)}",
    ])
    print(f"P_opt={oracle.p_opt_value} optimal_count={len(oracle.optimal_set)}")
    return 0


def _cmd_solve(args) -> int:
    lattice, h, circuit, oracle = _problem(args)
    config = _solve_config(args, OPTIMIZERS[args.optimizer])
    result = run_with_restarts(circuit, h, config, oracle, restarts=args.restarts)
    popt = p_opt(result.final_distribution, oracle)
    out = _OutDir(args)
    out.write("trace.csv", _trace_csv, result.history)
    out.write("distribution.csv", distribution_to_csv,
              result.final_distribution, lattice.n)
    print(f"P_opt={oracle.p_opt_value} p_opt={popt:.3f}")
    return 0


def _cmd_compare(args) -> int:
    _, h, circuit, oracle = _problem(args)
    configs = [_solve_config(args, opt) for opt in OPTIMIZERS.values()]
    reports = compare_optimizers(circuit, h, configs, oracle, restarts=args.restarts)
    out = _OutDir(args)
    lines = ["optimizer,evaluations_to_converge,final_cost"]
    for report in reports:
        lines.append(
            f"{report.optimizer.value},{report.evaluations_to_converge},"
            f"{report.final_cost:.12g}"
        )
        print(f"{report.optimizer.value}: evaluations="
              f"{report.evaluations_to_converge} final_cost={report.final_cost:.6f}")
    out.write("report.csv", _lines, lines)
    return 0


def _cmd_decompose(args) -> int:
    lattice = _resolve(args)
    partition = _resolve_partition(args.partition, lattice)
    config = ScfConfig(
        init=INITS[args.init],
        optimizer=OPTIMIZERS[args.optimizer],
        seed=args.seed,
    )
    result = scf_run(lattice, partition, args.gamma, config)
    oracle = enumerate_lattice(lattice, args.gamma)
    popt = p_opt(result.final_distribution, oracle)
    out = _OutDir(args)
    out.write("fragments.csv", _fragments_csv, result.traces)
    out.write("distribution.csv", distribution_to_csv,
              result.final_distribution, lattice.n)
    print(f"P_opt={oracle.p_opt_value} p_opt={popt:.3f} "
          f"sweeps={result.sweeps} energy={result.energy_trace[-1]:.6f}")
    return 0


def _cmd_sample(args) -> int:
    lattice, h, circuit, oracle = _problem(args)
    config = _solve_config(args, OPTIMIZERS[args.optimizer])
    result = run_with_restarts(circuit, h, config, oracle, restarts=args.restarts)
    state = prepare(circuit, result.best_params, INITS[args.init])
    counts = sample(state, args.shots, args.seed)
    model = _resolve_noise(args.noise, lattice.n)
    if model is not None:
        counts = corrupt_counts(counts, model, args.seed + 1)
    dist = counts.to_distribution(lattice.n)
    out = _OutDir(args)
    out.write("counts.csv", counts_to_csv, counts, lattice.n)
    out.write("distribution.csv", distribution_to_csv, dist, lattice.n)
    exact = probabilities(state)
    summary = (f"P_opt={oracle.p_opt_value} p_opt={p_opt(dist, oracle):.3f} "
               f"p_v={violation_probability(dist, lattice):.4f} "
               f"d={bhattacharyya(dist, exact):.4f}")
    if args.mitigate:
        mitigated = mitigate(dist, model if model is not None
                             else identity_model(lattice.n))
        out.write("mitigated.csv", distribution_to_csv, mitigated, lattice.n)
        summary += (f" p_opt_mit={p_opt(mitigated, oracle):.3f} "
                    f"p_v_mit={violation_probability(mitigated, lattice):.4f} "
                    f"d_mit={bhattacharyya(mitigated, exact):.4f}")
    print(summary)
    return 0


def _add_common(parser):
    parser.add_argument("--instance", required=True,
                        help="instance file path or bundled name")
    parser.add_argument("--gamma", default="auto",
                        help="rational penalty like 53/3, or 'auto'")
    parser.add_argument("--out", default=None, help="output directory for CSVs")


def _add_solver_flags(parser):
    parser.add_argument("--init", choices=sorted(INITS), default="zero")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-evals", type=int, default=5000)
    parser.add_argument("--restarts", type=int, default=5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitvqe",
        description="Variational solver for 2D open-pit profile optimization",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("oracle", help="exact enumeration of the instance")
    _add_common(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("solve", help="run the variational solver")
    _add_common(p)
    _add_solver_flags(p)
    p.add_argument("--optimizer", choices=sorted(OPTIMIZERS), default="qnb")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("compare-optimizers",
                       help="run spsa, gd and qnb on the same problem")
    _add_common(p)
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("decompose", help="mean-field fragment solver")
    _add_common(p)
    p.add_argument("--partition", default="horizontal",
                   help="'horizontal' or a partition file")
    p.add_argument("--init", choices=sorted(INITS), default="plus")
    p.add_argument("--optimizer", choices=("gd", "qnb"), default="gd")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("sample", help="finite shots, optional noise/mitigation")
    _add_common(p)
    _add_solver_flags(p)
    p.add_argument("--optimizer", choices=sorted(OPTIMIZERS), default="qnb")
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--noise", default="none",
                   help="'none' or a noise model file (q<i> p10 p01 lines)")
    p.add_argument("--mitigate", action="store_true")
    p.set_defaults(fn=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UserError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, ResourceWarning, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
