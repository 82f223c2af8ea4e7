"""pitvqe benchmark: closed-loop runs of one workload, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload vqe_qnb --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn from one process.  The last
line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Metric names,
units and directions are those of ``BENCHMARK.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One process generates the load.  Numeric libraries get one thread each
# (at most nproc), so a run keeps to one core and BLAS reductions run in a
# fixed order.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
# Run in a fresh interpreter: how long importing the program takes.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path.insert(0, sys.argv[1]); import pitvqe.cli; "
                "print(time.perf_counter() - t)")
TAIL_MARGIN = 10  # ops that must lie beyond the reported tail percentile


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten ops beyond it.

    With ten ops or fewer no percentile qualifies; the minimum is returned
    with percentile 0.
    """
    ordered = sorted(times)
    rank = len(ordered) - TAIL_MARGIN  # 1-based rank of the reported op
    if rank < 1:
        return ordered[0], 0.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import every pitvqe module."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_program_caches() -> None:
    """Drop the per-lattice cost tables, which each CLI run builds afresh.

    The CRy index cache stays warm: it is keyed by qubit count and gate,
    not by instance, and fills during the first op.
    """
    from pitvqe import hamiltonian

    table = getattr(hamiltonian, "_index_table", None)
    if table is not None and hasattr(table, "cache_clear"):
        table.cache_clear()


@dataclass
class OpRecord:
    seconds: float
    verdict: object | None  # workloads.Verdict; None when the op raised

    @property
    def failed(self) -> bool:
        return self.verdict is None or not self.verdict.ok

    @property
    def solved(self) -> bool:
        return self.verdict is not None and self.verdict.solved


def run_op(workload, inputs, index, tracer=None) -> OpRecord:
    """Run op ``index`` once, timed, then check its output off the clock."""
    import tracing

    inp = inputs.op_input(index)
    reset_program_caches()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.op(inp)
            dt = time.perf_counter() - t0
        else:
            with tracing.installed(tracer):
                t0 = time.perf_counter()
                with tracer.span(tracing.OP_SPAN):
                    out = workload.op(inp)
                dt = time.perf_counter() - t0
    except Exception:  # an op that raises counts as failed; keep going
        traceback.print_exc(file=sys.stderr)
        return OpRecord(time.perf_counter() - t0, None)
    return OpRecord(dt, inputs.check(inp, out))


def run_ops(workload, inputs, seconds, tracer=None):
    """Closed loop, one op at a time, until ``seconds`` have passed.

    With a tracer each op runs twice, untraced then traced, so both lists
    cover the same inputs; returns (untraced, traced).
    """
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        index = len(untraced)
        untraced.append(run_op(workload, inputs, index))
        if tracer is not None:
            traced.append(run_op(workload, inputs, index, tracer))
    return untraced, traced


def end_to_end(records, setup_s: float) -> tuple[dict[str, float], dict]:
    times = [r.seconds for r in records]
    tail_s, tail_pct = tail(times)
    values = {
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "ops": len(records),
        "tail_percentile": tail_pct,
        "failed_frac": sum(r.failed for r in records) / len(records),
        "solved_frac": sum(r.solved for r in records) / len(records),
    }
    return values, extra


def per_layer(tracer, traced, untraced) -> tuple[dict[str, float], dict]:
    import tracing

    arrays = tracer.arrays()
    summary = tracing.summarize(tracer.names, **arrays)
    ops = len(traced)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def incl(*names):
        return sum(summary.get(n, {}).get("s", 0.0) for n in names)

    def own(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_self(layer):
        return sum(row["self_s"] for name, row in summary.items()
                   if tracing.layer_of(name) == layer)

    counts = tracer.counts
    scf = [r.verdict.stats for r in traced
           if r.verdict is not None and "sweeps" in r.verdict.stats]
    iterates = calls("vqe.DescentState.iterate")
    totals = {
        "simulator.ry_calls": calls("simulator.apply_ry"),
        "simulator.ry_s": incl("simulator.apply_ry"),
        "simulator.cry_calls": calls("simulator.apply_cry"),
        "simulator.cry_s": incl("simulator.apply_cry"),
        "simulator.init_state_s": incl("simulator.init_state"),
        "simulator.expect_s": incl("simulator.expect_diagonal", "simulator.probabilities"),
        "simulator.bytes_computed": counts.get("simulator.bytes_computed", 0),
        "ansatz.prepare_calls": calls("ansatz.prepare"),
        "ansatz.prepare_self_s": own("ansatz.prepare"),
        "vqe.evaluations": counts.get("vqe.evaluations", 0),
        "vqe.runs": calls("vqe.run"),
        "vqe.iterate_calls": iterates,
        "vqe.iterate_s": incl("vqe.DescentState.iterate"),
        "vqe.self_s": layer_self("vqe"),
        "decomposition.sweeps": sum(o["sweeps"] for o in scf),
        "decomposition.effective_diagonal_calls": calls("decomposition.effective_diagonal"),
        "decomposition.effective_diagonal_s": incl("decomposition.effective_diagonal"),
        "decomposition.mean_fields_s": incl("decomposition.fragment_mean_fields"),
        "decomposition.total_energy_s": incl("decomposition.total_energy"),
        "decomposition.scf_self_s": own("decomposition.scf_run"),
        "oracle.enumerate_calls": calls("oracle.enumerate_lattice"),
        "oracle.enumerate_s": incl("oracle.enumerate_lattice"),
        "oracle.table_bytes": counts.get("oracle.table_bytes", 0),
        "hamiltonian.dense_diagonal_s": incl("hamiltonian.DiagonalCost.dense_diagonal"),
        "sampling.sample_s": incl("sampling.sample"),
        "sampling.corrupt_counts_s": incl("sampling.corrupt_counts"),
        "sampling.mitigate_s": incl("sampling.mitigate"),
        "sampling.mitigate_bytes": counts.get("sampling.mitigate_bytes", 0),
        "sampling.csv_s": incl("sampling.counts_to_csv", "sampling.distribution_to_csv"),
    }
    values = {name: value / ops for name, value in totals.items()}
    values["vqe.evals_per_iterate"] = (counts.get("vqe.evaluations", 0) / iterates
                                       if iterates else 0.0)
    values["decomposition.converged_ratio"] = (
        sum(o["converged"] for o in scf) / len(scf) if scf else 0.0)
    shares = tracing.layer_shares(summary)
    for layer, share in shares.items():
        values[f"share.{layer}"] = 100.0 * share
    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    values["trace.overhead"] = 100.0 * (traced_s / untraced_s - 1.0)
    values["trace.ops"] = ops
    return values, {"shares": shares, "traced_s": traced_s, "untraced_s": untraced_s}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "caches_warm_across_ops": ["pitvqe.simulator._CRY_INDEX_CACHE"],
        "caches_cleared_before_each_op": ["pitvqe.hamiltonian._index_table"],
    }


def emit(metrics: dict[str, float], spec: list[dict], correct: bool,
         attempted: int, failed: int) -> None:
    units = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: computed only "
            f"{sorted(set(metrics) - set(units))}, "
            f"declared only {sorted(set(units) - set(metrics))}")
    for m in spec:
        print(f"  {m['name']:<42} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict, import_s: float) -> None:
    import workloads

    workload = workloads.WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.make_inputs(seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    print(f"workload {name} seed={seed} seconds={seconds} trace={int(trace)}")

    if not trace:
        records, _ = run_ops(workload, inputs, seconds)
        values, extra = end_to_end(records, setup_s)
        failed = sum(r.failed for r in records)
        print("  op_seconds=" + ",".join(f"{r.seconds:.4f}" for r in records))
        print(f"  ops={extra['ops']} tail=p{extra['tail_percentile']:.1f} "
              f"failed_frac={extra['failed_frac']:.4f} fraction "
              f"solved_frac={extra['solved_frac']:.4f} fraction")
        emit(values, spec["end_to_end"], failed == 0, len(records), failed)
        return

    import tracing

    tracer = tracing.Tracer()
    untraced, traced = run_ops(workload, inputs, seconds, tracer)
    # a pair fails when either run fails or the traced results differ
    same = [not a.failed and not b.failed and a.verdict.digest == b.verdict.digest
            for a, b in zip(untraced, traced)]
    failed = same.count(False)
    values, extra = per_layer(tracer, traced, untraced)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"{name}-seed{seed}-spans.npz")
    print(f"  traced ops={len(traced)} valid and equal to untraced: "
          f"{same.count(True)}/{len(same)}; tracing overhead "
          f"{values['trace.overhead']:.1f}% "
          f"({extra['traced_s']:.3f} s traced vs {extra['untraced_s']:.3f} s)")
    print("  layer share of op time (self time; one thread, so every span "
          "is on the blocking path):")
    for layer, share in sorted(extra["shares"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<14} {100.0 * share:6.2f}%")
    emit(values, spec["per_layer"], failed == 0, len(same), failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pitvqe" / "__init__.py").is_file():
        print(f"error: no pitvqe sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pitvqe
    import workloads

    if Path(pitvqe.__file__).resolve().parent != SRC / "pitvqe":
        print(f"error: pitvqe imported from {pitvqe.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = import_seconds()
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(workloads.WORKLOADS):
        print("error: BENCHMARK.json and workloads.py name different workloads",
              file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in chosen):
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(names)} or all", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment()))
    for name in chosen:
        run_workload(name, args.seed, args.seconds, bool(args.trace), spec, import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
