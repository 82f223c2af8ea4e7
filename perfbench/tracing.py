"""Spans and counts recorded from outside the program.

A ``Tracer`` replaces public functions of ``pitvqe`` under the names their
callers look them up by, records one span (name, start, end, parent) per
call in flat in-memory arrays, and restores every original on exit.  Self
time is a span's duration minus the time its child spans cover; the layer
of a span is the module that defines the function.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pitvqe import ansatz, decomposition, hamiltonian, lattice, oracle, sampling, vqe

LAYERS = (
    "lattice", "hamiltonian", "simulator", "ansatz", "vqe",
    "decomposition", "oracle", "sampling",
)
UNATTRIBUTED = "unattributed"
OP_SPAN = "op"


def _amps_bytes(args, kwargs) -> int:
    return args[0].amps.nbytes


def _init_bytes(args, kwargs) -> int:
    return 8 << args[0]


def _table_bytes(args, kwargs) -> int:
    return 2 * (8 << args[0].n)  # profit and violation tables, int64


def _confusion_bytes(args, kwargs) -> int:
    return 8 << (2 * args[1].n)  # dense 2^n x 2^n channel, float64


@dataclass(frozen=True)
class Target:
    owner: object  # module or class whose attribute callers look up
    attr: str
    name: str  # "<layer>.<function>"
    bytes_counter: str | None = None
    bytes_of: Callable | None = None
    objective_counter: str | None = None  # count calls of the ``f`` argument


def _targets() -> list[Target]:
    t = Target
    return [
        t(lattice.PitLattice, "pairs", "lattice.PitLattice.pairs"),
        t(lattice.PitLattice, "rows", "lattice.PitLattice.rows"),
        t(hamiltonian.DiagonalCost, "dense_diagonal",
          "hamiltonian.DiagonalCost.dense_diagonal"),
        t(ansatz, "init_state", "simulator.init_state",
          "simulator.bytes_computed", _init_bytes),
        t(ansatz, "apply_ry", "simulator.apply_ry",
          "simulator.bytes_computed", _amps_bytes),
        t(ansatz, "apply_cry", "simulator.apply_cry",
          "simulator.bytes_computed", _amps_bytes),
        t(vqe, "expect_diagonal", "simulator.expect_diagonal",
          "simulator.bytes_computed", _amps_bytes),
        *(t(mod, "probabilities", "simulator.probabilities",
            "simulator.bytes_computed", _amps_bytes)
          for mod in (vqe, decomposition, sampling)),
        *(t(mod, "prepare", "ansatz.prepare") for mod in (ansatz, vqe, decomposition)),
        *(t(mod, "build_circuit", "ansatz.build_circuit")
          for mod in (ansatz, decomposition)),
        t(vqe, "run_with_restarts", "vqe.run_with_restarts"),
        t(vqe, "run", "vqe.run"),
        t(vqe, "evaluate", "vqe.evaluate"),
        t(vqe.DescentState, "iterate", "vqe.DescentState.iterate",
          objective_counter="vqe.evaluations"),
        *(t(decomposition, fn, f"decomposition.{fn}") for fn in (
            "scf_run", "build_fragment_problems", "effective_diagonal",
            "fragment_mean_fields", "total_energy", "partition_horizontal",
            "partition_custom")),
        t(oracle, "enumerate_lattice", "oracle.enumerate_lattice",
          "oracle.table_bytes", _table_bytes),
        *(t(mod, "p_opt", "oracle.p_opt") for mod in (oracle, vqe)),
        *(t(sampling, fn, f"sampling.{fn}") for fn in (
            "sample", "corrupt_counts", "flip_model", "bhattacharyya",
            "counts_to_csv", "distribution_to_csv")),
        t(sampling.Counts, "to_distribution", "sampling.Counts.to_distribution"),
        t(sampling, "mitigate", "sampling.mitigate",
          "sampling.mitigate_bytes", _confusion_bytes),
    ]


def patch_points() -> list[tuple[object, str]]:
    """Every (owner, attribute) a tracer replaces while installed."""
    return [(tg.owner, tg.attr) for tg in _targets()]


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else UNATTRIBUTED


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, target: Target):
        nid = self._id(target.name)
        open_, close = self._open, self._close
        if target.objective_counter is not None:
            return self._wrap_optimizer_step(fn, nid, target.objective_counter)
        if target.bytes_of is None:
            def wrapper(*args, **kwargs):
                sid = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)
        else:
            counter, bytes_of, count = target.bytes_counter, target.bytes_of, self.count

            def wrapper(*args, **kwargs):
                count(counter, bytes_of(args, kwargs))
                sid = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(sid)
        return functools.update_wrapper(wrapper, fn)

    def _wrap_optimizer_step(self, fn, nid, counter):
        """Method ``fn(self, f, ...)``: also count the calls made to ``f``."""
        open_, close, count = self._open, self._close, self.count

        def counted(f):
            def objective(theta):
                count(counter)
                return f(theta)
            return objective

        def step(obj, f, *args, **kwargs):
            sid = open_(nid)
            try:
                return fn(obj, counted(f), *args, **kwargs)
            finally:
                close(sid)
        return functools.update_wrapper(step, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


@contextmanager
def installed(tracer: Tracer):
    """Replace every target with a tracing wrapper; restore on exit."""
    saved = []
    try:
        for target in _targets():
            original = vars(target.owner)[target.attr]
            saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, tracer.wrap(original, target))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap one another and
    their summed duration is the part of the parent they cover.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def summarize(names, name_id, parent, start, end) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    duration = end - start
    own = self_times(parent, start, end)
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    inclusive = np.bincount(name_id, weights=duration, minlength=k)
    self_s = np.bincount(name_id, weights=own, minlength=k)
    return {
        name: {"calls": int(calls[i]), "s": float(inclusive[i]),
               "self_s": float(self_s[i])}
        for i, name in enumerate(names)
    }


def layer_shares(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Share of root-span time that each layer's self time accounts for.

    Root spans are the benchmark's own per-op spans, whose self time (glue
    between calls and calls into unwrapped code) is ``unattributed``.
    """
    total = summary.get(OP_SPAN, {}).get("s", 0.0)
    shares = {layer: 0.0 for layer in (*LAYERS, UNATTRIBUTED)}
    if total <= 0:
        return shares
    for name, row in summary.items():
        shares[layer_of(name)] += row["self_s"] / total
    return shares
