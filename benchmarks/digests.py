"""Op digests of one workload in two trees: whether a change keeps every
op's results, bit for bit.

    python3 benchmarks/digests.py --parent HEAD~1 --change HEAD \\
        --workload vqe_qnb --seed 71 --ops 60 --work /tmp/digests

Each side is the committed tree of its revision, extracted by
``pairs.extract`` into a new directory under ``--work``.  Each side then
replays ops [0, N) of the workload at the seed in a process of its own,
importing that tree's ``src`` and ``perfbench``: the op's inputs, the op and
its check as ``perfbench/run.py`` runs them, numeric libraries on one
thread, the per-lattice caches cleared before each op.  An op's digest is
the SHA-256 of the ``repr`` of its check's digest, so a float matches only
its own bits.

Prints how many op digests are equal, the first op that differs, and each
side's CPU seconds per op.  Exits 0 when every digest matches, 1 otherwise.
With ``--parent HEAD --change HEAD`` it checks that op results do not
depend on the process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("pairs", HERE / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

SIDES = pairs.SIDES


def replay(checkout: Path, workload: str, seed: int, ops: int) -> None:
    """Print one JSON line per op of ``workload`` run from ``checkout``:
    its index, digest, whether its check passed, and its CPU seconds."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import run  # perfbench/run.py: one thread per numeric library

    import workloads

    chosen = workloads.WORKLOADS[workload]
    inputs = chosen.make_inputs(seed)
    for index in range(ops):
        inp = inputs.op_input(index)
        run.reset_program_caches()
        start = time.process_time()
        out = chosen.op(inp)
        cpu_s = time.process_time() - start
        verdict = inputs.check(inp, out)
        digest = hashlib.sha256(repr(verdict.digest).encode()).hexdigest()
        print(json.dumps({"op": index, "digest": digest, "ok": verdict.ok, "cpu_s": cpu_s}),
              flush=True)


def replay_side(checkout: Path, workload: str, seed: int, ops: int) -> list[dict]:
    """The op records of ``replay`` run in a new process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--replay", str(checkout),
         "--workload", workload, "--seed", str(seed), "--ops", str(ops)],
        capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Equal digests, the first op that differs (None if none) and each
    side's CPU seconds per op, over the ops both sides ran; a side that ran
    fewer ops differs at its first missing op."""
    ops = max(len(parent), len(change))
    differs = [p["digest"] != c["digest"] for p, c in zip(parent, change)]
    differs += [True] * (ops - len(differs))
    return {"ops": ops,
            "equal": differs.count(False),
            "first_differing_op": differs.index(True) if True in differs else None,
            "failed": {side: sum(not r["ok"] for r in records)
                       for side, records in zip(SIDES, (parent, change))},
            "cpu_s_per_op": {side: sum(r["cpu_s"] for r in records) / max(len(records), 1)
                             for side, records in zip(SIDES, (parent, change))}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision to check")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--work", type=Path, help="new directory for the extracted trees")
    parser.add_argument("--replay", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.replay is not None:
        replay(args.replay, args.workload, args.seed, args.ops)
        return 0
    if args.parent is None or args.work is None:
        parser.error("--parent and --work are required")
    if args.ops < 1:
        parser.error("--ops must be positive")
    records = {}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        checkout = args.work / side
        sha = pairs.extract(rev, checkout)
        records[side] = replay_side(checkout, args.workload, args.seed, args.ops)
        print(f"{side} {sha[:12]}: {len(records[side])} ops", file=sys.stderr)
    result = compare(records["parent"], records["change"])
    per_op = result["cpu_s_per_op"]
    print(f"{args.workload} seed {args.seed}: {result['equal']}/{result['ops']} op digests "
          f"equal, first differing op {result['first_differing_op']}; failed checks "
          f"{result['failed']['parent']} parent, {result['failed']['change']} change; "
          f"CPU s per op parent {per_op['parent']:.4f}, change {per_op['change']:.4f} "
          f"(x{per_op['change'] / per_op['parent']:.3f})")
    return 0 if result["first_differing_op"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
