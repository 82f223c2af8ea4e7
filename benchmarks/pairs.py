"""Alternating parent/change pairs of perfbench runs, written as a BENCH json.

    python3 benchmarks/pairs.py --parent HEAD~1 --change HEAD \\
        --workload shots_mitigate --seed 163 --pairs 10 --out BENCH.json \\
        --work /tmp/pairs

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in its own checkout, T being BENCHMARK.json's ``run_seconds``.
Each side is the committed tree of its revision, ``--parent`` or
``--change``, extracted with ``git archive`` into a new directory under
``--work``, so both sides import from fresh trees alike.  The first run of
a pair alternates between parent and change, the parent first in pair 0.

The workload's runs and their summary go into ``--out`` under the
workload's name, beside the workloads already there for the same revisions.
The file names the parent's and the change's commits, and whether the
repository's tracked files differed from the change's commit when the runs
started (``change_dirty``), edits that no run measured.
For each end-to-end metric of BENCHMARK.json the summary gives each side's
quartiles, the change's median relative to the parent's, how much worse
that is in the metric's bad direction, the metric's bound, the spread of
the parent's runs (q75 - q25), and the pairs the change won, ties counting
for neither.  A gain holds when the change wins nine tenths of the pairs
and the medians differ by more than that spread.  Beside it, ``op_counts``
gives each side's median op count and one least-squares fit of peak_rss_mb
over every run of both sides, with a common slope per 1,000 ops and one
intercept per side: a run keeps every op's record, so its peak RSS grows
with the ops it completes, and a faster side reads higher on peak_rss_mb
for that alone.  The change's intercept less the parent's is the memory
change at equal op count.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
DESCRIPTION = (
    "Alternating parent/change pairs of `python3 perfbench/run.py --workload W "
    "--seed S --seconds T --trace 0`; the first run of a pair alternates between "
    "parent and change. `parent` and `change` are the commits measured, and "
    "`change_dirty` says whether the working tree's tracked files differed from "
    "the change's commit, edits that no run measured. Every run's end-to-end "
    "readings are listed with its op count; the summary gives each side's median "
    "and quartiles, the change's relative median difference, and the pairs the "
    "change won; `op_counts` gives each side's median op count and one "
    "least-squares fit of peak_rss_mb over every run of both sides, a common slope "
    "per 1,000 ops and an intercept per side, since peak RSS grows with the ops a "
    "run completes; the intercepts' difference is the memory change at equal op "
    "count.")


def extract(rev: str, dest: Path) -> str:
    """Write the committed tree of ``rev`` into the new directory ``dest``;
    returns the commit's full hash."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def differs_from(sha: str) -> bool:
    """Whether the repository's tracked files differ from commit ``sha``."""
    code = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", sha, "--"]).returncode
    if code not in (0, 1):
        raise subprocess.CalledProcessError(code, "git diff --quiet")
    return code == 1


def first_side(pair: int) -> str:
    return SIDES[pair % 2]


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run in ``checkout``: its op count, failures, verdict and
    the metrics of its closing JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"ops": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            **{name: metric["value"] for name, metric in result["metrics"].items()}}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json, the pairs' summary."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        p25, p50, p75 = (float(v) for v in np.percentile(parent, [25, 50, 75]))
        quartiles = [float(v) for v in np.percentile(change, [25, 50, 75])]
        rel = (quartiles[1] - p50) / p50
        better = 1.0 if metric["better"] == "higher" else -1.0
        summary[name] = {
            "parent_q25_median_q75": [p25, p50, p75],
            "change_q25_median_q75": quartiles,
            "median_change_rel": rel,
            "worse_by_rel": max(0.0, -better * rel),
            "bound": metric["bound"],
            "parent_iqr": p75 - p25,
            "change_wins": sum(better * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return summary


def op_counts(pairs: list[dict]) -> dict:
    """Per side, the median op count and the intercept of the least-squares
    fit peak_rss_mb = slope * ops / 1000 + intercept[side] over every run of
    both sides; the common slope, and the change's intercept less the
    parent's.  Where every run has one op count the slope is not determined
    (the minimum-norm fit is taken), but the intercepts' difference is."""
    runs = [(side, p[side]) for side in SIDES for p in pairs]
    design = np.array([[run["ops"] / 1000.0, side == "parent", side == "change"]
                       for side, run in runs], dtype=float)
    fit = np.linalg.lstsq(design, [run["peak_rss_mb"] for _, run in runs], rcond=None)[0]
    slope, intercepts = float(fit[0]), dict(zip(SIDES, (float(v) for v in fit[1:])))
    return {**{side: {"ops_median": float(np.median([p[side]["ops"] for p in pairs])),
                      "peak_rss_mb_intercept": intercepts[side]} for side in SIDES},
            "peak_rss_mb_per_1000_ops": slope,
            "peak_rss_mb_change_at_equal_ops": intercepts["change"] - intercepts["parent"]}


def gain_shown(row: dict) -> bool:
    """Whether a summary row shows a gain: nine tenths of the pairs won and
    the medians apart by more than the parent's spread."""
    gap = abs(row["change_q25_median_q75"][1] - row["parent_q25_median_q75"][1])
    return row["change_wins"] >= 0.9 * row["pairs"] and gap > row["parent_iqr"]


def host() -> str:
    return (f"{os.cpu_count()} vCPUs, {platform.system()}, Python {platform.python_version()}, "
            f"numpy {np.__version__}")


def record(out: Path, revisions: dict, workload: str, entry: dict) -> dict:
    """``out``'s contents with ``entry`` added under ``workload``; raises
    ValueError if ``out`` measures other ``revisions`` (its ``parent``,
    ``change`` and ``change_dirty``) or has the workload."""
    data = (json.loads(out.read_text()) if out.exists() else
            {"description": DESCRIPTION, **revisions, "host": host(), "workloads": {}})
    for key, value in revisions.items():
        if data.get(key) != value:
            raise ValueError(f"{out} measures {key} {data.get(key)}, not {value}")
    if workload in data["workloads"]:
        raise ValueError(f"{out} already holds {workload}; write to another file")
    data["workloads"][workload] = entry
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision to measure")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True,
                        help="new directory for the extracted trees")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    checkouts = {side: args.work / side for side in SIDES}
    parent = extract(args.parent, checkouts["parent"])
    change = extract(args.change, checkouts["change"])
    revisions = {"parent": parent, "change": change, "change_dirty": differs_from(change)}
    record(args.out, revisions, args.workload, {})  # refuse before running
    pairs = []
    for index in range(args.pairs):
        first = first_side(index)
        readings = {}
        for side in sorted(SIDES, key=lambda s: s != first):
            readings[side] = run_side(checkouts[side], args.workload, args.seed, seconds)
            print(f"pair {index} {side}: ops={readings[side]['ops']} ops_per_s="
                  f"{readings[side]['ops_per_s']:.2f} peak_rss_mb="
                  f"{readings[side]['peak_rss_mb']:.1f}", file=sys.stderr)
        pairs.append({"pair": index, "first": first, **{s: readings[s] for s in SIDES}})
    summary = summarize(pairs, spec["end_to_end"])
    counts = op_counts(pairs)
    entry = {"seed": args.seed, "seconds": seconds, "pairs": pairs, "summary": summary,
             "op_counts": counts}
    args.out.write_text(json.dumps(record(args.out, revisions, args.workload, entry),
                                   indent=1) + "\n")
    for name, row in summary.items():
        verdict = ("gain" if gain_shown(row) else
                   "worse than bound" if row["worse_by_rel"] > row["bound"] else "within bound")
        print(f"{args.workload} {name}: parent {row['parent_q25_median_q75'][1]:.6g} "
              f"change {row['change_q25_median_q75'][1]:.6g} "
              f"({100 * row['median_change_rel']:+.1f}%), wins {row['change_wins']}"
              f"/{row['pairs']}, parent IQR {row['parent_iqr']:.3g}: {verdict}")
    for side in SIDES:
        print(f"{args.workload} {side}: median ops {counts[side]['ops_median']:.6g}, "
              f"peak_rss_mb intercept {counts[side]['peak_rss_mb_intercept']:.4g}")
    print(f"{args.workload} peak_rss_mb: {counts['peak_rss_mb_per_1000_ops']:.4g} per 1000 ops, "
          f"change at equal ops {counts['peak_rss_mb_change_at_equal_ops']:+.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
