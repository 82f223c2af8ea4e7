"""The summary of benchmarks/pairs.py: quartiles, wins and the parent's
spread, checked against the hand-computed summaries of BENCH_11.json and on
small cases whose answers are known; each side's op count and the pooled
fit of peak RSS against op count; and the revisions a BENCH json names."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _pairs(parent, change, name="ops_per_s"):
    return [{"pair": i, "first": pairs.first_side(i), "parent": {name: p}, "change": {name: c}}
            for i, (p, c) in enumerate(zip(parent, change, strict=True))]


@pytest.mark.parametrize("workload", ["shots_mitigate", "vqe_qnb", "scf_fragments"])
def test_summary_reproduces_the_recorded_summaries(workload):
    recorded = json.loads((ROOT / "BENCH_11.json").read_text())["workloads"][workload]
    assert pairs.summarize(recorded["pairs"], METRICS) == recorded["summary"]


def test_summary_quartiles_spread_and_wins():
    metric = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
    row = pairs.summarize(_pairs([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 2.0, 4.0, 5.0, 6.0]),
                          [metric])["ops_per_s"]
    assert row["parent_q25_median_q75"] == [2.0, 3.0, 4.0]
    assert row["change_q25_median_q75"] == [2.0, 4.0, 5.0]
    assert row["parent_iqr"] == 2.0
    assert row["median_change_rel"] == pytest.approx(1 / 3)
    assert row["worse_by_rel"] == 0.0
    assert row["change_wins"] == 4  # the tie in pair 1 counts for neither
    assert row["pairs"] == 5
    assert not pairs.gain_shown(row)  # 4 of 5 wins, and a gap of 1 within the spread


def test_summary_of_a_lower_is_better_metric():
    metric = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
    row = pairs.summarize(_pairs([100.0] * 10, [110.0] * 9 + [90.0], "peak_rss_mb"),
                          [metric])["peak_rss_mb"]
    assert row["median_change_rel"] == pytest.approx(0.1)
    assert row["worse_by_rel"] == pytest.approx(0.1)
    assert row["change_wins"] == 1
    row = pairs.summarize(_pairs([100.0, 101.0] * 5, [90.0] * 10, "peak_rss_mb"),
                          [metric])["peak_rss_mb"]
    assert row["change_wins"] == 10 and row["parent_iqr"] == 1.0
    assert pairs.gain_shown(row)


def test_op_counts_give_median_ops_and_peak_rss_per_thousand_ops():
    # 8 MB per 1,000 ops on both sides; the change sits 2 MB higher at equal ops
    runs = [({"ops": 2000, "peak_rss_mb": 80.0}, {"ops": 2500, "peak_rss_mb": 86.0}),
            ({"ops": 3000, "peak_rss_mb": 88.0}, {"ops": 3500, "peak_rss_mb": 94.0}),
            ({"ops": 4000, "peak_rss_mb": 96.0}, {"ops": 5000, "peak_rss_mb": 106.0})]
    counts = pairs.op_counts([{"pair": i, "parent": p, "change": c}
                              for i, (p, c) in enumerate(runs)])
    assert counts == {
        "parent": {"ops_median": 3000.0, "peak_rss_mb_intercept": pytest.approx(64.0)},
        "change": {"ops_median": 3500.0, "peak_rss_mb_intercept": pytest.approx(66.0)},
        "peak_rss_mb_per_1000_ops": pytest.approx(8.0),
        "peak_rss_mb_change_at_equal_ops": pytest.approx(2.0)}


def test_op_counts_fit_one_slope_over_both_sides():
    # scattered runs: the pooled fit is the slope of the within-side
    # deviations, and the intercepts put each side's mean on the line
    parent = [(2000, 81.0), (3000, 87.0), (4000, 97.0)]
    change = [(2500, 85.0), (3000, 91.0), (5000, 104.0)]
    counts = pairs.op_counts([
        {"pair": i, "parent": {"ops": po, "peak_rss_mb": pm},
         "change": {"ops": co, "peak_rss_mb": cm}}
        for i, ((po, pm), (co, cm)) in enumerate(zip(parent, change))])
    dev = [(ops / 1000 - mean_ops, mb - mean_mb)
           for side in (parent, change)
           for mean_ops, mean_mb in [(sum(o for o, _ in side) / 3000,
                                      sum(m for _, m in side) / 3)]
           for ops, mb in side]
    slope = sum(x * y for x, y in dev) / sum(x * x for x, _ in dev)
    assert counts["peak_rss_mb_per_1000_ops"] == pytest.approx(slope)
    for side, runs in (("parent", parent), ("change", change)):
        assert counts[side]["peak_rss_mb_intercept"] == pytest.approx(
            sum(m for _, m in runs) / 3 - slope * sum(o for o, _ in runs) / 3000)
    # equal op counts on every run leave the slope open but fix the difference
    same = pairs.op_counts([{"pair": i, "parent": {"ops": 3000, "peak_rss_mb": 90.0 + i},
                             "change": {"ops": 3000, "peak_rss_mb": 93.0 + i}}
                            for i in range(3)])
    assert same["peak_rss_mb_change_at_equal_ops"] == pytest.approx(3.0)


def test_pairs_alternate_which_side_runs_first():
    assert [pairs.first_side(i) for i in range(4)] == ["parent", "change"] * 2


def test_run_side_reads_the_closing_json_line(tmp_path):
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text(
        "import json, sys\n"
        "print('workload', sys.argv[2], 'seed', sys.argv[4], 'seconds', sys.argv[6])\n"
        "print(json.dumps({'correct': True, 'attempted': 7, 'failed': 0, 'metrics': "
        "{'ops_per_s': {'value': float(sys.argv[4]), 'unit': '1/s'}}}))\n")
    reading = pairs.run_side(tmp_path, "shots_mitigate", 3, 1.5)
    assert reading == {"ops": 7, "failed": 0, "correct": True, "ops_per_s": 3.0}


def test_record_keeps_other_workloads_and_refuses_clashes(tmp_path):
    out = tmp_path / "BENCH.json"
    revisions = {"parent": "abc", "change": "bcd", "change_dirty": False}
    out.write_text(json.dumps(pairs.record(out, revisions, "vqe_qnb", {"seed": 1})))
    data = pairs.record(out, revisions, "shots_mitigate", {"seed": 2})
    assert data["workloads"] == {"vqe_qnb": {"seed": 1}, "shots_mitigate": {"seed": 2}}
    assert (data["parent"], data["change"], data["change_dirty"]) == ("abc", "bcd", False)
    assert data["description"] == pairs.DESCRIPTION
    with pytest.raises(ValueError, match="already holds vqe_qnb"):
        pairs.record(out, revisions, "vqe_qnb", {})
    with pytest.raises(ValueError, match="measures parent abc, not def"):
        pairs.record(out, {**revisions, "parent": "def"}, "scf_fragments", {})
    with pytest.raises(ValueError, match="measures change bcd, not cde"):
        pairs.record(out, {**revisions, "change": "cde"}, "scf_fragments", {})
    with pytest.raises(ValueError, match="measures change_dirty False, not True"):
        pairs.record(out, {**revisions, "change_dirty": True}, "scf_fragments", {})


def test_differs_from_compares_tracked_files_with_the_commit(tmp_path, monkeypatch):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@example.com", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    first = git("rev-parse", "HEAD")
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    (tmp_path / "untracked.txt").write_text("not measured, not compared\n")
    assert not pairs.differs_from(first)
    (tmp_path / "a.txt").write_text("two\n")
    assert pairs.differs_from(first)
    git("commit", "-q", "-am", "two")
    assert not pairs.differs_from(git("rev-parse", "HEAD"))
    assert pairs.differs_from(first)  # the files are a later commit's
