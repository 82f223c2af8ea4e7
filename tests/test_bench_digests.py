"""benchmarks/digests.py: the comparison of two sides' op digests, and one
side's replay read back from its own process."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("digests", ROOT / "benchmarks" / "digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def _records(names, cpu_s=1.0, ok=True):
    return [{"op": i, "digest": name, "ok": ok, "cpu_s": cpu_s}
            for i, name in enumerate(names)]


def test_equal_digests_have_no_differing_op():
    result = digests.compare(_records("abc", 2.0), _records("abc", 1.0))
    assert result == {"ops": 3, "equal": 3, "first_differing_op": None,
                      "failed": {"parent": 0, "change": 0},
                      "cpu_s_per_op": {"parent": 2.0, "change": 1.0}}


def test_the_first_differing_op_is_reported():
    result = digests.compare(_records("abcde"), _records("abxdy", ok=False))
    assert (result["equal"], result["first_differing_op"]) == (3, 2)
    assert result["failed"] == {"parent": 0, "change": 5}


def test_a_side_that_ran_fewer_ops_differs_at_its_first_missing_op():
    result = digests.compare(_records("abcd"), _records("ab"))
    assert (result["ops"], result["equal"], result["first_differing_op"]) == (4, 2, 2)
    assert result["cpu_s_per_op"] == {"parent": 1.0, "change": 1.0}


def test_replay_side_reads_one_record_per_op(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (tmp_path / "src").mkdir()
    (bench / "run.py").write_text("cleared = []\n"
                                  "def reset_program_caches():\n"
                                  "    cleared.append(1)\n")
    (bench / "workloads.py").write_text(
        "from types import SimpleNamespace\n"
        "import run\n"
        "class Inputs:\n"
        "    def __init__(self, seed):\n"
        "        self.seed = seed\n"
        "    def op_input(self, index):\n"
        "        return self.seed * 10 + index\n"
        "    def check(self, inp, out):\n"
        "        return SimpleNamespace(ok=out % 2 == 0, digest=(out, len(run.cleared)))\n"
        "WORKLOADS = {'toy': SimpleNamespace(make_inputs=Inputs, op=lambda inp: inp)}\n")
    records = digests.replay_side(tmp_path, "toy", 3, 2)
    assert [(r["op"], r["ok"]) for r in records] == [(0, True), (1, False)]
    assert [r["digest"] for r in records] == [
        digests.hashlib.sha256(repr(d).encode()).hexdigest() for d in ((30, 1), (31, 2))]
    assert all(r["cpu_s"] >= 0.0 for r in records)
