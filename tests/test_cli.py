"""Command-line runner: modes, exit codes, outputs, reproducibility, and the
bytes of recorded runs."""

import hashlib
import os
import shutil
from pathlib import Path

import pytest

from pitvqe import bundled_instance_path
from pitvqe.cli import main

MINI4_TEXT = "rows 2\n0:-1 1:2 2:-1\n1:5\n"


@pytest.fixture()
def mini4_path(tmp_path):
    path = tmp_path / "mini4.pit"
    path.write_text(MINI4_TEXT)
    return str(path)


def test_oracle_mode_summary(mini4_path, capsys):
    assert main(["oracle", "--instance", mini4_path, "--gamma", "7/3"]) == 0
    assert capsys.readouterr().out.strip() == "P_opt=5 optimal_count=1"


def test_bundled_instance_names_resolve(capsys):
    assert main(["oracle", "--instance", "step9", "--gamma", "8/3"]) == 0
    assert "P_opt=16" in capsys.readouterr().out


def test_missing_instance_exits_1(capsys):
    assert main(["solve", "--instance", "missing.pit"]) == 1
    assert "missing.pit" in capsys.readouterr().err


def test_bad_gamma_exits_1(mini4_path, capsys):
    assert main(["solve", "--instance", mini4_path, "--gamma", "squiggle"]) == 1
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["oracle", "solve", "compare-optimizers",
                                  "decompose", "sample"])
def test_negative_gamma_exits_1(mini4_path, mode, capsys):
    assert main([mode, "--instance", mini4_path, "--gamma", "-1"]) == 1
    assert "non-negative" in capsys.readouterr().err


def test_bad_flag_exits_1(mini4_path):
    assert main(["solve", "--instance", mini4_path, "--optimizer", "adam"]) == 1


@pytest.mark.parametrize("mode", ["solve", "compare-optimizers", "sample"])
def test_negative_restarts_exits_1(mini4_path, mode, capsys):
    assert main([mode, "--instance", mini4_path, "--gamma", "7/3",
                 "--restarts", "-1"]) == 1
    assert "restarts must be non-negative" in capsys.readouterr().err


def test_compare_rejects_optimizer_flag(mini4_path):
    # compare-optimizers always runs all three optimizers
    assert main(["compare-optimizers", "--instance", mini4_path,
                 "--optimizer", "gd"]) == 1


def test_solve_writes_trace_and_distribution(mini4_path, tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["solve", "--instance", mini4_path, "--gamma", "7/3",
                 "--seed", "1", "--out", out])
    assert code == 0
    assert capsys.readouterr().out.startswith("P_opt=5 p_opt=1.000")
    assert set(os.listdir(out)) == {"trace.csv", "distribution.csv", "run.meta"}
    trace = Path(out, "trace.csv").read_text().splitlines()
    assert trace[0] == "evaluation,cost"
    assert trace[1].startswith("0,")
    meta = Path(out, "run.meta").read_text()
    assert "seed=1" in meta and "gamma=7/3" in meta


def test_gamma_auto_uses_heuristic(mini4_path, tmp_path):
    out = str(tmp_path / "auto")
    assert main(["oracle", "--instance", mini4_path, "--out", out]) == 0
    assert "gamma=5/3" in Path(out, "run.meta").read_text()


def test_decompose_writes_fragment_traces(mini4_path, tmp_path, capsys):
    out = str(tmp_path / "scf")
    code = main(["decompose", "--instance", mini4_path, "--gamma", "7/3",
                 "--seed", "1", "--out", out])
    assert code == 0
    assert "p_opt=1.000" in capsys.readouterr().out
    lines = Path(out, "fragments.csv").read_text().splitlines()
    assert lines[0] == "sweep,fragment,negative_cost"
    assert lines[1].startswith("1,0,")


def test_decompose_rejects_spsa(mini4_path):
    assert main(["decompose", "--instance", mini4_path,
                 "--optimizer", "spsa"]) == 1


def test_decompose_partition_listing_a_block_twice_exits_1(mini4_path, tmp_path,
                                                          capsys):
    cut = tmp_path / "cut.txt"
    cut.write_text("0 1\n0 2\n3\n")
    assert main(["decompose", "--instance", mini4_path, "--gamma", "7/3",
                 "--partition", str(cut)]) == 1
    assert "two fragments" in capsys.readouterr().err


def test_decompose_above_qubit_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "wide21.pit"
    path.write_text("rows 3\n" + "0:1 1:1 2:1 3:1 4:1 5:1 6:1\n" * 3)
    assert main(["decompose", "--instance", str(path), "--gamma", "1"]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_compare_report_csv(mini4_path, tmp_path):
    out = str(tmp_path / "cmp")
    code = main(["compare-optimizers", "--instance", mini4_path,
                 "--gamma", "7/3", "--seed", "1", "--max-evals", "2000",
                 "--out", out])
    assert code == 0
    lines = Path(out, "report.csv").read_text().splitlines()
    assert lines[0] == "optimizer,evaluations_to_converge,final_cost"
    assert sorted(line.split(",")[0] for line in lines[1:]) == ["gd", "qnb", "spsa"]


def test_sample_with_noise_and_mitigation(mini4_path, tmp_path, capsys):
    noise = tmp_path / "noise.txt"
    noise.write_text("".join(f"q{q} 0.03 0.015\n" for q in range(4)))
    out = str(tmp_path / "shots")
    code = main(["sample", "--instance", mini4_path, "--gamma", "7/3",
                 "--seed", "1", "--shots", "4096", "--noise", str(noise),
                 "--mitigate", "--out", out])
    assert code == 0
    assert "p_opt_mit=" in capsys.readouterr().out
    assert {"counts.csv", "mitigated.csv"} <= set(os.listdir(out))
    counts = Path(out, "counts.csv").read_text().splitlines()
    assert counts[0] == "bitstring,count"
    assert sum(int(line.split(",")[1]) for line in counts[1:]) == 4096


def test_sample_mitigates_at_twelve_qubits(tmp_path, capsys):
    noise = tmp_path / "noise.txt"
    noise.write_text("q0 0.03 0.015\nq7 0.05 0.02\nq11 0.02 0.04\n")
    out = str(tmp_path / "shots12")
    code = main(["sample", "--instance", "stringer12", "--seed", "1",
                 "--max-evals", "200", "--restarts", "0", "--shots", "2048",
                 "--noise", str(noise), "--mitigate", "--out", out])
    assert code == 0
    assert "p_opt_mit=" in capsys.readouterr().out
    mitigated = Path(out, "mitigated.csv").read_text().splitlines()
    assert mitigated[0] == "bitstring,probability"
    assert len(mitigated) == 1 + 2**12
    assert sum(float(line.split(",")[1]) for line in mitigated[1:]) == pytest.approx(1.0)


def test_malformed_noise_file_exits_1(mini4_path, tmp_path, capsys):
    noise = tmp_path / "bad.txt"
    noise.write_text("qubit0 0.1\n")
    assert main(["sample", "--instance", mini4_path, "--noise",
                 str(noise)]) == 1
    assert "p10" in capsys.readouterr().err


def test_noise_file_probability_out_of_range_names_its_line(mini4_path, tmp_path, capsys):
    noise = tmp_path / "bad.txt"
    noise.write_text("# flips\nq0 1.5 0.1\n")
    assert main(["sample", "--instance", mini4_path, "--noise", str(noise)]) == 1
    assert f"{noise}:2: probability 1.5 must be finite" in capsys.readouterr().err


def _read_all(outdir):
    return {name: Path(outdir, name).read_bytes()
            for name in sorted(os.listdir(outdir))}


@pytest.mark.parametrize("argv_tail", [
    ["solve", "--seed", "3"],
    ["decompose", "--seed", "3"],
    ["compare-optimizers", "--seed", "3", "--max-evals", "1500"],
    ["sample", "--seed", "3", "--shots", "2048"],
    ["oracle"],
], ids=["solve", "decompose", "compare", "sample", "oracle"])
def test_repeat_runs_byte_identical(mini4_path, tmp_path, argv_tail, capsys):
    mode, rest = argv_tail[0], argv_tail[1:]
    outputs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        code = main([mode, "--instance", mini4_path, "--gamma", "7/3",
                     *rest, "--out", out])
        assert code == 0
        outputs.append(_read_all(out))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


STEP9_COLUMNS = "0\n1 5\n2 6 8\n3 7\n4\n"
GOLDEN_NOISE = "q0 0.03 0.015\nq1 0.05 0.02\nq3 0.02 0.04\n"
SAMPLE_STEP9 = ["sample", "--instance", "step9.pit", "--gamma", "8/3", "--seed", "2",
                "--max-evals", "1500", "--restarts", "1", "--mitigate"]
SAMPLE_MINI4 = ["sample", "--instance", "mini4.pit", "--gamma", "7/3", "--seed", "2",
                "--mitigate"]
DECOMPOSE_STEP9 = ["decompose", "--instance", "step9.pit", "--gamma", "8/3",
                   "--seed", "2"]
# SHA-256 of every file a run writes, and of its stdout.
GOLDEN = {
    "decompose-step9-rows": (DECOMPOSE_STEP9, {
        "distribution.csv": "5000bff13c8696079f1333f6acfba92725e9671b9ff7487416c2ae3d3f82817c",
        "fragments.csv": "504988165dfc0ae73c33a152a51031b4d7dfc54fafca43501080b09f4643f58a",
        "run.meta": "603982b950f650ea1fbc7be33da4d90ef3ef337c9e1ad5c9172d84d99ce68c87",
        "stdout": "78ba6d3b1af614991e5bfdbde29d4f4bdfaa58073b1f6fae930edac6a4a17588",
    }),
    "decompose-step9-columns": ([*DECOMPOSE_STEP9, "--partition", "columns.txt"], {
        "distribution.csv": "6c295d0c7cba56e3ed9ca9d6f2ef1a4c32eac7ce93210770546571b7c473eb1b",
        "fragments.csv": "94af5768dd36fdcd0f9edd264b2a23c0bf82c364abf73c6eaed9a60a7476ebf6",
        "run.meta": "08bbc0be4cdcf97040fa8ea98d61dca6c9a819c8990d5897d3f55b6a7eaec7e5",
        "stdout": "2ca1c42fb15f311d551f10b65e0378933b43949f740b0d80ba3d6db471c8d43b",
    }),
    "decompose-step9-qnb-rows": ([*DECOMPOSE_STEP9, "--optimizer", "qnb"], {
        "distribution.csv": "dd13a7f13dfb03636cb64c95a8e1c47a1795f58eb590e85995d163158972da1b",
        "fragments.csv": "3bff9484f12ceb6da21b5fe42431acefcdd8cd9d57da5c52021cf305d5d96a0b",
        "run.meta": "9b606bbed8a68c69513925bcea0a65cf69778b2df49325dc44f81b92adcd8cfd",
        "stdout": "729d630fb851b29a0cf9b3011842df9f7b2bf106ac095f93e19b1a02f2623f44",
    }),
    "decompose-step9-qnb-columns": (
        [*DECOMPOSE_STEP9, "--optimizer", "qnb", "--partition", "columns.txt"], {
            "distribution.csv":
                "707dd217198513bbf5bad45dc5feebefe397177998fb7a145627f5657b4cb5de",
            "fragments.csv": "3a7487a5c787b8574c0b642dca41ce3798bcdfd43c5af9b7899cda570b4e9e71",
            "run.meta": "03141a0ef9289cb6b233f6bd479b24577b89f38266c8a2cf8f81498bc4cc532c",
            "stdout": "9357d384396f279f0f114687505467702ad787cf164e3eef5fa28cf110204554",
        }),
    "sample-mini4": (SAMPLE_MINI4, {
        "counts.csv": "54fca546ebb22b9d18d06c0d3e3babc5f9b0736d82e9e3b1a6ea5806ce44c25d",
        "distribution.csv": "420bdf671c112a8feb25e7630a9ed9dc09769ca2db1772c12ac5e13a61ac39ad",
        "mitigated.csv": "420bdf671c112a8feb25e7630a9ed9dc09769ca2db1772c12ac5e13a61ac39ad",
        "run.meta": "e436771c5a869b44c3e401f4f9cf508e0a55aa2d543348837010de714b2cd97b",
        "stdout": "a8c41ab8273a6a88a2ed0d03cbca7921f465452a7f4e726aabb35671b4bb497d",
    }),
    "sample-mini4-noise": ([*SAMPLE_MINI4, "--noise", "noise.txt"], {
        "counts.csv": "4ad10539cd15ffdcc9356a2ba402ddadd663b6dd9a9357fd2731ce353a64c98a",
        "distribution.csv": "f35e9219c8ed75ffd84d54ae5256c5439e89d06ed7aebed95357d209dc2a3262",
        "mitigated.csv": "15a1a801b90aa272aff225eb801eecdaf96515f4c94c48385c7889beb28d5130",
        "run.meta": "c84290e59145c1e9fd8b568a9b38e6025eac903812ffcdc0827061a679f126c8",
        "stdout": "d29dc9ea3b1532efe7c7522eb77adb64dd15bf5fa0e48811854710d9f5f01365",
    }),
    "sample-step9": (SAMPLE_STEP9, {
        "counts.csv": "b77a8d35aded6f3e589a6f63bf2cd8a3b576f26072ef43b2ba646afd57aceaec",
        "distribution.csv": "e0c0249248bbf0b42e81b572f87b800ce353ad2697ef24ef305a6d1379f168a6",
        "mitigated.csv": "e0c0249248bbf0b42e81b572f87b800ce353ad2697ef24ef305a6d1379f168a6",
        "run.meta": "2a0073cdf5d080d8dd32412b6f7332e032951423674f9f7325f4e73e031c8b72",
        "stdout": "f63bdc06d366da4741b9465604170cc09d9c36a73ac510c7a73a8a69067d200f",
    }),
    "sample-step9-noise": ([*SAMPLE_STEP9, "--noise", "noise.txt"], {
        "counts.csv": "87331e6a7a8b6cd794891a6f1a5d97b4e60f6676ffd21a897771063e634ac9b5",
        "distribution.csv": "cfe0333c5d53be69cdab48d73d228204df5a00ff81b3d3b30eeadd2003727cb2",
        "mitigated.csv": "a06aefd0d24eeade8f1185e9e6e2f8740768ee1a1a781faa00c8d3997cb0f252",
        "run.meta": "ee5f7250d4e38a3babf57c79869ffbe86b2ca4fc6ae3b56cfa2b2ab08144edca",
        "stdout": "4b13c957b876d1997c77cfd1b2e192de327da289b1ca82606f8bb926f34ab2b7",
    }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_their_recorded_hashes(case, tmp_path, monkeypatch, capsys):
    # relative input paths, so run.meta does not depend on where the run is
    monkeypatch.chdir(tmp_path)
    for name in ("mini4", "step9"):
        shutil.copy(bundled_instance_path(name), f"{name}.pit")
    (tmp_path / "columns.txt").write_text(STEP9_COLUMNS)
    (tmp_path / "noise.txt").write_text(GOLDEN_NOISE)
    argv, want = GOLDEN[case]
    assert main([*argv, "--out", "out"]) == 0
    written = _read_all("out")
    written["stdout"] = capsys.readouterr().out.encode()
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in written.items()} == want


@pytest.mark.parametrize("argv, want", [
    (["oracle", "--instance", "mini4.pit"],
     "gamma=5/3\ninstance=mini4.pit\nmode=oracle\n"),
    (["solve", "--instance", "mini4.pit", "--gamma", "7/3", "--seed", "2",
      "--max-evals", "300", "--restarts", "0"],
     "gamma=7/3\ninit=zero\ninstance=mini4.pit\nmax_evals=300\nmode=solve\n"
     "optimizer=qnb\nrestarts=0\nseed=2\n"),
    (["compare-optimizers", "--instance", "mini4.pit", "--gamma", "14/6", "--init",
      "plus", "--max-evals", "300", "--restarts", "0"],
     "gamma=7/3\ninit=plus\ninstance=mini4.pit\nmax_evals=300\n"
     "mode=compare-optimizers\nrestarts=0\nseed=0\n"),
    # a bundled instance by name, with no file of that name here: the name as
    # given, not the installed package's path
    (["oracle", "--instance", "mini4"], "gamma=5/3\ninstance=mini4\nmode=oracle\n"),
], ids=["oracle", "solve", "compare-optimizers", "bundled"])
def test_run_meta_records_the_resolved_settings(argv, want, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    if "mini4.pit" in argv:
        shutil.copy(bundled_instance_path("mini4"), "mini4.pit")
    assert main([*argv, "--out", "out"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "run.meta").read_text() == want


def test_partition_file_with_a_bad_block_id_names_its_line(mini4_path, tmp_path,
                                                           capsys):
    cut = tmp_path / "cut.txt"
    cut.write_text("# rows\n0 1 2\n3 x\n")
    assert main(["decompose", "--instance", mini4_path, "--gamma", "7/3",
                 "--partition", str(cut)]) == 1
    assert capsys.readouterr().err == f"error: {cut}:3: expected block ids, got '3 x'\n"
