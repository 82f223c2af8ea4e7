"""Command-line runner: modes, exit codes, outputs, reproducibility."""

import os

import pytest

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
    trace = open(os.path.join(out, "trace.csv")).read().splitlines()
    assert trace[0] == "evaluation,cost"
    assert trace[1].startswith("0,")
    meta = open(os.path.join(out, "run.meta")).read()
    assert "seed=1" in meta and "gamma=7/3" in meta


def test_gamma_auto_uses_heuristic(mini4_path, tmp_path):
    out = str(tmp_path / "auto")
    assert main(["oracle", "--instance", mini4_path, "--out", out]) == 0
    assert "gamma=5/3" in open(os.path.join(out, "run.meta")).read()


def test_decompose_writes_fragment_traces(mini4_path, tmp_path, capsys):
    out = str(tmp_path / "scf")
    code = main(["decompose", "--instance", mini4_path, "--gamma", "7/3",
                 "--seed", "1", "--out", out])
    assert code == 0
    assert "p_opt=1.000" in capsys.readouterr().out
    lines = open(os.path.join(out, "fragments.csv")).read().splitlines()
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
    lines = open(os.path.join(out, "report.csv")).read().splitlines()
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
    counts = open(os.path.join(out, "counts.csv")).read().splitlines()
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
    mitigated = open(os.path.join(out, "mitigated.csv")).read().splitlines()
    assert mitigated[0] == "bitstring,probability"
    assert len(mitigated) == 1 + 2**12
    assert sum(float(line.split(",")[1]) for line in mitigated[1:]) == pytest.approx(1.0)


def test_malformed_noise_file_exits_1(mini4_path, tmp_path, capsys):
    noise = tmp_path / "bad.txt"
    noise.write_text("qubit0 0.1\n")
    assert main(["sample", "--instance", mini4_path, "--noise",
                 str(noise)]) == 1
    assert "p10" in capsys.readouterr().err


def _read_all(outdir):
    return {name: open(os.path.join(outdir, name), "rb").read()
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
