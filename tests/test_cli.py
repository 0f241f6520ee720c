import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

SNAPSHOT = Path(__file__).resolve().parent.parent / "scripts" / "cli_snapshot.py"


def run_cli(*args, expect_code=0):
    proc = subprocess.run([sys.executable, "-m", "georadon.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect_code, proc.stderr
    return proc.stdout


def test_constants_command():
    out = run_cli("constants", "--space", "sphere", "--n", "2", "--k", "1")
    payload = json.loads(out)
    assert payload["constants"]["log_odd"] == pytest.approx(4 * math.pi)


def test_constants_sphere_even_forms():
    out = run_cli("constants", "--space", "sphere", "--n", "4", "--k", "2")
    payload = json.loads(out)
    c = payload["constants"]
    assert c["sgn_even"] == pytest.approx(2.0 * c["sgn_even_printed"])


def test_invert_command(tmp_path):
    out = run_cli("--out", str(tmp_path), "invert", "--space", "euclidean",
                  "--n", "2", "--k", "1", "--theorem", "1", "--phantom",
                  "gaussian", "--point", "0,0", "--grid-j", "12")
    payload = json.loads(out)
    assert payload["estimate"] == pytest.approx(1.0, abs=1e-3)
    profile = (tmp_path / "invert_profile.csv").read_text().splitlines()
    assert profile[0] == "r,value"
    assert len(profile) == 14


def test_invert_mader_shifted_center():
    out = run_cli("invert", "--space", "euclidean", "--n", "2", "--k", "1",
                  "--theorem", "mader", "--point", "0.3,0", "--center",
                  "0.3,0")
    payload = json.loads(out)
    assert payload["truth"] == pytest.approx(1.0)
    assert payload["rel_error"] < 1e-3


def test_invert_mader_quadrature_flags():
    # --quad-nodes and --mean-polar reach the classical pipeline
    args = ("invert", "--space", "euclidean", "--n", "3", "--k", "2",
            "--theorem", "mader", "--point", "0.1,0,0", "--center",
            "0.2,0,0.1")
    default = json.loads(run_cli(*args))
    coarse = json.loads(run_cli(*args, "--mean-polar", "16",
                                "--quad-nodes", "48"))
    assert coarse["estimate"] != default["estimate"]
    assert coarse["rel_error"] < 1e-3


def test_invert_mader_refuses_truncation():
    proc = subprocess.run(
        [sys.executable, "-m", "georadon.cli", "invert", "--space",
         "euclidean", "--n", "2", "--k", "1", "--theorem", "mader",
         "--point", "0.3,0", "--truncation", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "--truncation" in proc.stderr
    assert "|s| = 8" in proc.stderr


def test_invert_mader_refuses_quad_nodes_on_even_n():
    # the even-n log integrals use a fixed node ladder, so the flag would
    # change nothing
    proc = subprocess.run(
        [sys.executable, "-m", "georadon.cli", "invert", "--space",
         "euclidean", "--n", "2", "--k", "1", "--theorem", "mader",
         "--point", "0.3,0", "--center", "0.3,0", "--quad-nodes", "48"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "--quad-nodes" in proc.stderr


def test_invert_theorem2_parity_guard():
    run_cli("invert", "--space", "euclidean", "--n", "2", "--k", "1",
            "--theorem", "2", "--phantom", "gaussian", "--point", "0,0",
            expect_code=1)


def test_invert_rejects_bad_point():
    run_cli("invert", "--space", "sphere", "--n", "2", "--k", "1",
            "--theorem", "1", "--phantom", "constant-even", "--point",
            "0,0,2", expect_code=1)


def test_usage_error_exit_code():
    run_cli("invert", "--space", "euclidean", expect_code=1)
    run_cli("nonsense", expect_code=1)


def test_lemma_verify_exit_codes(tmp_path):
    out = run_cli("--out", str(tmp_path), "lemma-verify", "--alpha", "0.5",
                  "--m", "1", "--num", "12")
    assert "worst_abs_err" in out
    csv = (tmp_path / "lemma_verify.csv").read_text().splitlines()
    assert csv[0] == "u,closed,oracle,abs_err"
    assert all(float(line.split(",")[3]) < 1e-7 for line in csv[1:])


def test_forward_command():
    out = run_cli("forward", "--space", "sphere", "--n", "2", "--k", "1",
                  "--phantom", "constant-even", "--distance", "0.0")
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(2 * math.pi)


def test_means_command():
    out = run_cli("means", "--space", "euclidean", "--n", "2", "--k", "1",
                  "--phantom", "gaussian", "--point", "0,0", "--t-min", "0",
                  "--t-max", "1", "--num", "3")
    lines = out.strip().splitlines()
    assert lines[0] == "r,value"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == pytest.approx([1.0, math.exp(-0.25), math.exp(-1.0)])


def test_means_empty_grid_prints_header():
    out = run_cli("means", "--space", "sphere", "--n", "2", "--k", "1",
                  "--phantom", "even-poly", "--variant", "tilde", "--t-min", "0", "--t-max", "0.5",
                  "--num", "0")
    assert out == "r,value\n"


def test_means_rejects_decreasing_grid():
    run_cli("means", "--space", "euclidean", "--n", "2", "--k", "1",
            "--t-min", "1", "--t-max", "0", "--num", "3", expect_code=1)


def test_psi_command():
    out = run_cli("psi", "--k", "1", "--num", "8")
    assert out.splitlines()[0] == "u,value"


def test_crosscheck_command():
    out = run_cli("crosscheck", "--space", "euclidean", "--n", "2", "--k", "1",
                  "--phantom", "gaussian", "--point", "0.3,-0.2",
                  "--distance", "0.6", "--mc-samples", "1000", "--seed", "11",
                  "--quad-nodes", "48")
    payload = json.loads(out)
    assert payload["passed"] is True
    assert abs(payload["z_mc"]) < 3.0


def test_crosscheck_degenerate_spread():
    # at the center of a radial phantom every draw gives the same transform:
    # the stderr is roundoff and the case passes on agreement alone
    out = run_cli("crosscheck", "--space", "euclidean", "--n", "2", "--k",
                  "1", "--mc-samples", "500")
    payload = json.loads(out)
    assert payload["mc_stderr"] < 1e-12
    assert payload["mc_value"] == pytest.approx(payload["mean_reduction"],
                                                rel=1e-10)
    assert payload["passed"] is True


def test_report_subset(tmp_path):
    out = run_cli("--out", str(tmp_path), "report", "--only", "2")
    assert "[PASS]  2" in out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["passed"] is True


def test_report_failure_exit_code(monkeypatch, capsys):
    import georadon.cli as cli
    import georadon.report as report

    def fake_run_checks(indices=None, stream=None):
        return [report.CheckResult(1, "forced failure", False, {})]

    monkeypatch.setattr(cli, "run_checks", fake_run_checks)
    rc = cli.main(["report"])
    assert rc == 2


def test_json_determinism(tmp_path):
    def run(sub):
        args = ["--out", str(tmp_path / sub), "invert", "--space", "euclidean",
                "--n", "2", "--k", "1", "--theorem", "1", "--phantom",
                "gaussian", "--point", "0,0", "--grid-j", "12", "--seed", "3"]
        out = run_cli(*args)
        return (out, (tmp_path / sub / "invert.json").read_bytes(),
                (tmp_path / sub / "invert_profile.csv").read_bytes())

    assert run("a") == run("b")


def test_cli_snapshot_exits_1_on_unexpected_exit_code(tmp_path, monkeypatch,
                                                      capsys):
    spec = importlib.util.spec_from_file_location("cli_snapshot", SNAPSHOT)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    refused = ("means --space euclidean --n 2 --k 1 --phantom gaussian "
               "--t-min 1 --t-max 0 --num 3")
    monkeypatch.setattr(snapshot, "COMMANDS",
                        [(0, "psi --k 1 --num 2"), (0, refused)])
    assert snapshot.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"#02 exited 1, expected 0: {refused}"]
    assert (tmp_path / "01.stdout").read_text().startswith("u,value")
    assert [(tmp_path / f"0{i}.exit").read_text() for i in (1, 2)] == \
        ["0\n", "1\n"]
    monkeypatch.setattr(snapshot, "COMMANDS", [(1, refused)])
    assert snapshot.main([str(tmp_path)]) == 0
