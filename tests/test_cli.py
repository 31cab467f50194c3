"""End-to-end command-line checks: wire formats, exit codes, reproducibility."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aluthgelab import ExperimentReport, cli, matrix_from_json, save_matrix
from aluthgelab.cli import main


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "aluthgelab", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture
def monomial_file(tmp_path):
    path = tmp_path / "T.json"
    save_matrix(np.array([[0.0, 4.0], [1.0, 0.0]]), path)
    return str(path)


@pytest.fixture
def saddle_file(tmp_path):
    path = tmp_path / "saddle.json"
    save_matrix(np.diag([2.0, 0.5]), path)
    return str(path)


def test_transform_to_file(monomial_file, tmp_path):
    out = tmp_path / "D.json"
    proc = run_cli("transform", "--in", monomial_file, "--lambda", "0.5", "--out", str(out))
    assert proc.returncode == 0
    D = matrix_from_json(json.loads(out.read_text()))
    np.testing.assert_allclose(D, [[0, 2], [2, 0]], atol=1e-12)
    assert "wrote" in proc.stderr
    # the file holds the payload that stdout would
    assert out.read_text() == run_cli("transform", "--in", monomial_file, "--lambda", "0.5").stdout


def test_transform_to_stdout(monomial_file):
    proc = run_cli("transform", "--in", monomial_file, "--lambda", "0.25")
    assert proc.returncode == 0
    D = matrix_from_json(json.loads(proc.stdout))
    r2 = np.sqrt(2.0)
    np.testing.assert_allclose(D, [[0, 2 * r2], [r2, 0]], atol=1e-12)


def test_transform_missing_file_exits_2(tmp_path):
    proc = run_cli("transform", "--in", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_transform_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("transform", "--in", str(bad))
    assert proc.returncode == 2
    # a size past the float range is an input error too, not a traceback
    bad.write_text('{"rows": 1e400, "cols": 1, "data": [[1, 0]]}')
    proc = run_cli("spectrum", "--in", str(bad))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr


def test_transform_bad_lambda_exits_2(monomial_file):
    proc = run_cli("transform", "--in", monomial_file, "--lambda", "1.5")
    assert proc.returncode == 2


def test_unknown_subcommand_exits_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_iterate_trace_file(monomial_file, tmp_path):
    trace = tmp_path / "trace.csv"
    proc = run_cli("iterate", "--in", monomial_file, "--lambda", "0.5", "--n", "50", "--trace", str(trace))
    assert proc.returncode == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "step,operator_norm,normality_defect"
    assert len(lines) >= 3
    assert "spectral radius 2" in proc.stderr


def test_iterate_trace_stdout(monomial_file):
    proc = run_cli("iterate", "--in", monomial_file, "--n", "10")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "step,operator_norm,normality_defect"


def test_iterate_prints_the_golden_trace(tmp_path, monkeypatch, capsys):
    # the defective 3x3 that CI iterates for its full 200-step budget
    path = tmp_path / "defective.json"
    save_matrix(np.array([[0.5, 1, 0], [0, 0.5, 1], [0, 0, 3]]), path)
    golden = Path(__file__).parent / "data" / "trace_defective3_n200.csv"
    calls = []
    real = cli._iterate

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(cli, "_iterate", recorded)
    assert main(["iterate", "--in", str(path), "--n", "200"]) == 0
    out, err = capsys.readouterr()
    assert out == golden.read_bytes().decode("utf-8")  # csv rows end in \r\n
    assert err == "201 iterates; final norm 3, spectral radius 3\n"
    # one call of the iterate core, which kept no iterate
    assert [iterates for *_, iterates in calls] == [None]


def test_spectrum_stdout(saddle_file):
    proc = run_cli("spectrum", "--in", saddle_file)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["hyperbolic"] is True
    assert report["spectral_radius"] == pytest.approx(2.0)


def test_spectrum_json_file(saddle_file, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("spectrum", "--in", saddle_file, "--json", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["circle_distance"] == pytest.approx(0.5)


def test_quasihyp_spectral(saddle_file):
    proc = run_cli("quasihyp", "--in", saddle_file, "--method", "spectral")
    assert proc.returncode == 0
    verdict = json.loads(proc.stdout)
    assert verdict["verdict"] is True
    assert verdict["method"] == "spectral"


def test_quasihyp_definitional_rotation(tmp_path):
    path = tmp_path / "rot.json"
    save_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]), path)
    proc = run_cli("quasihyp", "--in", str(path), "--method", "definitional", "--nmax", "4")
    assert proc.returncode == 0
    verdict = json.loads(proc.stdout)
    assert verdict["verdict"] is False
    assert verdict["margin"] == pytest.approx(-1.0, abs=1e-9)


def test_shadow_payload(saddle_file, tmp_path):
    out = tmp_path / "result.json"
    proc = run_cli("shadow", "--in", saddle_file, "--delta", "0.01", "--len", "100", "--seed", "4", "--json", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["verified"] is True
    assert payload["orbit"]["delta"] == 0.01
    shadow = payload["shadow"]
    assert shadow["epsilon"] <= shadow["constant_bound"] * 0.01 + 1e-9
    assert len(payload["orbit"]["points"]) == 101


def test_shadow_rerun_byte_identical(saddle_file):
    a = run_cli("shadow", "--in", saddle_file, "--delta", "0.01", "--len", "50", "--seed", "8")
    b = run_cli("shadow", "--in", saddle_file, "--delta", "0.01", "--len", "50", "--seed", "8")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_shadow_non_finite_delta_exits_2(saddle_file, capsys):
    assert main(["shadow", "--in", saddle_file, "--delta", "nan"]) == 2
    assert "delta" in capsys.readouterr().err


def test_shadow_tiny_scalar_exits_0(tmp_path, capsys):
    # 1e-200^m underflows to 0 for m >= 2; the splitting must not divide by it
    path = tmp_path / "tiny.json"
    save_matrix(np.array([[1e-200]]), path)
    assert main(["shadow", "--in", str(path), "--delta", "0.01", "--len", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["shadow"]["constant_bound"] == 1.0


def test_transfer_payload(monomial_file):
    proc = run_cli("transfer", "--in", monomial_file, "--lambda", "0.5", "--delta", "0.01", "--len", "100", "--seed", "5")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verified"] is True
    assert payload["shadow"]["constant_bound"] == pytest.approx(8.0, abs=1e-6)


def test_verify_single_suite(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--suite", "fixedpoint", "--trials", "5", "--seed", "7", "--json", str(out))
    assert proc.returncode == 0
    assert "suite fixedpoint: 5/5 pass" in proc.stderr
    report = json.loads(out.read_text())
    assert report["passes"] == 5
    assert report["failures"] == []
    assert report["rng"] == "philox4x64"
    assert "timestamp" in report


def test_verify_all_suites(tmp_path):
    out = tmp_path / "all.json"
    proc = run_cli("verify", "--suite", "all", "--trials", "2", "--seed", "1", "--json", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "all"
    assert len(payload["reports"]) == 6


def test_verify_stable_output_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "spectral", "--trials", "4", "--seed", "3", "--stable-output"]
    proc_a = run_cli(*argv, "--json", str(out_a))
    proc_b = run_cli(*argv, "--json", str(out_b))
    assert proc_a.returncode == proc_b.returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = json.loads(out_a.read_text())
    assert report["wall_time"] == 0.0
    assert "timestamp" not in report


def test_verify_iterates_matches_golden_report(capsys):
    # at this base seed the 95% convergence gate trips, so the report lists
    # failures; any change to the transform or its iterate diagnostics must
    # reproduce the committed report byte for byte
    golden = Path(__file__).parent / "data" / "verify_iterates_seed33.json"
    argv = ["verify", "--suite", "iterates", "--trials", "100", "--seed", "33", "--stable-output"]
    assert main(argv) == 1
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_verify_bad_suite_exits_2():
    proc = run_cli("verify", "--suite", "bogus")
    assert proc.returncode == 2


@pytest.mark.parametrize("suite", ["spectral", "all"])
def test_verify_negative_seed_exits_2_naming_the_seed(suite, capsys):
    assert main(["verify", "--suite", suite, "--trials", "2", "--seed", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a nonnegative integer, got -5\n"
    assert captured.out == ""


def test_stable_output_only_on_verify(monomial_file):
    proc = run_cli("transform", "--in", monomial_file, "--stable-output")
    assert proc.returncode == 2
    assert "--stable-output" in proc.stderr


def test_verify_reports_failures_with_exit_1(monkeypatch, capsys):
    # a suite failure must surface as exit code 1
    def fake_run_suite(name, trials, base_seed):
        return ExperimentReport(
            suite=name,
            spec={"kind": "stub"},
            trials=trials,
            passes=trials - 1,
            failures=[{"seed": base_seed, "diagnostic": "synthetic failure"}],
            tolerances={"tol": 1.0},
            wall_time=0.0,
        )

    import aluthgelab.cli as cli_module

    monkeypatch.setattr(cli_module, "run_suite", fake_run_suite)
    code = main(["verify", "--suite", "spectral", "--trials", "3", "--seed", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.err
