"""Command-line surface: outputs, artifacts, exit codes, determinism."""
import csv
import io
import json
import subprocess
import sys

import pytest

from hyperberry import cli

GRID_TEXT = "N = 100, 200\np = const 0.5\nf = const 0.5\n"
GATE_GRID_TEXT = "N = 10000\np = list 0.3, 0.5\nf = const 0.5\n"


@pytest.fixture()
def grid_file(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(GRID_TEXT)
    return str(path)


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPointCommands:
    def test_pmf_rational(self, capsys):
        code, out, _ = run_main(capsys, "pmf", "--n", "2", "--M", "2", "--N", "4", "--k", "1")
        assert code == 0
        assert out == "2/3\n"

    def test_cdf_rational(self, capsys):
        code, out, _ = run_main(capsys, "cdf", "--n", "2", "--M", "2", "--N", "4", "--k", "1")
        assert code == 0
        assert out == "5/6\n"

    def test_pmf_out_file(self, tmp_path, capsys):
        path = tmp_path / "v.txt"
        code, out, _ = run_main(
            capsys, "pmf", "--n", "2", "--M", "2", "--N", "4", "--k", "1",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_text() == "2/3\n"

    def test_invalid_params_exit_1(self, capsys):
        code, _, err = run_main(capsys, "pmf", "--n", "5", "--M", "2", "--N", "4", "--k", "1")
        assert code == 1
        assert "error" in err

    def test_bad_usage_exit_1(self, capsys):
        code, _, _ = run_main(capsys, "pmf", "--n", "2")
        assert code == 1

    def test_unknown_command_exit_1(self, capsys):
        code, _, _ = run_main(capsys, "frobnicate")
        assert code == 1


class TestCertify:
    def test_json_payload(self, capsys):
        code, out, _ = run_main(
            capsys, "certify", "--n", "100", "--M", "100", "--N", "200",
            "--k", "50", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"value", "log_main", "rem_bound", "lo", "hi"}
        assert payload["lo"] <= payload["value"] <= payload["hi"]
        assert payload["rem_bound"] == pytest.approx(2 / 75, rel=1e-9)

    def test_refusal_exit_2(self, capsys):
        code, _, err = run_main(
            capsys, "certify", "--n", "100", "--M", "100", "--N", "200", "--k", "80",
        )
        assert code == 2
        assert "refused" in err and "a_within_delta" in err


class TestBound:
    def test_profile_only(self, capsys):
        code, out, _ = run_main(
            capsys, "bound", "--n", "100", "--M", "100", "--N", "200", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["a1"] == 2.25
        assert payload["delta"] == pytest.approx(1 / 22.5, rel=1e-15)
        assert payload["gate_ok"] is False

    def test_with_constants(self, tmp_path, capsys):
        consts = tmp_path / "c.json"
        consts.write_text(
            json.dumps({"C1": 0.3, "C3": 1.5, "C4": 0.01, "C5": 0.08, "C6": 0.07})
        )
        code, out, _ = run_main(
            capsys, "bound", "--n", "5000", "--M", "5000", "--N", "10000",
            "--constants", str(consts), "--x", "2.0", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["uniform_bound"] == pytest.approx(0.3 / 25.0, rel=1e-12)
        assert "nonuniform_bound[2]" in payload
        assert "tail_bound[2]" in payload

    def test_gate_refusal_exit_2(self, tmp_path, capsys):
        consts = tmp_path / "c.json"
        consts.write_text(json.dumps({"C3": 1.5, "C4": 0.01}))
        code, _, err = run_main(
            capsys, "bound", "--n", "100", "--M", "100", "--N", "200",
            "--constants", str(consts), "--x", "1.0",
        )
        assert code == 2
        assert "refused" in err

    def test_x_without_constants_exit_1(self, capsys):
        code, _, _ = run_main(
            capsys, "bound", "--n", "100", "--M", "100", "--N", "200", "--x", "1.0",
        )
        assert code == 1

    def test_missing_constants_file_exit_1(self, capsys):
        code, _, _ = run_main(
            capsys, "bound", "--n", "100", "--M", "100", "--N", "200",
            "--constants", "/nonexistent.json",
        )
        assert code == 1


class TestDelta:
    def test_json_fields(self, capsys):
        code, out, _ = run_main(
            capsys, "delta", "--n", "50", "--M", "50", "--N", "100", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["backend"] == "rational"
        assert 0 < payload["delta_sup"] < 1
        assert payload["delta_times_sigma"] == pytest.approx(
            payload["delta_sup"] * 2.5, rel=1e-12
        )

    def test_balanced_population_of_a_billion(self, capsys):
        # support 5e8: the windowed table holds about 80 sigma points of it
        ratios = []
        for N in (10**7, 10**9):
            half = str(N // 2)
            code, out, err = run_main(
                capsys, "delta", "--n", half, "--M", half, "--N", str(N), "--json",
            )
            assert code == 0, err
            payload = json.loads(out)
            assert payload["backend"] == "logspace"
            ratios.append(payload["delta_times_sigma"])
        assert ratios[0] == pytest.approx(0.19947, abs=1e-5)
        assert abs(ratios[1] - ratios[0]) < 1e-3


class TestSweep:
    def test_csv_structure(self, grid_file, capsys):
        code, out, _ = run_main(
            capsys, "sweep", "--grid", grid_file, "--no-timestamp",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["instance_id"] for r in rows] == ["n100-M100-N200", "n50-M50-N100"]
        assert list(rows[0]) == cli.SWEEP_COLUMNS
        assert rows[0]["gate_ok"] == "false"
        assert float(rows[0]["delta_r"]) > 0

    def test_timestamp_header_toggle(self, grid_file, capsys):
        _, with_ts, _ = run_main(capsys, "sweep", "--grid", grid_file)
        assert with_ts.startswith("# generated ")
        _, without, _ = run_main(
            capsys, "sweep", "--grid", grid_file, "--no-timestamp",
        )
        assert without.startswith("instance_id,")

    def test_deterministic_output(self, grid_file, capsys):
        _, a, _ = run_main(capsys, "sweep", "--grid", grid_file, "--no-timestamp")
        _, b, _ = run_main(capsys, "sweep", "--grid", grid_file, "--no-timestamp")
        assert a == b

    def test_parallel_matches_serial(self, grid_file, capsys, monkeypatch):
        _, serial, _ = run_main(capsys, "sweep", "--grid", grid_file, "--no-timestamp")
        monkeypatch.setenv("HYPERBERRY_THREADS", "2")
        _, parallel, _ = run_main(capsys, "sweep", "--grid", grid_file, "--no-timestamp")
        assert parallel == serial

    def test_bad_thread_env_exit_1(self, grid_file, capsys, monkeypatch):
        monkeypatch.setenv("HYPERBERRY_THREADS", "lots")
        code, _, _ = run_main(capsys, "sweep", "--grid", grid_file)
        assert code == 1

    def test_no_delta_leaves_blank(self, grid_file, capsys):
        _, out, _ = run_main(
            capsys, "sweep", "--grid", grid_file, "--no-timestamp", "--no-delta",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["delta_r"] == "" for r in rows)

    def test_missing_grid_exit_1(self, capsys):
        code, _, _ = run_main(capsys, "sweep", "--grid", "/nonexistent.cfg")
        assert code == 1


class TestCalibrate:
    def test_artifact_round_trip(self, tmp_path, capsys):
        grid = tmp_path / "gate.cfg"
        grid.write_text(GATE_GRID_TEXT)
        out_path = tmp_path / "consts.json"
        code, _, _ = run_main(
            capsys, "calibrate", "--grid", str(grid),
            "--out", str(out_path), "--no-timestamp",
        )
        assert code == 0
        from hyperberry.bounds import ConstantSet

        consts = ConstantSet.from_json(out_path.read_text())
        consts.require("C1", "C2", "C3", "C4", "C5", "C6")
        assert consts.timestamp is None
        assert consts.calibration_grid

    def test_gated_out_grid_exit_1(self, grid_file, capsys):
        # both instances fail the delta*sigma gate
        code, _, err = run_main(capsys, "calibrate", "--grid", grid_file)
        assert code == 1
        assert "gate" in err


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_main(capsys, "verify")
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        assert len(lines) >= 5
        assert all(l.startswith("PASS") for l in lines)


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperberry.cli", "pmf",
         "--n", "2", "--M", "2", "--N", "4", "--k", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2/3\n"
