import json
import subprocess
import sys

import numpy as np
import pytest

from realqm.cli import main
from realqm.realify import ComplexMatrixRep, embed_matrix

STATE_QUARTER = '{"physical_density": [0.25, 0.25, 0, 0.25]}'
FERMIONIC_H = '{"fermionic": {"length": 1.0}}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_single_ground_target(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "spectrum"
        assert len(doc["rows"]) == 2
        row = doc["rows"][0]
        assert row["length"] == pytest.approx(np.sqrt(0.5), rel=1e-15)
        assert row["roundtrip_residual"] <= 1e-12
        # every float is rendered with 17 significant digits
        assert "0.70710678118654757" in out

    def test_below_bound_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "0.4")
        assert code == 2
        assert out == ""
        assert "hbar*omega/2" in err

    def test_three_targets_six_eigenvalues(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "0.5,0.625,2.0")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 6
        eigenvalues = sorted(r["eigenvalue"] for r in rows)
        np.testing.assert_allclose(eigenvalues, [0.5, 0.5, 0.625, 0.625, 2.0, 2.0],
                                   rtol=1e-10)
        assert {r["level"] for r in rows} == {0, 1, 2}

    def test_minus_branch(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "2.0", "--branch", "minus")
        assert code == 0
        plus_code, plus_out, _ = run_cli(capsys, "spectrum", "2.0")
        assert plus_code == 0
        minus_xi = json.loads(out)["rows"][0]["length"]
        plus_xi = json.loads(plus_out)["rows"][0]["length"]
        assert minus_xi < plus_xi

    def test_malformed_targets_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "0.5,abc")
        assert code == 1
        assert "parse" in err

    @pytest.mark.parametrize("target", ["nan", "inf"])
    def test_non_finite_target_is_rejected(self, capsys, target):
        code, out, err = run_cli(capsys, "spectrum", f"0.5,{target}")
        assert code in (1, 2)
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert target in err and "lengths must be positive" not in err

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "0.5", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("index,eigenvalue,level,target_energy,branch,"
                            "length,roundtrip_residual")
        assert len(lines) == 3


class TestUncertainty:
    def test_equal_lengths_give_half_hbar(self, capsys):
        code, out, _ = run_cli(capsys, "uncertainty", "0.25", "0.25", "0", "0",
                               "1", "1")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["product"] == pytest.approx(0.5, abs=1e-12)
        assert row["closed_form"] == pytest.approx(0.5, abs=1e-12)
        assert row["bound_satisfied"] is True

    def test_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "uncertainty", "0.25", "0.25", "0", "0",
                               "1", "2")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["closed_form"] == pytest.approx(0.625, abs=1e-14)
        assert row["product"] == pytest.approx(0.625, abs=1e-10)
        assert row["delta_x"] == pytest.approx(np.sqrt(2.5), rel=1e-12)

    def test_invalid_state_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "uncertainty", "0.3", "0.3", "0", "0",
                               "1", "1")
        assert code == 2
        assert "alpha+beta" in err

    def test_scales_with_hbar(self, capsys):
        code, out, _ = run_cli(capsys, "uncertainty", "0.25", "0.25", "0", "0",
                               "1", "1", "--hbar", "2.0")
        assert code == 0
        assert json.loads(out)["rows"][0]["closed_form"] == pytest.approx(1.0)


class TestEvolve:
    def test_stationary_state_constant_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve",
            "--state", '{"physical_density": [0.3, 0.2, 0, 0]}',
            "--hamiltonian",
            '{"matrix": {"dim": 4, "entries": [1,0,0,0, 0,1,0,0, 0,0,2,0, 0,0,0,2]}}',
            "--t0", "0", "--t1", "5", "--steps", "5")
        assert code == 0
        rows = json.loads(out)["rows"]
        energies = {round(r["energy"], 12) for r in rows}
        assert len(energies) == 1
        for r in rows:
            assert r["trace"] == pytest.approx(1.0, abs=1e-10)

    def test_fermionic_energy_conserved(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--state", STATE_QUARTER,
            "--hamiltonian", FERMIONIC_H,
            "--t0", "0", "--t1", "10", "--steps", "20")
        assert code == 0
        rows = json.loads(out)["rows"]
        for r in rows:
            assert r["energy"] == pytest.approx(0.5, abs=1e-10)
            assert r["physicality_residual"] <= 1e-10

    def test_trace_column_over_thousand_steps(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--state", STATE_QUARTER,
            "--hamiltonian", FERMIONIC_H,
            "--t0", "-50", "--t1", "50", "--steps", "1000", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1002
        traces = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(abs(t - 1.0) for t in traces) <= 1e-9

    def test_long_time_keeps_trace_and_physicality(self, capsys):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = embed_matrix(ComplexMatrixRep.from_complex((g + g.conj().T) / 2.0))
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
        state = json.dumps({"complex_density": {"re": rho.real.tolist(),
                                                "im": rho.imag.tolist()}})
        hamiltonian = json.dumps({"matrix": {"dim": 8, "entries": h.ravel().tolist()}})
        t1 = 1e12 / float(np.linalg.norm(h, 2))
        code, out, _ = run_cli(
            capsys, "evolve", "--state", state, "--hamiltonian", hamiltonian,
            "--t1", repr(t1), "--steps", "2")
        assert code == 0
        for r in json.loads(out)["rows"]:
            assert abs(r["trace"] - 1.0) <= 1e-12
            assert r["physicality_residual"] <= 1e-12

    @pytest.mark.parametrize("argv,code", [
        (["--t1", "1e300"], 2),
        (["--t1", "nan"], 1),
        (["--t0=-inf"], 1),
    ])
    def test_extreme_times_rejected(self, capsys, argv, code):
        got, out, err = run_cli(
            capsys, "evolve", "--state", STATE_QUARTER,
            "--hamiltonian", FERMIONIC_H, "--steps", "2", *argv)
        assert got == code
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_non_commuting_hamiltonian_rejected(self, capsys):
        position = ('{"matrix": {"dim": 4, "entries": '
                    '[1,0,0,0, 0,-1,0,0, 0,0,2,0, 0,0,0,-2]}}')
        code, _, err = run_cli(
            capsys, "evolve", "--state", '{"physical_density": [0.25, 0.25, 0, 0]}',
            "--hamiltonian", position)
        assert code == 2
        assert "diagnostics" in err

    def test_diagnostics_mode_shows_trace_drift(self, capsys):
        position = ('{"matrix": {"dim": 4, "entries": '
                    '[1,0,0,0, 0,-1,0,0, 0,0,2,0, 0,0,0,-2]}}')
        code, out, _ = run_cli(
            capsys, "evolve", "--state", '{"physical_density": [0.2, 0.3, 0.1, 0]}',
            "--hamiltonian", position, "--t0", "0", "--t1", "2", "--steps", "4",
            "--diagnostics")
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"] is True
        assert abs(doc["rows"][-1]["trace"] - 1.0) > 1e-3

    def test_observable_column(self, capsys):
        obs = ('{"observable": {"name": "population", "matrix": '
               '{"dim": 4, "entries": [1,0,0,0, 0,1,0,0, 0,0,0,0, 0,0,0,0]}}}')
        code, out, _ = run_cli(
            capsys, "evolve", "--state", STATE_QUARTER,
            "--hamiltonian", FERMIONIC_H, "--steps", "2", "--observable", obs)
        assert code == 0
        assert "population" in json.loads(out)["rows"][0]

    def test_state_file_spec(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        state_file.write_text(STATE_QUARTER)
        code, out, _ = run_cli(
            capsys, "evolve", "--state", f"@{state_file}",
            "--hamiltonian", FERMIONIC_H, "--steps", "1")
        assert code == 0
        assert json.loads(out)["state"]["dim"] == 4

    def test_bad_json_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "evolve", "--state", "{not json", "--hamiltonian", FERMIONIC_H)
        assert code == 1
        assert "JSON" in err


class TestCheck:
    def test_default_run_passes(self, capsys):
        code, out, err = run_cli(capsys, "check")
        assert code == 0
        doc = json.loads(out)
        assert {s["suite"] for s in doc["summary"]} == {
            "linalg", "realify", "states", "dynamics", "oscillator", "tensor"}
        assert all(s["failures"] == 0 for s in doc["summary"])
        assert all(r["passed"] for r in doc["rows"])
        assert "failures" in err

    def test_single_suite_selection(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "tensor")
        assert code == 0
        doc = json.loads(out)
        assert [s["suite"] for s in doc["summary"]] == ["tensor"]
        assert all(r["suite"] == "tensor" for r in doc["rows"])

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "--suite", "bogus")
        assert code == 1
        assert "bogus" in err

    def test_overtightened_tolerance_reports_failures(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--tol", "1e-20")
        assert code == 3
        doc = json.loads(out)
        failed = [r for r in doc["rows"] if not r["passed"]]
        assert failed
        for row in failed:
            assert row["residual"] > row["threshold"]
            assert np.isfinite(row["residual"])


class TestDeterminism:
    def test_check_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "check", "--seed", "7")
        _, second, _ = run_cli(capsys, "check", "--seed", "7")
        assert first == second

    def test_seed_changes_output(self, capsys):
        _, first, _ = run_cli(capsys, "check", "--seed", "7", "--suite", "linalg")
        _, second, _ = run_cli(capsys, "check", "--seed", "8", "--suite", "linalg")
        assert first != second

    def test_evolve_byte_identical(self, capsys):
        args = ("evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H,
                "--steps", "5", "--format", "csv")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestOutputHandling:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run_cli(capsys, "spectrum", "0.5", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "spectrum"

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "realqm", "spectrum", "0.5", "--format", "csv"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("index,")
