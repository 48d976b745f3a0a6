import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from realqm import dynamics
from realqm.cli import MAX_STEPS, _build_parser, main
from realqm.realify import ComplexMatrixRep, embed_matrix

STATE_QUARTER = '{"physical_density": [0.25, 0.25, 0, 0.25]}'
FERMIONIC_H = '{"fermionic": {"length": 1.0}}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def generic_evolve_specs(d, seed=11):
    """JSON state, Hamiltonian and observable specs at real dimension 2d."""
    rng = np.random.default_rng(seed)

    def hermitean():
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (g + g.conj().T) / 2.0

    def matrix(c):
        m = embed_matrix(ComplexMatrixRep.from_complex(c))
        return {"dim": 2 * d, "entries": m.ravel().tolist()}

    h_c, o_c = hermitean(), hermitean()
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho_c = g @ g.conj().T / np.trace(g @ g.conj().T).real
    state = json.dumps({"complex_density": {"re": rho_c.real.tolist(),
                                            "im": rho_c.imag.tolist()}})
    return (state, json.dumps({"matrix": matrix(h_c)}),
            json.dumps({"observable": {"name": "obs", "matrix": matrix(o_c)}}),
            h_c, rho_c, o_c)


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

    @pytest.mark.parametrize("target", ["1e6", "1e10", "1e100"])
    def test_minus_branch_of_large_targets_keeps_its_digits(self, capsys, target):
        code, out, _ = run_cli(capsys, "spectrum", target, "--branch", "minus")
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert row["roundtrip_residual"] <= 1e-12
            assert row["eigenvalue"] == pytest.approx(float(target), rel=1e-12)

    @pytest.mark.parametrize("argv", [["1e308"], ["1", "--omega", "1e-308"]])
    def test_length_outside_float_range_names_the_target(self, capsys, argv):
        code, out, err = run_cli(capsys, "spectrum", *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"realqm: constraint violated: target energy {float(argv[0])!r}")

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

    @pytest.mark.parametrize("targets,branch", [("1,2", "plus,bogus"), ("1", "bogus"),
                                                ("1", "")])
    def test_bad_branch_is_usage_error(self, capsys, targets, branch):
        code, out, err = run_cli(capsys, "spectrum", targets, f"--branch={branch}")
        assert code == 1
        assert out == ""
        assert err.startswith("realqm: error: --branch") and err.count("\n") == 1
        assert repr(branch.split(",")[-1]) in err

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

    @pytest.mark.parametrize("slot", range(6))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_argument_is_usage_error(self, capsys, slot, value):
        names = ["alpha", "beta", "gamma", "delta", "xi1", "xi2"]
        values = ["0.25", "0.25", "0", "0", "1", "2"]
        values[slot] = value
        code, out, err = run_cli(capsys, "uncertainty", "--", *values)
        assert code == 1
        assert out == ""
        assert err == f"realqm: error: {names[slot]} must be finite, got {float(value)!r}\n"

    @pytest.mark.parametrize("lengths", [("5e-324", "2"), ("1e308", "1")])
    def test_overflowing_lengths_are_domain_errors(self, capsys, lengths):
        code, out, err = run_cli(capsys, "uncertainty", "0.25", "0.25", "0", "0", *lengths)
        assert code == 2
        assert out == ""
        assert err.startswith("realqm: constraint violated:") and err.count("\n") == 1

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


class TestEvolveGrid:
    """Rows of the batched time grid."""

    @pytest.mark.parametrize("d", [2, 8, 32])
    @pytest.mark.parametrize("phase", [1e6, 1e12])
    def test_rows_match_complex_reference(self, capsys, d, phase):
        state, hamiltonian, obs, h_c, rho_c, o_c = generic_evolve_specs(d)
        t1 = phase / float(np.linalg.norm(h_c, 2))
        code, out, _ = run_cli(capsys, "evolve", "--state", state, "--hamiltonian", hamiltonian,
                               "--observable", obs, "--t0", repr(-t1), "--t1", repr(t1),
                               "--steps", "2")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["t"] for r in rows] == [-t1, 0.0, t1]
        w, v = np.linalg.eigh(h_c)
        energy = float(np.trace(rho_c @ h_c).real)
        min_eig = float(np.linalg.eigvalsh(rho_c)[0]) / 2.0
        for r in rows:
            u = (v * np.exp(-1j * w * r["t"])) @ v.conj().T
            expected_obs = float(np.trace(u @ rho_c @ u.conj().T @ o_c).real)
            assert abs(r["trace"] - 1.0) <= 1e-12
            assert r["physicality_residual"] <= 1e-12
            assert r["min_eigenvalue"] == pytest.approx(min_eig, abs=1e-12)
            assert r["energy"] == pytest.approx(energy, abs=1e-12 * max(1.0, abs(w).max()))
            # phase roundoff grows like phase * eps
            assert abs(r["obs"] - expected_obs) <= max(1e-12, 1e-14 * phase) * abs(w).max()

    def test_long_grid_matches_separate_commands(self, capsys):
        state, hamiltonian, obs, *_ = generic_evolve_specs(4)
        base = ("evolve", "--state", state, "--hamiltonian", hamiltonian, "--observable", obs)
        steps = 2 * dynamics._GRID_BLOCK + 2
        code, out, _ = run_cli(capsys, *base, "--t0", "-2", "--t1", "5", "--steps", str(steps))
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == steps + 1
        for row in rows:
            t = repr(row["t"])
            code, out, _ = run_cli(capsys, *base, "--t0", t, "--t1", t, "--steps", "1")
            assert code == 0
            assert json.loads(out)["rows"][0] == row

    def test_phase_guard_at_last_point_writes_nothing(self, capsys):
        # the fermionic levels are +-1/2, so only t = 3e15 passes phase 1e15
        code, out, err = run_cli(
            capsys, "evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H,
            "--t0", "0", "--t1", "3e15", "--steps", "2")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "at t = 3e+15" in err

    def test_diagnostics_overflowing_flow_is_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H,
            "--diagnostics", "--t1", "1e300")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "not finite" in err

    def test_steps_above_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H,
            "--steps", str(MAX_STEPS + 1))
        assert code == 1
        assert out == ""
        assert str(MAX_STEPS) in err


class TestInputBoundary:
    @pytest.mark.parametrize("argv", [
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H, "--hbar", "-1"],
        ["check", "--tol", "-1"],
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian",
         '{"matrix": {"dim": 3, "entries": [1,0,0, 0,1,0, 0,0,1]}}'],
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian",
         '{"matrix": {"dim": "four", "entries": []}}'],
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H,
         "--observable", '{"observable": {"matrix": {"dim": 2, "entries": [1, 0, 0, 1]}}}'],
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H,
         "--observable", '{"observable": [1, 0, 0, 1]}'],
        ["evolve", "--state", '{"complex_density": {"re": [[1]], "im": [[0, 0]]}}',
         "--hamiltonian", FERMIONIC_H],
        ["evolve", "--state", '{"physical_density": ["x", 0.25, 0, 0.25]}',
         "--hamiltonian", FERMIONIC_H],
        ["evolve", "--state", '{"physical_density": [NaN, 0.25, 0, 0.25]}',
         "--hamiltonian", FERMIONIC_H],
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian", '{"fermionic": {"length": [1, 2]}}'],
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian", '{"oscillator": {"lengths": 3}}'],
    ], ids=["negative-hbar", "negative-tol", "odd-matrix-dimension", "non-numeric-dimension",
            "observable-dimension", "observable-list", "non-square-complex-density",
            "non-numeric-entry", "nan-entry", "fermionic-length-list", "oscillator-lengths-scalar"])
    def test_library_value_errors_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("realqm: error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestOverflow:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "1e200", "--omega", "1e160"],
        ["spectrum", "5e138", "--branch", "minus", "--hbar", "7.2e101",
         "--mass", "7.3e197", "--omega", "4.3e31"],
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian",
         '{"oscillator": {"lengths": [1, 1]}}', "--omega", "1e160"],
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian",
         '{"oscillator": {"lengths": [1e200, 1]}}'],
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H,
         "--hbar", "1e200", "--omega", "1e200"],
        ["uncertainty", "0.25", "0.25", "0", "0", "1", "1", "--hbar", "1e300",
         "--omega", "1e300"],
    ], ids=["spectrum-omega-squared", "spectrum-hamiltonian", "oscillator-omega-squared", "oscillator-length",
            "fermionic-hbar-omega", "uncertainty-result"])
    def test_finite_inputs_that_overflow_are_domain_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("realqm: constraint violated:") and err.count("\n") == 1


OVERFLOW_ARGV = [
    ["uncertainty", "0.25", "0.25", "0", "0", "5e-324", "2"],
    ["spectrum", "1e308"],
    ["spectrum", "1", "--omega", "1e-308"],
]


class TestNoNumpyWarnings:
    @pytest.mark.parametrize("argv", OVERFLOW_ARGV, ids=["uncertainty", "spectrum-energy",
                                                         "spectrum-omega"])
    def test_stderr_is_exactly_the_error_line(self, argv):
        proc = subprocess.run([sys.executable, "-m", "realqm", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("realqm: constraint violated:")

    @pytest.mark.parametrize("argv", OVERFLOW_ARGV + [
        ["spectrum", "1e200", "--omega", "1e160"],
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian",
         '{"oscillator": {"lengths": [1e200, 1]}}'],
        ["evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H,
         "--hbar", "1e200", "--omega", "1e200"],
    ])
    def test_main_warns_nothing(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.count("\n") == 1
        assert caught == []


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_consecutive_calls_share_no_state(self, capsys):
        def observable(name):
            return json.dumps({"observable": {"name": name, "matrix": {
                "dim": 4, "entries": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}}})

        base = ("evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H,
                "--steps", "2", "--format", "csv")
        code, first, _ = run_cli(capsys, *base, "--observable", observable("a"))
        assert code == 0 and first.splitlines()[0].endswith(",energy,a")
        code, second, _ = run_cli(capsys, *base, "--observable", observable("b"),
                                  "--observable", observable("c"))
        assert code == 0 and second.splitlines()[0].endswith(",energy,b,c")
        code, third, _ = run_cli(capsys, *base)
        assert code == 0 and third.splitlines()[0].endswith(",energy")
        assert run_cli(capsys, "evolve", "--steps", "x")[0] == 1
        code, again, _ = run_cli(capsys, *base, "--observable", observable("a"))
        assert code == 0 and again == first


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

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check", "--suite", "realify", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "realqm: error: --seed must be nonnegative, got -1\n"

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
