"""Stage spans on stderr (REALQM_TRACE=1) leave stdout as it is.

With tracing on, every command writes the same stdout bytes as with it off,
and every stderr line it adds is one JSON object; the only other lines are
a final `realqm:` message and `check`'s per-suite summary.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from realqm import trace
from realqm.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_cli_properties import hamiltonian_spec, state_spec  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)
SUMMARY = re.compile(r"suite \w+: \d+ checks, \d+ failures")

STATE = '{"physical_density": [0.25, 0.25, 0.1, 0.05]}'
H_MATRIX = json.dumps({"matrix": {"dim": 4, "entries": [
    1.0, 0.0, 0.3, -0.2, 0.0, 1.0, 0.2, 0.3, 0.3, 0.2, 2.0, 0.0, -0.2, 0.3, 0.0, 2.0]}})
OBSERVABLE = json.dumps({"observable": {"name": "x", "matrix": {"dim": 4, "entries": [
    1.0, 0.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.5, 0.5, 0.0, -1.0, 0.0, 0.0, 0.5, 0.0, -1.0]}}})
COMMANDS = [
    ["spectrum", "0.5,1.5,4.0"],
    ["uncertainty", "0.25", "0.25", "0.1", "0.05", "1", "2"],
    ["evolve", "--state", STATE, "--hamiltonian", H_MATRIX, "--observable", OBSERVABLE,
     "--steps", "300"],
    ["evolve", "--state", STATE, "--hamiltonian", '{"oscillator": {"lengths": [1.0, 2.0]}}',
     "--diagnostics", "--steps", "3"],
    ["check", "--suite", "linalg,states"],
]


def run(argv, traced, monkeypatch):
    monkeypatch.setattr(trace, "ENABLED", traced)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def spans(err: str, command: str) -> list[dict]:
    """The JSON lines of stderr, after checking that every other line is a
    final `realqm:` message or `check`'s summary."""
    lines = err.splitlines()
    if lines and lines[-1].startswith("realqm: "):
        lines.pop()
    records = []
    for line in lines:
        if command == "check" and SUMMARY.fullmatch(line):
            continue
        record = json.loads(line)
        assert isinstance(record["span"], str) and isinstance(record["seconds"], float)
        records.append(record)
    return records


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(argv[:1] + argv[-1:]))
def test_stdout_is_the_same_with_tracing_on(argv, fmt, monkeypatch):
    code, out, err = run([*argv, "--format", fmt], False, monkeypatch)
    traced = run([*argv, "--format", fmt], True, monkeypatch)
    assert code == 0
    assert traced[:2] == (code, out)
    assert traced[2].endswith(err)  # the untraced stderr is check's summary or nothing
    assert spans(traced[2], argv[0])


def test_evolve_stages(monkeypatch):
    _, _, err = run(COMMANDS[2], True, monkeypatch)
    names = [json.loads(line)["span"] for line in err.splitlines()]
    # A span is written when it closes: the grid blocks inside render, as
    # render pulls them, and decompose when the grid is set up.
    assert names == ["parse", "state", "hamiltonian", "observables", "decompose",
                     "grid_block", "grid_block", "grid_block", "render"]
    blocks = [json.loads(line) for line in err.splitlines() if '"grid_block"' in line]
    assert [(b["start"], b["points"]) for b in blocks] == [(0, 128), (128, 128), (256, 45)]


def test_check_span_per_suite(monkeypatch):
    _, _, err = run(["check", "--suite", "states,dynamics"], True, monkeypatch)
    records = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    suites = [r for r in records if r["span"] == "check"]
    assert [r["suite"] for r in suites] == ["states", "dynamics"]
    for r in suites:
        assert r["failures"] == 0 and r["checks"] > 0
        assert 0.0 <= r["worst_margin"] <= 1.0
    code, _, err = run(["check", "--suite", "linalg", "--tol", "0"], True, monkeypatch)
    [suite] = [json.loads(line) for line in err.splitlines() if '"check"' in line]
    assert code == 3 and suite["failures"] > 0 and suite["worst_margin"] == 0.0


float_text = st.one_of(st.floats().map(repr), st.floats(-3.0, 3.0).map(repr))


@st.composite
def parsed_argv(draw):
    """Arguments argparse accepts, for every subcommand, whose specs and
    values may still be refused after parsing.  (A usage error that argparse
    itself reports is its own text, before the parse span closes.)"""
    command = draw(st.sampled_from(["spectrum", "uncertainty", "evolve", "check"]))
    flags = ["--format", draw(st.sampled_from(["json", "csv"]))]
    if draw(st.booleans()):
        flags.append(f"--tol={draw(float_text)}")  # "--tol -1e+16" reads as two flags
    if command == "spectrum":
        return ["spectrum", *flags, "--",
                ",".join(draw(st.lists(float_text, min_size=1, max_size=4)))]
    if command == "uncertainty":
        values = draw(st.lists(st.sampled_from(["0.25", "0", "1", "2", "nan", "0.3"]),
                               min_size=6, max_size=6))
        return ["uncertainty", *flags, "--", *values]
    if command == "check":
        return ["check", *flags, "--suite", draw(st.sampled_from(["linalg", "oscillator",
                                                                 "tensor", "bogus"]))]
    argv = ["evolve", *flags, "--state", draw(state_spec()),
            "--hamiltonian", draw(hamiltonian_spec()),
            "--steps", str(draw(st.sampled_from([0, 1, 5, 130]))),
            f"--t1={draw(float_text)}"]
    if draw(st.booleans()):
        argv.append("--diagnostics")
    return argv


@SETTINGS
@given(parsed_argv())
def test_every_traced_stderr_line_is_json(argv):
    with pytest.MonkeyPatch.context() as monkeypatch:
        code, out, err = run(argv, False, monkeypatch)
        traced = run(argv, True, monkeypatch)
    assert traced[:2] == (code, out)
    assert traced[2].endswith(err)
    spans(traced[2], argv[0])


def test_the_environment_switch(tmp_path):
    # REALQM_TRACE is read when the package is imported, so each setting is
    # a fresh interpreter.
    src = str(Path(trace.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "realqm", "spectrum", "0.5,1.5"]
    results = {}
    for value in ("1", "0"):
        env = {**os.environ, "REALQM_TRACE": value, "PYTHONPATH": src}
        results[value] = subprocess.run(argv, env=env, capture_output=True, text=True,
                                        check=True, timeout=120)
    assert results["1"].stdout == results["0"].stdout
    assert results["0"].stderr == ""
    assert [r["span"] for r in spans(results["1"].stderr, "spectrum")] == ["parse", "render"]
