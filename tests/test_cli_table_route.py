"""The table route of `realqm.cli.main` reads an argv exactly as argparse does.

`cli._table_route` parses a fully spelled argv from the actions of the
built parser and returns None for anything else, which argparse then parses
or rejects.  Wherever it returns a namespace, that namespace equals
`parse_args` of the same argv, and every command the benchmark and the
README run takes it.
"""

import contextlib
import importlib
import io
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from realqm import cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=600)

# Each option's kind of value, and each subcommand's options and positionals.
COMMON = {"hbar": "float", "mass": "float", "omega": "float", "tol": "float", "seed": "int",
          "format": "choice", "out": "text"}
COMMANDS = {
    "spectrum": ({**COMMON, "branch": "text"}, ["text"]),
    "uncertainty": (COMMON, ["float"] * 6),
    "evolve": ({**COMMON, "state": "text", "hamiltonian": "text", "t0": "float",
                "t1": "float", "steps": "int", "observable": "text", "diagnostics": None},
               []),
    "check": ({**COMMON, "suite": "text"}, []),
}
REQUIRED = {"evolve": ("state", "hamiltonian")}

# Values argparse takes for each kind: a negative number is a value in every
# spelling, and "-inf" is not one.
GOOD = {
    "float": st.one_of(st.floats().map(repr).filter(lambda s: s != "-inf"),
                       st.sampled_from(["-1e-3", "-.5", "-0.0", "2", "1_000", " 3 "])),
    "int": st.one_of(st.integers(-5, 10**20).map(str), st.just("-0")),
    "choice": st.sampled_from(["json", "csv"]),
    "text": st.one_of(st.text(max_size=12).filter(lambda s: not s.startswith("-")),
                      st.sampled_from(['{"physical_density": [0.25, 0.25, 0, 0.25]}',
                                       "-0.5,1", "plus,minus", "@file"])),
}
# Anything: bad types and choices, dashes, option spellings as values.
ANY = st.one_of(*GOOD.values(), st.sampled_from(
    ["abc", "", "-", "--", "-x", "-x y", "-inf", "xml", "1.5", "--state", "-h", "--t1=2",
     "nan", "-1e-3", "-1=2", "--hb"]))


def _spell(draw, name: str, value):
    """An option and its value, spelled in full, abbreviated, as --opt=value,
    or with its value missing."""
    form = draw(st.sampled_from(["full", "full", "full", "prefix", "equals", "missing"]))
    flag = "--" + name if form != "prefix" else "--" + name[:draw(st.integers(1, len(name)))]
    if value is None:  # a flag without a value
        return [flag] if form != "equals" else [flag + "=" + draw(ANY)]
    if form == "equals":
        return [f"{flag}={value}"]
    return [flag] if form == "missing" else [flag, value]


@st.composite
def argv_pair(draw):
    """(argv, clean): a clean argv spells every part in full with a good
    value and gives every positional and required option, so it must take
    the route; any other argv changes about one part in four."""
    command = draw(st.sampled_from(list(COMMANDS)))
    options, positionals = COMMANDS[command]
    clean = draw(st.booleans())

    def odd():  # whether to change this part
        return not clean and draw(st.integers(0, 3)) == 0

    names = draw(st.lists(st.sampled_from(list(options)), max_size=6))
    if not odd():
        names += REQUIRED.get(command, ())
    parts = []
    for name in names:
        kind = options[name]
        value = kind and draw(ANY if odd() else GOOD[kind])
        parts.append(_spell(draw, name, value) if odd()
                     else ["--" + name] + ([value] if kind else []))
    count = len(positionals) + (draw(st.sampled_from([-1, 1])) if odd() else 0)
    for k in range(max(count, 0)):
        kind = positionals[min(k, len(positionals) - 1)] if positionals else "text"
        parts.insert(draw(st.integers(0, len(parts))), [draw(ANY if odd() else GOOD[kind])])
    if odd():
        extra = draw(st.sampled_from(["-h", "--help", "--", "--bogus"]))
        parts.insert(draw(st.integers(0, len(parts))), [extra])
    if odd():
        command = draw(st.sampled_from(["evol", "bogus", "-h", "--hbar"]))
    return [command, *(token for part in parts for token in part)], clean


def _same(a, b) -> bool:
    """Namespace equality where NaN equals NaN."""
    def same(x, y):
        return x == y or (isinstance(x, float) and isinstance(y, float)
                          and math.isnan(x) and math.isnan(y))
    return vars(a).keys() == vars(b).keys() and all(
        same(value, vars(b)[key]) for key, value in vars(a).items())


def _argparse(argv):
    """`parse_args(argv)`, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_args(argv)
        except SystemExit:
            return None


def _assert_route_is_argparse(argv):
    routed = cli._table_route(list(argv))
    assert routed is not None, argv
    parsed = _argparse(argv)
    assert parsed is not None and _same(routed, parsed), (argv, routed, parsed)


@SETTINGS
@given(argv_pair())
def test_table_route_equals_argparse(pair):
    argv, clean = pair
    routed = cli._table_route(list(argv))
    if routed is None:
        assert not clean, argv
        return
    parsed = _argparse(argv)
    assert parsed is not None, argv
    assert _same(routed, parsed), (argv, routed, parsed)


@pytest.mark.parametrize("argv", [
    ["evolve", "--stat", "{}", "--hamiltonian", "{}"],            # abbreviation
    ["evolve", "--state={}", "--hamiltonian", "{}"],              # --opt=value
    ["spectrum", "--", "1,2"],                                    # --
    ["spectrum", "-h"], ["spectrum", "1", "--help"],              # help
    ["check", "--seed", "x"], ["check", "--format", "xml"],       # bad type and choice
    ["check", "--seed"], ["evolve", "--state", "{}"],             # missing value, option
    ["uncertainty", "1", "2", "3", "4", "5"],                     # missing positional
    ["uncertainty", *"1234567"], ["spectrum", "1", "-"],          # extra positional
    ["evolve", "--state", "-x", "--hamiltonian", "{}"],           # a dash word as a value
    ["evol", "--state", "{}", "--hamiltonian", "{}"], [],         # no full subcommand
])
def test_everything_else_is_argparse(argv):
    assert cli._table_route(argv) is None


def test_every_benchmark_command_takes_the_table_route(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    count = 0
    for workload in workloads.WORKLOADS.values():
        for seed in (1, 2):
            ops = workload.make_ops(np.random.default_rng(seed))
            argvs = [op.argv for op in ops if op.argv is not None]
            code, launch = workload.setup_launch(ops)
            if code == workloads.CLI_LAUNCH:
                argvs.append(launch)
            for argv in argvs:
                _assert_route_is_argparse(argv)
            count += len(argvs)
    assert count > 100


def test_every_readme_example_takes_the_table_route():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    commands = [shlex.split(line, comments=True)
                for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("realqm ")]
    assert len(commands) >= 4
    for argv in commands:
        _assert_route_is_argparse(argv[1:])
