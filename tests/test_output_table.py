"""The column-table writer and the column names it can be given.

`_write` takes blocks of columns and formats each block with one row
template; `_emit` is its one-block case, for one ordered table (column name
-> list of values) per command.  The renderer they replaced -- a row dict
per row, with separate JSON and CSV cell formatters -- is kept below,
verbatim, as the byte-for-byte reference.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from realqm import cli
from realqm.linalg import ConstraintError

from helpers import run_cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)

STATE_QUARTER = '{"physical_density": [0.25, 0.25, 0, 0.25]}'
FERMIONIC_H = '{"fermionic": {"length": 1.0}}'
DIAGONAL = {"dim": 4, "entries": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2]}
SUITES = "linalg, realify, states, dynamics, oscillator, tensor"


# ---------------------------------------------------------------------------
# Reference renderer: the previous row-dict implementation, unchanged.


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        # Finite inputs can still overflow a result; nothing is written then.
        raise ConstraintError(f"a result is not finite ({x!r}); "
                              "the inputs are outside the representable range")
    return f"{x:.17g}"


def _render_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {_render_json(v, indent + 1)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = [f"{inner}{_render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    return str(value)


def _render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def reference(fmt: str, payload: dict, table: dict) -> str:
    columns = list(table)
    rows = [dict(zip(columns, row)) for row in zip(*table.values())]
    if fmt == "json":
        return _render_json({**payload, "rows": rows}) + "\n"
    return _render_csv(columns, rows)


def emitted(fmt: str, payload: dict, table: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(argparse.Namespace(format=fmt, out=None), payload, table)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Generated payloads and tables


finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]))
cells = st.one_of(finite, finite.map(np.float64), st.integers(), st.integers(-9, 9).map(np.int64),
                  st.booleans(), st.text(max_size=6))
payloads = st.dictionaries(
    st.text(max_size=6),
    st.recursive(st.one_of(st.none(), cells),
                 lambda inner: st.one_of(st.lists(inner, max_size=3),
                                         st.dictionaries(st.text(max_size=4), inner,
                                                         max_size=3)),
                 max_leaves=8),
    max_size=4)
column_names = st.lists(st.text("abcxyz_019", min_size=1, max_size=6),
                        min_size=1, max_size=6, unique=True)


@st.composite
def tables(draw):
    names = draw(column_names)
    rows = draw(st.integers(0, 5))
    return {name: draw(st.lists(cells, min_size=rows, max_size=rows)) for name in names}


@st.composite
def tables_with_a_non_finite_cell(draw):
    table = draw(tables())
    rows = len(next(iter(table.values())))
    if rows == 0:
        table = {name: [draw(cells)] for name in table}
        rows = 1
    column = draw(st.sampled_from(list(table)))
    table[column][draw(st.integers(0, rows - 1))] = draw(
        st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]))
    return table


class TestWriterMatchesReference:
    @SETTINGS
    @given(payload=payloads, table=tables())
    def test_json_and_csv_bytes(self, payload, table):
        for fmt in ("json", "csv"):
            assert emitted(fmt, payload, table).encode() == \
                reference(fmt, payload, table).encode()

    @SETTINGS
    @given(payload=payloads, table=tables_with_a_non_finite_cell())
    def test_non_finite_cell_is_a_domain_error(self, payload, table):
        for fmt in ("json", "csv"):
            with pytest.raises(ConstraintError):
                reference(fmt, payload, table)
            out = io.StringIO()
            with pytest.raises(ConstraintError), contextlib.redirect_stdout(out):
                cli._emit(argparse.Namespace(format=fmt, out=None), payload, table)
            assert out.getvalue() == ""

    def test_ragged_table_is_refused(self):
        with pytest.raises(ValueError):
            emitted("csv", {}, {"a": [1.0, 2.0], "b": [1.0]})


# ---------------------------------------------------------------------------
# Commands


def observable(name=None, matrix=DIAGONAL):
    doc = {"matrix": matrix} if name is None else {"name": name, "matrix": matrix}
    return json.dumps({"observable": doc})


def evolve(capsys, *observables, fmt="json"):
    argv = ["evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H,
            "--steps", "3", "--format", fmt]
    for text in observables:
        argv += ["--observable", text]
    return run_cli(capsys, *argv)


def assert_rejected(result, code):
    rc, out, err = result
    assert rc == code
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("realqm: ")


class TestSpectrumLevels:
    def test_repeated_target_keeps_both_branches(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "1,1", "--branch", "plus,minus")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["level"] for r in rows] == [0, 0, 1, 1]
        assert [r["branch"] for r in rows] == ["plus", "plus", "minus", "minus"]
        lengths = {}
        for branch in ("plus", "minus"):
            _, single, _ = run_cli(capsys, "spectrum", "1", "--branch", branch)
            lengths[branch] = json.loads(single)["rows"][0]["length"]
        assert [r["length"] for r in rows] == [lengths["plus"]] * 2 + [lengths["minus"]] * 2
        assert lengths["plus"] == pytest.approx((1.0 + math.sqrt(3.0)) / 2.0, rel=1e-15)
        assert lengths["minus"] == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0, rel=1e-15)
        for row in rows:
            assert row["eigenvalue"] == pytest.approx(1.0, rel=1e-15)
            assert row["roundtrip_residual"] <= 1e-15

    def test_levels_follow_the_sorted_diagonal(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "2,1,2,0.5")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["level"] for r in rows] == [3, 3, 1, 1, 0, 0, 2, 2]
        assert [r["target_energy"] for r in rows] == [0.5, 0.5, 1, 1, 2, 2, 2, 2]

    def test_every_row_carries_its_own_level(self, capsys):
        targets, branches = [2.0, 1.0, 2.0, 0.5], ["plus", "minus", "minus", "plus"]
        code, out, _ = run_cli(capsys, "spectrum", "2,1,2,0.5", "--branch", ",".join(branches))
        assert code == 0
        rows = json.loads(out)["rows"]
        assert sorted(r["level"] for r in rows) == [0, 0, 1, 1, 2, 2, 3, 3]
        for row in rows:
            assert row["target_energy"] == targets[row["level"]]
            assert row["branch"] == branches[row["level"]]
            assert row["eigenvalue"] == pytest.approx(row["target_energy"], rel=1e-14)
        assert len({r["length"] for r in rows if r["target_energy"] == 2.0}) == 2


class TestEvolveColumns:
    def test_csv_reads_back_as_the_json_rows(self, capsys):
        spread = {"dim": 4, "entries": [2, 1, 0, 0, 1, 0, 0, 0, 0, 0, 2, 1, 0, 0, 1, 0]}
        specs = (observable("x"), observable("y", spread))
        code, out_json, _ = evolve(capsys, *specs)
        assert code == 0
        code, out_csv, _ = evolve(capsys, *specs, fmt="csv")
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(out_csv)))
        json_rows = json.loads(out_json)["rows"]
        assert header == ["t", "trace", "min_eigenvalue", "physicality_residual",
                          "energy", "x", "y"]
        assert all(list(r) == header for r in json_rows)
        assert [[float(cell) for cell in row] for row in rows] == \
            [list(r.values()) for r in json_rows]

    @pytest.mark.parametrize("name", ["t", "trace", "min_eigenvalue",
                                      "physicality_residual", "energy"])
    def test_fixed_column_name_is_usage_error(self, capsys, name):
        result = evolve(capsys, observable(name))
        assert_rejected(result, 1)
        assert repr(name) in result[2]

    def test_repeated_name_is_usage_error(self, capsys):
        assert_rejected(evolve(capsys, observable("x"), observable("x")), 1)

    @pytest.mark.parametrize("names", [(None, "obs0"), ("obs1", None)])
    def test_default_name_counts_as_taken(self, capsys, names):
        result = evolve(capsys, *(observable(n) for n in names))
        assert_rejected(result, 1)
        assert "obs" in result[2]

    def test_distinct_default_and_given_names_pass(self, capsys):
        code, out, _ = evolve(capsys, observable(), observable("obs1"), fmt="csv")
        assert code == 0
        assert out.splitlines()[0].endswith(",energy,obs0,obs1")

    @pytest.mark.parametrize("name", [None, 1, 2.5, True, {"a": 1}, ["x"]])
    def test_name_that_is_not_a_string_is_usage_error(self, capsys, name):
        # {"a": 1} once named a column "{'a': 1}", and null one "None".
        text = json.dumps({"observable": {"name": name, "matrix": DIAGONAL}})
        result = evolve(capsys, text)
        assert_rejected(result, 1)
        assert result[2] == "realqm: error: observable name must be a JSON string\n"

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_name_that_breaks_csv_is_usage_error(self, capsys, name):
        assert_rejected(evolve(capsys, observable(name)), 1)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("name", ["\ud800", "x\udfff", "\u00e9\udc80y"])
    def test_name_utf8_cannot_encode_is_usage_error(self, capsys, tmp_path, fmt, name):
        # A lone surrogate is valid JSON text.  In CSV it ended in a
        # UnicodeEncodeError traceback, after --out had emptied its target.
        assert_rejected(evolve(capsys, observable(name), fmt=fmt), 1)
        target = tmp_path / "rows.out"
        target.write_bytes(b"earlier output\n")
        result = run_cli(capsys, "evolve", "--state", STATE_QUARTER, "--hamiltonian",
                         FERMIONIC_H, "--format", fmt, "--observable", observable(name),
                         "--out", str(target))
        assert_rejected(result, 1)
        assert "surrogate" in result[2]
        assert target.read_bytes() == b"earlier output\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_name_utf8_cannot_encode_leaves_process_stdout_empty(self, fmt):
        src = Path(cli.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-m", "realqm", "evolve", "--state", STATE_QUARTER,
             "--hamiltonian", FERMIONIC_H, "--format", fmt,
             "--observable", observable("\ud800")],
            capture_output=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert (run.returncode, run.stdout) == (1, b"")
        assert run.stderr.decode().startswith("realqm: error: observable name '\\ud800'")
        assert run.stderr.count(b"\n") == 1

    def test_asymmetric_observable_is_domain_error(self, capsys):
        skew = {"dim": 4, "entries": [0, 1] + [0] * 14}
        result = evolve(capsys, observable("x", skew))
        assert_rejected(result, 2)
        assert "'x'" in result[2] and "symmetric" in result[2]


class TestCheckSuiteSelection:
    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_suite_value_naming_no_suite_is_usage_error(self, capsys, value):
        result = run_cli(capsys, "check", "--suite", value)
        assert_rejected(result, 1)
        assert SUITES in result[2]


# ---------------------------------------------------------------------------
# Blocks and output targets


def written(fmt: str, payload: dict, names: list, blocks) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write(argparse.Namespace(format=fmt, out=None), payload, names, blocks)
    return out.getvalue()


@st.composite
def tables_and_cuts(draw):
    table = draw(tables())
    rows = len(next(iter(table.values())))
    cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=4)))
    return table, [0, *cuts, rows]


def failing_blocks(bad):
    yield [[0.5, 1.5], ["a", "b"]]
    yield [[2.5, bad], ["c", "d"]]


class TestBlocks:
    @SETTINGS
    @given(payload=payloads, table_and_cuts=tables_and_cuts())
    def test_any_split_into_blocks_gives_the_reference_bytes(self, payload, table_and_cuts):
        table, bounds = table_and_cuts
        blocks = [[column[a:b] for column in table.values()]
                  for a, b in zip(bounds, bounds[1:])]
        for fmt in ("json", "csv"):
            assert written(fmt, payload, list(table), blocks).encode() == \
                reference(fmt, payload, table).encode()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64("-inf")])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_cell_in_a_later_block_writes_nothing(self, tmp_path, fmt, bad):
        out = io.StringIO()
        with pytest.raises(ConstraintError), contextlib.redirect_stdout(out):
            cli._write(argparse.Namespace(format=fmt, out=None), {"command": "x"},
                       ["t", "name"], failing_blocks(bad))
        assert out.getvalue() == ""

        target = tmp_path / "table.out"
        with pytest.raises(ConstraintError):
            cli._write(argparse.Namespace(format=fmt, out=str(target)), {"command": "x"},
                       ["t", "name"], failing_blocks(bad))
        assert list(tmp_path.iterdir()) == []

        target.write_bytes(b"earlier output\n")
        with pytest.raises(ConstraintError):
            cli._write(argparse.Namespace(format=fmt, out=str(target)), {"command": "x"},
                       ["t", "name"], failing_blocks(bad))
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"earlier output\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_three_block_evolve_to_out_matches_stdout(self, capsys, tmp_path, fmt):
        argv = ["evolve", "--state", STATE_QUARTER, "--hamiltonian", FERMIONIC_H,
                "--steps", "300", "--format", fmt, "--observable", observable("x")]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(out.splitlines()) > 300
        target = tmp_path / f"rows.{fmt}"
        code, printed, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, printed) == (0, "")
        assert target.read_bytes() == out.encode()
        assert list(tmp_path.iterdir()) == [target]

    def test_out_in_a_missing_directory_names_the_target(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table.json"
        result = run_cli(capsys, "spectrum", "0.5", "--out", str(target))
        assert_rejected(result, 1)
        assert repr(str(target)) in result[2]
        assert list(tmp_path.iterdir()) == []

    def test_out_writes_through_a_symbolic_link(self, capsys, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        code, _, _ = run_cli(capsys, "spectrum", "0.5", "--format", "csv", "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert real.read_text().startswith("index,")

    def test_percent_sign_in_a_column_name_is_literal(self, capsys):
        code, out, _ = evolve(capsys, observable("100%"))
        assert code == 0
        rows = json.loads(out)["rows"]
        assert list(rows[0])[-1] == "100%"
        code, out_csv, _ = evolve(capsys, observable("100%"), fmt="csv")
        assert out_csv.splitlines()[0].endswith(",energy,100%")
        assert [float(line.split(",")[-1]) for line in out_csv.splitlines()[1:]] == \
            [row["100%"] for row in rows]
