"""Tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from workloads import WORKLOADS, GenericityError, require_generic

ROOT = Path(__file__).resolve().parents[1]


def _ops(name, seed, smoke=True):
    return WORKLOADS[name].make_ops(np.random.default_rng(seed), smoke=smoke)


def _same_ref(a, b) -> bool:
    if a.keys() != b.keys():
        return False
    return all(np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k]
               for k in a)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first, again, other = _ops(name, 7, False), _ops(name, 7, False), _ops(name, 8, False)
    assert [op.argv for op in first] == [op.argv for op in again]
    assert all(_same_ref(a.ref, b.ref) for a, b in zip(first, again))
    assert not all(_same_ref(a.ref, b.ref) for a, b in zip(first, other))


def test_genericity_rejects_special_inputs():
    n = 4
    j = workloads.complex_structure(n)
    with pytest.raises(GenericityError, match="gap"):
        require_generic("maximally mixed", np.eye(n) / n)
    with pytest.raises(GenericityError, match="off-diagonal"):
        require_generic("diagonal", np.diag([0.1, 0.2, 0.3, 0.4]))
    h = workloads.embed(workloads._hermitian(np.random.default_rng(0), n // 2))
    require_generic("J-commuting", h, paired=True)
    with pytest.raises(GenericityError, match=r"\[m, J\]"):
        require_generic("J-commuting", h + 1e-3 * np.eye(n), j, paired=True)


def _perturb_cli(op, result):
    doc = json.loads(result.out)
    row = doc["rows"][0]
    kind = op.argv[0]
    if kind == "evolve":
        row["obs"] += 1e-6
    elif kind == "check":
        row["residual"] = row["threshold"] * 2.0 + 1.0
    elif kind == "spectrum":
        row["eigenvalue"] *= 1.0 + 1e-6
    else:
        row["product"] *= 1.0 + 1e-6
    return workloads.Result(result.rc, json.dumps(doc), result.err)


def _perturb_tensor(op, result):
    value = dict(result.value)
    value["basis"] = value["basis"].copy()
    value["basis"][0, 0] += 1e-6
    return workloads.Result(0, "", value=value)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_accepts_output_and_rejects_perturbed_output(name):
    rq = run.load_realqm()
    workload = WORKLOADS[name]
    kinds_seen = set()
    for op in _ops(name, 3):
        if op.ref.get("long") or (op.argv or ["tensor"])[0] in kinds_seen:
            continue
        kinds_seen.add((op.argv or ["tensor"])[0])
        result = workload.execute(op, rq)
        assert workload.oracle(op, result) is None
        perturbed = (_perturb_cli if op.argv else _perturb_tensor)(op, result)
        assert workload.oracle(op, perturbed) is not None, op.label
    assert kinds_seen


def test_tensor_oracle_rejects_wrong_escape_flag():
    rq = run.load_realqm()
    workload = WORKLOADS["tensor_products"]
    op = _ops("tensor_products", 3)[0]
    result = workload.execute(op, rq)
    value = dict(result.value, linear_escape=result.value["antilinear_escape"])
    assert "flagged" in workload.oracle(op, workloads.Result(0, "", value=value))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    # evolve_diagnostics runs by hand only (see README.md, "Workloads").
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name != "evolve_diagnostics"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(name):
    out = io.StringIO()
    result = run.run_benchmark(name, 1, 0.1, False, smoke=True, setup_launches=1, out=out)
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    traced = run.run_benchmark(name, 1, 0.1, True, smoke=True, out=out)
    assert traced["correct"]
    assert list(traced["metrics"]) == [n for n, _ in run.PER_LAYER]
    spans.assert_unpatched(run.load_realqm())


def test_tail_latency_counts_failures_beyond_every_limit():
    tail, pct = run.tail_latency([float(k) for k in range(40, 0, -1)] + [math.inf] * 2)
    assert (tail, pct) == (32.0, 100.0 * 32 / 42)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (2.0, 100.0 * 2 / 3)  # smoke-sized cycle
    with pytest.raises(run.BenchError, match="tail latency is undefined"):
        run.tail_latency([1.0] * 30 + [math.inf] * 11)


def test_tracer_patches_every_binding_and_restores_them():
    rq = run.load_realqm()
    original = rq.linalg.sym_eig
    tracer = spans.Tracer()
    tracer.install(rq)
    try:
        for module in (rq, rq.linalg, rq.states, rq.cli):
            assert getattr(module.sym_eig, "__perfbench_traced__", False), module.__name__
        assert workloads.run_cli(rq.cli, ["check", "--suite", "realify", "--seed", "1"]).rc == 0
        tracer.end_op()
        with pytest.raises(RuntimeError):
            spans.assert_unpatched(rq)
    finally:
        tracer.uninstall()
    spans.assert_unpatched(rq)
    assert rq.states.sym_eig is original and rq.linalg.sym_eig is original
    calls, self_s = tracer.layer_totals()
    assert calls["cli.main"] == 1 and calls["realify"] > 0
    assert 0.0 < self_s["cli.main"] < tracer.spans[0][2] - tracer.spans[0][1]


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "check_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no realqm source" in proc.stderr
