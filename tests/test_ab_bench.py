"""Smoke tests of `tools/ab_bench.py`, the in-process A/B timing script."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "ab_bench.py"
ARGS = ["--workload", "tensor_products", "--seed", "1", "--seconds", "0"]


def _run(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True,
                          timeout=120)


def test_runs_against_its_own_checkout():
    proc = _run(str(ROOT), *ARGS)
    assert proc.returncode == 0, proc.stderr
    assert "2 rounds x 42 ops, fingerprints identical, 0 failed" in proc.stdout
    for side in ("this", "other"):
        assert re.search(rf"^  {side} +[0-9.]+ ops/s   ru_minflt/cycle \d+ / [0-9.]+ / \d+ ",
                         proc.stdout, re.M), proc.stdout
    assert re.search(r"^  ratio this/other [0-9.]+   per round q1 / median / q3 "
                     r"[0-9.]+ / [0-9.]+ / [0-9.]+$", proc.stdout, re.M), proc.stdout
    for label in ("2x2", "2x2x2", "4x4", "2x4x4", "8x8"):
        assert re.search(rf"^  class tensor {label} +fastest sum this +[0-9.]+ ms  "
                         rf"other +[0-9.]+ ms  other/this [0-9.]+$", proc.stdout, re.M), label


def test_stops_when_the_sides_give_different_output(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    tensor = tmp_path / "src" / "realqm" / "tensor.py"
    source = tensor.read_text()
    assert "    return basis\n" in source
    tensor.write_text(source.replace("    return basis\n", "    return -basis\n"))
    proc = _run(str(tmp_path), *ARGS)
    assert proc.returncode == 1
    assert "42 of 42 operations differ between the sides" in proc.stderr
    assert "ops/s" not in proc.stdout


def test_prints_median_faults_per_operation_class():
    proc = _run(*ARGS)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for label in ("2x2", "2x2x2", "4x4", "2x4x4", "8x8"):
        at = next(k for k, line in enumerate(lines) if line.startswith(f"  class tensor {label} "))
        assert re.fullmatch(rf"  faults tensor {label} +ru_minflt/op median this [0-9.]+  "
                            rf"other [0-9.]+", lines[at + 1]), lines[at + 1]
