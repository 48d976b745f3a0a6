"""The program's output still matches the committed output digest.

`tools/output_digest.txt` holds the output of `tools/output_digest.py`: a
provenance header (numpy, its BLAS, the CPU model), then one sha256 line
per operation of the benchmark's gated workloads and fixed commands.  LAPACK
rounding can differ with another BLAS or CPU, so the comparison runs only
where the provenance matches the committed header, and skips, naming the
difference, elsewhere.  The tool runs in a subprocess with one BLAS thread.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"
COMMITTED = ROOT / "tools" / "output_digest.txt"
REGENERATE = "OPENBLAS_NUM_THREADS=1 python tools/output_digest.py > tools/output_digest.txt"
ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def _provenance() -> list[str]:
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.provenance()


def test_output_matches_the_committed_digest():
    committed = COMMITTED.read_text().splitlines()
    header = [line for line in committed if line.startswith("#")]
    here = _provenance()
    if header != here:
        pytest.skip(f"the digest was made with {' / '.join(header)}; this is "
                    f"{' / '.join(here)}, where LAPACK rounding may differ")
    run = subprocess.run([sys.executable, str(TOOL)], cwd=ROOT, capture_output=True,
                         text=True, env={**os.environ, **ONE_THREAD}, timeout=600)
    assert run.returncode == 0, run.stderr
    got = run.stdout.splitlines()
    changed = [f"- {old}\n+ {new}" for old, new in zip(committed, got) if old != new]
    assert not changed and len(got) == len(committed), (
        f"{len(changed)} of {len(committed)} digest lines differ, and the output has "
        f"{len(got)} lines; if the change is intended, regenerate the file from the "
        f"checkout root with\n    {REGENERATE}\n" + "\n".join(changed[:10]))
