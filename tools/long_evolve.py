"""Time a long `realqm evolve` in a fresh interpreter, once per output mode.

Runs one dim-4 x 100000-step `evolve` (a generic J-commuting state and
Hamiltonian and one observable, drawn from a fixed seed) with `--format json`
and `--format csv`, each printed to stdout and written with `--out`.  Prints
one line per mode: its wall time (interpreter start-up included), the peak
RSS of the interpreter (`ru_maxrss`) and the sha256 of the output bytes.
Two checkouts give the same hashes exactly when their outputs agree:

    python tools/long_evolve.py                       # this checkout
    python tools/long_evolve.py /path/to/other/checkout

ROOT (default: the checkout holding this script) supplies `src/`.  Each run
uses one BLAS thread.  One short untimed run first fills Python's bytecode
cache (`__pycache__` beside the sources, as any run does), so no timed run
compiles.  The output goes to a temporary directory that is removed at the
end; nothing else is written.

A child's `ru_maxrss` starts at the resident size of the process that
spawned it, so this process imports no numpy and holds no output: the
child builds the inputs itself, and the output is hashed in chunks.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 20260418
STEPS = 100_000
MODES = [(fmt, target) for fmt in ("json", "csv") for target in ("stdout", "out")]

# The child reports its own peak RSS on its last stderr line.
CHILD = ("import resource, sys, long_evolve, realqm.cli\n"
         "rc = realqm.cli.main([*long_evolve.evolve_argv(), *sys.argv[1:]])\n"
         "sys.stdout.flush()\n"
         "sys.stderr.write(f'{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}\\n')\n"
         "sys.exit(rc)\n")


def embed(a):
    """Complex d x d -> real 2d x 2d with interleaved (re, im) coordinates."""
    m = a.real.repeat(2, axis=0).repeat(2, axis=1)
    m[0::2, 1::2] = -a.imag
    m[1::2, 0::2] = a.imag
    return m


def matrix_doc(m) -> dict:
    return {"dim": m.shape[0], "entries": m.ravel().tolist()}


def evolve_argv() -> list[str]:
    import numpy as np

    rng = np.random.default_rng(SEED)

    def gaussian():
        return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

    g = gaussian()
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    h, obs = ((a + a.conj().T) / 2.0 for a in (gaussian(), gaussian()))
    return ["evolve",
            "--state", json.dumps({"matrix": matrix_doc(embed(rho) / 2.0)}),
            "--hamiltonian", json.dumps({"matrix": matrix_doc(embed(h))}),
            "--observable", json.dumps({"observable": {"name": "obs",
                                                       "matrix": matrix_doc(embed(obs))}}),
            "--t0", "0", "--t1", "50", "--steps", str(STEPS)]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        sys.stderr.write("usage: long_evolve.py [ROOT]\n")
        return 1
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    path = os.pathsep.join([str(root / "src"), str(Path(__file__).resolve().parent)])
    env = {**os.environ, "PYTHONPATH": path,
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-c", CHILD, "--steps", "1"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with tempfile.TemporaryDirectory() as scratch:
        for fmt, target in MODES:
            stdout = Path(scratch, "stdout")
            written = Path(scratch, f"rows.{fmt}")
            extra = ["--out", str(written)] if target == "out" else []
            with open(stdout, "wb") as fh:
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-c", CHILD, "--format", fmt, *extra],
                                      stdout=fh, stderr=subprocess.PIPE, env=env)
                wall = time.perf_counter() - start
            *messages, maxrss = proc.stderr.decode().splitlines()
            if proc.returncode != 0 or messages:
                sys.stderr.write(f"{fmt} {target}: exit {proc.returncode}\n"
                                 + "".join(m + "\n" for m in messages))
                return 1
            if target == "out" and stdout.stat().st_size:
                sys.stderr.write(f"{fmt} {target}: stdout is not empty\n")
                return 1
            output = written if target == "out" else stdout
            print(f"{fmt:4} {target:6} wall_s={wall:.3f} maxrss_mb={int(maxrss) / 1024:.1f} "
                  f"bytes={output.stat().st_size} sha256={sha256(output)}", flush=True)
            written.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
