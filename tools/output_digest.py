"""Digest the output of every operation of the benchmark's gated workloads.

Prints one line per (workload, seed, operation, format).  For a CLI
operation that is the sha256 of the exit code, stdout and stderr of
`realqm.cli.main`; for a `tensor_products` library operation it is the
sha256 of the workload's own fingerprint of the result (its flags and the
raw bytes of the basis and lifted operators), with format `lib`.  Two
checkouts print the same lines exactly when their output is byte-identical,
so a diff of two runs names every operation whose output changed:

    python tools/output_digest.py > new.txt
    python tools/output_digest.py /path/to/other/checkout > old.txt
    diff old.txt new.txt

The first lines, each starting with `#`, name what LAPACK rounding can
depend on: the numpy version, the BLAS numpy was built with, and the CPU
model.  `tools/output_digest.txt` is this output for the checkout it is
committed in; `tests/test_output_digest.py` reruns the tool and compares,
where the provenance matches.  Regenerate it after an intended change with

    OPENBLAS_NUM_THREADS=1 python tools/output_digest.py > tools/output_digest.txt

The operations are those of the `evolve_physical`, `check_sweep` and
`tensor_products` workloads in `perfbench/workloads.py` at seeds 1-6, then
the `FIXED` commands (workload `fixed`): the state kinds and `evolve` paths
that those workloads, whose states are all physical `matrix` documents,
never reach, and `spectrum` past their sizes (at most 32 levels there),
with repeated targets and at a physical hbar; then a dim-16 `--diagnostics`
flow over three grid blocks, one whose flowed state's sum of squares
leaves the float range, a target below the spectral bound at a
physical hbar, a valid `complex_density` with `-0.0` entries in `re`
and `im`, whose signs the echoed state keeps, and the dim-16 flow again
at hbar = 0.37, which pins Omega = -J/hbar at an hbar that is not a power
of two; then `evolve` under an `oscillator` Hamiltonian, which no workload
runs, at lengths 0.7, 1.3, 2.0 and at lengths near sqrt(hbar / (2 m w)) at a
physical hbar; then `spectrum` at `--tol 1e-6` and `--tol 0`, which pin the
spectral gap that `config` echoes, derived from `--tol`; then a dim-2
`--diagnostics` flow over three time points whose last flowed matrix is not
finite, which pins the message a stack of several matrices hands on; last,
an `uncertainty` command of `check_sweep` at seed 111 whose gamma,
-8.459291869593295e-05, pins that a negative number with an exponent is
read as a value; then the first `physical_density` command twice more, once
with the abbreviated flags `--stat` and `--ham` and once with `--opt=value`
spellings, which argparse parses where the fully spelled commands take the
CLI's table route, so their lines repeat their twin's hashes.  Each CLI
operation runs once with `--format json` and once with `--format csv`.
ROOT (default: the checkout holding this script) supplies both `src/` and
`perfbench/`.  Nothing is written to disk.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("evolve_physical", "check_sweep", "tensor_products")
SEEDS = range(1, 7)
FORMATS = ("json", "csv")

_H = '{"fermionic": {"length": 1.0}}'
_POSITION = '{"matrix": {"dim": 4, "entries": [1,0,0,0, 0,-1,0,0, 0,0,2,0, 0,0,0,-2]}}'


def _complex(re, im) -> str:
    return json.dumps({"complex_density": {"re": re, "im": im}})


def _matrix(m) -> str:
    return json.dumps({"matrix": {"dim": len(m), "entries": np.ravel(m).tolist()}})


# A generic dim-16 state and a symmetric H that does not commute with J.
_rng = np.random.default_rng(16)
_g, _h = _rng.standard_normal((2, 16, 16))
_s = _g @ _g.T
_RHO16 = (_s + _s.T) / (2.0 * np.trace(_s))
_H16 = (_h + _h.T) / 2.0
# A full-rank physical state of complex dimension 3, for the oscillator commands.
_RHO6 = _complex([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.2]],
                 [[0.0, 0.05, 0.0], [-0.05, 0.0, 0.02], [0.0, -0.02, 0.0]])


# (label, argv) of each fixed `evolve` and `spectrum` command.
FIXED = [
    (label, ["evolve", "--state", state, "--hamiltonian", h, "--t1", "2", "--steps", "4", *flags])
    for label, state, h, flags in [
        ("physical_density", '{"physical_density": [0.3, 0.2, 0.1, 0.05]}', _H, []),
        ("complex_density valid",
         _complex([[0.6, 0.1], [0.1, 0.4]], [[0, 0.2], [-0.2, 0]]), _H, []),
        ("complex_density non-Hermitean", _complex([[0.5, 0.1], [0, 0.5]], [[0, 0], [0, 0]]),
         _H, []),
        ("complex_density off-trace", _complex([[0.6, 0], [0, 0.5]], [[0, 0], [0, 0]]), _H, []),
        ("complex_density negative eigenvalue",
         _complex([[1.5, 0], [0, -0.5]], [[0, 0], [0, 0]]), _H, []),
        ("matrix --diagnostics",
         '{"matrix": {"dim": 4, "entries": [0.4,0.1,0,0, 0.1,0.3,0,0, 0,0,0.2,0, 0,0,0,0.1]}}',
         _POSITION, ["--diagnostics"]),
        ("matrix non-physical",
         '{"matrix": {"dim": 4, "entries": [1,0,0,0, 0,0,0,0, 0,0,0,0, 0,0,0,0]}}', _H, []),
    ]
] + [
    (label, ["spectrum", targets, "--branch", branches, *flags])
    for label, targets, branches, flags in [
        ("spectrum 40 levels", ",".join(f"{0.5 + 0.25 * k:g}" for k in range(40)),
         ",".join("plus" if k % 3 else "minus" for k in range(40)), []),
        ("spectrum 64 levels unsorted",
         ",".join(f"{0.75 + 0.5 * (k % 32) + 0.1 * (k // 32):g}" for k in range(64)),
         ",".join("minus" if k % 2 else "plus" for k in range(64)), []),
        ("spectrum repeated targets", "1,1,1", "plus,minus,plus", []),
        ("spectrum physical hbar", "1e-34,2e-34,5e-34", "minus,plus,minus",
         ["--hbar", "1.054571817e-34"]),
    ]
] + [
    ("matrix --diagnostics dim 16 300 steps",
     ["evolve", "--state", _matrix(_RHO16), "--hamiltonian", _matrix(_H16),
      "--t1", "2", "--steps", "300", "--diagnostics"]),
    ("matrix --diagnostics squares past the float range",
     ["evolve", "--state", _matrix([[0.5, 0], [0, 0.5]]),
      "--hamiltonian", _matrix([[1, 0], [0, -1]]), "--t1", "184", "--steps", "1",
      "--diagnostics"]),
    ("spectrum below the bound at physical hbar",
     ["spectrum", "1e-40", "--hbar", "1.054571817e-34"]),
    ("complex_density valid signed zeros",
     ["evolve", "--state", _complex([[0.6, -0.0], [-0.0, 0.4]], [[-0.0, 0.2], [-0.2, 0.0]]),
      "--hamiltonian", _H, "--t1", "2", "--steps", "4"]),
    ("matrix --diagnostics dim 16 300 steps hbar 0.37",
     ["evolve", "--state", _matrix(_RHO16), "--hamiltonian", _matrix(_H16),
      "--t1", "2", "--steps", "300", "--hbar", "0.37", "--diagnostics"]),
    ("oscillator lengths 0.7 1.3 2.0",
     ["evolve", "--state", _RHO6, "--hamiltonian", '{"oscillator": {"lengths": [0.7, 1.3, 2.0]}}',
      "--t1", "2", "--steps", "4"]),
    ("oscillator at physical hbar",
     ["evolve", "--state", _RHO6,
      "--hamiltonian", '{"oscillator": {"lengths": [5e-18, 7.26e-18, 1.5e-17]}}',
      "--t1", "2", "--steps", "4", "--hbar", "1.054571817e-34"]),
    ("spectrum --tol 1e-6", ["spectrum", "1.5,2.5", "--tol", "1e-6"]),
    ("spectrum --tol 0", ["spectrum", "1.5,2.5", "--tol", "0"]),
    ("matrix --diagnostics flowed matrix past the float range",
     ["evolve", "--state", _matrix([[0.5, 0], [0, 0.5]]),
      "--hamiltonian", _matrix([[1, 0], [0, -1]]), "--t1", "400", "--steps", "2",
      "--diagnostics"]),
    ("uncertainty negative number with an exponent",
     ["uncertainty", "0.2697043273903688", "0.23029567260963119", "-8.459291869593295e-05",
      "0.1367478927079709", "2.9750216397229927", "1.6060533307563667",
      "--hbar", "0.7120146460984497", "--mass", "1.8732450727548688",
      "--omega", "0.7992047198272685"]),
    ("physical_density abbreviated flags",
     ["evolve", "--stat", '{"physical_density": [0.3, 0.2, 0.1, 0.05]}', "--ham", _H,
      "--t1", "2", "--steps", "4"]),
    ("physical_density --opt=value",
     ["evolve", '--state={"physical_density": [0.3, 0.2, 0.1, 0.05]}', f"--hamiltonian={_H}",
      "--t1=2", "--steps=4"]),
]


def provenance() -> list[str]:
    """The header lines: numpy, its BLAS (name and version) and the CPU model."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return [f"# numpy {np.__version__}", f"# blas {blas}", f"# cpu {cpu}"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        sys.stderr.write("usage: output_digest.py [ROOT]\n")
        return 1
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import realqm.cli
    import realqm.tensor
    import workloads

    def cli_blobs(argv):
        results = [(fmt, workloads.run_cli(realqm.cli, [*argv, "--format", fmt]))
                   for fmt in FORMATS]
        return [(fmt, json.dumps([r.rc, r.out, r.err]).encode()) for fmt, r in results]

    def report(where, blobs, label):
        for fmt, blob in blobs:
            print(f"{where} {fmt} {hashlib.sha256(blob).hexdigest()}  {label}")

    print("\n".join(provenance()))
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name]
        for seed in SEEDS:
            ops = workload.make_ops(np.random.default_rng(seed))
            for index, op in enumerate(ops):
                if op.argv is None:
                    blobs = [("lib", workload.fingerprint(workload.execute(op, realqm)))]
                else:
                    blobs = cli_blobs(op.argv)
                report(f"{name} seed={seed} op={index:02d}", blobs, op.label)
    for index, (label, argv) in enumerate(FIXED):
        report(f"fixed op={index:02d}", cli_blobs(argv), label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
