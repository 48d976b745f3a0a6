"""Command-line front end.

Four subcommands drive desk-scale experiments and print machine-readable
tables: `spectrum` designs oscillator levels, `uncertainty` evaluates the
position/momentum product on a four-dimensional physical state, `evolve`
integrates a state under a complex-linear Hamiltonian, and `check` replays
the library's invariant suites.

Output is JSON (default) or CSV; both render every float with 17
significant digits and contain nothing time- or environment-dependent, so
identical arguments produce byte-identical output.  Exit codes: 0 success,
1 usage error, 2 domain-constraint violation, 3 failed invariant check.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import checks, dynamics, oscillator, states
from .linalg import ConstraintError, Tolerance, as_real_matrix, sym_eig
from .realify import ComplexMatrixRep, standard_complex_structure

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSTRAINT = 2
EXIT_CHECK_FAILED = 3

# Largest --steps value: it bounds the time grid and the rows held before
# output.
MAX_STEPS = 100_000


class UsageError(ValueError):
    """Malformed command-line input (bad JSON, unparseable numbers, ...)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, but 2 is reserved for
    # domain violations here, so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Deterministic rendering


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


def _matrix_payload(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "entries": [float(x) for x in m.ravel()]}


def _emit(args, payload: dict, columns, rows) -> None:
    if args.format == "json":
        text = _render_json({**payload, "rows": list(rows)}) + "\n"
    else:
        text = _render_csv(columns, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Shared config


def _config(args) -> dict:
    return {
        "hbar": float(args.hbar),
        "mass": float(args.mass),
        "omega": float(args.omega),
        "abs_tol": _tolerance(args).abs_tol,
        "spectral_gap_tol": _tolerance(args).spectral_gap_tol,
        "seed": int(args.seed),
        "format": args.format,
    }


def _validate_common(args) -> None:
    """Reject flag values the library would refuse, as usage errors."""
    for flag in ("hbar", "mass", "omega"):
        value = getattr(args, flag)
        if not (np.isfinite(value) and value > 0.0):
            raise UsageError(f"--{flag} must be positive and finite, got {value!r}")
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise UsageError(f"--tol must be nonnegative and finite, got {args.tol!r}")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")


def _require_finite(what: str, *matrices) -> None:
    """Finite parameters can still overflow an operator: a domain error."""
    if not all(np.all(np.isfinite(m)) for m in matrices):
        raise ConstraintError(f"{what} is not finite at these parameters")


def _tolerance(args) -> Tolerance:
    if args.tol is None:
        return Tolerance()
    abs_tol = float(args.tol)
    return Tolerance(abs_tol, max(abs_tol, Tolerance().spectral_gap_tol))


def _params(args) -> oscillator.OscillatorParams:
    return oscillator.OscillatorParams(mass=args.mass, omega=args.omega, hbar=args.hbar)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"could not parse numeric list {text!r}: {exc}") from exc


def _load_spec(text: str) -> dict:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON document: {exc}") from exc
    if not isinstance(spec, dict) or len(spec) != 1:
        raise UsageError("spec must be a JSON object with exactly one key")
    return spec


def _floats(value, what: str) -> np.ndarray:
    """A JSON value as a finite float array, else a usage error naming it."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{what} must be numeric: {exc}") from exc
    if not np.all(np.isfinite(array)):
        raise UsageError(f"{what} must be finite")
    return array


def _matrix_from_spec(doc) -> np.ndarray:
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise UsageError("matrix spec needs 'dim' and row-major 'entries'")
    dim = _floats(doc["dim"], "matrix 'dim'")
    if dim.shape != () or dim != int(dim):
        raise UsageError(f"matrix 'dim' must be an integer, got {doc['dim']!r}")
    dim = int(dim)
    entries = _floats(doc["entries"], "matrix 'entries'")
    if dim < 2 or dim % 2:
        raise UsageError(f"matrix dimension must be even and at least 2, got {dim}")
    if entries.size != dim * dim:
        raise UsageError(f"matrix spec has {entries.size} entries, expected {dim * dim}")
    return as_real_matrix(entries.reshape(dim, dim))


def _state_from_spec(text: str, tol: Tolerance, need_physical: bool) -> states.DensityMatrix:
    spec = _load_spec(text)
    key, doc = next(iter(spec.items()))
    if key == "physical_density":
        values = _floats(doc, "physical_density")
        if values.shape != (4,):
            raise UsageError("physical_density expects [alpha, beta, gamma, delta]")
        return states.physical_density_4d(*values.tolist())
    if key == "complex_density":
        if not isinstance(doc, dict) or "re" not in doc or "im" not in doc:
            raise UsageError("complex_density expects 're' and 'im' arrays")
        re = _floats(doc["re"], "complex_density 're'")
        im = _floats(doc["im"], "complex_density 'im'")
        if re.ndim != 2 or re.shape[0] != re.shape[1] or im.shape != re.shape:
            raise UsageError("complex_density 're' and 'im' must be square arrays "
                             f"of one shape, got {re.shape} and {im.shape}")
        return states.physical_from_complex(ComplexMatrixRep(re=re, im=im), tol)
    if key == "matrix":
        m = _matrix_from_spec(doc)
        j = standard_complex_structure(m.shape[0] // 2)
        rho = states.density_matrix(m, j=j, tol=tol)
        if need_physical and not rho.physical:
            raise ConstraintError(
                "state does not commute with the complex structure; "
                "pass --diagnostics to evolve it anyway")
        return rho
    raise UsageError(f"unknown state spec key {key!r}")


def _hamiltonian_from_spec(text: str, params: oscillator.OscillatorParams,
                           tol: Tolerance) -> dynamics.Hamiltonian:
    spec = _load_spec(text)
    key, doc = next(iter(spec.items()))
    if key == "oscillator":
        lengths = np.empty(0)
        if isinstance(doc, dict) and "lengths" in doc:
            lengths = _floats(doc["lengths"], "oscillator 'lengths'")
        if lengths.ndim != 1 or lengths.size == 0:
            raise UsageError("oscillator spec needs a nonempty 'lengths' list")
        pair = oscillator.build_canonical_pair(lengths.tolist(), params)
        h = oscillator.oscillator_hamiltonian(pair, params)
        _require_finite("the oscillator Hamiltonian", h.matrix)
        return h
    if key == "fermionic":
        if not isinstance(doc, dict) or "length" not in doc:
            raise UsageError("fermionic spec needs a 'length' value")
        length = _floats(doc["length"], "fermionic 'length'")
        if length.shape != ():
            raise UsageError("fermionic spec needs a single 'length' value")
        fs = oscillator.build_fermionic(float(length), params)
        _require_finite("the fermionic Hamiltonian", fs.hamiltonian)
        return dynamics.Hamiltonian(matrix=fs.hamiltonian, complex_linear=True)
    if key == "matrix":
        m = _matrix_from_spec(doc)
        j = standard_complex_structure(m.shape[0] // 2)
        return dynamics.hamiltonian(m, j, tol)
    raise UsageError(f"unknown hamiltonian spec key {key!r}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_spectrum(args) -> int:
    params = _params(args)
    targets = _parse_floats(args.targets)
    if not targets:
        raise UsageError("no target energies given")
    if args.branch in ("plus", "minus"):
        branches = [args.branch] * len(targets)
    else:
        branches = [b.strip() for b in args.branch.split(",")]
        if len(branches) != len(targets):
            raise UsageError("per-level branch list must match the number of targets")
        bad = [b for b in branches if b not in ("plus", "minus")]
        if bad:
            raise UsageError(f"--branch entries must be 'plus' or 'minus', got {bad[0]!r}")
    xis = oscillator.design_spectrum(targets, params, branches)
    levels = oscillator.energy_levels(xis, params)
    pair = oscillator.build_canonical_pair(xis, params)
    h = oscillator.oscillator_hamiltonian(pair, params)
    _require_finite("the oscillator Hamiltonian", h.matrix)
    eigenvalues, _ = sym_eig(h.matrix, _tolerance(args))
    # One row per real-side eigenvalue; each is matched to its nearest
    # designed level so the table carries the lengths and residuals too.
    rows = []
    for idx, value in enumerate(eigenvalues):
        level = int(np.argmin(np.abs(levels - value)))
        rows.append({
            "index": idx,
            "eigenvalue": float(value),
            "level": level,
            "target_energy": float(targets[level]),
            "branch": branches[level],
            "length": float(xis[level]),
            "roundtrip_residual": float(abs(levels[level] - targets[level])
                                        / max(1.0, abs(targets[level]))),
        })
    columns = ["index", "eigenvalue", "level", "target_energy", "branch",
               "length", "roundtrip_residual"]
    _emit(args, {"command": "spectrum", "config": _config(args)}, columns, rows)
    return EXIT_OK


def _cmd_uncertainty(args) -> int:
    for name in ("alpha", "beta", "gamma", "delta", "xi1", "xi2"):
        value = getattr(args, name)
        if not np.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value!r}")
    params = _params(args)
    closed = oscillator.uncertainty_product(
        args.alpha, args.beta, args.gamma, args.delta, [args.xi1, args.xi2], params)
    rho = states.physical_density_4d(args.alpha, args.beta, args.gamma, args.delta)
    pair = oscillator.build_canonical_pair([args.xi1, args.xi2], params)
    _require_finite("the position or momentum operator", pair.x, pair.p)
    tol = _tolerance(args)
    delta_x = float(np.sqrt(max(states.variance(rho, pair.x, tol), 0.0)))
    delta_p = float(np.sqrt(max(states.variance(rho, pair.p, tol), 0.0)))
    bound = params.hbar / 2.0
    row = {
        "alpha": args.alpha, "beta": args.beta,
        "gamma": args.gamma, "delta": args.delta,
        "xi1": args.xi1, "xi2": args.xi2,
        "delta_x": delta_x, "delta_p": delta_p,
        "product": delta_x * delta_p,
        "closed_form": closed,
        "lower_bound": bound,
        "bound_satisfied": closed >= bound - 1e-12,
    }
    _emit(args, {"command": "uncertainty", "config": _config(args)},
          list(row.keys()), [row])
    return EXIT_OK


def _cmd_evolve(args) -> int:
    params = _params(args)
    tol = _tolerance(args)
    rho = _state_from_spec(args.state, tol, need_physical=not args.diagnostics)
    h = _hamiltonian_from_spec(args.hamiltonian, params, tol)
    if rho.dim != h.dim:
        raise UsageError(
            f"state dimension {rho.dim} does not match Hamiltonian dimension {h.dim}")
    j = standard_complex_structure(rho.dim // 2)
    w = dynamics.symplectic_form(j, params.hbar)
    if not h.complex_linear and not args.diagnostics:
        raise ConstraintError(
            "Hamiltonian does not commute with the complex structure; "
            "pass --diagnostics to integrate the nonphysical flow anyway")
    if not 1 <= args.steps <= MAX_STEPS:
        raise UsageError(f"--steps must be between 1 and {MAX_STEPS}, got {args.steps}")
    if not (np.isfinite(args.t0) and np.isfinite(args.t1)):
        raise UsageError(f"--t0 and --t1 must be finite, got {args.t0!r} and {args.t1!r}")
    times = np.linspace(args.t0, args.t1, args.steps + 1)
    observables = [("energy", h.matrix)]
    for text in args.observable or []:
        spec = _load_spec(text)
        key, doc = next(iter(spec.items()))
        if key != "observable":
            raise UsageError(f"unknown observable spec key {key!r}")
        if not isinstance(doc, dict):
            raise UsageError("observable spec needs a 'matrix' and optionally a 'name'")
        name = str(doc.get("name", f"obs{len(observables) - 1}"))
        matrix = _matrix_from_spec(doc.get("matrix"))
        if matrix.shape != h.matrix.shape:
            raise UsageError(f"observable {name!r} has dimension {matrix.shape[0]}, "
                             f"expected {h.dim}")
        observables.append((name, matrix))
    if args.diagnostics:
        blocks = dynamics.liouville_grid(rho.matrix, h.matrix, times, j, w, tol)
    else:
        blocks = dynamics.evolve_grid(rho, h, times, j, params.hbar, tol)
    columns = ["t", "trace", "min_eigenvalue", "physicality_residual"]
    columns += [name for name, _ in observables]
    rows = []
    for block_times, stack in blocks:
        values = [block_times, stack.trace, stack.min_eigenvalue,
                  stack.physicality_residual]
        values += [np.einsum("tij,ji->t", stack.matrices, obs) for _, obs in observables]
        rows += [dict(zip(columns, row)) for row in zip(*(v.tolist() for v in values))]
    payload = {
        "command": "evolve",
        "config": _config(args),
        "diagnostics": bool(args.diagnostics),
        "state": _matrix_payload(rho.matrix),
        "hamiltonian": _matrix_payload(h.matrix),
    }
    _emit(args, payload, columns, rows)
    return EXIT_OK


def _cmd_check(args) -> int:
    suites = None
    if args.suite:
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
        unknown = [s for s in suites if s not in checks.SUITE_NAMES]
        if unknown:
            raise UsageError(
                f"unknown suite(s) {', '.join(unknown)}; "
                f"available: {', '.join(checks.SUITE_NAMES)}")
    override = float(args.tol) if args.tol is not None else None
    results = checks.run_checks(suites=suites, seed=args.seed,
                                threshold_override=override)
    rows = [{
        "suite": r.suite,
        "check": r.name,
        "residual": r.residual,
        "threshold": r.threshold,
        "passed": r.passed,
    } for r in results]
    summary = []
    for name in checks.SUITE_NAMES:
        in_suite = [r for r in results if r.suite == name]
        if in_suite:
            summary.append({
                "suite": name,
                "checks": len(in_suite),
                "failures": sum(1 for r in in_suite if not r.passed),
            })
    payload = {"command": "check", "config": _config(args), "summary": summary}
    columns = ["suite", "check", "residual", "threshold", "passed"]
    _emit(args, payload, columns, rows)
    for entry in summary:
        sys.stderr.write(
            f"suite {entry['suite']}: {entry['checks']} checks, "
            f"{entry['failures']} failures\n")
    failed = sum(entry["failures"] for entry in summary)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls.
    common = _Parser(add_help=False)
    common.add_argument("--hbar", type=float, default=1.0)
    common.add_argument("--mass", type=float, default=1.0)
    common.add_argument("--omega", type=float, default=1.0)
    common.add_argument("--tol", type=float, default=None,
                        help="override the comparison tolerance (and, for "
                             "check, every pass threshold)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, metavar="PATH")

    parser = _Parser(prog="realqm",
                     description="Quantum mechanics on a real Hilbert space.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="design oscillator lengths for target energies")
    p.add_argument("targets", help="comma-separated target energies")
    p.add_argument("--branch", default="plus",
                   help="'plus', 'minus', or a comma list per level")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("uncertainty", parents=[common],
                       help="position/momentum uncertainty product on R^4")
    p.add_argument("alpha", type=float)
    p.add_argument("beta", type=float)
    p.add_argument("gamma", type=float)
    p.add_argument("delta", type=float)
    p.add_argument("xi1", type=float)
    p.add_argument("xi2", type=float)
    p.set_defaults(func=_cmd_uncertainty)

    p = sub.add_parser("evolve", parents=[common],
                       help="integrate a state under a complex-linear Hamiltonian")
    p.add_argument("--state", required=True,
                   help="JSON state spec (or @file): physical_density, "
                        "complex_density, or matrix")
    p.add_argument("--hamiltonian", required=True,
                   help="JSON Hamiltonian spec (or @file): oscillator, "
                        "fermionic, or matrix")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--observable", action="append",
                   help="JSON observable spec; repeatable")
    p.add_argument("--diagnostics", action="store_true",
                   help="allow non-physical states/Hamiltonians and integrate "
                        "the raw (trace-nonpreserving) flow")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("check", parents=[common],
                       help="run the invariant suites")
    p.add_argument("--suite", default=None,
                   help=f"comma list from: {', '.join(checks.SUITE_NAMES)}")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage problems (and --help)
        return int(exc.code or 0)
    try:
        _validate_common(args)
        with np.errstate(all="ignore"):  # the finiteness guards report overflow
            return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"realqm: error: {exc}\n")
        return EXIT_USAGE
    except ConstraintError as exc:
        sys.stderr.write(f"realqm: constraint violated: {exc}\n")
        return EXIT_CONSTRAINT
    except OverflowError:  # Python float arithmetic past 1.8e308, e.g. omega**2
        sys.stderr.write("realqm: constraint violated: "
                         "a result overflows at these parameters\n")
        return EXIT_CONSTRAINT
    except OSError as exc:
        sys.stderr.write(f"realqm: error: {exc}\n")
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
