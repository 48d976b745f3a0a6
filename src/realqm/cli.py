"""Command-line front end.

Four subcommands drive desk-scale experiments and print machine-readable
tables: `spectrum` designs oscillator levels, `uncertainty` evaluates the
position/momentum product on a four-dimensional physical state, `evolve`
integrates a state under a complex-linear Hamiltonian, and `check` replays
the library's invariant suites.

Each subcommand fixes its column names once, and `_write` writes its rows
as JSON (default, one object per row) or CSV.  The rows come in blocks of
columns: `spectrum`, `uncertainty` and `check` give one (`_emit`), and
`evolve` one per block of its time grid, rendered as the grid yields it.
Each block is formatted by one `%` over a row template of per-column specs
(`_cells`): "%.17g" for a column of finite floats, else "%s" over `_scalar`
text.  Column names are unique, so an observable cannot take a fixed
column's name, an earlier observable's name, or a name with a comma, a double
quote, a line break or a surrogate (which UTF-8 cannot encode).  Every float
has 17 significant digits and nothing is time- or environment-dependent, so
identical arguments produce byte-identical output.  Nothing is written unless
the whole command succeeds: the block texts are held and go to stdout or
`--out` at the end.  Exit codes: 0 success, 1 usage error, 2 domain-constraint
violation, 3 failed invariant check.  With REALQM_TRACE=1 each stage also
writes a JSON span to stderr (`realqm.trace`); stdout is unchanged.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import checks, dynamics, oscillator, states, trace
# sym_eig is unused; perfbench's test_tracer_patches_every_binding_and_restores_them needs it.
from .linalg import ConstraintError, Tolerance, _symmetric, _trusted, sym_eig
from .realify import embed_matrix, standard_complex_structure

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSTRAINT = 2
EXIT_CHECK_FAILED = 3

# Largest --steps value: it bounds the time grid, and the text held before
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


def _scalar(value, quote: bool = True) -> str:
    """One output value as text; strings are JSON-quoted unless `quote` is off."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            # Finite inputs can still overflow a result; nothing is written then.
            raise ConstraintError(f"a result is not finite ({float(value)!r}); "
                                  "the inputs are outside the representable range")
        return f"{float(value):.17g}"
    if isinstance(value, str):
        return json.dumps(value) if quote else value
    raise TypeError(f"cannot serialize {type(value)!r}")


def _cells(columns: list[list], quote: bool = True) -> tuple[list[str], tuple]:
    """The format spec of each column and the row-major values they format.

    A column of finite Python floats keeps its values under "%.17g", which
    prints what `_scalar` does; any other column becomes `_scalar` text under
    "%s", so a float that is not finite raises ConstraintError there.
    """
    specs, cells = [], []
    try:
        for column in columns:
            if {*map(type, column)} <= {float} and all(map(math.isfinite, column)):
                specs.append("%.17g")
                cells.append(column)
            else:
                specs.append("%s")
                cells.append([_scalar(v, quote) for v in column])
    except ConstraintError:
        for value in itertools.chain.from_iterable(zip(*columns)):
            _scalar(value)  # name the first non-finite value in row order
        raise
    # Through a list: a tuple grown from an iterator is resized in place
    # step by step, which left the heap of a long-running caller growing.
    return specs, tuple(list(itertools.chain.from_iterable(zip(*cells, strict=True))))


_PAD = "  "  # one level of JSON indentation


@functools.lru_cache(maxsize=1024)
def _key(name, level: int) -> str:
    """The text of a JSON object key at `level` levels, up to its value."""
    return f"{_PAD * level}{json.dumps(str(name))}: "


def _enclose(items, level: int, brackets: str = "[]") -> str:
    """A JSON array (or object, with brackets "{}") at `level` levels around
    `items`, each already indented one level deeper."""
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + _PAD * level + brackets[1]


def _render_json(value, indent: int = 0) -> str:
    if not isinstance(value, (dict, list, tuple)):
        return _scalar(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, dict):
        return _enclose([_key(k, indent + 1) + _render_json(v, indent + 1)
                         for k, v in value.items()], indent, "{}")
    inner = _PAD * (indent + 1)
    if {*map(type, value)} == {float} and all(map(math.isfinite, value)):  # _cells' rule
        return _enclose([inner + "%.17g"] * len(value), indent) % tuple(value)
    return _enclose([inner + _render_json(v, indent + 1) for v in value], indent)


def _matrix_payload(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "entries": m.ravel().tolist()}


def _write(args, payload: dict, names: list[str], blocks) -> None:
    """Write `payload` and the rows of `blocks`, each a list of columns in
    the order of `names`, as JSON (one object per row) or CSV.

    The key text of each column is taken once; each block is formatted by
    one `%` over its row-major values with a row template of the columns'
    specs (`_cells`).  The block texts are held and written to stdout or
    `--out` only when every block has been formatted, so a failure writes
    nothing.
    """
    with trace.span("render", format=args.format) as fields:
        as_json = args.format == "json"
        if as_json:
            keys = [_key(name, 3).replace("%", "%%") for name in names]
            head = "{\n" + "".join(_key(k, 1) + _render_json(v, 1) + ",\n"
                                   for k, v in payload.items()) + _key("rows", 1)
            tail = "\n}\n"
        else:
            head = ",".join(names) + "\n"
        parts = [head]
        rows = 0
        for columns in blocks:
            specs, values = _cells(columns, quote=as_json)
            if not values:
                continue
            n = len(values) // len(specs)
            if as_json:
                row = _PAD * 2 + _enclose(map(str.__add__, keys, specs), 2, "{}")
                parts.append(("[\n" if not rows else ",\n") + ",\n".join([row] * n) % values)
            else:
                parts.append((",".join(specs) + "\n") * n % values)
            rows += n
        if as_json:
            parts.append(("\n" + _PAD + "]" if rows else "[]") + tail)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(parts)
        else:
            sys.stdout.writelines(parts)
        fields["rows"] = rows


def _emit(args, payload: dict, table: dict) -> None:
    """Write `payload` and the column table (column name -> list of values)."""
    _write(args, payload, list(table), [list(table.values())])


# ---------------------------------------------------------------------------
# Shared config


def _config(args) -> dict:
    tol = _tolerance(args)
    return {
        "hbar": float(args.hbar),
        "mass": float(args.mass),
        "omega": float(args.omega),
        "abs_tol": tol.abs_tol,
        "spectral_gap_tol": tol.spectral_gap_tol,
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
    return Tolerance() if args.tol is None else Tolerance(float(args.tol))


def _params(args) -> oscillator.OscillatorParams:
    return oscillator.OscillatorParams(mass=args.mass, omega=args.omega, hbar=args.hbar)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"could not parse numeric list {text!r}: {exc}") from exc


def _load_spec(text: str) -> tuple[str, object]:
    """The one (key, document) pair of a JSON spec given inline or as @file."""
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        spec = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"invalid JSON document: {exc}") from exc
    except RecursionError as exc:
        raise UsageError("invalid JSON document: nested too deeply") from exc
    if not isinstance(spec, dict) or len(spec) != 1:
        raise UsageError("spec must be a JSON object with exactly one key")
    return next(iter(spec.items()))


def _floats(value, what: str) -> np.ndarray:
    """A JSON value as a finite float array, else a usage error naming it."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # an int past the float range
        raise UsageError(f"{what} must be numeric: {exc}") from exc
    # float() also takes a string, a bool (true, false) and None (null).
    items = value if array.ndim else [value]
    for _ in range(array.ndim - 1):  # the entries of nested lists
        items = itertools.chain.from_iterable(items)
    if not {*map(type, items)} <= {int, float}:
        raise UsageError(f"{what} must be numeric: a JSON number, not a string, boolean or null")
    if not np.all(np.isfinite(array)):
        raise UsageError(f"{what} must be finite")
    return array


def _matrix_from_spec(doc) -> np.ndarray:
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise UsageError("matrix spec needs 'dim' and row-major 'entries'")
    dim = doc["dim"]
    if not (type(dim) is int and abs(dim) <= 2**53):  # such an int passes _floats unchanged
        dim = _floats(dim, "matrix 'dim'")
        if dim.shape != () or dim != int(dim):
            raise UsageError(f"matrix 'dim' must be an integer, got {doc['dim']!r}")
        dim = int(dim)
    entries = _floats(doc["entries"], "matrix 'entries'")
    if dim < 2 or dim % 2:
        raise UsageError(f"matrix dimension must be even and at least 2, got {dim}")
    if entries.size != dim * dim:
        raise UsageError(f"matrix spec has {entries.size} entries, expected {dim * dim}")
    return entries.reshape(dim, dim)


def _state_from_spec(text: str, tol: Tolerance, need_physical: bool
                     ) -> tuple[states.StateStack, states.DensityMatrix]:
    """The one-row `state_stack` of a state spec and its state: every kind is
    validated once, by the rule and with the messages of any state."""
    key, doc = _load_spec(text)
    if key == "physical_density":
        values = _floats(doc, "physical_density")
        if values.shape != (4,):
            raise UsageError("physical_density expects [alpha, beta, gamma, delta]")
        m = states.physical_density_4d(*values.tolist()).matrix
    elif key == "complex_density":
        if not isinstance(doc, dict) or "re" not in doc or "im" not in doc:
            raise UsageError("complex_density expects 're' and 'im' arrays")
        re = _floats(doc["re"], "complex_density 're'")
        im = _floats(doc["im"], "complex_density 'im'")
        if re.ndim != 2 or re.shape[0] != re.shape[1] or im.shape != re.shape:
            raise UsageError("complex_density 're' and 'im' must be square arrays "
                             f"of one shape, got {re.shape} and {im.shape}")
        rho_c = re.astype(complex)  # not re + 1j * im, which turns a -0.0 in re into 0.0
        rho_c.imag = im
        m = embed_matrix(rho_c) / 2.0  # as in physical_from_complex
    elif key == "matrix":
        m = _matrix_from_spec(doc)
    else:
        raise UsageError(f"unknown state spec key {key!r}")
    stack = states.state_stack(m[np.newaxis], standard_complex_structure(m.shape[0] // 2), tol)
    if need_physical and not stack.physical[0]:
        raise ConstraintError(
            "state does not commute with the complex structure; "
            "pass --diagnostics to evolve it anyway")
    return stack, _trusted(states.DensityMatrix, matrix=m, physical=bool(stack.physical[0]))


def _hamiltonian_from_spec(text: str, params: oscillator.OscillatorParams,
                           tol: Tolerance) -> dynamics.Hamiltonian:
    key, doc = _load_spec(text)
    if key == "oscillator":
        lengths = np.empty(0)
        if isinstance(doc, dict) and "lengths" in doc:
            lengths = _floats(doc["lengths"], "oscillator 'lengths'")
        if lengths.ndim != 1 or lengths.size == 0:
            raise UsageError("oscillator spec needs a nonempty 'lengths' list")
        return oscillator.oscillator_hamiltonian(oscillator.CanonicalPair(lengths, params))
    if key == "fermionic":
        if not isinstance(doc, dict) or "length" not in doc:
            raise UsageError("fermionic spec needs a 'length' value")
        length = _floats(doc["length"], "fermionic 'length'")
        if length.shape != ():
            raise UsageError("fermionic spec needs a single 'length' value")
        fs = oscillator.FermionicStructure(float(length), params)
        _require_finite("the fermionic Hamiltonian", fs.hamiltonian)
        return dynamics.hamiltonian(fs.hamiltonian, standard_complex_structure(2), tol)
    if key == "matrix":
        m = _matrix_from_spec(doc)
        return dynamics.hamiltonian(m, standard_complex_structure(m.shape[0] // 2), tol)
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
    # One row per real-side eigenvalue.  H is diagonal with level i twice on
    # block i, so its eigenvalues are its sorted diagonal, the k-th smallest
    # being the level of the k-th smallest entry; repeated targets keep their rows.
    diagonal = levels.repeat(2)
    order = np.argsort(diagonal, kind="stable")
    eigenvalues = diagonal[order]
    level = order // 2
    targets = np.asarray(targets)
    residual = np.abs(levels - targets) / np.maximum(1.0, np.abs(targets))
    table = {
        "index": list(range(eigenvalues.size)),
        "eigenvalue": eigenvalues.tolist(),
        "level": level.tolist(),
        "target_energy": targets[level].tolist(),
        "branch": [branches[i] for i in level],
        "length": xis[level].tolist(),
        "roundtrip_residual": residual[level].tolist(),
    }
    _emit(args, {"command": "spectrum", "config": _config(args)}, table)
    return EXIT_OK


def _cmd_uncertainty(args) -> int:
    table = {name: [getattr(args, name)]
             for name in ("alpha", "beta", "gamma", "delta", "xi1", "xi2")}
    for name, (value,) in table.items():
        if not np.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value!r}")
    params = _params(args)
    closed = oscillator.uncertainty_product(
        args.alpha, args.beta, args.gamma, args.delta, [args.xi1, args.xi2], params)
    rho = states.physical_density_4d(args.alpha, args.beta, args.gamma, args.delta)
    pair = oscillator.CanonicalPair([args.xi1, args.xi2], params)
    _require_finite("the position or momentum operator", pair.x, pair.p)
    tol = _tolerance(args)
    delta_x = float(np.sqrt(max(states.variance(rho, pair.x, tol), 0.0)))
    delta_p = float(np.sqrt(max(states.variance(rho, pair.p, tol), 0.0)))
    bound = params.hbar / 2.0
    table.update(delta_x=[delta_x], delta_p=[delta_p], product=[delta_x * delta_p],
                 closed_form=[closed], lower_bound=[bound],
                 bound_satisfied=[closed >= bound - 1e-12 * params.hbar])
    _emit(args, {"command": "uncertainty", "config": _config(args)}, table)
    return EXIT_OK


def _cmd_evolve(args) -> int:
    params = _params(args)
    tol = _tolerance(args)
    with trace.span("state") as fields:
        start, rho = _state_from_spec(args.state, tol, need_physical=not args.diagnostics)
        fields.update(dim=rho.dim, physical=rho.physical)
    with trace.span("hamiltonian") as fields:
        h = _hamiltonian_from_spec(args.hamiltonian, params, tol)
        fields.update(dim=h.dim, complex_linear=h.complex_linear)
    if rho.dim != h.dim:
        raise UsageError(
            f"state dimension {rho.dim} does not match Hamiltonian dimension {h.dim}")
    w = dynamics.SymplecticForm(standard_complex_structure(rho.dim // 2), params.hbar)
    if not h.complex_linear and not args.diagnostics:
        raise ConstraintError(
            "Hamiltonian does not commute with the complex structure; "
            "pass --diagnostics to integrate the nonphysical flow anyway")
    if not 1 <= args.steps <= MAX_STEPS:
        raise UsageError(f"--steps must be between 1 and {MAX_STEPS}, got {args.steps}")
    if not (np.isfinite(args.t0) and np.isfinite(args.t1)):
        raise UsageError(f"--t0 and --t1 must be finite, got {args.t0!r} and {args.t1!r}")
    times = np.linspace(args.t0, args.t1, args.steps + 1)
    # A taken name is caught here, before any block is evolved.
    names = ["t", "trace", "min_eigenvalue", "physicality_residual", "energy"]
    observables = [h.matrix]
    with trace.span("observables", count=len(args.observable or [])):
        for text in args.observable or []:
            key, doc = _load_spec(text)
            if key != "observable":
                raise UsageError(f"unknown observable spec key {key!r}")
            if not isinstance(doc, dict):
                raise UsageError("observable spec needs a 'matrix' and optionally a 'name'")
            name = doc.get("name", f"obs{len(observables) - 1}")
            if not isinstance(name, str):
                raise UsageError("observable name must be a JSON string")
            if name in names:
                raise UsageError(f"observable name {name!r} is already a column")
            if any(c in ',"\r\n' or "\ud800" <= c <= "\udfff" for c in name):
                raise UsageError(f"observable name {name!r} contains a comma, a double "
                                 "quote, a line break or a surrogate")
            matrix = _matrix_from_spec(doc.get("matrix"))
            if matrix.shape != h.matrix.shape:
                raise UsageError(f"observable {name!r} has dimension {matrix.shape[0]}, "
                                 f"expected {h.dim}")
            if not _symmetric(matrix, tol):
                raise ConstraintError(f"observable {name!r} must be symmetric")
            names.append(name)
            observables.append(matrix)
    if args.diagnostics:
        grid = ((block, [stack.trace, stack.min_eigenvalue, stack.physicality_residual,
                         *(np.einsum("tij,ji->t", stack.matrices, obs) for obs in observables)])
                for block, stack in dynamics.liouville_grid(rho, h, times, w, tol))
    else:  # trace, spectrum and physicality are invariants of the motion
        fixed = [start.trace, start.min_eigenvalue, start.physicality_residual]
        grid = ((block, [c.repeat(block.size) for c in fixed] + columns)
                for block, columns in dynamics._expectation_grid(rho, h, observables, times, w))
    payload = {
        "command": "evolve",
        "config": _config(args),
        "diagnostics": bool(args.diagnostics),
        "state": _matrix_payload(rho.matrix),
        "hamiltonian": _matrix_payload(h.matrix),
    }
    _write(args, payload, names, ([c.tolist() for c in [b, *cols]] for b, cols in grid))
    return EXIT_OK


def _cmd_check(args) -> int:
    suites = None
    if args.suite is not None:
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
        unknown = [s for s in suites if s not in checks.SUITE_NAMES]
        if unknown or not suites:
            what = (f"unknown suite(s) {', '.join(unknown)}" if unknown
                    else f"--suite {args.suite!r} names no suite")
            raise UsageError(f"{what}; available: {', '.join(checks.SUITE_NAMES)}")
    override = float(args.tol) if args.tol is not None else None
    results = checks.run_checks(suites=suites, seed=args.seed,
                                threshold_override=override)
    table = {"suite": [r.suite for r in results], "check": [r.name for r in results],
             "residual": [r.residual for r in results],
             "threshold": [r.threshold for r in results],
             "passed": [r.passed for r in results]}
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
    _emit(args, payload, table)
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
        with trace.span("parse"):
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
    except OverflowError:  # safety net: Python float arithmetic raises where numpy gives inf
        sys.stderr.write("realqm: constraint violated: "
                         "a result overflows at these parameters\n")
        return EXIT_CONSTRAINT
    except OSError as exc:
        sys.stderr.write(f"realqm: error: {exc}\n")
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
