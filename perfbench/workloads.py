"""Seeded inputs, operations and independent oracles for the four workloads.

Every workload is a fixed cycle of operations drawn from a seeded numpy
generator.  The benchmark repeats the cycle, so every cycle does the same
work and rates over whole cycles do not depend on where a run stops.
The program sees only the generated JSON documents and arrays; the
reference data each oracle needs stays in `Op.ref`.

The oracles use numpy (and scipy for `expm`) only, never `realqm`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

HBAR = 1.0

# Genericity floors.  Inputs below them (a maximally mixed or diagonal
# state, a degenerate spectrum) would make the Jacobi solver converge in
# one sweep and hide the real cost of an eigendecomposition.
MIN_GAP = 1e-6          # smallest eigenvalue gap, as a share of the spread
MIN_OFFDIAG = 0.1       # Frobenius weight off the diagonal, as a share
MIN_COMMUTATOR = 0.1    # ||[H, J]|| / ||H|| for non-J-commuting inputs

# Long-time evolve commands: |t| * ||H||_2 / hbar is drawn log-uniformly
# from this range.  Today the Pade/squaring propagator loses the unit trace
# between 1e5 and 6e5, so nearly every one of these commands exits 2, and
# the count of successful operations barely changes with the seed.
LONG_TIME_RANGE = (6e5, 1e6)

# Oracle tolerances.  The program agrees with the references to ~1e-10
# on these inputs; a perturbation of 1e-6 is rejected.
TRACE_TOL = 1e-9
VALUE_TOL = 1e-8


class GenericityError(RuntimeError):
    """A generated input is too special to measure the program fairly."""


@dataclass
class Op:
    label: str                    # operation class, e.g. "evolve d16"
    argv: list[str] | None        # CLI arguments; None for library ops
    ref: dict = field(default_factory=dict)


@dataclass
class Result:
    rc: int
    out: str                      # stdout of a CLI op; empty for library ops
    err: str = ""
    value: object = None          # library results


# ---------------------------------------------------------------------------
# Shared numerics (independent of realqm)


def embed(a: np.ndarray) -> np.ndarray:
    """Complex d x d -> real 2d x 2d with interleaved (re, im) coordinates."""
    d = a.shape[0]
    m = np.empty((2 * d, 2 * d))
    m[0::2, 0::2] = a.real
    m[0::2, 1::2] = -a.imag
    m[1::2, 0::2] = a.imag
    m[1::2, 1::2] = a.real
    return m


def complex_structure(n: int) -> np.ndarray:
    """Block-diagonal [[0, -1], [1, 0]] on R^n (n even)."""
    j = np.zeros((n, n))
    j[1::2, 0::2] = np.eye(n // 2)
    j[0::2, 1::2] = -np.eye(n // 2)
    return j


def matrix_doc(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "entries": [float(x) for x in m.ravel()]}


def _complex_gaussian(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _hermitian(rng, d: int) -> np.ndarray:
    g = _complex_gaussian(rng, d)
    return (g + g.conj().T) / 2.0


def _complex_density(rng, d: int) -> np.ndarray:
    g = _complex_gaussian(rng, d)
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def _real_symmetric(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def _real_density(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    rho = g @ g.T
    rho = (rho + rho.T) / 2.0
    return rho / np.trace(rho)


def _antilinear(rng, n: int) -> np.ndarray:
    """Symmetric and anticommuting with J: (S + J S J)/2 satisfies J A J = A."""
    j = complex_structure(n)
    s = _real_symmetric(rng, n)
    return (s + j @ s @ j) / 2.0


def require_generic(name: str, m: np.ndarray, j: np.ndarray | None = None,
                    paired: bool = False) -> None:
    """Raise GenericityError unless `m` (Hermitian or real symmetric) has a
    minimum eigenvalue gap, off-diagonal weight and, when `j` is given, a
    commutator with `j` above the floors.

    `paired` marks a real matrix commuting with a complex structure, whose
    eigenvalues come in equal pairs; the gap is then taken between pairs.
    """
    w = np.linalg.eigvalsh(m)
    if paired:
        w = w[::2]
    spread = w[-1] - w[0]
    gap = float(np.min(np.diff(w)) / spread) if spread > 0 else 0.0
    if gap < MIN_GAP:
        raise GenericityError(f"{name}: eigenvalue gap {gap:.3g} of the spread < {MIN_GAP}")
    total = np.linalg.norm(m)
    off = np.linalg.norm(m - np.diag(np.diag(m))) / total
    if off < MIN_OFFDIAG:
        raise GenericityError(f"{name}: off-diagonal weight {off:.3g} < {MIN_OFFDIAG}")
    if j is not None:
        comm = np.linalg.norm(m @ j - j @ m) / total
        if comm < MIN_COMMUTATOR:
            raise GenericityError(f"{name}: ||[m, J]||/||m|| = {comm:.3g} < {MIN_COMMUTATOR}")


def draw_generic(name: str, make, j: np.ndarray | None = None, attempts: int = 20):
    """Draw with `make()` until the sample passes `require_generic`."""
    for _ in range(attempts):
        m = make()
        try:
            require_generic(name, m, j)
        except GenericityError as exc:
            last = exc
            continue
        return m
    raise last


def _lift(op: np.ndarray, index: int, dims: list[int]) -> np.ndarray:
    return reduce(np.kron, [op if k == index else np.eye(n) for k, n in enumerate(dims)])


def run_cli(cli_module, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_module.main(argv)
    return Result(rc=int(rc), out=out.getvalue(), err=err.getvalue())


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _evolve_argv(state, h, obs, t0: float, t1: float, steps: int,
                 diagnostics: bool = False) -> list[str]:
    return ["evolve", *(["--diagnostics"] if diagnostics else []),
            "--state", json.dumps({"matrix": matrix_doc(state)}),
            "--hamiltonian", json.dumps({"matrix": matrix_doc(h)}),
            "--observable", json.dumps({"observable": {"name": "obs", "matrix": matrix_doc(obs)}}),
            "--t0", repr(t0), "--t1", repr(t1), "--steps", str(steps)]


def _evolve_rows(op: Op, result: Result):
    """(time, row) pairs of a successful evolve result, or a rejection reason."""
    doc, why = _parse_rows(result, "evolve")
    if why:
        return None, why
    times = np.linspace(op.ref["t0"], op.ref["t1"], op.ref["steps"] + 1)
    if len(doc["rows"]) != times.size:
        return None, f"{len(doc['rows'])} rows for {times.size} time points"
    for t, row in zip(times, doc["rows"]):
        if not _close(row["t"], t, 1e-15 * max(1.0, abs(t))):
            return None, f"time {row['t']!r} != {t!r}"
    return list(zip(times, doc["rows"])), None


def _parse_rows(result: Result, command: str):
    """Rows of a successful CLI result, or a rejection reason."""
    if result.rc != 0:
        return None, f"exit {result.rc}: {result.err.strip().splitlines()[-1:] or ''}"
    try:
        doc = json.loads(result.out)
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"
    if doc.get("command") != command or not isinstance(doc.get("rows"), list):
        return None, "output lacks the command echo or the rows table"
    return doc, None


# ---------------------------------------------------------------------------
# Workloads


CLI_LAUNCH = "import sys, realqm.cli; sys.exit(realqm.cli.main(sys.argv[1:]))"


class Workload:
    name = ""

    def make_ops(self, rng, smoke: bool = False) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op, rq) -> Result:
        return run_cli(rq.cli, op.argv)

    def oracle(self, op: Op, result: Result) -> str | None:
        """None when the output is right, else the reason it is wrong."""
        raise NotImplementedError

    def rows(self, result: Result) -> int:
        return len(json.loads(result.out)["rows"])

    def fingerprint(self, result: Result) -> bytes:
        return f"{result.rc}\n{result.out}".encode()

    def setup_launch(self, ops: list[Op]) -> tuple[str, list[str]]:
        """Python code and arguments of the smallest operation, run in a
        fresh interpreter to time set-up.  This default suits `evolve`."""
        smallest = min((op for op in ops if not op.ref.get("long")),
                       key=lambda op: (op.ref["dim"], op.ref["steps"]))
        return CLI_LAUNCH, smallest.argv


class EvolvePhysical(Workload):
    """The headline dynamics path: sym_eig, expm, the propagator and the
    per-point revalidation do nearly all the work.  The long-time commands
    keep today's trace-loss failures visible."""

    name = "evolve_physical"

    # (complex dimension, steps of each operation, long-time).  The step
    # lists are fixed so every seed gives a cycle of the same size; only
    # the matrices and times vary.  Long-time commands are 4 of 42.  Every
    # operation of a class has the same shape, and the class sizes put the
    # median inside the dim-4 class and the tail (tenth-from-last) inside
    # the dim-16 class, so neither falls on a boundary between shapes.
    CLASSES = ((2, (10,) * 26, False), (8, (1,) * 12, False),
               (2, (2, 2), True), (8, (2, 2), True))
    SMOKE = ((2, (2, 3, 4), False), (2, (2,), True))

    def make_ops(self, rng, smoke=False):
        ops = []
        for d, steps, long in (self.SMOKE if smoke else self.CLASSES):
            for k, n in enumerate(steps):
                ops.append(self._op(rng, d, n, (k + rng.uniform()) / len(steps) if long else None))
        return [ops[k] for k in rng.permutation(len(ops))]

    def _op(self, rng, d: int, steps: int, long: float | None) -> Op:
        """`long` in [0, 1) places a long-time command in LONG_TIME_RANGE
        (log scale); the commands of a class are stratified over it."""
        rho_c = draw_generic("state", lambda: _complex_density(rng, d))
        h_c = draw_generic("hamiltonian", lambda: _hermitian(rng, d))
        o_c = draw_generic("observable", lambda: _hermitian(rng, d))
        hn = float(np.linalg.norm(h_c, 2))
        if long is not None:
            lo, hi = np.log10(LONG_TIME_RANGE)
            t0 = float(rng.choice((-1.0, 1.0)) * 10.0 ** (lo + long * (hi - lo)) * HBAR / hn)
            t1 = t0 + 2.0 * HBAR / hn
        else:
            # A fixed grid in units of hbar / ||H||_2, so every operation
            # of a class asks the propagator for the same work.
            t0 = -5.0 * HBAR / hn
            t1 = 5.0 * HBAR / hn
        argv = _evolve_argv(embed(rho_c) / 2.0, embed(h_c), embed(o_c), t0, t1, steps)
        label = f"evolve d{2 * d}" + (" long" if long is not None else "")
        return Op(label, argv, {"dim": 2 * d, "steps": steps, "long": long is not None, "t0": t0,
                                "t1": t1, "rho": rho_c, "h": h_c, "obs": o_c})

    def oracle(self, op, result):
        rows, why = _evolve_rows(op, result)
        if why:
            return why
        rho, h, obs = op.ref["rho"], op.ref["h"], op.ref["obs"]
        e, v = np.linalg.eigh(h)
        energy = float(np.trace(rho @ h).real)
        min_eig = float(np.linalg.eigvalsh(rho)[0]) / 2.0
        h_scale = max(1.0, float(np.linalg.norm(h, 2)))
        o_scale = max(1.0, float(np.linalg.norm(obs, 2)))
        for t, row in rows:
            u = (v * np.exp(-1j * e * t / HBAR)) @ v.conj().T
            rho_t = u @ rho @ u.conj().T
            checks = (
                ("trace", row["trace"], 1.0, TRACE_TOL),
                ("energy", row["energy"], energy, VALUE_TOL * h_scale),
                ("obs", row["obs"], float(np.trace(rho_t @ obs).real), VALUE_TOL * o_scale),
                ("min_eigenvalue", row["min_eigenvalue"], min_eig, TRACE_TOL),
                ("physicality_residual", row["physicality_residual"], 0.0, VALUE_TOL),
            )
            for name, got, want, tol in checks:
                if not _close(got, want, tol):
                    return f"t={t!r}: {name} {got!r} != reference {want!r}"
        return None


class EvolveDiagnostics(Workload):
    """The same CLI and linalg layers used differently: `liouville_flow`
    runs expm of a non-normal generator, with no propagator and no
    per-point revalidation.  A propagator rewrite bypasses it."""

    name = "evolve_diagnostics"

    # (real dimension, steps of each operation), fixed as in EvolvePhysical.
    CLASSES = ((4, (10,) * 26), (16, (1,) * 12))
    SMOKE = ((4, (2, 3, 4)),)

    def make_ops(self, rng, smoke=False):
        ops = [self._op(rng, n, k) for n, steps in (self.SMOKE if smoke else self.CLASSES)
               for k in steps]
        return [ops[k] for k in rng.permutation(len(ops))]

    def _op(self, rng, n: int, steps: int) -> Op:
        j = complex_structure(n)
        rho = draw_generic("state", lambda: _real_density(rng, n), j)
        h = draw_generic("hamiltonian", lambda: _real_symmetric(rng, n), j)
        obs = draw_generic("observable", lambda: _real_symmetric(rng, n))
        # Keep ||t H Omega|| <= 1.5 so the non-unitary flow stays O(1); the
        # grid is fixed in units of hbar / ||H||_2, as in EvolvePhysical.
        reach = 1.5 * HBAR / float(np.linalg.norm(h, 2))
        t0 = -0.25 * reach
        t1 = t0 + reach
        argv = _evolve_argv(rho, h, obs, t0, t1, steps, diagnostics=True)
        return Op(f"diagnostics d{n}", argv, {"dim": n, "steps": steps, "t0": t0, "t1": t1,
                                              "rho": rho, "h": h, "obs": obs, "j": j})

    def oracle(self, op, result):
        from scipy.linalg import expm

        rows, why = _evolve_rows(op, result)
        if why:
            return why
        rho, h, obs, j = op.ref["rho"], op.ref["h"], op.ref["obs"], op.ref["j"]
        omega = -j / HBAR
        for t, row in rows:
            v = expm(t * (h @ omega))
            m = v @ rho @ v.T
            scale = max(1.0, float(np.linalg.norm(m)))
            checks = (
                ("trace", row["trace"], float(np.trace(m))),
                ("min_eigenvalue", row["min_eigenvalue"], float(np.linalg.eigvalsh(m)[0])),
                ("physicality_residual", row["physicality_residual"],
                 float(np.linalg.norm(m @ j - j @ m))),
                ("energy", row["energy"], float(np.trace(m @ h))),
                ("obs", row["obs"], float(np.trace(m @ obs))),
            )
            for name, got, want in checks:
                if not _close(got, want, VALUE_TOL * max(scale, abs(want))):
                    return f"t={t!r}: {name} {got!r} != reference {want!r}"
        return None


# The six `check` suites, in the order the CLI documents them.
SUITES = ("linalg", "realify", "states", "dynamics", "oscillator", "tensor")


class CheckSweep(Workload):
    """Many matrices with n <= 16: validation, Python overhead and
    rendering dominate, so added per-call cost shows here."""

    name = "check_sweep"

    # Every suite runs at suite seeds 0..5 whatever the benchmark seed, so
    # the check work, and the operations the median and the tail fall on,
    # are the same in every run.  The suites draw random sizes from their
    # seed; drawing suite seeds per run would move the median by ~15%.
    # The benchmark seed draws the spectrum and uncertainty inputs and the
    # order of the cycle.
    SEEDS_PER_SUITE = 6
    SPECTRUM_LEVELS = (4, 12, 20, 32)
    UNCERTAINTY_OPS = 4

    def make_ops(self, rng, smoke=False):
        suites = ("realify", "tensor") if smoke else SUITES
        ops = []
        for suite in suites:
            for seed in range(1 if smoke else self.SEEDS_PER_SUITE):
                ops.append(Op(f"check {suite}", ["check", "--suite", suite, "--seed", str(seed)],
                              {"suite": suite}))
        for levels in (4,) if smoke else self.SPECTRUM_LEVELS:
            ops.append(self._spectrum(rng, levels))
        for _ in range(1 if smoke else self.UNCERTAINTY_OPS):
            ops.append(self._uncertainty(rng))
        return [ops[k] for k in rng.permutation(len(ops))]

    def setup_launch(self, ops):
        return CLI_LAUNCH, next(op.argv for op in ops if op.argv[0] == "uncertainty")

    @staticmethod
    def _params(rng) -> dict:
        return {"hbar": float(rng.uniform(0.5, 2.0)), "mass": float(rng.uniform(0.5, 2.0)),
                "omega": float(rng.uniform(0.5, 2.0))}

    @staticmethod
    def _flags(p: dict) -> list[str]:
        return ["--hbar", repr(p["hbar"]), "--mass", repr(p["mass"]), "--omega", repr(p["omega"])]

    def _spectrum(self, rng, levels: int) -> Op:
        p = self._params(rng)
        bound = p["hbar"] * p["omega"] / 2.0
        targets = [float(bound * rng.uniform(1.05, 20.0)) for _ in range(levels)]
        branches = [str(b) for b in rng.choice(("plus", "minus"), levels)]
        argv = ["spectrum", ",".join(repr(x) for x in targets),
                "--branch", ",".join(branches)] + self._flags(p)
        return Op("spectrum", argv, {"params": p, "targets": targets, "branches": branches})

    def _uncertainty(self, rng) -> Op:
        p = self._params(rng)
        alpha = float(rng.uniform(0.02, 0.48))
        beta = 0.5 - alpha
        radius = 0.99 * math.sqrt(alpha * beta) * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        gamma, delta = float(radius * math.cos(angle)), float(radius * math.sin(angle))
        xi1, xi2 = (float(x) for x in rng.uniform(0.2, 3.0, 2))
        values = (alpha, beta, gamma, delta, xi1, xi2)
        argv = ["uncertainty", *(repr(x) for x in values)] + self._flags(p)
        return Op("uncertainty", argv, {"params": p, "values": values})

    def oracle(self, op, result):
        kind = op.argv[0]
        doc, why = _parse_rows(result, kind)
        if why:
            return why
        return {"check": self._check_oracle, "spectrum": self._spectrum_oracle,
                "uncertainty": self._uncertainty_oracle}[kind](op, doc)

    @staticmethod
    def _check_oracle(op, doc):
        rows = doc["rows"]
        if not rows:
            return "no checks ran"
        for row in rows:
            if row["suite"] != op.ref["suite"]:
                return f"row from suite {row['suite']!r}"
            if not (row["residual"] <= row["threshold"] and row["passed"] is True):
                return f"check {row['check']} failed: {row['residual']!r} > {row['threshold']!r}"
        if [s["failures"] for s in doc["summary"]] != [0]:
            return f"summary reports failures: {doc['summary']}"
        return None

    @staticmethod
    def _spectrum_oracle(op, doc):
        p, targets, branches = op.ref["params"], op.ref["targets"], op.ref["branches"]
        rows = doc["rows"]
        if len(rows) != 2 * len(targets):
            return f"{len(rows)} rows for {len(targets)} levels"
        got = sorted(r["eigenvalue"] for r in rows)
        want = sorted(targets * 2)
        for g, w in zip(got, want):
            if not _close(g, w, VALUE_TOL * max(1.0, w)):
                return f"eigenvalue {g!r} != target {w!r}"
        turn = p["hbar"] / (2.0 * p["mass"] * p["omega"])  # xi^2 at the level minimum
        for r in rows:
            k, xi = r["level"], r["length"]
            if r["target_energy"] != targets[k] or r["branch"] != branches[k]:
                return f"row {r['index']} does not echo level {k}"
            energy = p["hbar"] ** 2 / (8 * p["mass"] * xi**2) + p["mass"] * p["omega"] ** 2 * xi**2 / 2
            if not _close(energy, targets[k], VALUE_TOL * max(1.0, targets[k])):
                return f"length {xi!r} gives level {energy!r}, not {targets[k]!r}"
            if (xi**2 - turn) * (1 if branches[k] == "plus" else -1) < -VALUE_TOL * turn:
                return f"length {xi!r} is not on the {branches[k]} branch"
        return None

    @staticmethod
    def _uncertainty_oracle(op, doc):
        p = op.ref["params"]
        alpha, beta, _, _, xi1, xi2 = op.ref["values"]
        if len(doc["rows"]) != 1:
            return "expected one row"
        row = doc["rows"][0]
        closed = p["hbar"] * math.sqrt((alpha + beta) ** 2
                                       + alpha * beta * (xi1 / xi2 - xi2 / xi1) ** 2)
        checks = (("closed_form", row["closed_form"], closed),
                  ("product", row["product"], closed),
                  ("delta_x*delta_p", row["delta_x"] * row["delta_p"], row["product"]),
                  ("lower_bound", row["lower_bound"], p["hbar"] / 2.0))
        for name, got, want in checks:
            if not _close(got, want, VALUE_TOL * max(1.0, abs(want))):
                return f"{name} {got!r} != {want!r}"
        if row["bound_satisfied"] is not True or closed < p["hbar"] / 2.0:
            return "uncertainty bound not satisfied"
        return None


class TensorProducts(Workload):
    """The only path where dense Kronecker and Gram-Schmidt work dominate;
    `physical_basis` is never reached from `evolve`."""

    name = "tensor_products"

    # (complex factor dimensions, operations per cycle).  The median falls
    # inside the [4, 4] class and the tail inside the twelve products of
    # dimension 128 and 256.
    CLASSES = (((2, 2), 8), ((2, 2, 2), 8), ((4, 4), 14), ((2, 4, 4), 7), ((8, 8), 5))
    SMOKE = (((2, 2), 2), ((2, 2, 2), 1))

    def make_ops(self, rng, smoke=False):
        ops = [self._op(rng, factors)
               for factors, count in (self.SMOKE if smoke else self.CLASSES)
               for _ in range(count)]
        return [ops[k] for k in rng.permutation(len(ops))]

    def _op(self, rng, factors: tuple[int, ...]) -> Op:
        dims = [2 * d for d in factors]
        units = [_lift(complex_structure(n), k, dims) for k, n in enumerate(dims)]
        eye = np.eye(int(np.prod(dims)))
        projector = reduce(np.matmul, [(eye - units[0] @ u) / 2.0 for u in units[1:]])
        w, v = np.linalg.eigh(projector)
        basis = v[:, w > 0.5]
        # A generic state on the physical half: average a random positive
        # matrix over the restricted unit so it commutes with it.
        j_phys = basis.T @ units[0] @ basis
        g = rng.standard_normal((basis.shape[1],) * 2)
        s = g @ g.T
        m = (s - j_phys @ s @ j_phys) / 2.0
        m = (m + m.T) / 2.0
        require_generic("product state", m, paired=True)
        state = basis @ (m / np.trace(m)) @ basis.T
        state = (state + state.T) / 2.0
        lin_at, anti_at = (int(k) for k in rng.integers(0, len(factors), 2))
        n_lin, n_anti = dims[lin_at], dims[anti_at]
        linear = embed(draw_generic("linear operator", lambda: _hermitian(rng, n_lin // 2)))
        antilinear = draw_generic("antilinear operator", lambda: _antilinear(rng, n_anti))
        return Op(f"tensor {'x'.join(map(str, factors))}", None, {
            "factors": factors, "dim": len(eye), "projector": projector,
            "rank": 2 * int(np.prod(factors)), "state": state,
            "linear": linear, "linear_at": lin_at, "antilinear": antilinear, "antilinear_at": anti_at,
            "linear_lifted": _lift(linear, lin_at, dims),
            "antilinear_lifted": _lift(antilinear, anti_at, dims)})

    def execute(self, op, rq):
        t, ref = rq.tensor, op.ref
        space = t.build_product_space([t.FactorSpace.standard(d) for d in ref["factors"]])
        basis = t.physical_basis(space)
        linear = t.lift_operator(ref["linear"], ref["linear_at"], space)
        antilinear = t.lift_operator(ref["antilinear"], ref["antilinear_at"], space)
        value = {
            "dim": space.dim, "physical_rank": space.physical_rank, "basis": basis,
            "linear": linear, "antilinear": antilinear,
            "linear_escape": t.physical_escape_check(linear, space),
            "antilinear_escape": t.physical_escape_check(antilinear, space),
            "state_valid": t.validate_product_density(ref["state"], space),
        }
        return Result(rc=0, out="", value=value)

    def rows(self, result):
        return int(result.value["basis"].shape[1])

    def fingerprint(self, result):
        v = result.value
        flags = (v["dim"], v["physical_rank"], v["linear_escape"].maps_within,
                 v["linear_escape"].maps_across, v["antilinear_escape"].maps_within,
                 v["antilinear_escape"].maps_across, v["state_valid"])
        return b"".join([repr(flags).encode(), v["basis"].tobytes(),
                         v["linear"].tobytes(), v["antilinear"].tobytes()])

    def oracle(self, op, result):
        v, ref = result.value, op.ref
        if v["dim"] != ref["dim"] or v["physical_rank"] != ref["rank"]:
            return f"dimension {v['dim']} / rank {v['physical_rank']} != {ref['dim']} / {ref['rank']}"
        basis = v["basis"]
        if basis.shape != (ref["dim"], ref["rank"]):
            return f"basis shape {basis.shape} != {(ref['dim'], ref['rank'])}"
        if np.max(np.abs(basis.T @ basis - np.eye(ref["rank"]))) > VALUE_TOL:
            return "basis columns are not orthonormal"
        if np.max(np.abs(ref["projector"] @ basis - basis)) > VALUE_TOL:
            return "basis leaves the physical subspace"
        for name in ("linear", "antilinear"):
            want = ref[f"{name}_lifted"]
            if np.max(np.abs(v[name] - want)) > VALUE_TOL * np.max(np.abs(want)):
                return f"lifted {name} operator differs from the Kronecker reference"
        if (v["linear_escape"].maps_within, v["linear_escape"].maps_across) != (True, False):
            return f"J-commuting operator flagged {v['linear_escape']}"
        if (v["antilinear_escape"].maps_within, v["antilinear_escape"].maps_across) != (False, True):
            return f"antilinear operator flagged {v['antilinear_escape']}"
        if v["state_valid"] is not True:
            return "physical product state rejected"
        return None

    def setup_launch(self, ops):
        code = ("import sys, realqm.tensor as t; "
                "t.physical_basis(t.build_product_space("
                "[t.FactorSpace.standard(int(d)) for d in sys.argv[1:]]))")
        smallest = min(ops, key=lambda op: op.ref["dim"])
        return code, [str(d) for d in smallest.ref["factors"]]


WORKLOADS = {w.name: w for w in (EvolvePhysical(), EvolveDiagnostics(), CheckSweep(),
                                 TensorProducts())}
