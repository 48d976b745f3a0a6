"""In-memory span tracer that instruments realqm from outside.

`Tracer.install` wraps each traced public function at every attribute of
every `realqm` module it is bound to.  `from .linalg import sym_eig` binds
the function in `states`, `cli` and others, so patching `realqm.linalg`
alone would miss those calls.  `Tracer.uninstall` puts every original
back; `assert_unpatched` proves it before an untraced run.

A span is (name, start, end, parent span index or -1, operation id).  A
layer's self time is its spans' durations minus the time their direct
child spans cover.  Health figures are computed from the wrapped calls'
arguments and return values after each operation, outside its timing.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

_MARK = "__perfbench_traced__"

# Span name -> (module, function names).  None means every public function
# the module defines.  Names a module lacks are skipped, so a later change
# that removes one does not break the traced run.
GROUPS = {
    "linalg.sym_eig": ("linalg", ("sym_eig",)),
    "linalg.expm": ("linalg", ("expm",)),
    "linalg.validate": ("linalg", ("as_real_matrix", "matmul", "is_symmetric",
                                   "is_antisymmetric", "commutes", "anticommutes")),
    "realify": ("realify", None),
    "states.density_matrix": ("states", ("density_matrix",)),
    "states.spectral": ("states", ("spectral_decompose", "measurement_statistics")),
    "dynamics.evolve": ("dynamics", ("evolve",)),
    "dynamics.propagator": ("dynamics", ("propagator",)),
    "dynamics.liouville_flow": ("dynamics", ("liouville_flow",)),
    "dynamics.bracket": ("dynamics", ("poisson_bracket", "jacobi_residual",
                                      "symplectic_lie_form_check", "liouville_rhs")),
    "oscillator": ("oscillator", None),
    "tensor.build_product_space": ("tensor", ("build_product_space",)),
    "tensor.physical_basis": ("tensor", ("physical_basis",)),
    "tensor.validate": ("tensor", ("lift_operator", "physical_escape_check",
                                   "validate_product_density")),
    "cli.main": ("cli", ("main",)),
}


def _orth_err(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.T @ u - np.eye(u.shape[1])))


def _expm_squarings(a) -> int:
    # The library's own rule: halve until the Frobenius norm is <= 0.5.
    nrm = float(np.linalg.norm(np.asarray(a, dtype=float)))
    return int(math.ceil(math.log2(nrm / 0.5))) if nrm > 0.5 else 0


# Span name -> f(args, kwargs, result) -> {figure: value}.  Figures ending
# in "_max" keep the maximum, the others the sum.
HEALTH = {
    "linalg.sym_eig": lambda args, kw, r: {"work_n3": r[1].shape[0] ** 3,
                                           "orth_err_max": _orth_err(r[1])},
    "linalg.expm": lambda args, kw, r: {"squarings": _expm_squarings(
        args[0] if args else kw["a"])},
    "dynamics.evolve": lambda args, kw, r: {"trace_drift_max": abs(float(np.trace(r.matrix)) - 1.0)},
    "dynamics.propagator": lambda args, kw, r: {"orth_drift_max": _orth_err(r.u)},
}


def _modules(package) -> list:
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


def assert_unpatched(package) -> None:
    """Raise unless no attribute of any realqm module is a tracing wrapper."""
    for module in _modules(package):
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"{module.__name__}.{attr} is still traced")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op_id = -1              # advanced by the caller before each operation
        self.health: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._pending: list = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack, pending = self.spans, self._stack, self._pending
        track = name in HEALTH

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if track:
                pending.append((name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        setattr(traced, _MARK, True)
        return traced

    def install(self, package) -> None:
        wrappers = {}
        for name, (modname, names) in GROUPS.items():
            module = sys.modules.get(f"{package.__name__}.{modname}")
            if module is None:
                continue
            if names is None:
                names = [n for n in getattr(module, "__all__", ())
                         if inspect.isfunction(getattr(module, n, None))
                         and getattr(module, n).__module__ == module.__name__]
            for fname in names:
                fn = getattr(module, fname, None)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in _modules(package):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def end_op(self) -> None:
        """Fold the health figures of the operation that just finished."""
        for name, args, kwargs, result in self._pending:
            for figure, value in HEALTH[name](args, kwargs, result).items():
                key = f"{name}.{figure}"
                if figure.endswith("_max"):
                    self.health[key] = max(self.health[key], value)
                else:
                    self.health[key] += value
        self._pending.clear()

    def layer_totals(self) -> tuple[dict, dict]:
        """Calls and self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[idx]
        return calls, self_s

    def write(self, path) -> None:
        """Write the spans as JSON lines; a span's id is its line number."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
