"""realqm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload evolve_physical --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The workload's seeded cycle of operations is repeated in a closed
loop (one client, no extra threads) until `--seconds` have passed, in
whole cycles.  The first run of each operation is checked
by its workload's oracle; every later run must give byte-identical output.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates an
untraced cycle with a traced one, in which every realqm layer is wrapped
in spans, and prints the per-layer metrics.  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, so the numbers measure the
# program rather than the scheduler.  Set-up launches inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
from workloads import SUITES, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "spans"
MIN_CYCLES = 3
SETUP_LAUNCHES = 9
TAIL_BEYOND = 10
SETUP_TIMEOUT_S = 60

# (name, unit).  BENCHMARK.json lists the same names; a test keeps them equal.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("success_rate", "frac"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("linalg.sym_eig.calls", "count"), ("linalg.sym_eig.self_s", "s"),
    ("linalg.sym_eig.work_n3", "count"), ("linalg.sym_eig.calls_per_row", "calls/row"),
    ("linalg.sym_eig.orth_err_max", "norm"),
    ("linalg.expm.calls", "count"), ("linalg.expm.self_s", "s"),
    ("linalg.expm.squarings", "count"), ("linalg.expm.calls_per_row", "calls/row"),
    ("linalg.validate.calls", "count"), ("linalg.validate.self_s", "s"),
    ("realify.calls", "count"), ("realify.self_s", "s"),
    ("states.density_matrix.calls", "count"), ("states.density_matrix.self_s", "s"),
    ("states.spectral.calls", "count"), ("states.spectral.self_s", "s"),
    ("dynamics.evolve.calls", "count"), ("dynamics.evolve.self_s", "s"),
    ("dynamics.evolve.trace_drift_max", "abs"),
    ("dynamics.propagator.calls", "count"), ("dynamics.propagator.self_s", "s"),
    ("dynamics.propagator.orth_drift_max", "norm"),
    ("dynamics.liouville_flow.calls", "count"), ("dynamics.liouville_flow.self_s", "s"),
    ("dynamics.bracket.calls", "count"), ("dynamics.bracket.self_s", "s"),
    ("oscillator.calls", "count"), ("oscillator.self_s", "s"),
    ("tensor.build_product_space.calls", "count"), ("tensor.build_product_space.self_s", "s"),
    ("tensor.physical_basis.calls", "count"), ("tensor.physical_basis.self_s", "s"),
    ("tensor.validate.calls", "count"), ("tensor.validate.self_s", "s"),
    *((f"checks.{suite}.s", "s") for suite in SUITES),
    ("cli.main.self_s", "s"), ("cli.output_bytes", "B/op"),
    ("trace.overhead_frac", "frac"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def load_realqm():
    """Import realqm from this checkout's `src/` and nowhere else."""
    init = SRC / "realqm" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no realqm source at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import realqm
    import realqm.cli
    import realqm.tensor

    if Path(realqm.__file__).resolve() != init.resolve():
        raise BenchError(f"imported realqm from {realqm.__file__}, not {init}")
    return realqm


# ---------------------------------------------------------------------------
# Loop


@dataclass
class Verdict:
    fingerprint: bytes
    ok: bool
    wrong: bool          # output delivered but incorrect (or exit 3)
    rows: int
    reason: str
    out_bytes: int = 0   # stdout size of a CLI operation


@dataclass
class Attempt:
    index: int
    latency: float
    verdict: Verdict


def _judge(workload, op, result, error) -> Verdict:
    if error is not None:
        return Verdict(error.encode(), False, False, 0, error)
    fp = workload.fingerprint(result)
    if result.rc not in (0, 3):
        last = (result.err.strip().splitlines() or [""])[-1]
        return Verdict(fp, False, False, 0, f"exit {result.rc}: {last}")
    try:
        reason = workload.oracle(op, result)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        reason = f"malformed output: {type(exc).__name__}: {exc}"
    if reason is not None:
        return Verdict(fp, False, True, 0, f"oracle: {reason}")
    return Verdict(fp, True, False, workload.rows(result), "", len(result.out.encode()))


def run_cycles(workload, ops, rq, seconds: float, verdicts: dict, cycles: int | None = None,
               tracer=None, min_cycles: int = MIN_CYCLES,
               after_cycle=None) -> tuple[list[Attempt], int]:
    """Repeat the cycle until `seconds` pass (at least `min_cycles`), or
    exactly `cycles` times.  `verdicts` carries the first run's verdict of
    each operation across calls.  `after_cycle(elapsed_s)`, if given, runs
    between cycles, outside every timed operation."""
    attempts: list[Attempt] = []
    start = time.perf_counter()
    done = 0
    while (done < cycles if cycles is not None
           else done < min_cycles or time.perf_counter() - start < seconds):
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id += 1
            result, error = None, None
            t0 = time.perf_counter()
            try:
                result = workload.execute(op, rq)
            except Exception as exc:  # a traceback from the program is a failure
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            first = verdicts.get(index)
            if first is None:
                verdicts[index] = _judge(workload, op, result, error)
                verdict = verdicts[index]
            else:
                fp = error.encode() if error is not None else workload.fingerprint(result)
                verdict = first if fp == first.fingerprint else Verdict(
                    fp, False, True, 0, "output differs from the first run of this operation")
            attempts.append(Attempt(index, latency, verdict))
        done += 1
        if after_cycle is not None:
            after_cycle(time.perf_counter() - start)
    return attempts, done


def traced_cycles(workload, ops, rq, seconds: float, verdicts: dict, tracer):
    """Alternate one untraced and one traced cycle until `seconds` pass (at
    least MIN_CYCLES pairs), so both see the same machine state."""
    attempts_a: list[Attempt] = []
    attempts_b: list[Attempt] = []
    start = time.perf_counter()
    pairs = 0
    while pairs < MIN_CYCLES or time.perf_counter() - start < seconds:
        spans.assert_unpatched(rq)
        attempts_a += run_cycles(workload, ops, rq, 0.0, verdicts, cycles=1)[0]
        tracer.install(rq)
        try:
            attempts_b += run_cycles(workload, ops, rq, 0.0, verdicts, cycles=1,
                                     tracer=tracer)[0]
        finally:
            tracer.uninstall()
        pairs += 1
    spans.assert_unpatched(rq)
    return attempts_a, attempts_b, pairs


# ---------------------------------------------------------------------------
# Metrics


def fastest_repeats(attempts: list[Attempt]) -> list[tuple[float, bool, int]]:
    """Per operation: its fastest repeat, whether every repeat was correct,
    and its rows.  Contention from the rest of the host only adds time,
    and it comes and goes in spells of seconds to minutes.  The fastest
    repeat is the cost in the quietest spell a run caught, which nearly
    every run catches; the median repeat follows the spell that filled
    most of the run."""
    repeats: dict[int, list[Attempt]] = {}
    for a in attempts:
        repeats.setdefault(a.index, []).append(a)
    return [(min(a.latency for a in runs),
             all(a.verdict.ok for a in runs), runs[0].verdict.rows)
            for runs in repeats.values()]


class SetupTimer:
    """Wall time of fresh interpreters importing realqm and running the
    workload's smallest operation.  One unmeasured launch comes first; the
    measured ones are spread evenly over the run, between cycles, so their
    median sees the same host as the loop does."""

    def __init__(self, workload, ops, launches: int, seconds: float):
        self.code, self.args = workload.setup_launch(ops)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.launches, self.seconds = launches, seconds
        self.times: list[float] = []
        self._launch()

    def _launch(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code, *self.args], cwd=ROOT,
                              env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up launch exited {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace').strip()[-300:]}")
        return elapsed

    def after_cycle(self, elapsed_s: float) -> None:
        """Launch once for every share of the run that has passed."""
        due = min(self.launches, math.floor(self.launches * elapsed_s / self.seconds))
        while len(self.times) < due:
            self.times.append(self._launch())

    def median(self) -> float:
        while len(self.times) < self.launches:
            self.times.append(self._launch())
        return statistics.median(self.times)


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile of `latencies` with TAIL_BEYOND samples
    beyond it (fewer only when a cycle has under 2 * TAIL_BEYOND + 1
    operations, as in smoke runs), and that percentile.  A failed
    operation's latency is inf: it is beyond every limit."""
    beyond = min(TAIL_BEYOND, (len(latencies) - 1) // 2)
    ordered = sorted(latencies)
    tail = ordered[len(ordered) - beyond - 1]
    if math.isinf(tail):
        raise BenchError(f"more than {beyond} of {len(ordered)} operations fail; "
                         "the tail latency is undefined")
    return tail, 100.0 * (len(ordered) - beyond) / len(ordered)


def end_to_end(attempts: list[Attempt], setup_s: float) -> tuple[dict, dict]:
    """Rates and latencies use one best cycle: each operation's fastest
    repeat, a failing operation counting as beyond every limit.  The
    success rate uses every attempt."""
    best = fastest_repeats(attempts)
    cycle_s = sum(latency for latency, _, _ in best)
    ok = [(latency, rows) for latency, good, rows in best if good]
    if 2 * len(ok) <= len(best):
        raise BenchError(f"only {len(ok)} of {len(best)} operations succeed; "
                         "the median latency is undefined")
    latencies = [latency if good else math.inf for latency, good, _ in best]
    tail, tail_pct = tail_latency(latencies)
    metrics = {
        "ops_per_s": len(ok) / cycle_s,
        "rows_per_s": sum(rows for _, rows in ok) / cycle_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "success_rate": sum(1 for a in attempts if a.verdict.ok) / len(attempts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    notes = {"loop_s": sum(a.latency for a in attempts), "best_cycle_s": cycle_s,
             "error_rate": 1.0 - metrics["success_rate"],
             "latency_tail_percentile": tail_pct}
    return metrics, notes


def per_layer(tracer, attempts_a, attempts_b, ops, cycles: int) -> dict:
    """Per-layer figures per cycle.  Spans come from the traced cycles (B);
    check latencies and output sizes from the untraced cycles (A)."""
    calls, self_s = tracer.layer_totals()
    rows = sum(a.verdict.rows for a in attempts_b if a.verdict.ok) / cycles
    measured = {}
    for suite in SUITES:
        lat = [a.latency for a in attempts_a
               if a.verdict.ok and ops[a.index].label == f"check {suite}"]
        measured[f"checks.{suite}.s"] = statistics.median(lat) if lat else 0.0
    cli_ok = [a for a in attempts_a if a.verdict.ok and ops[a.index].argv is not None]
    measured["cli.output_bytes"] = (
        sum(a.verdict.out_bytes for a in cli_ok) / len(cli_ok) if cli_ok else 0.0)
    measured["trace.overhead_frac"] = (sum(a.latency for a in attempts_b)
                                       / sum(a.latency for a in attempts_a) - 1.0)
    metrics = {}
    for name, _ in PER_LAYER:
        group, _, figure = name.rpartition(".")
        if name in measured:
            metrics[name] = measured[name]
        elif figure == "calls":
            metrics[name] = calls.get(group, 0) / cycles
        elif figure == "self_s":
            metrics[name] = self_s.get(group, 0.0) / cycles
        elif figure == "calls_per_row":
            metrics[name] = calls.get(group, 0) / cycles / rows if rows else 0.0
        elif figure.endswith("_max"):
            metrics[name] = tracer.health.get(name, 0.0)
        else:  # summed health figures: work_n3, squarings
            metrics[name] = tracer.health.get(name, 0.0) / cycles
    return metrics


# ---------------------------------------------------------------------------
# Provenance and reporting


def _git_head() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "realqm").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": _git_head(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _failure_summary(attempts: list[Attempt], ops) -> dict:
    counts: dict[str, int] = {}
    for a in attempts:
        if not a.verdict.ok:
            key = f"{ops[a.index].label}: {a.verdict.reason[:120]}"
            counts[key] = counts.get(key, 0) + 1
    return counts


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, *,
                  smoke: bool = False, setup_launches: int = SETUP_LAUNCHES,
                  out=sys.stdout) -> dict:
    """Run one benchmark and return the result object printed last."""
    workload = WORKLOADS[name]
    rq = load_realqm()
    ops = workload.make_ops(np.random.default_rng(seed % 2**64), smoke=smoke)
    spans.assert_unpatched(rq)
    verdicts: dict = {}
    if trace:
        tracer = spans.Tracer()
        attempts_a, attempts_b, cycles = traced_cycles(workload, ops, rq, seconds, verdicts,
                                                       tracer)
        tracer.write(SPAN_DIR / f"{name}-seed{seed}.jsonl")
        attempts = attempts_a + attempts_b
        metrics = per_layer(tracer, attempts_a, attempts_b, ops, cycles)
        units = dict(PER_LAYER)
        notes = {"spans": len(tracer.spans)}
    else:
        setup = SetupTimer(workload, ops, setup_launches, seconds)
        attempts, cycles = run_cycles(workload, ops, rq, seconds, verdicts,
                                      after_cycle=setup.after_cycle)
        metrics, notes = end_to_end(attempts, setup.median())
        units = dict(END_TO_END)
    failed = sum(1 for a in attempts if not a.verdict.ok)
    correct = not any(a.verdict.wrong for a in attempts)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cycles": cycles, "ops_per_cycle": len(ops), "attempted": len(attempts),
        "failed": failed, "failures": _failure_summary(attempts, ops), **notes,
        "provenance": provenance(),
    }
    print(f"perfbench {name} seed={seed} trace={int(trace)}: {cycles} cycles x "
          f"{len(ops)} ops, {failed} of {len(attempts)} failed, correct={correct}", file=out)
    for key, count in report["failures"].items():
        print(f"  failed x{count}  {key}", file=out)
    for key, value in metrics.items():
        extra = ""
        if key == "latency_tail_s":
            extra = f"  (p{notes['latency_tail_percentile']:.2f} of {len(ops)} operations)"
        elif key == "success_rate":
            extra = f"  (error_rate {notes['error_rate']:.6g})"
        print(f"  {key:<36} {value:.6g} {units[key]}{extra}", file=out)
    print("report: " + json.dumps(report, sort_keys=True), file=out)
    return {"correct": correct, "attempted": len(attempts), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
