"""Time two checkouts against each other in one process, on one workload.

    python tools/ab_bench.py /path/to/other/checkout --workload tensor_products --seed 1 --seconds 20

Imports `src/realqm` of this checkout (the checkout holding this script)
as `realqm_this` and that of OTHER_ROOT as `realqm_other`; with no
OTHER_ROOT both sides are this checkout, which shows the noise floor.  The
workload's operations are built once from this checkout's
`perfbench/workloads.py` and handed to both sides.  A first, untimed round
runs every operation on each side through the benchmark's own loop
(`perfbench/run.py`), which checks it with the workload's oracle.  Unless
every operation's fingerprint (its output bytes) is the same on both sides
the script stops there with exit 1.  Then whole cycles alternate between
the sides, the side that goes first swapped each round, until `--seconds`
pass (at least two rounds).

Printed per side: ops/s over the fastest repeat of each operation (as
`perfbench/run.py` computes it) and the minor page faults (`ru_minflt`) of
each timed cycle, as min / median / max; then the ratio of this side's
ops/s to the other's, and beside it the quartiles over the rounds of the
same ratio taken per round (the other side's summed operation latency
over this side's, in that round).  Rounds that disagree widely mark a run
too noisy to rank the checkouts by.  Then one line per operation class (`Op.label`):
the sum of its operations' fastest repeats on each side and the ratio
other/this, which reads like the ops/s ratio (above 1: this side is
faster), so a gain can be traced to the class that moved.  Under each, a
`faults` line gives the median minor page faults of one of the class's
operations on each side, counted around every timed run of it (the two
`getrusage` calls fall inside the operation's timed span and add about a
microsecond to it), so a class that stopped re-faulting its arrays shows.
BLAS runs on one thread, as in the benchmark.

Both sides share one interpreter and one heap, so one side's allocations
can change the other's page faults and cache state, and the script can
over-read a change that comes from allocation.  Cutting the (10000, 4, 4)
stacks of the oscillator check's uncertainty sweep into 1000-row blocks,
with no other change, read 1.11x on `check_sweep` here, but -2% to +1% in
three pairs of separate `perfbench/run.py` processes.  The script ranks
two checkouts within seconds on one state of the host; a claim rests on
paired `perfbench/run.py` runs, each in its own process, which confirm it.
"""

from __future__ import annotations

import argparse
import importlib.util
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_ROUNDS = 2


def load_realqm(root: Path, name: str):
    """Import `root/src/realqm` as the package `name`, with the submodules
    the workloads use."""
    init = root / "src" / "realqm" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_bench: no realqm source at {init}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("cli", "tensor"):
        importlib.import_module(f"{name}.{sub}")
    return package


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class FaultCounter:
    """The workload, with the minor faults of every `execute` recorded per
    operation index; every other attribute is the workload's own."""

    def __init__(self, workload, ops):
        self._workload = workload
        self._index = {id(op): k for k, op in enumerate(ops)}
        self.faults: dict[int, list[int]] = defaultdict(list)

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def execute(self, op, rq):
        before = minflt()
        try:
            return self._workload.execute(op, rq)
        finally:
            self.faults[self._index[id(op)]].append(minflt() - before)


def class_median_faults(faults, ops) -> dict[str, float]:
    """Per operation class: the median minor faults of one run of one of its operations."""
    runs: dict[str, list[int]] = defaultdict(list)
    for index, counts in faults.items():
        runs[ops[index].label] += counts
    return {label: statistics.median(counts) for label, counts in runs.items()}


def class_fastest(attempts, ops) -> dict[str, float]:
    """Per operation class: the sum of its operations' fastest repeats."""
    best: dict[int, float] = {}
    for a in attempts:
        best[a.index] = min(a.latency, best.get(a.index, a.latency))
    sums: dict[str, float] = {}
    for index, latency in best.items():
        sums[ops[index].label] = sums.get(ops[index].label, 0.0) + latency
    return sums


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # pins BLAS to one thread before numpy loads
    import numpy as np

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_root", nargs="?", default=str(ROOT), metavar="OTHER_ROOT")
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    workload = run.WORKLOADS[args.workload]
    ops = workload.make_ops(np.random.default_rng(args.seed % 2**64))
    roots = {"this": ROOT, "other": Path(args.other_root).resolve()}
    sides = {side: load_realqm(root, f"realqm_{side}") for side, root in roots.items()}
    verdicts = {side: {} for side in sides}
    attempts = {side: [] for side in sides}
    faults = {side: [] for side in sides}
    cycle_s = {side: [] for side in sides}

    for side, rq in sides.items():
        run.run_cycles(workload, ops, rq, 0.0, verdicts[side], cycles=1)
    differ = [k for k in range(len(ops))
              if verdicts["this"][k].fingerprint != verdicts["other"][k].fingerprint]
    if differ:
        print(f"ab_bench: {len(differ)} of {len(ops)} operations differ between the sides, "
              f"first op {differ[0]} ({ops[differ[0]].label})", file=sys.stderr)
        return 1

    counted = {side: FaultCounter(workload, ops) for side in sides}
    order = list(sides)
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        for side in order:
            before = minflt()
            cycle = run.run_cycles(counted[side], ops, sides[side], 0.0, verdicts[side],
                                   cycles=1)[0]
            faults[side].append(minflt() - before)
            cycle_s[side].append(sum(a.latency for a in cycle))
            attempts[side] += cycle
        order.reverse()
        rounds += 1

    failed = sum(not a.verdict.ok for side in sides for a in attempts[side])
    print(f"ab_bench {args.workload} seed={args.seed}: {rounds} rounds x {len(ops)} ops, "
          f"fingerprints identical, {failed} failed")
    rate = {}
    for side, root in roots.items():
        rate[side] = run.end_to_end(attempts[side], 0.0)[0]["ops_per_s"]
        f = faults[side]
        print(f"  {side:<5} {rate[side]:10.2f} ops/s   ru_minflt/cycle "
              f"{min(f)} / {statistics.median(f):g} / {max(f)}   {root}")
    q1, q2, q3 = np.percentile(np.divide(cycle_s["other"], cycle_s["this"]), [25, 50, 75])
    print(f"  ratio this/other {rate['this'] / rate['other']:.4f}   "
          f"per round q1 / median / q3 {q1:.4f} / {q2:.4f} / {q3:.4f}")
    fastest = {side: class_fastest(attempts[side], ops) for side in sides}
    op_faults = {side: class_median_faults(counted[side].faults, ops) for side in sides}
    width = max(len(label) for label in fastest["this"])
    for label in sorted(fastest["this"]):
        this, other = fastest["this"][label], fastest["other"][label]
        print(f"  class {label:<{width}}  fastest sum this {1e3 * this:9.3f} ms  "
              f"other {1e3 * other:9.3f} ms  other/this {other / this:.4f}")
        print(f"  faults {label:<{width}} ru_minflt/op median this {op_faults['this'][label]:g}  "
              f"other {op_faults['other'][label]:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
