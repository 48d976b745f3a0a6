"""Run two checkouts' benchmarks in alternating pairs of separate processes.

    python tools/paired_bench.py /path/to/other/checkout --workload tensor_products --seeds 1-10 --seconds 40
    python tools/paired_bench.py /path/to/parent --workload evolve_physical,check_sweep \
        --seeds 1-10 --seconds 40 --json bench.json

For each seed, this checkout (the one holding this script) and OTHER_ROOT
each run their own benchmark command from `BENCHMARK.json` (`perfbench/run.py
--workload W --seed S --seconds T`) in a fresh process, in the checkout's
root.  The side that goes first alternates from seed to seed: this side
first on the first seed.  `--seeds` takes numbers and ranges, `1-10` or
`11,13,20-22`; `--workload` takes one name or several, comma-separated,
run one after another.

Printed: one line per seed with both sides' ops/s, then one line per
end-to-end metric of `BENCHMARK.json`: each side's median and quartiles
over the seeds, and the pairs in which this side is strictly better, in the
metric's `better` direction.  A run that fails, prints no result or reports
a wrong output stops the script with exit 1, and so does a side whose tree
changes between its runs: each run's `report:` line names the tree it
measured by its `git_sha` and the `source_sha256` of its `src/realqm`, and
every run of a side must name the same one.  Before any run, each side's
`src/realqm/__pycache__` is looked at: one side holding compiled `.pyc`
files and the other not would time a compile on one side only at every
launch (as with PYTHONDONTWRITEBYTECODE=1), so the script stops with exit 1
when the sides differ; the header of each workload names each side's state.  The script reads
`BENCHMARK.json` and runs files under `perfbench/`; it imports neither
checkout's library.

With `--json PATH` the same summary is also written to PATH as one JSON
object: the seeds and seconds, the machine's provenance (the header lines
of `tools/output_digest.py`), each side's measured tree (`git_sha`, `null`
outside a git checkout, and `source_sha256`), whether it had uncommitted
changes (`null` outside a git checkout) and whether its
`src/realqm/__pycache__` held `.pyc` files before the first run (`bytecode`),
and per workload
and end-to-end metric its unit and `better` direction, each side's
per-seed values, median and quartiles, and the wins n of N pairs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for item in text.split(","):
        first, _, last = item.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_side(root: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> tuple[dict[str, float], dict]:
    """One benchmark run in `root`: its end-to-end metric values by name, and
    the tree it measured, as its report line's `git_sha` and `source_sha256`."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        report = next(json.loads(line.removeprefix("report: ")) for line in lines
                      if line.startswith("report: "))
        tree = {key: report["provenance"][key] for key in ("git_sha", "source_sha256")}
    except (IndexError, ValueError, StopIteration, KeyError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct", False):
        raise SystemExit(f"paired_bench: {root} seed {seed} failed (exit {proc.returncode})\n"
                         f"{proc.stderr.strip()}")
    return {name: m["value"] for name, m in result["metrics"].items()}, tree


def dirty(root: Path) -> bool | None:
    """Whether the checkout's tree differs from its HEAD; null outside git."""
    proc = subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                          capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def bytecode(root: Path) -> bool:
    """Whether the checkout's `src/realqm/__pycache__` holds compiled files."""
    return any((root / "src" / "realqm" / "__pycache__").glob("*.pyc"))


def provenance() -> list[str]:
    """The header lines `tools/output_digest.py` prints: numpy, its BLAS, the CPU."""
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "tools" / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.provenance()


def compare(bench: dict, roots: dict, trees: dict, workload: str, seeds: list[int],
            seconds: float, compiled: dict) -> dict:
    """Run the pairs of one workload and print them; its summary per metric.
    `trees` holds each side's tree from its first run, which every run must
    match; `compiled` whether each side held `.pyc` files before it."""
    runs = {side: [] for side in roots}
    print(f"paired_bench {workload}: {len(seeds)} seeds x {seconds:g} s, "
          f"this {roots['this']}, other {roots['other']}, .pyc files "
          f"this {compiled['this']}, other {compiled['other']}")
    for turn, seed in enumerate(seeds):
        order = ["this", "other"] if turn % 2 == 0 else ["other", "this"]
        for side in order:
            metrics, tree = run_side(roots[side], bench["command"], workload, seed, seconds)
            if trees.setdefault(side, tree) != tree:
                raise SystemExit(f"paired_bench: {roots[side]} changed between runs: "
                                 f"{trees[side]} then {tree}")
            runs[side].append(metrics)
        print(f"  seed {seed:<4} first {order[0]:<5}  ops_per_s this "
              f"{runs['this'][-1]['ops_per_s']:.6g}  other {runs['other'][-1]['ops_per_s']:.6g}")
    summary = {}
    for metric in bench["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r[name] for r in runs[side]] for side in roots}
        wins = sum((a > b) if higher else (a < b)
                   for a, b in zip(values["this"], values["other"]))
        summary[name] = {"unit": metric["unit"], "better": metric["better"],
                         "wins": wins, "pairs": len(seeds)}
        cells = []
        for side in roots:
            q1, q2, q3 = quartiles(values[side])
            summary[name][side] = {"values": values[side], "median": q2, "q1": q1, "q3": q3}
            cells.append(f"{side} {q2:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"  {name:<16} median [q1, q3]  {'  '.join(cells)}  "
              f"this better {wins}/{len(seeds)} ({metric['better']})")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_root", metavar="OTHER_ROOT")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", metavar="PATH", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    roots = {"this": ROOT, "other": Path(args.other_root).resolve()}
    compiled = {side: bytecode(root) for side, root in roots.items()}
    if compiled["this"] != compiled["other"]:
        raise SystemExit("paired_bench: .pyc files in src/realqm/__pycache__: "
                         f"this {compiled['this']}, other {compiled['other']}; remove them, "
                         "or compile both sides")
    trees: dict = {}
    workloads = {w: compare(bench, roots, trees, w, args.seeds, args.seconds, compiled)
                 for w in args.workload.split(",")}
    if args.json is not None:
        record = {"seeds": args.seeds, "seconds": args.seconds, "provenance": provenance(),
                  "checkouts": {side: {**trees[side], "dirty": dirty(root),
                                        "bytecode": compiled[side]}
                                for side, root in roots.items()},
                  "workloads": workloads}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
