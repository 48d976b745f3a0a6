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
a wrong output stops the script with exit 1.  The script reads
`BENCHMARK.json` and runs files under `perfbench/`; it imports neither
checkout's library.

With `--json PATH` the same summary is also written to PATH as one JSON
object: the seeds and seconds, the machine's provenance (the header lines
of `tools/output_digest.py`), each side's git commit (`null` outside a git
checkout) and whether its tree had uncommitted changes, and per workload
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
             seconds: float) -> dict[str, float]:
    """One benchmark run in `root`; its end-to-end metric values by name."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct", False):
        raise SystemExit(f"paired_bench: {root} seed {seed} failed (exit {proc.returncode})\n"
                         f"{proc.stderr.strip()}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def commit(root: Path) -> dict:
    """The checkout's HEAD and whether its tree differs from it; nulls outside git."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    return {"commit": head, "dirty": None if head is None else bool(git("status", "--porcelain"))}


def provenance() -> list[str]:
    """The header lines `tools/output_digest.py` prints: numpy, its BLAS, the CPU."""
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "tools" / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.provenance()


def compare(bench: dict, roots: dict, workload: str, seeds: list[int],
            seconds: float) -> dict:
    """Run the pairs of one workload and print them; its summary per metric."""
    runs = {side: [] for side in roots}
    print(f"paired_bench {workload}: {len(seeds)} seeds x {seconds:g} s, "
          f"this {roots['this']}, other {roots['other']}")
    for turn, seed in enumerate(seeds):
        order = ["this", "other"] if turn % 2 == 0 else ["other", "this"]
        for side in order:
            runs[side].append(run_side(roots[side], bench["command"], workload, seed, seconds))
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
    workloads = {w: compare(bench, roots, w, args.seeds, args.seconds)
                 for w in args.workload.split(",")}
    if args.json is not None:
        record = {"seeds": args.seeds, "seconds": args.seconds, "provenance": provenance(),
                  "checkouts": {side: commit(root) for side, root in roots.items()},
                  "workloads": workloads}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
