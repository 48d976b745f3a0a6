"""Digest the CLI output of the benchmark's `evolve` and `check` operations.

Prints one line per (workload, seed, operation, format): the sha256 of the
exit code, stdout and stderr of `realqm.cli.main` on that operation.  Two
checkouts print the same lines exactly when their output is byte-identical,
so a diff of two runs names every operation whose output changed:

    python tools/output_digest.py > new.txt
    python tools/output_digest.py /path/to/other/checkout > old.txt
    diff old.txt new.txt

The operations are those of the `evolve_physical` and `check_sweep`
workloads in `perfbench/workloads.py` at seeds 1-6, each run once with
`--format json` and once with `--format csv`.  ROOT (default: the checkout
holding this script) supplies both `src/` and `perfbench/`.  Nothing is
written to disk.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("evolve_physical", "check_sweep")
SEEDS = range(1, 7)
FORMATS = ("json", "csv")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        sys.stderr.write("usage: output_digest.py [ROOT]\n")
        return 1
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import realqm.cli
    import workloads

    for name in WORKLOADS:
        for seed in SEEDS:
            ops = workloads.WORKLOADS[name].make_ops(np.random.default_rng(seed))
            for index, op in enumerate(ops):
                for fmt in FORMATS:
                    result = workloads.run_cli(realqm.cli, [*op.argv, "--format", fmt])
                    blob = json.dumps([result.rc, result.out, result.err]).encode()
                    print(f"{name} seed={seed} op={index:02d} {fmt} "
                          f"{hashlib.sha256(blob).hexdigest()}  {op.label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
