"""`tools/paired_bench.py` on two stub checkouts whose `perfbench/run.py`
prints fixed metrics at once and logs the order of its runs."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

STUB = '''import argparse, json, sys
from pathlib import Path
parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--seed", type=int)
parser.add_argument("--seconds", type=float)
args = parser.parse_args()
with open(Path(__file__).parents[2] / "order.log", "a") as log:
    log.write(f"{SIDE} {args.seed} {args.workload} {args.seconds:g}\\n")
seed, fast = args.seed, SIDE == "this"
metrics = {
    "ops_per_s": 100.0 + seed + (10.0 if fast else 0.0),
    "rows_per_s": 1000.0,
    "latency_p50_s": 0.01 if fast else 0.02,
    "latency_tail_s": 0.02 if fast or seed == 2 else 0.03,
    "success_rate": 1.0,
    "peak_rss_mb": 50.0 + seed,
    "setup_s": 0.2,
}
print("human-readable lines first")
print(json.dumps({"correct": CORRECT, "attempted": 10, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}))
'''


def _checkout(root: Path, side: str, correct: bool = True) -> Path:
    (root / side / "perfbench").mkdir(parents=True)
    stub = STUB.replace("SIDE", repr(side)).replace("CORRECT", repr(correct))
    (root / side / "perfbench" / "run.py").write_text(stub)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench["command"] = [sys.executable, "perfbench/run.py"]
    (root / side / "BENCHMARK.json").write_text(json.dumps(bench))
    (root / side / "tools").mkdir()
    for tool in ("paired_bench.py", "output_digest.py"):
        shutil.copy(ROOT / "tools" / tool, root / side / "tools")
    return root / side


def _run(this: Path, other: Path, seeds: str, workload="tensor_products", *extra):
    return subprocess.run([sys.executable, str(this / "tools" / "paired_bench.py"), str(other),
                           "--workload", workload, "--seeds", seeds, "--seconds", "0.5", *extra],
                          capture_output=True, text=True, timeout=120)


def test_pairs_alternate_and_every_metric_is_summarised(tmp_path):
    this, other = _checkout(tmp_path, "this"), _checkout(tmp_path, "other")
    proc = _run(this, other, "1-3,5")
    assert proc.returncode == 0, proc.stderr
    log = (tmp_path / "order.log").read_text().splitlines()
    assert log == ["this 1 tensor_products 0.5", "other 1 tensor_products 0.5",
                   "other 2 tensor_products 0.5", "this 2 tensor_products 0.5",
                   "this 3 tensor_products 0.5", "other 3 tensor_products 0.5",
                   "other 5 tensor_products 0.5", "this 5 tensor_products 0.5"]
    out = proc.stdout
    assert re.search(r"^  seed 2 +first other +ops_per_s this 112 +other 102$", out, re.M), out
    lines = {line.split()[0]: line for line in out.splitlines()[5:]}
    assert list(lines) == [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    # ops/s over seeds 1, 2, 3, 5: this 111, 112, 113, 115 against 101, 102, 103, 105.
    assert lines["ops_per_s"].endswith(
        "this 112.5 [111.75, 113.5]  other 102.5 [101.75, 103.5]  this better 4/4 (higher)")
    assert lines["latency_p50_s"].endswith("this better 4/4 (lower)")
    assert lines["latency_tail_s"].endswith("this better 3/4 (lower)")  # seed 2 ties
    assert lines["success_rate"].endswith("this better 0/4 (higher)")
    assert lines["peak_rss_mb"].endswith("this better 0/4 (lower)")


def test_a_wrong_run_stops_the_script(tmp_path):
    this, other = _checkout(tmp_path, "this"), _checkout(tmp_path, "other", correct=False)
    proc = _run(this, other, "7")
    assert proc.returncode == 1
    assert "seed 7 failed" in proc.stderr
    assert "ops_per_s" not in proc.stdout.split("\n", 1)[1]


def _git(root: Path, *args):
    subprocess.run(["git", "-C", str(root), "-c", "user.name=stub", "-c", "user.email=stub@example.com",
                    *args], check=True, capture_output=True)


def test_json_record_holds_every_metric_of_each_workload(tmp_path):
    this, other = _checkout(tmp_path, "this"), _checkout(tmp_path, "other")
    _git(other, "init", "-q")
    _git(other, "add", "-A")
    _git(other, "commit", "-q", "-m", "stub")
    head = subprocess.run(["git", "-C", str(other), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()
    path = tmp_path / "bench.json"
    proc = _run(this, other, "1-3", "tensor_products,check_sweep", "--json", str(path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(path.read_text())
    assert list(record) == ["seeds", "seconds", "provenance", "checkouts", "workloads"]
    assert record["seeds"] == [1, 2, 3] and record["seconds"] == 0.5
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "tools" / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert record["provenance"] == digest.provenance()
    # The other stub is a clean git checkout, though its run logged to a file beside it.
    assert record["checkouts"] == {"this": {"commit": None, "dirty": None},
                                   "other": {"commit": head, "dirty": False}}
    assert list(record["workloads"]) == ["tensor_products", "check_sweep"]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for summary in record["workloads"].values():
        assert list(summary) == [m["name"] for m in metrics]
        for m in metrics:
            entry = summary[m["name"]]
            assert list(entry) == ["unit", "better", "wins", "pairs", "this", "other"]
            assert (entry["unit"], entry["better"], entry["pairs"]) == (m["unit"], m["better"], 3)
            for side in ("this", "other"):
                assert list(entry[side]) == ["values", "median", "q1", "q3"]
                assert len(entry[side]["values"]) == 3
                assert entry[side]["q1"] <= entry[side]["median"] <= entry[side]["q3"]
        # ops/s over seeds 1-3: this 111, 112, 113 against 101, 102, 103.
        assert summary["ops_per_s"]["this"] == {"values": [111.0, 112.0, 113.0], "median": 112.0,
                                                "q1": 111.5, "q3": 112.5}
        assert summary["ops_per_s"]["wins"] == 3
        assert summary["latency_tail_s"]["wins"] == 2  # seed 2 ties
        assert summary["success_rate"]["wins"] == 0
