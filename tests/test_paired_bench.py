"""`tools/paired_bench.py` on two stub checkouts whose `perfbench/run.py`
prints fixed metrics at once, names its tree and logs the order of its runs."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

STUB = '''import argparse, json, subprocess, sys
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
head = subprocess.run(["git", "-C", str(Path(__file__).parents[1]), "rev-parse", "HEAD"],
                      capture_output=True, text=True)
tree = {"git_sha": head.stdout.strip() if head.returncode == 0 else None,
        "source_sha256": SIDE + (str(seed) if DRIFT else "")}
print("human-readable lines first")
print("report: " + json.dumps({"provenance": {**tree, "python": "3"}}))
print(json.dumps({"correct": CORRECT, "attempted": 10, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}))
'''


def _checkout(root: Path, side: str, correct: bool = True, drift: bool = False) -> Path:
    (root / side / "perfbench").mkdir(parents=True)
    stub = STUB.replace("SIDE", repr(side)).replace("CORRECT", repr(correct))
    stub = stub.replace("DRIFT", repr(drift))
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


def test_a_side_whose_tree_changes_between_runs_stops_the_script(tmp_path):
    # The other stub names a new source hash on each seed, as a tree edited
    # between runs would; its first run is seed 1, its second seed 2.
    this, other = _checkout(tmp_path, "this"), _checkout(tmp_path, "other", drift=True)
    path = tmp_path / "bench.json"
    proc = _run(this, other, "1-3", "tensor_products", "--json", str(path))
    assert proc.returncode == 1
    assert re.search(r"other changed between runs: .*'other1'.* then .*'other2'", proc.stderr)
    assert len((tmp_path / "order.log").read_text().splitlines()) == 3
    assert not path.exists()


def _compile(root: Path) -> None:
    cache = root / "src" / "realqm" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "cli.cpython-311.pyc").write_bytes(b"")


def test_bytecode_on_one_side_only_stops_the_script(tmp_path):
    # A launch that imports from .pyc files skips a compile the other side
    # pays at every launch, so no run may start.
    this, other = _checkout(tmp_path, "this"), _checkout(tmp_path, "other")
    _compile(other)
    proc = _run(this, other, "1")
    assert proc.returncode == 1
    assert "src/realqm/__pycache__: this False, other True" in proc.stderr
    assert not (tmp_path / "order.log").exists()


def test_bytecode_on_both_sides_is_recorded(tmp_path):
    this, other = _checkout(tmp_path, "this"), _checkout(tmp_path, "other")
    _compile(this)
    _compile(other)
    path = tmp_path / "bench.json"
    proc = _run(this, other, "1", "tensor_products", "--json", str(path))
    assert proc.returncode == 0, proc.stderr
    assert ".pyc files this True, other True" in proc.stdout.splitlines()[0]
    checkouts = json.loads(path.read_text())["checkouts"]
    assert checkouts["this"]["bytecode"] is checkouts["other"]["bytecode"] is True


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
    # Each side's tree is the one its runs reported.  The other stub is a clean
    # git checkout, though its run logged to a file beside it.
    assert record["checkouts"] == {
        "this": {"git_sha": None, "source_sha256": "this", "dirty": None, "bytecode": False},
        "other": {"git_sha": head, "source_sha256": "other", "dirty": False, "bytecode": False}}
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
