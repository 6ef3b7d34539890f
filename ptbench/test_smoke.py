"""The benchmark's own test: every workload once at a small d, traced and not.

Run with `python3 -m pytest ptbench` from the repository root.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "ptbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] == (2 if trace == "1" else 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    table = {line.split()[0]: line.split()[1:3] for line in lines[:-1] if len(line.split()) >= 3}
    for name, unit in expected.items():
        assert table[name][1] == unit
    assert table["failed_ratio"] == ["0", "1"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "ptbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "selftest_exact", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_union_of_parallel_children():
    # runner [0, 10] with two worker-thread children overlapping on [2, 6]
    records = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0, "intervals": None},
        {"id": 2, "parent": 1, "start": 1.0, "end": 6.0, "intervals": None},
        {"id": 3, "parent": 1, "start": 2.0, "end": 8.0, "intervals": None},
        {"id": 4, "parent": 3, "start": 0.0, "end": 0.0, "intervals": [(3.0, 4.0), (5.0, 5.5)]},
    ]
    spans.self_times(records)
    assert [r["self"] for r in records] == [3.0, 5.0, 4.5, 1.5]
    assert spans.layer_union(records, 1) == 7.0


def test_tracer_links_pool_threads_to_the_open_span():
    tracer = spans.Tracer()

    def in_worker():
        tracer.set_trial(7)
        tracer.call("linalg.partial_transpose", lambda: None, (), {})

    def runner():
        worker = threading.Thread(target=in_worker)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.call("cli.main", tracer.wrap("experiments.runner", runner), (), {})
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["linalg.partial_transpose"]["parent"] == by_name["experiments.runner"]["id"]
    assert by_name["linalg.partial_transpose"]["trial"] == 7
    assert by_name["experiments.runner"]["parent"] == by_name["cli.main"]["id"]
