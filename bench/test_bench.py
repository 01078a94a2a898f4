"""Smoke check of the benchmark itself: a few tasks per workload.

    python3 -m pytest bench -q

Checks that every metric BENCHMARK.json declares is printed with its unit,
that every answer check passes, that traced counts repeat exactly, that
layers a workload does not use read zero, and that the benchmark refuses to
run in a directory holding only BENCHMARK.json and bench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, tasks=3, seed=3):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "60", "--trace", str(trace), "--max-tasks", str(tasks)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_answers(workload):
    out = _run(workload, trace=0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] == 3
    assert {k: m["unit"] for k, m in out["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_exact_counts(workload):
    first = _run(workload, trace=1)
    second = _run(workload, trace=1)
    assert first["correct"] is True and first["failed"] == 0
    assert {k: m["unit"] for k, m in first["metrics"].items()} == _declared("per_layer")
    counts = [name for name, unit in _declared("per_layer").items()
              if unit.startswith("count") and not name.startswith("trace.")]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    values = {k: m["value"] for k, m in first["metrics"].items()}
    if workload == "lyapunov-exact":
        unused = [k for k in values if k.split(".")[0] in ("frames", "normalform", "domination")]
    elif workload == "analyze-grid":
        unused = [k for k in values if k.startswith("frames.")] + ["trigpoly.mul_calls"]
    else:
        unused = []
    assert all(values[k] == 0 for k in unused), {k: values[k] for k in unused}
    assert values["cocycle.lyapunov_steps"] > 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
