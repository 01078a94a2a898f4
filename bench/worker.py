"""Benchmark worker: set up one workload, run its closed loop, write a result.

run.py starts this file in a fresh process with the BLAS thread count
pinned in the environment, so numpy is first imported here under that
setting.  Usage (from run.py):

    python3 bench/worker.py '<json config>'

The config names the checkout root, a work directory, the workload, seed,
seconds, trace flag, an optional task cap and, for traced runs, where to
write the spans.  The result is written to <work>/result.json.

Untraced runs report the end-to-end metrics.  Set-up is repeated and timed
each time; the timed loop is closed (one task at a time, the next starts
when the previous one finished) and cycles through the workload's tasks.
A yardstick runs after every task and set-up, and the reported times and
rate are rescaled by it (yardstick.py); the measured values go to the
detail output.

Traced runs report the per-layer metrics.  Each task runs twice in a row,
once with the span recorder installed and once without, in alternating
order, so the tracing overhead is measured on the same inputs.  Per-layer
numbers come from the traced runs of the workload's traced pass, a fixed
set of leading tasks, so counts repeat exactly for a given seed.
"""

import hashlib
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads
from yardstick import Yardstick, speed_factor

SETUP_REPS = 5
TAIL_PERCENTILE = 75

END_TO_END = {
    "setup_s": "s",
    "task_s.p50": "s",
    "task_s.tail": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trigpoly.self_s": "s",
    "trigpoly.mul_calls": "count",
    "matfun.self_s": "s",
    "matfun.matmul_calls": "count",
    "matfun.interp_points": "count",
    "matfun.interp_macs": "count",
    "frames.self_s": "s",
    "frames.field_calls": "count",
    "frames.field_samples": "count",
    "cocycle.self_s": "s",
    "cocycle.lyapunov_s": "s",
    "cocycle.lyapunov_steps": "count",
    "cocycle.lyapunov_ns_per_step": "ns",
    "cocycle.iterate_s": "s",
    "cocycle.iterate_factors": "count",
    "cocycle.rank_profile_calls": "count/task",
    "cocycle.nilpotency_calls": "count/task",
    "normalform.self_s": "s",
    "normalform.grids_tried": "count/form",
    "domination.self_s": "s",
    "domination.calls": "count",
    "cli.self_s": "s",
    "fixtures.self_s": "s",
    "errors.raised.ConstantRankViolated": "count",
    "errors.raised.TailTooFat": "count",
    "errors.raised.UnsupportedBase": "count",
    "errors.raised.other": "count",
    "trace.overhead_frac": "ratio",
    "trace.tasks_per_s": "1/s",
    "trace.untraced_tasks_per_s": "1/s",
    "trace.spans": "count",
}

# counts made by the program that must repeat exactly for a given seed
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER.items()
                     if unit.startswith("count") and not name.startswith("trace."))


def _purge():
    for name in [n for n in sys.modules if n == "cocycles" or n.startswith("cocycles.")]:
        del sys.modules[name]


def set_up(workload, seed, root, work, tracer=None):
    """Import cocycles and its CLI afresh and write the workload's inputs;
    returns the pass and the elapsed seconds."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    _purge()
    t0 = time.perf_counter()
    pkg = importlib.import_module("cocycles")
    importlib.import_module("cocycles.cli")
    if tracer is not None:
        tracer.install()
    tasks = workload.make(seed, inputs)
    elapsed = time.perf_counter() - t0
    src = (root / "src").resolve()
    if src not in Path(pkg.__file__).resolve().parents:
        raise RuntimeError(f"imported cocycles from {pkg.__file__}, not from {src}")
    return tasks, elapsed


def run_one(workload, task, work, memo):
    """Time one task and check its answer; returns (seconds, failure reasons).
    memo carries results a later task's check compares with."""
    t0 = time.perf_counter()
    try:
        output = workload.run(task, work)
    except Exception:
        return time.perf_counter() - t0, ["uncaught exception: " + traceback.format_exc(limit=4)]
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, workload.check(task, output, memo)
    except Exception:
        return elapsed, ["answer check raised: " + traceback.format_exc(limit=4)]


def tail(durations):
    """p75 by nearest rank while at least ten tasks lie beyond it (40 tasks
    or more); with fewer tasks the highest whole percentile that keeps ten
    beyond, and the maximum at ten tasks or fewer.

    The percentile stays fixed as runs get faster: with the highest
    percentile instead, a faster program would be compared at p90 against a
    parent's p75."""
    xs = sorted(durations)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = TAIL_PERCENTILE if n >= 40 else 100 * (n - 10) // n
    rank = -(-p * n // 100)          # ceil(p n / 100)
    return p, xs[rank - 1]


def _metrics(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def untraced(cfg, workload, root, work):
    yard = Yardstick()
    setups, setup_yards = [], []
    for _ in range(SETUP_REPS):
        tasks, elapsed = set_up(workload, cfg["seed"], root, work)
        setups.append(elapsed)
        setup_yards += [yard() for _ in range(3)]
    durations, yards, failures, memo = [], [], [], {}
    start = time.perf_counter()
    while True:
        task = tasks[len(durations) % len(tasks)]
        elapsed, reasons = run_one(workload, task, work, memo)
        durations.append(elapsed)
        yards.append(yard())
        if reasons:
            failures.append({"task": task.label, "reasons": reasons})
        if _done(cfg, start, len(durations)):
            break
    wall = time.perf_counter() - start
    # rescale to the host speed the yardstick calls nominal
    speed = speed_factor(yards)
    setup_speed = speed_factor(setup_yards)
    p, tail_s = tail(durations)
    values = {
        "setup_s": statistics.median(setups) * setup_speed,
        "task_s.p50": statistics.median(durations) * speed,
        "task_s.tail": tail_s * speed,
        "tasks_per_s": len(durations) / (wall - sum(yards)) / speed,
        "peak_rss_mb": 0.0,   # filled in by run.py from the finished process
    }
    detail = {
        "raw": {"setup_s": statistics.median(setups),
                "task_s.p50": statistics.median(durations),
                "task_s.tail": tail_s,
                "tasks_per_s": len(durations) / (wall - sum(yards))},
        "speed_factor": speed,
        "setup_speed_factor": setup_speed,
        "setup_s_each": setups,
        "setup_yardstick_s": setup_yards,
        "tail_percentile": p,
        "tasks_timed": len(durations),
        "pass_length": len(tasks),
        "loop_s": wall,
        "durations": durations,
        "yardstick_s": yards,
        "fail_frac": len(failures) / len(durations),
    }
    return len(durations), failures, _metrics(values, END_TO_END), detail


def traced(cfg, workload, root, work):
    tr = tracing.Tracer()
    tasks, _ = set_up(workload, cfg["seed"], root, work, tr)
    pass_len = workload.traced_pass or len(tasks)
    setup_spans, _ = tr.take()
    setup_self, _ = tr.layer_times(setup_spans)
    tr.uninstall()

    self_s, inclusive, counts = Counter(), Counter(), Counter()
    pass_spans = []
    traced_s, untraced_s, failures = [], [], []
    attempted, memo = 0, {}
    start = time.perf_counter()
    i = 0
    while True:
        task = tasks[i % len(tasks)]
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if with_trace:
                tr.install()
            try:
                elapsed, reasons = run_one(workload, task, work, memo)
            finally:
                tr.uninstall()
            attempted += 1
            (traced_s if with_trace else untraced_s).append(elapsed)
            if reasons:
                failures.append({"task": task.label, "traced": with_trace,
                                 "reasons": reasons})
            if with_trace:
                spans, c = tr.take()
                if i < pass_len:
                    own, total = tr.layer_times(spans)
                    self_s.update(own)
                    inclusive.update(total)
                    counts.update(c)
                    pass_spans.append({"task": task.label, "spans": spans})
        i += 1
        if cfg.get("max_tasks") and i >= cfg["max_tasks"]:
            break
        if i >= pass_len and _done(cfg, start, i):
            break

    n_pass = min(i, pass_len)
    steps = counts["cocycle.lyapunov_steps"]
    values = {f"{layer}.self_s": self_s[layer] for layer in tracing.WRAPPED}
    values["fixtures.self_s"] = setup_self["fixtures"]
    values.update({name: counts[name] for name in EXACT_COUNTS})
    values.update({
        "cocycle.lyapunov_s": inclusive["lyapunov_spectrum"],
        "cocycle.iterate_s": inclusive["iterate"],
        "cocycle.lyapunov_ns_per_step": 1e9 * inclusive["lyapunov_spectrum"] / steps if steps else 0.0,
        "cocycle.rank_profile_calls": counts["cocycle.rank_profile_calls"] / n_pass,
        "cocycle.nilpotency_calls": counts["cocycle.nilpotency_calls"] / n_pass,
        "normalform.grids_tried": (counts["normalform.grids"] / counts["normalform.forms"]
                                   if counts["normalform.forms"] else 0.0),
        "trace.overhead_frac": sum(traced_s) / sum(untraced_s) - 1.0,
        "trace.tasks_per_s": len(traced_s) / sum(traced_s),
        "trace.untraced_tasks_per_s": len(untraced_s) / sum(untraced_s),
        "trace.spans": sum(len(t["spans"]) for t in pass_spans),
    })
    detail = {
        "pass_length": pass_len,
        "pass_complete": i >= pass_len,
        "pairs": len(traced_s),
        "loop_s": time.perf_counter() - start,
        "exact_counts": {name: values[name] for name in EXACT_COUNTS},
        "computed_counts": ["matfun.interp_macs"],
        "normal_forms": counts["normalform.forms"],
        "inclusive_s": dict(inclusive),
        "wrapped": [f"{layer}.{qual}" for layer, qual in tr.functions],
        "missing": tr.missing,
        "fail_frac": len(failures) / attempted,
    }
    spans_file = {"functions": tr.functions, "setup": setup_spans, "pass": pass_spans}
    return attempted, failures, _metrics(values, PER_LAYER), detail, spans_file


def _done(cfg, start, n):
    if cfg.get("max_tasks") and n >= cfg["max_tasks"]:
        return True
    return time.perf_counter() - start >= cfg["seconds"]


def _commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(cfg, root):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cocycles").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": cfg["seed"],
        "commit": _commit(root),
        "src_sha256": digest.hexdigest(),
    }


def main(argv):
    cfg = json.loads(argv[0])
    root, work = Path(cfg["root"]), Path(cfg["work"])
    sys.path.insert(0, str(root / "src"))
    workload = workloads.WORKLOADS[cfg["workload"]]
    spans_file = None
    if cfg["trace"]:
        attempted, failures, metrics, detail, spans_file = traced(cfg, workload, root, work)
    else:
        attempted, failures, metrics, detail = untraced(cfg, workload, root, work)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "detail": detail,
        "environment": environment(cfg, root),
    }
    if spans_file is not None:
        Path(cfg["spans_path"]).write_text(json.dumps(spans_file))
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
