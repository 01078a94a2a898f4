"""Benchmark of the cocycles package: one workload per invocation.

Run from the root of a checkout:

    python3 bench/run.py --workload analyze-exact --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json and bench/README.md for why each exists):
analyze-exact, lyapunov-exact, analyze-grid.  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
Every task's answer is checked; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

The workload runs in its own worker process (bench/worker.py) with the BLAS
thread count pinned to one through the environment, so numpy is imported
under that setting.  The program is imported from src/ of this checkout;
without it the benchmark exits with code 2 before running anything.  Work
files go to .bench_work/ and are removed at the end; the full result of
each run (task times, failures, environment, spans of traced runs) is kept
in .bench_out/.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analyze-exact", "lyapunov-exact", "analyze-grid")
# the whole invocation must end within 180 s
TIME_LIMIT_S = 170.0
PINNED = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-tasks", type=int, default=0,
                   help="stop after this many tasks (smoke checks); 0 for no cap")
    return p.parse_args(argv)


def _declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "cocycles" / "__init__.py").is_file():
        print(f"run.py: no cocycles package under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    work.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    cfg = {
        "root": str(ROOT), "work": str(work), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "max_tasks": args.max_tasks, "spans_path": str(outdir / f"{tag}.spans.json"),
    }
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=env, timeout=TIME_LIMIT_S)
        if proc.returncode != 0:
            print(f"run.py: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())
    except subprocess.TimeoutExpired:
        print(f"run.py: worker did not finish within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        # ru_maxrss of the worker, the only child this process waited for (KiB)
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"]["value"] = rss_kib / 1024.0
    declared = _declared(args.trace)
    produced = {name: m["unit"] for name, m in metrics.items()}
    if produced != declared:
        print(f"run.py: metrics {sorted(produced.items())} do not match "
              f"BENCHMARK.json {sorted(declared.items())}", file=sys.stderr)
        return 3

    summary = {
        "correct": result["failed"] == 0 and result["attempted"] >= 1,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    result["wall_s"] = time.monotonic() - started
    (outdir / f"{tag}.json").write_text(json.dumps(result, indent=1))

    env_info = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env_info['python']}  numpy {env_info['numpy']}  "
          f"nproc {env_info['nproc']}  blas threads "
          f"{env_info['blas_threads']['OPENBLAS_NUM_THREADS']}  "
          f"commit {env_info['commit'] or 'n/a'}  src {env_info['src_sha256'][:12]}")
    detail = result["detail"]
    raw = detail.get("raw", {})
    if raw:
        print(f"  times rescaled to the nominal host by the yardstick: x{detail['speed_factor']:.4f}"
              f" (set-up x{detail['setup_speed_factor']:.4f})")
    for name, m in metrics.items():
        note = f"  (measured {_fmt(raw[name])})" if name in raw else ""
        if name == "task_s.tail":
            note += f"  (p{detail['tail_percentile']} of {detail['tasks_timed']} tasks)"
        print(f"  {name:36s} {_fmt(m['value']):>14s} {m['unit']}{note}")
    print(f"  {'fail_frac':36s} {_fmt(detail['fail_frac']):>14s} ratio"
          f"  ({result['failed']} of {result['attempted']} tasks)")
    for f in result["failures"]:
        print(f"  FAILED {f['task']}: {'; '.join(f['reasons'])}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
