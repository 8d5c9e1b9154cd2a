"""Benchmark of graphcode-lt, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (job lists in workloads.py):

* ``compile-cold``  -- analyze / fusion / fbqc / sweep on seven codes with
  an empty cache: tree compilation, ML extension and fusion compiles.
* ``evaluate-warm`` -- set-up compiles four codes; the timed phase runs
  dense evaluation grids over them.
* ``search-n7``     -- ``search fbqc_threshold --graph n:7``: LC-class
  enumeration plus scoring of 63 small codes.

Each pass is a fresh worker process with a fresh, empty
``GRAPHCODE_LT_CACHE`` directory, so no in-process cache, disk cache or
search checkpoint leaks between passes or runs.  Passes repeat until
their timed phases add up to ``--seconds``, with at least one pass.  A
pass of a workload with set-up jobs forks four timed phases from its one
set-up (see worker.py).  ``wall_s`` and ``peak_rss_mb`` are
medians over the timed phases.  ``setup_s`` adds the median
interpreter-and-import time, over the passes and five import-only
processes, to the median of the passes' own set-up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same untraced passes, then one traced pass, and prints the per-layer
metrics of the traced pass; the spans go to ``.perfbench_out/``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
IMPORT_SAMPLES = 5
DEADLINE_S = 170.0  # every run must end within 180 s


def spawn(args: list[str], out: str, deadline: float) -> dict:
    """Run one worker to completion and return its report."""
    # A fixed hash seed; a fixed glibc mmap threshold, so that peak memory
    # does not depend on the allocation history the job order leaves
    # behind; and no BLAS thread pool, since the worker forks.
    env = dict(os.environ, PYTHONHASHSEED="0", MALLOC_MMAP_THRESHOLD_="131072",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("run deadline reached")
    # Its own session, so the worker and the copies it forks can be
    # stopped together.
    with subprocess.Popen([sys.executable, WORKER, "--out", out] + args,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            stop_group(proc)
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{stderr.strip()[-2000:]}")
    with open(out, encoding="ascii") as fh:
        report = json.load(fh)
    report["import_s"] = report["imported"] - t_spawn
    return report


def stop_group(proc: subprocess.Popen) -> None:
    """Kill a worker's process group and wait until all of it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def unit_of(layer_metric: str) -> str:
    if layer_metric.endswith("_s"):
        return "s"
    return "ratio" if layer_metric.endswith("_ratio") else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphcode_lt", "cli.py")):
        print("perfbench: run from the repository root (src/graphcode_lt "
              "not found)", file=sys.stderr)
        return 2
    # On SIGTERM, unwind: spawn() stops the running worker's process
    # group, and the finally clause below removes the scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    setup_jobs, _, _ = workloads.plan(args.workload, args.seed)
    repeats = 4 if setup_jobs else 1
    deadline = time.monotonic() + DEADLINE_S
    tmp = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp)
    try:
        imports = [spawn(["--import-only"], os.path.join(tmp, f"import{i}.json"),
                         deadline)["import_s"] for i in range(IMPORT_SAMPLES)]
        passes = []
        measured = 0.0

        def one_pass(trace: int, repeats: int, spans: str | None = None) -> dict:
            i = len(passes)
            cache = os.path.join(tmp, f"cache{i}")
            os.makedirs(cache)
            argv = ["--workload", args.workload, "--seed", str(args.seed),
                    "--trace", str(trace), "--repeats", str(repeats),
                    "--cache", cache]
            if spans:
                argv += ["--spans", spans]
            report = spawn(argv, os.path.join(tmp, f"pass{i}.json"), deadline)
            shutil.rmtree(cache)
            passes.append(report)
            return report

        while not passes or measured < args.seconds:
            report = one_pass(0, repeats)
            measured += sum(s["wall_s"] for s in report["samples"])
        untraced = [s for p in passes for s in p["samples"]]
        traced = None
        if args.trace:
            out_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            traced = one_pass(1, 1, os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            traced = traced["samples"][0]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    units = passes + [s for p in passes for s in p["samples"]]
    attempted = sum(u["jobs"] for u in units)
    failures = sorted({tuple(f) for u in units
                       for f in u["exited"] + u["mismatched"]})
    failed = sum(len(u["exited"]) + len(u["mismatched"]) for u in units)
    mismatched = any(u["mismatched"] for u in units)
    broken = sorted({tuple(b) for u in units for b in u["broken"]})
    for job_id, reason in failures:
        print(f"failed op: {job_id}: {reason}")
    for job_id, reason in broken:
        print(f"check failed: {job_id}: {reason}")

    wall = statistics.median(s["wall_s"] for s in untraced)
    setup = (statistics.median(imports + [p["import_s"] for p in passes])
             + statistics.median(p["own_setup_s"] for p in passes))
    print(f"{args.workload} seed={args.seed}: {len(passes)} pass(es), "
          f"wall_s {[round(s['wall_s'], 3) for s in untraced]}, "
          f"cpu_s {[round(s['cpu_s'], 3) for s in untraced]}, "
          f"calib_s {[round(s['calib_s'], 4) for s in untraced]}")
    if traced is None:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in untraced),
                            "MB"),
            "ops_ok_frac": (1.0 - failed / attempted, "fraction"),
        }
    else:
        metrics = {name: (value, unit_of(name))
                   for name, value in traced["layers"].items()}
        metrics["harness.cpu_s"] = (traced["cpu_s"], "s")
        metrics["harness.calib_s"] = (traced["calib_s"], "s")
        metrics["harness.trace_overhead_s"] = (traced["wall_s"] - wall, "s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not mismatched and not broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
