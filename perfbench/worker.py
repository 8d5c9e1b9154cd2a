"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 \
        --repeats R --cache DIR --out FILE [--spans FILE]
    python3 perfbench/worker.py --import-only --out FILE

A pass imports the package and runs the workload's set-up jobs through
``graphcode_lt.cli.main``.  It then forks ``--repeats`` copies of itself,
one after the other; each copy runs the timed jobs in the same way, one
after the other (a closed loop with one client), checks their output and
reports.  Every copy starts from the same post-set-up state, so each
repeat does the same work, and the set-up is paid once.  The pass then
checks the set-up jobs and the compiled trees and writes one JSON report
to ``--out``.  ``run.py`` starts one worker per pass, so no in-process
cache or checkpoint survives from one pass to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import graphcode_lt.cli as cli  # noqa: E402

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)  # same clock in run.py

import check  # noqa: E402
import workloads  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a coarse reading of how fast
    the machine runs right now."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


def run_jobs(jobs) -> list[dict]:
    out = []
    for job_id, argv in jobs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)  # looked up at call time, so tracing sees it
        out.append({"id": job_id, "rc": rc, "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue()})
    return out


def check_jobs(records: list[dict], expected: dict) -> tuple[list, list]:
    """(jobs that exited non-zero, jobs with wrong output), each a list
    of (id, reason) pairs."""
    exited, mismatched = [], []
    for rec in records:
        reason = check.check_job(rec["id"], rec["rc"], rec["stdout"], expected)
        if reason is None:
            continue
        if rec["rc"] != 0:
            reason += ": " + rec["stderr"].strip()[-200:]
            exited.append((rec["id"], reason))
        else:
            mismatched.append((rec["id"], reason))
    return exited, mismatched


def check_trees(codes, expected: dict) -> list:
    """Failed tree checks as (id, reason) pairs: conservation and node
    counts of every tree the pass compiled, fetched through the CLI."""
    tree_jobs = [(f"{c}|{k}", ["tree", "--graph", c, "--basis", k])
                 for c in codes for k in workloads.TREE_KINDS]
    broken = []
    for rec in run_jobs(tree_jobs):
        reason = check.check_tree(rec["id"], rec["rc"], rec["stdout"], expected)
        if reason is not None:
            broken.append((rec["id"], reason))
    return broken


def check_search(records: list[dict]) -> list:
    """A search must rank every rooted class, whatever the record says."""
    broken = []
    for rec in records:
        if rec["id"] == workloads.SEARCH_JOB[0] and rec["rc"] == 0:
            ranked = check.parse_output("search", rec["stdout"])["ranked"]
            if len(ranked) != workloads.SEARCH_CLASSES_N7:
                broken.append((rec["id"], f"{len(ranked)} classes scored, "
                               f"want {workloads.SEARCH_CLASSES_N7}"))
    return broken


def timed_phase(timed, tracer, spans: str | None) -> dict:
    """Run and check the timed jobs; meant to run in a forked copy."""
    sample = {"calib_s": calibrate()}
    if tracer:
        tracer.phase = "timed"
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    records = run_jobs(timed)
    sample["wall_s"] = time.perf_counter() - t0
    sample["cpu_s"] = time.process_time() - cpu0
    sample["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        import layertrace
        tracer.uninstall()
        layers = tracer.metrics("timed")
        layers["cli.emit_bytes"] = sum(len(r["stdout"]) for r in records)
        setup_layers = tracer.metrics("setup")
        for name in layertrace.SETUP_METRICS:
            layers["setup." + name] = setup_layers[name]
        sample["layers"] = layers
        if spans:
            tracer.write_spans(spans)

    exited, mismatched = check_jobs(records, check.load_expected())
    sample.update(jobs=len(records), exited=exited, mismatched=mismatched,
                  broken=check_search(records))
    return sample


def in_fork(fn):
    """Call ``fn`` in a forked copy of this process; return its JSON result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            payload = json.dumps(fn()).encode("ascii")
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()  # read before waiting: the pipe is bounded
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"timed phase failed (wait status {status})")
    return json.loads(payload)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--cache")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args()
    report = {"imported": IMPORTED}
    if args.import_only:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(report, fh)
        return 0

    os.environ["GRAPHCODE_LT_CACHE"] = args.cache
    setup, timed, codes = workloads.plan(args.workload, args.seed)
    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
        tracer.phase = "setup"

    t0 = time.perf_counter()
    setup_records = run_jobs(setup)
    report["own_setup_s"] = time.perf_counter() - t0

    report["samples"] = [in_fork(lambda: timed_phase(timed, tracer, args.spans))
                         for _ in range(args.repeats)]

    if tracer:
        tracer.uninstall()
    expected = check.load_expected()
    exited, mismatched = check_jobs(setup_records, expected)
    report.update(jobs=len(setup_records), exited=exited, mismatched=mismatched,
                  broken=check_trees(codes, expected))
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
