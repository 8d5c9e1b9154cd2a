"""Write ``expected.json.gz``: every job's output at the recorded commit.

    python3 perfbench/record.py

Run from the repository root, on the commit whose outputs are the
reference.  Jobs that fail there (``workloads.KNOWN_FAILING``) get their
rows from an exact ``Fraction`` evaluation of the unit polynomials
instead, so a fix is checked against the exact values and not against
the failure.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from graphcode_lt import cli  # noqa: E402
from graphcode_lt.modular import LayerStack, unit_F  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from worker import run_jobs  # noqa: E402

BASES = "XYZA"


def _apply(terms: dict, r: dict) -> Fraction:
    total = Fraction(0)
    for (a, b), mult in terms.items():
        v = Fraction(mult)
        for i, m in enumerate(BASES):
            if a[i]:
                v *= r[m] ** a[i]
            if b[i]:
                v *= (1 - r[m]) ** b[i]
        total += v
    return total


def exact_concat(graph: str, depth: int, grid: str) -> dict:
    """Rows of ``concat --mode concatenated`` evaluated in exact arithmetic."""
    code = cli.resolve_code(graph, 0)
    terms = {b: unit_F(code, b).terms for b in BASES}
    rows = []
    for eta in cli.parse_grid(grid, "--eta-grid"):
        r = {b: Fraction(str(eta)) for b in BASES}  # the decimal grid point
        for _ in range(depth):
            r = {b: _apply(terms[b], r) for b in BASES}
        qubits = LayerStack([code] * depth, "concatenated", eta).qubit_count
        rows.append(dict(zip(("x", "y", "z", "arbitrary"),
                             (float(r[b]) for b in BASES)),
                         eta=eta, qubits=qubits))
    # the same form parse_output gives for a --format json emission
    return check.parse_output("concat", json.dumps(
        {"result": rows}, sort_keys=True))


def _rounded(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def run(argv) -> tuple[int, str]:
    rec = run_jobs([("", argv)])[0]
    return rec["rc"], rec["stdout"]


def main() -> int:
    cache = os.path.join(os.getcwd(), ".perfbench_tmp", f"record-{os.getpid()}")
    os.makedirs(cache)
    os.environ["GRAPHCODE_LT_CACHE"] = cache
    try:
        record = build_record()
    finally:
        shutil.rmtree(cache)
    with gzip.GzipFile(check.EXPECTED_PATH, "wb", mtime=0) as raw:
        # 12 significant digits, as the CSV emission prints, is far inside
        # every tolerance and keeps the record small.
        raw.write(json.dumps(_rounded(record), sort_keys=True).encode("ascii"))
    return 0


def build_record() -> dict:
    jobs = {}
    for name in workloads.WORKLOADS:
        setup, timed, _ = workloads.plan(name, 0)
        for job_id, argv in setup + timed:
            jobs[job_id] = argv
    record = {"jobs": {}, "trees": {}}
    for job_id, argv in sorted(jobs.items()):
        rc, out = run(argv)
        exact = None
        if argv[0] == "concat" and "concatenated" in argv:
            exact = exact_concat(argv[2], int(argv[argv.index("--depth") + 1]),
                                 argv[argv.index("--eta-grid") + 1])
        entry = {"seed_rc": rc, "data": exact}
        if job_id in workloads.KNOWN_FAILING:
            if rc == 0:
                sys.exit(f"{job_id} no longer fails; drop it from KNOWN_FAILING")
        else:
            if rc != 0:
                sys.exit(f"{job_id} exited {rc}")
            entry["data"] = check.parse_output(argv[0], out)
            if exact is not None:
                reason = check.compare("concat", entry["data"], exact)
                if reason is not None:
                    sys.exit(f"{job_id}: exact check: {reason}")
        record["jobs"][job_id] = entry
        print(f"recorded {job_id} (exit {rc})", file=sys.stderr)
    for graph in sorted(set(workloads.COMPILE_CODES) | set(workloads.WARM_CODES)):
        for kind in workloads.TREE_KINDS:
            rc, out = run(["tree", "--graph", graph, "--basis", kind])
            summary = check.tree_summary(json.loads(out)["result"])
            if rc != 0 or summary["total"] != 1:
                sys.exit(f"tree {graph} {kind}: exit {rc}, total {summary['total']}")
            record["trees"][f"{graph}|{kind}"] = {
                "nodes": summary["nodes"], "leaves": summary["leaves"]}
    return record


if __name__ == "__main__":
    sys.exit(main())
