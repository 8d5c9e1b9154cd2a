"""Output checks: each job's output against the record made at the seed,
plus invariants that hold whatever the record says.

The record (``expected.json.gz``) maps a job id to its exit code at the
recording commit (``seed_rc``) and its output (``data``) in the form
``parse_output`` gives:

* most commands -- the ``result`` list of a ``--format json`` emission,
  kept as column names plus rows;
* ``search`` -- the ranked ``[graph6, input, score, tie_break,
  polynomial]`` list and the failure lines;
* ``mc-check`` -- the verdict and the exact success probability printed.

It also maps ``"<graph>|<basis>"`` to the node and leaf counts of each
compiled tree.

Strings and integers must match exactly.  Floats must agree within the
engine's own tolerance: the bisection step for thresholds, the
break-even tolerance for break-even points, and 1e-9 for probabilities.
"""

from __future__ import annotations

import gzip
import json
import os
from fractions import Fraction

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json.gz")

PROBABILITY_TOL = 1e-9
# (command, column) -> tolerance; thresholds bisect to tol=1e-4 and
# break_even bisects to tol=1e-6.
COLUMN_TOL = {
    ("fbqc", "loss_threshold"): 1e-4,
    ("analyze", "break_even"): 1e-6,
    ("search", "score"): 1e-4,
    ("search", "tie_break"): 1e-4,
}
MC_EXACT_TOL = 2e-6  # mc-check prints the exact value with 6 decimals


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with gzip.open(path, "rt", encoding="ascii") as fh:
        return json.load(fh)


def parse_output(command: str, text: str):
    """Reduce one job's stdout to the form the record keeps."""
    if command == "mc-check":
        fields = text.split()
        exact = float(fields[1].split("=", 1)[1])
        return {"verdict": fields[0], "exact": exact}
    if command == "search":
        lines = [json.loads(line) for line in text.splitlines()[1:] if line]
        ranked = [[r["graph6"], r["input"], r["score"], r["tie_break"],
                   r["polynomial"]] for r in lines if "error" not in r]
        failures = [[r["graph6"], r["input"], r["error"]]
                    for r in lines if "error" in r]
        return {"ranked": ranked, "failures": failures}
    result = json.loads(text)["result"]
    columns = list(result[0]) if result else []
    return {"columns": columns,
            "rows": [[row[c] for c in columns] for row in result]}


def _same(a, b, tol: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return abs(a - b) <= tol
    return a == b


def compare(command: str, got, want) -> str | None:
    """None when ``got`` matches the record ``want``, else a reason."""
    if command == "mc-check":
        if got["verdict"] != "PASS":
            return f"mc-check verdict {got['verdict']}"
        if abs(got["exact"] - want["exact"]) > MC_EXACT_TOL:
            return f"exact {got['exact']} != {want['exact']}"
        return None
    if command == "search":
        if got["failures"] != want["failures"]:
            return f"search failures {got['failures']!r}"
        if len(got["ranked"]) != len(want["ranked"]):
            return f"{len(got['ranked'])} ranked, want {len(want['ranked'])}"
        cols = ("graph6", "input", "score", "tie_break", "polynomial")
        for i, (g, w) in enumerate(zip(got["ranked"], want["ranked"])):
            for col, a, b in zip(cols, g, w):
                if not _same(a, b, COLUMN_TOL.get((command, col), 0.0)):
                    return f"rank {i} {col}: {a!r} != {b!r}"
        return None
    if got["columns"] != want["columns"]:
        return f"columns {got['columns']} != {want['columns']}"
    if len(got["rows"]) != len(want["rows"]):
        return f"{len(got['rows'])} rows, want {len(want['rows'])}"
    for i, (g, w) in enumerate(zip(got["rows"], want["rows"])):
        for col, a, b in zip(want["columns"], g, w):
            tol = COLUMN_TOL.get((command, col), PROBABILITY_TOL)
            if not _same(a, b, tol):
                return f"row {i} {col}: {a!r} != {b!r}"
    return None


def check_job(job_id: str, rc: int, stdout: str, expected: dict) -> str | None:
    """None for a job that exited 0 with the recorded output."""
    if rc != 0:
        return f"exit {rc}"
    command = job_id.split()[0]
    try:
        got = parse_output(command, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output: {exc!r}"
    return compare(command, got, expected["jobs"][job_id]["data"])


# -- tree invariants ----------------------------------------------------------

# Distinct rational transmissions per basis make the conservation check
# exact and sensitive to a branch weighted with the wrong basis.
_ETA = {"X": Fraction(1, 3), "Y": Fraction(2, 7), "Z": Fraction(3, 5),
        "A": Fraction(5, 11)}


def tree_summary(tree: dict) -> dict:
    """Node and leaf counts of a serialized decision tree, and its total
    leaf probability evaluated exactly (it must be 1)."""
    nodes = leaves = 0
    total = Fraction(0)
    stack = [(tree["root"], Fraction(1))]
    while stack:
        node, weight = stack.pop()
        nodes += 1
        if "leaf" in node:
            leaves += 1
            total += weight
            continue
        eta = _ETA[node["basis"]]
        stack.append((node["detected"], weight * eta))
        stack.append((node["lost"], weight * (1 - eta)))
    return {"nodes": nodes, "leaves": leaves, "total": total}


def check_tree(key: str, rc: int, stdout: str, expected: dict) -> str | None:
    if rc != 0:
        return f"tree {key}: exit {rc}"
    try:
        summary = tree_summary(json.loads(stdout)["result"])
    except (ValueError, KeyError) as exc:
        return f"tree {key}: unreadable tree: {exc!r}"
    if summary["total"] != 1:
        return f"tree {key}: leaf probabilities sum to {summary['total']}"
    want = expected["trees"][key]
    if (summary["nodes"], summary["leaves"]) != (want["nodes"], want["leaves"]):
        return (f"tree {key}: {summary['nodes']} nodes / {summary['leaves']} "
                f"leaves, want {want['nodes']} / {want['leaves']}")
    return None
