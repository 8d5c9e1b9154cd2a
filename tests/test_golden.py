"""Golden digests of the compiled decoders.

The fixture ``golden.json`` pins, byte for byte, what the decoders build:
the tree JSON and success-polynomial string of every Pauli and arbitrary
tree, the exact adaptive-fusion terms, the error-check extension of each
tree, and the transversal-fusion outcome counts (randomized, all-Z and
compiled failure bases, with the compiled bases themselves).  A refactor
of the decoders must leave every digest unchanged.

Regenerate the fixture (only when the decoders' output is meant to
change) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from graphcode_lt.codes import (
    GraphCode,
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    pentagon_code,
    shor_22_code,
    tree_code,
)
from graphcode_lt.errordecode import ErrorAnalysis
from graphcode_lt.fusion import (
    AdaptiveFusionAnalysis,
    _transversal_counts,
    compile_failure_bases,
)
from graphcode_lt.graphs import Graph
from graphcode_lt.losstree import (
    _strategies,
    build_arbitrary_tree,
    build_pauli_tree,
    success_polynomial,
)

from _oracles import adaptive_terms, is_connected, targets_in_pair_order

FIXTURE = os.path.join(os.path.dirname(__file__), "golden.json")


def _random_code(seed: int, n_vertices: int) -> GraphCode:
    rng = random.Random(seed)
    while True:
        edges = [(u, v) for u in range(n_vertices)
                 for v in range(u + 1, n_vertices) if rng.random() < 0.5]
        g = Graph.from_edges(n_vertices, edges)
        if is_connected(g):
            return GraphCode(g, 0)


def _codes() -> dict:
    codes = {
        "pentagon": pentagon_code(),
        "decorated-pentagon": decorated_pentagon_code(),
        "branched-chain": branched_chain_code(),
        "shor22": shor_22_code(),
        "cube": cube_code(),
        "tree:3,2": tree_code([3, 2]),
        "tree:2,2,1": tree_code([2, 2, 1]),
    }
    for seed, size in ((1, 5), (2, 6), (3, 6), (4, 7), (5, 8)):
        codes[f"random:{seed},{size}"] = _random_code(seed, size)
    return codes


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _strategies_text(code: GraphCode) -> str:
    targets = targets_in_pair_order(_strategies(code))
    return repr([(first.to_string(), second.to_string(), output)
                 for (first, second), output in targets])


def _terms_text(terms: dict) -> str:
    return repr({klass: sorted((k, str(v)) for k, v in by_key.items())
                 for klass, by_key in sorted(terms.items())})


def _entries_text(analysis: ErrorAnalysis) -> str:
    rows = []
    for key, leaf, checks, pattern in analysis.entries:
        # each entry is one monomial of multiplicity 1
        row = [[(key, 1)]]
        if leaf is not None:
            row.append(pattern.chars())
            row.append([t.to_string() for t in checks.targets])
            row.append([c.to_string() for c in checks.checks])
        rows.append(row)
    return repr(rows)


def golden_digests() -> dict:
    out = {}
    for name, code in _codes().items():
        trees = {b: build_pauli_tree(code, b) for b in "XYZ"}
        trees["arbitrary"] = build_arbitrary_tree(code)
        for kind, tree in trees.items():
            out[f"{name}|{kind}|tree"] = _sha(tree.to_json())
            out[f"{name}|{kind}|poly"] = _sha(
                success_polynomial(tree).to_string())
            out[f"{name}|{kind}|errors"] = _sha(
                _entries_text(ErrorAnalysis(code, tree)))
        analysis = AdaptiveFusionAnalysis(code)
        for randomize in (False, True):
            out[f"{name}|fusion-{randomize}"] = _sha(
                _terms_text(adaptive_terms(analysis, randomize)))
        compiled = compile_failure_bases(code, 0.5, 0.9)
        out[f"{name}|failure-bases"] = "".join(compiled)
        for label, bases in (("randomized", None), ("all-Z", ("Z",) * code.n),
                             ("compiled", compiled)):
            counts = _transversal_counts(code, bases)
            out[f"{name}|transversal-{label}"] = _sha(
                repr(sorted(counts.items())))
    # one 14-qubit code, past the transversal limit: its strategy pairs,
    # arbitrary tree and the ML-check extension of that tree
    code = tree_code([2, 3, 1])
    tree = build_arbitrary_tree(code)
    out["tree:2,3,1|strategies"] = _sha(_strategies_text(code))
    out["tree:2,3,1|arbitrary|tree"] = _sha(tree.to_json())
    out["tree:2,3,1|arbitrary|errors"] = _sha(
        _entries_text(ErrorAnalysis(code, tree)))
    return out


def test_decoders_match_golden_digests():
    with open(FIXTURE) as fh:
        want = json.load(fh)
    got = golden_digests()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, changed


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(golden_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
