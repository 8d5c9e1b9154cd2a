"""Code construction from progenitor graphs.

The hard anchor: generators must literally stabilize the code graph state
(dense state vector check), and measuring the progenitor's input vertex in
X must leave a state stabilized by the generators plus logical X.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from _oracles import (
    PLUS,
    code_graph,
    dense,
    graph_state_vector,
    is_connected,
    project_qubit,
    symplectic_rank,
)
from graphcode_lt import codes
from graphcode_lt.codes import (
    CODES_KEPT,
    GraphCode,
    InvalidCodeError,
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    pentagon_code,
    shor_22_code,
    star_code,
    tree_code,
)
from graphcode_lt.graphs import Graph, local_complement
from graphcode_lt.opsets import stabilizer_group
from graphcode_lt.search import Objective, enumerate_candidates, optimize


def random_connected_progenitor(rng: random.Random, n_vertices: int) -> Graph:
    while True:
        edges = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n_vertices, edges)
        if is_connected(g):
            return g


# -- explicit small codes -----------------------------------------------------


def test_pentagon_code_operators():
    code = pentagon_code()
    assert code.n == 4
    assert code.logical_x.to_string() == "+ZIIZ"
    assert code.logical_z.to_string() == "+XZII"
    gens = sorted(g.to_string() for g in code.stabilizer_generators)
    assert gens == ["+IZXZ", "+XZZX", "+ZXZI"]


def test_star_code_operators():
    code = star_code(4)
    assert code.logical_x.to_string() == "+ZZZZ"
    assert code.logical_z.to_string() == "+XIII"
    gens = sorted(g.to_string() for g in code.stabilizer_generators)
    assert gens == ["+XIIX", "+XIXI", "+XXII"]


def test_branched_chain_code_operators():
    code = branched_chain_code()
    assert code.n == 4
    assert code.logical_x.to_string() == "+ZIZI"
    assert code.logical_z.to_string() == "+XZII"
    gens = sorted(g.to_string() for g in code.stabilizer_generators)
    assert gens == ["+IIZX", "+XZXZ", "+ZXII"]


def test_cube_code_shape():
    code = cube_code()
    assert code.n == 7
    assert len(code.stabilizer_generators) == 6
    assert symplectic_rank(code.stabilizer_generators) == 6


def test_tree_code():
    code = tree_code([2, 2])
    assert code.progenitor.n == 7
    assert code.n == 6
    # root has two children (vertices 1, 2), each with two leaves
    assert code.progenitor.nbr[0].bit_count() == 2
    assert code.logical_x.weight == 2


def test_validation_errors():
    with pytest.raises(InvalidCodeError):
        GraphCode(Graph.from_edges(3, [(1, 2)]), 0)  # isolated input
    with pytest.raises(InvalidCodeError):
        GraphCode(Graph.from_edges(3, [(0, 1), (1, 2)]), 5)


# -- physical anchors ----------------------------------------------------------


def _assert_stabilizes(ops, vec):
    for op in ops:
        assert np.allclose(dense(op) @ vec, vec), op


def test_generators_stabilize_code_graph_state():
    rng = random.Random(31)
    cases = [pentagon_code(), star_code(3), branched_chain_code()]
    cases += [GraphCode(random_connected_progenitor(rng, rng.randint(3, 6)), 0)
              for _ in range(10)]
    for code in cases:
        vec = graph_state_vector(code_graph(code))
        _assert_stabilizes(code.stabilizer_generators, vec)
        # the code graph state is the +1 eigenstate of logical Z as well
        _assert_stabilizes([code.logical_z], vec)


def test_input_x_measurement_yields_logical_plus():
    """Projecting the progenitor graph state's input onto |+> must leave a
    state fixed by every stabilizer generator and by logical X."""
    rng = random.Random(37)
    cases = [pentagon_code(), star_code(3), branched_chain_code()]
    cases += [GraphCode(random_connected_progenitor(rng, rng.randint(3, 6)), 0)
              for _ in range(10)]
    for code in cases:
        full = graph_state_vector(code.progenitor)
        reduced = project_qubit(full, code.progenitor.n, code.input_vertex, PLUS)
        reduced = reduced / np.linalg.norm(reduced)
        _assert_stabilizes(code.stabilizer_generators, reduced)
        _assert_stabilizes([code.logical_x], reduced)


def test_logicals_anticommute_and_y_product():
    for code in [pentagon_code(), star_code(5), cube_code()]:
        assert not code.logical_x.commutes(code.logical_z)
        assert code.logical_y == code.logical_x * code.logical_z
        assert code.logical("X") == code.logical_x
        assert code.logical("Y") == code.logical_y
        assert code.logical("Z") == code.logical_z


def test_lc_variant_is_valid_code():
    code = pentagon_code()
    for v in range(code.progenitor.n):
        variant = GraphCode(local_complement(code.progenitor, v),
                            code.input_vertex)
        assert variant.n == code.n
        assert symplectic_rank(variant.stabilizer_generators) == code.n - 1


def _assert_valid_code(code: GraphCode) -> None:
    """The invariants the construction guarantees (``codes`` docstring)
    and the package does not check: anticommuting logicals, n - 1
    independent generators that commute with each other and with both
    logicals."""
    lx, lz = code.logical_x, code.logical_z
    gens = code.stabilizer_generators
    assert not lx.commutes(lz), code
    assert len(gens) == code.n - 1, code
    for i, g in enumerate(gens):
        assert g.commutes(lx) and g.commutes(lz), (code, g)
        for h in gens[i + 1:]:
            assert g.commutes(h), (code, g, h)
    assert symplectic_rank(gens) == code.n - 1, code


def test_random_progenitors_all_valid():
    rng = random.Random(41)
    for _ in range(40):
        nv = rng.randint(2, 8)
        g = random_connected_progenitor(rng, nv)
        inp = rng.randrange(nv)
        code = GraphCode(g, inp)
        assert code.n == nv - 1
        _assert_valid_code(code)
    for code in (pentagon_code(), star_code(5), cube_code(),
                 branched_chain_code(), decorated_pentagon_code(),
                 shor_22_code(), tree_code([3, 2]), tree_code([2, 3, 1])):
        _assert_valid_code(code)
    # every rooted 7-vertex class, with each vertex as the input
    for rooted in enumerate_candidates(7):
        for inp in range(7):
            _assert_valid_code(GraphCode(rooted.progenitor, inp))


# -- per-code memo ------------------------------------------------------------


def test_memo_returns_the_built_object():
    code = tree_code([2, 3])
    codes.forget(code)
    misses = stabilizer_group.cache_info().misses
    first = stabilizer_group(code)
    assert stabilizer_group(code) is first
    assert stabilizer_group(tree_code([2, 3])) is first
    assert stabilizer_group.cache_info().misses == misses + 1


def test_equal_codes_hash_alike_and_share_one_memo_entry():
    code = tree_code([3, 1])
    twin = tree_code([3, 1])
    assert twin is not code and twin == code
    assert hash(twin) == hash(code)
    codes.forget(code)
    first = stabilizer_group(code)
    assert stabilizer_group(twin) is first
    assert list(codes._MEMO).count(code) == 1


def test_a_memo_hit_hashes_the_code_once(monkeypatch):
    # a hit on the most recent entry is not moved, so it is not hashed a
    # second time; an equal twin, as each CLI job builds, is no different
    probe = codes.per_code(lambda code: object())
    code = tree_code([2, 2])
    first = probe(code)
    calls = []
    original = GraphCode.__hash__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GraphCode, "__hash__", counted)
    for caller in (code, tree_code([2, 2])):
        calls.clear()
        assert probe(caller) is first
        assert len(calls) == 1


def test_memo_keeps_the_most_recent_codes():
    touched = [star_code(k) for k in range(2, 12)]
    for code in touched:
        stabilizer_group(code)
    assert CODES_KEPT == 8
    assert list(codes._MEMO) == touched[-CODES_KEPT:]


def test_search_forgets_each_scored_code():
    cands = list(enumerate_candidates(6))
    optimize(Objective("arbitrary", eta=0.9), cands)
    assert not any(code in codes._MEMO for code in cands)
