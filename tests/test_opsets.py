"""Operator sets: stabilizer groups, non-trivial logicals, filters, SPC.

The non-triviality filter is checked against an independent letter-by-letter
implementation of its definition, and the group/filter properties against
exhaustive scans over basis assignments.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from _oracles import (
    code_graph,
    dense,
    graph_state_vector,
    is_connected,
    nontrivial_reference,
    path_graph,
    pattern_from_chars,
)
from graphcode_lt import opsets
from graphcode_lt.codes import GraphCode, forget, pentagon_code, star_code, tree_code
from graphcode_lt.graphs import Graph
from graphcode_lt.opsets import (
    CHUNK_BYTES,
    ResourceLimitError,
    _nontrivial,
    enumerate_nontrivial,
    stabilizer_group,
)
from graphcode_lt.pauli import (
    MeasurementPattern,
    PauliOperator,
    commutes_qubitwise,
    iter_bits,
)


def filter_compatible(ops, m: MeasurementPattern, completed: bool = True):
    """Members of ``ops`` measurable letter by letter under ``m``."""
    return [op for op in ops if commutes_qubitwise(op, m, completed)]


def random_code(rng: random.Random, n_vertices: int) -> GraphCode:
    while True:
        edges = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n_vertices, edges)
        if is_connected(g):
            return GraphCode(g, 0)


# -- stabilizer group -----------------------------------------------------------


def test_group_size_and_closure():
    for code in [pentagon_code(), star_code(4)]:
        group = stabilizer_group(code)
        assert len(group) == 1 << (code.n - 1)
        assert PauliOperator(code.n) in group
        keys = {(s.x, s.z) for s in group}
        assert len(keys) == len(group)
        rng = random.Random(2)
        for _ in range(50):
            a, b = rng.choice(group), rng.choice(group)
            assert (a * b) in group  # exact phases included


def test_group_stabilizes_graph_state_with_phases():
    code = pentagon_code()
    vec = graph_state_vector(code_graph(code))
    for s in stabilizer_group(code):
        assert np.allclose(dense(s) @ vec, vec), s


def test_group_commutes_with_logicals():
    rng = random.Random(5)
    for _ in range(5):
        code = random_code(rng, rng.randint(3, 6))
        for s in stabilizer_group(code):
            assert s.commutes(code.logical_x)
            assert s.commutes(code.logical_z)


# -- non-trivial enumeration ------------------------------------------------------


def _nontrivial_reference(op: PauliOperator, group) -> bool:
    """Literal reading: no non-identity stabilizer may agree with op letter
    for letter across the stabilizer's whole support."""
    for s in group:
        if s.weight == 0:
            continue
        if all(op.letter_at(q) == s.letter_at(q)
               for q in range(op.n) if s.letter_at(q) != "I"):
            return False
    return True


def test_nontrivial_filter_matches_reference():
    rng = random.Random(7)
    for _ in range(6):
        code = random_code(rng, rng.randint(3, 6))
        group = stabilizer_group(code)
        for which in "XYZ":
            rep = code.logical(which)
            want = {op for op in (rep * s for s in group)
                    if _nontrivial_reference(op, group)}
            got = enumerate_nontrivial(code, "Logical" + which)
            assert set(got) == want
    # a logical class longer than one chunk, against the mask test run one
    # operator and one stabilizer at a time; order is kept
    code = tree_code([2, 2, 1])
    group = stabilizer_group(code)
    stabilizer_masks = np.array([s.masks for s in group if s.x | s.z],
                                dtype=np.uint64)
    for which in "XYZ":
        members = [code.logical(which) * s for s in group]
        assert len(members) > CHUNK_BYTES // (8 * len(stabilizer_masks))
        want = nontrivial_reference(members, group)
        assert _nontrivial(members, stabilizer_masks) == want
        assert enumerate_nontrivial(code, "Logical" + which) == tuple(
            sorted(want, key=lambda o: (o.weight, o.x, o.z)))


def test_star_logical_z_is_single_x_ops():
    for n in (3, 4, 5):
        ops = enumerate_nontrivial(star_code(n), "LogicalZ")
        assert sorted(op.to_string() for op in ops) == sorted(
            PauliOperator(n, 1 << i).to_string() for i in range(n))


def test_two_vertex_path_logical_x():
    code = GraphCode(path_graph(2), 0)
    ops = enumerate_nontrivial(code, "LogicalX")
    assert [op.to_string() for op in ops] == ["+Z"]


def test_pentagon_all_logical_cardinality():
    # brute force: 8 stabilizer products per class, three classes, then the
    # reference non-triviality filter
    code = pentagon_code()
    group = stabilizer_group(code)
    expect = set()
    for which in "XYZ":
        for s in group:
            op = code.logical(which) * s
            if _nontrivial_reference(op, group):
                expect.add((op.x, op.z))
    got = enumerate_nontrivial(code, "AllLogical")
    assert {(op.x, op.z) for op in got} == expect
    assert len(got) == 24
    for which in "XYZ":
        assert len(enumerate_nontrivial(code, "Logical" + which)) == 8


def test_exhaustive_limit_guard(monkeypatch):
    with pytest.raises(ResourceLimitError):
        enumerate_nontrivial(star_code(15), "LogicalZ")
    code = star_code(5)
    forget(code)  # a memoised result would answer before the guard
    monkeypatch.setattr(opsets, "EXHAUSTIVE_LIMIT", 4)
    with pytest.raises(ResourceLimitError):
        enumerate_nontrivial(code, "LogicalZ")
    # a limit of five allows the run
    monkeypatch.setattr(opsets, "EXHAUSTIVE_LIMIT", 5)
    ops = enumerate_nontrivial(code, "LogicalZ")
    assert len(ops) == 5


def test_enumeration_deterministic_order():
    code = pentagon_code()
    ops = enumerate_nontrivial(code, "AllLogical")
    assert isinstance(ops, tuple)
    keys = [(op.weight, op.x, op.z) for op in ops]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    with pytest.raises(ValueError):
        enumerate_nontrivial(code, "Stabilizers")


# -- filtering ---------------------------------------------------------------------


def test_filter_star_logical_z_modes():
    code = star_code(3)
    ops = enumerate_nontrivial(code, "LogicalZ")
    m = pattern_from_chars("_X.")
    prospective = filter_compatible(ops, m, completed=False)
    assert sorted(op.to_string() for op in prospective) == ["+IIX", "+IXI"]
    completed = filter_compatible(ops, m, completed=True)
    assert [op.to_string() for op in completed] == ["+IXI"]


def test_filter_all_lost_keeps_identity_only():
    code = pentagon_code()
    m = pattern_from_chars("____")
    stab = filter_compatible(stabilizer_group(code), m)
    assert [op.weight for op in stab] == [0]
    logical = filter_compatible(enumerate_nontrivial(code, "AllLogical"), m)
    assert len(logical) == 0


def test_filter_group_closure_exhaustive():
    """Surviving stabilizers form a group for every basis/lost assignment."""
    for code in [pentagon_code(), star_code(4)]:
        full = stabilizer_group(code)
        for assignment in itertools.product("XYZ_", repeat=code.n):
            m = pattern_from_chars("".join(assignment))
            kept = filter_compatible(full, m)
            assert any(op.weight == 0 for op in kept)
            for a in kept:
                for b in kept:
                    prod = a * b
                    assert any((prod.x, prod.z) == (c.x, c.z) for c in kept)


def test_filter_monotone_under_loss():
    rng = random.Random(11)
    code = pentagon_code()
    ops = enumerate_nontrivial(code, "AllLogical")
    for _ in range(40):
        chars = "".join(rng.choice("XYZ._") for _ in range(code.n))
        m = pattern_from_chars(chars)
        base = set(filter_compatible(ops, m, completed=False))
        unmeasured = [q for q in range(code.n) if chars[q] == "."]
        if not unmeasured:
            continue
        q = rng.choice(unmeasured)
        worse = set(filter_compatible(ops, m.lose(q), completed=False))
        assert worse <= base


def test_filtered_logicals_identity_on_lost():
    rng = random.Random(13)
    code = pentagon_code()
    ops = enumerate_nontrivial(code, "AllLogical")
    for _ in range(40):
        chars = "".join(rng.choice("XYZ._") for _ in range(code.n))
        m = pattern_from_chars(chars)
        for op in filter_compatible(ops, m, completed=False):
            assert all(m.status(q) != "lost" for q in iter_bits(op.support))


# -- SPC ---------------------------------------------------------------------------


def test_spc_on_pentagon_teleport_pattern():
    """Walking the arbitrary decoder's all-detected path and releasing the
    output qubit leaves a pattern that still certifies an anticommuting pair."""
    from graphcode_lt.losstree import build_arbitrary_tree, decode

    code = pentagon_code()
    tree = build_arbitrary_tree(code)
    leaf = decode(tree, (1 << code.n) - 1)
    assert leaf.success
    chars = leaf.pattern.chars().replace("A", ".")
    released = pattern_from_chars(chars)
    survivors = filter_compatible(enumerate_nontrivial(code, "AllLogical"),
                                  released, completed=False)
    assert any(not a.commutes(b)
               for a, b in itertools.combinations(survivors, 2))
