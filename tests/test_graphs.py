"""Graphs, local complementation, and canonical labeling.

The canonical labeler is validated against an exhaustive lexicographic
minimum and by invariance under random relabelings, orbit closure against
a closure that skips no move, and the LC machinery by reproducing the
known count of LC equivalence classes of small connected graphs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from networkx.readwrite.graph6 import n_to_data

import graphcode_lt
from graphcode_lt.cli import main
from graphcode_lt.graphs import (
    ORBIT_CAP,
    Graph,
    _graph6_size,
    canonical_block,
    canonical_form,
    canonical_key,
    close_orbits,
    graph_state_generators,
    lc_orbit,
    local_complement,
    star_graph,
)
from graphcode_lt.search import _representatives

from _oracles import (
    _naive_orbit,
    breadth_first_orbit,
    close_orbits_reference,
    complete_graph,
    cycle_graph,
    is_connected,
    lexmin_canonical_form,
    orbit_key,
    path_graph,
    relabeled,
)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# -- construction -----------------------------------------------------------


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b01))  # self loop
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))  # out of range
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])


def test_builders():
    assert path_graph(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert cycle_graph(3).edges() == [(0, 1), (0, 2), (1, 2)]
    assert star_graph(4).nbr[0].bit_count() == 3
    assert len(complete_graph(5).edges()) == 10


def test_connectivity():
    assert is_connected(path_graph(5))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph.from_edges(1, []))


def test_graph6_round_trip_against_networkx():
    rng = random.Random(3)
    for n in [*range(21), 62, 63, 64, 70]:
        for p in (0.0, 0.3, 0.7, 1.0):
            g = random_graph(rng, n, p)
            ref = nx.Graph()
            ref.add_nodes_from(range(n))
            ref.add_edges_from(g.edges())
            text = g.to_graph6()
            assert text == nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert Graph.from_graph6(text) == g
            assert Graph.from_graph6(">>graph6<<" + text + "\n") == g
            # the reader against networkx's, also on the longer vertex-count
            # forms, which graph6 allows for any n: '~' and n in three
            # characters, or '~~' and n in six
            forms = [text]
            if n < 63:
                forms += ["~??" + text, "~~?????" + text]
            for form in forms:
                nxg = nx.from_graph6_bytes(form.encode())
                back = Graph.from_graph6(form)
                assert back.n == nxg.number_of_nodes() == n
                assert back.edges() == sorted(tuple(sorted(e)) for e in nxg.edges())
    for n in (0, 62, 63, 258047, 258048, 2**36 - 1):
        assert _graph6_size(n) == n_to_data(n)


@pytest.mark.parametrize("text", [
    "",                     # no vertex count
    "~",                    # a long vertex count cut short
    "~~??",
    ">>graph6<<",
    "DU",                   # 5 vertices need two edge characters
    "DUWW",
    "~??~" + "?" * 325,     # 63 vertices need 326
    "D\x10W",              # characters outside '?'..'~'
    "D\x7fW",
    "DUé",
])
def test_graph6_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        Graph.from_graph6(text)


def test_package_runs_without_networkx(tmp_path, monkeypatch, capsys):
    """The package imports and runs with networkx unimportable, printing
    what it prints in this process."""
    monkeypatch.delenv("GRAPHCODE_LT_CACHE", raising=False)
    cand = tmp_path / "cands.txt"
    cand.write_text("DUW 0\nD?{ 0\n")
    jobs = [["search", "pauli_all_bases", "--graph", "n:5"],
            ["analyze", "--graph", "DUW"],
            ["search", "pauli_all_bases", "--graph", str(cand)]]
    want = ""
    for argv in jobs:
        assert main(argv) == 0
        want += capsys.readouterr().out
    script = ("import json, sys\n"
              "sys.modules['networkx'] = None\n"
              "from graphcode_lt.cli import main\n"
              "sys.exit(any([main(argv) for argv in json.loads(sys.argv[1])]))\n")
    src = os.path.dirname(os.path.dirname(graphcode_lt.__file__))
    env = {k: v for k, v in os.environ.items() if k != "GRAPHCODE_LT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script, json.dumps(jobs)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == want


def test_induced_and_relabeled():
    g = path_graph(5)
    sub = g.induced([1, 2, 3])
    assert sub.edges() == [(0, 1), (1, 2)]
    perm = [4, 3, 2, 1, 0]
    rg = relabeled(g, perm)
    assert rg == relabeled(path_graph(5), perm)
    assert sorted(rg.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]


# -- local complementation ---------------------------------------------------


def _lc_reference(g: Graph, v: int) -> Graph:
    nbrs = g.neighbors(v)
    edges = set(map(tuple, map(sorted, g.edges())))
    for a, b in itertools.combinations(nbrs, 2):
        e = (a, b)
        if e in edges:
            edges.remove(e)
        else:
            edges.add(e)
    return Graph.from_edges(g.n, edges)


def test_local_complement_matches_reference():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        v = rng.randrange(n)
        assert local_complement(g, v) == _lc_reference(g, v)


def test_local_complement_involution():
    rng = random.Random(6)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 8))
        v = rng.randrange(g.n)
        assert local_complement(local_complement(g, v), v) == g


def test_star_complete_equivalence():
    # complementing the center of a star yields the complete graph
    n = 5
    assert local_complement(star_graph(n), 0) == complete_graph(n)


# -- canonical labeling -------------------------------------------------------


def test_canonical_invariant_under_relabeling():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 8)
        n_fixed = rng.randint(0, min(2, n))
        g = random_graph(rng, n)
        perm = list(range(n_fixed)) + rng.sample(range(n_fixed, n), n - n_fixed)
        h = relabeled(g, perm)
        assert canonical_key(g, n_fixed) == canonical_key(h, n_fixed)


def test_canonical_separates_nonisomorphic():
    a = path_graph(4)
    b = star_graph(4)
    assert canonical_key(a) != canonical_key(b)
    # fixing vertex 0 distinguishes center from leaf
    leaf_star = relabeled(star_graph(4), [1, 0, 2, 3])
    assert canonical_key(star_graph(4), 1) != canonical_key(leaf_star, 1)
    assert canonical_key(star_graph(4), 0) == canonical_key(leaf_star, 0)


def test_canonical_form_is_isomorphic_relabeling():
    rng = random.Random(12)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7))
        cf = canonical_form(g, 1)
        assert cf.n == g.n
        assert len(cf.edges()) == len(g.edges())
        assert sorted(cf.nbr[v].bit_count() for v in range(cf.n)) == sorted(
            g.nbr[v].bit_count() for v in range(g.n))
        assert cf.nbr[0].bit_count() == g.nbr[0].bit_count()
        assert canonical_form(cf, 1) == cf


def _k33() -> Graph:
    return Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])


def _symmetric_graphs() -> list[Graph]:
    # twin classes everywhere: stars, cliques, K3,3, a perfect matching,
    # and cycles, whose symmetries swap no twins
    return [star_graph(7), complete_graph(6), _k33(),
            Graph.from_edges(6, [(0, 3), (1, 4), (2, 5)]),
            cycle_graph(6), cycle_graph(7), Graph.from_edges(4, [])]


def test_canonical_form_is_lexicographic_minimum():
    # [DERIVED: the least column string over every order of the free vertices]
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        for n_fixed in range(min(2, n) + 1):
            assert canonical_form(g, n_fixed) == lexmin_canonical_form(g, n_fixed)


def test_canonical_form_is_lexicographic_minimum_with_twins():
    rng = random.Random(32)
    for g in _symmetric_graphs():
        perm = rng.sample(range(g.n), g.n)
        for h in (g, relabeled(g, perm)):
            for n_fixed in range(3):
                assert canonical_form(h, n_fixed) == \
                    lexmin_canonical_form(h, n_fixed)


def test_canonical_placement_relabels_to_form():
    rng = random.Random(34)
    graphs = _symmetric_graphs() + [
        random_graph(rng, rng.randint(1, 8)) for _ in range(30)]
    for g in graphs:
        for n_fixed in range(3):
            _, place = canonical_block([g.nbr], n_fixed)
            position = _position(place[0].tolist())
            cf = canonical_form(g, n_fixed)
            assert position[:n_fixed] == list(range(min(n_fixed, g.n)))
            assert relabeled(g, position) == cf


def _position(place: list[int]) -> list[int]:
    position = [0] * len(place)
    for p, v in enumerate(place):
        position[v] = p
    return position


def _columns(nbr, n_fixed: int) -> list[int]:
    return [row & (1 << p) - 1 for p, row in enumerate(nbr)][n_fixed:]


def test_block_is_lexicographic_minimum_on_every_small_graph():
    # [DERIVED: the least column string over every order of the free
    # vertices, on every connected labeled graph of up to 6 vertices]
    # The oracle runs once per class of relabelings that fix the prefix,
    # and every graph of the class must reach its form.
    for n in range(1, 7):
        graphs = list(_all_connected_graphs(n))
        rows = np.array([g.nbr for g in graphs], dtype=np.int64)
        for n_fixed in range(3):
            forms, place = canonical_block(rows, n_fixed)
            want: dict[Graph, Graph] = {}
            for g, form, order in zip(graphs, forms.tolist(), place.tolist()):
                if g not in want:
                    lexmin = lexmin_canonical_form(g, n_fixed)
                    for perm in itertools.permutations(range(n_fixed, n)):
                        want[relabeled(g, [*range(min(n_fixed, n)), *perm])] = lexmin
                assert Graph(n, tuple(form)) == want[g]
                assert relabeled(g, _position(order)).nbr == tuple(form)


def test_block_form_is_invariant_on_larger_graphs():
    # 9 to 11 vertices, past the exhaustive oracle: relabelings that fix
    # the prefix reach one form, each by its own placement, and the form's
    # column string is at or below every input's own
    rng = random.Random(36)
    for n in (9, 10, 11):
        for n_fixed in range(3):
            graphs = [random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
                      for _ in range(6)] + [cycle_graph(n), star_graph(n)]
            block = [relabeled(g, [*range(n_fixed),
                                   *rng.sample(range(n_fixed, n), n - n_fixed)])
                     for g in graphs for _ in range(4)]
            forms, place = canonical_block(
                np.array([g.nbr for g in block], dtype=np.int64), n_fixed)
            for i, (g, form, order) in enumerate(
                    zip(block, forms.tolist(), place.tolist())):
                assert form == forms[i - i % 4].tolist()
                assert relabeled(g, _position(order)).nbr == tuple(form)
                assert _columns(form, n_fixed) <= _columns(g.nbr, n_fixed)


def test_negative_n_fixed_is_refused():
    g = path_graph(4)
    for call in (canonical_form, canonical_key,
                 lambda g, k: lc_orbit(g, n_fixed=k)):
        with pytest.raises(ValueError, match="n_fixed"):
            call(g, -1)


def test_n_fixed_past_the_vertex_count_pins_every_vertex():
    g = relabeled(path_graph(4), [2, 0, 3, 1])
    # the labeled closure: local complementations, no relabeling
    labeled = [g]
    for h in labeled:
        for v in range(h.n):
            if local_complement(h, v) not in labeled:
                labeled.append(local_complement(h, v))
    for n_fixed in (4, 5):
        assert canonical_form(g, n_fixed) == g
        assert canonical_block([g.nbr], n_fixed)[1][0].tolist() == [0, 1, 2, 3]
        assert lc_orbit(g, n_fixed=n_fixed) == (set(labeled), False)


# -- LC orbits ----------------------------------------------------------------


def test_orbit_matches_naive_closure():
    rng = random.Random(33)
    graphs = _symmetric_graphs() + [
        random_graph(rng, rng.randint(2, 7)) for _ in range(12)]
    for g in graphs:
        for n_fixed in range(3):
            members, truncated = lc_orbit(g, n_fixed=n_fixed)
            assert not truncated
            assert members == _naive_orbit(g, n_fixed)


def test_orbit_cap_keeps_breadth_first_order():
    # every skipped move leads to a member already found, so lc_orbit
    # finds members in the order of a closure that tries every move, and
    # truncation at any cap keeps a prefix of it, the start member
    # counted.  Each cap closes the orbit again, so orbits past 20
    # members take 20 evenly spaced caps, not all of them.
    rng = random.Random(35)
    graphs = _symmetric_graphs() + [
        random_graph(rng, rng.randint(3, 7)) for _ in range(6)]
    for g in graphs:
        for n_fixed in range(3):
            order = breadth_first_orbit(g, n_fixed)
            step = -(-len(order) // 20)
            caps = set(range(1, len(order) + 2, step)) | {len(order) + 1}
            for cap in sorted(caps):
                members, truncated = lc_orbit(g, cap=cap, n_fixed=n_fixed)
                assert members == set(order[:cap])
                assert truncated == (cap <= len(order))



def test_skipped_moves_keep_members_labels_and_roots():
    # close_orbits skips the move back to a member's parent and moves at
    # a vertex with a lower unpinned twin; a closure that makes every move
    # finds the same members in the same order, with the same seed labels
    # and roots, on seed blocks whose orbits meet (a seed and its moves),
    # repeat (a seed twice) and stop at a cap
    rng = random.Random(39)
    for _ in range(12):
        n = rng.randint(3, 7)
        base = [random_graph(rng, n) for _ in range(rng.randint(1, 3))]
        moved = [local_complement(g, rng.randrange(n)) for g in base]
        rows = [g.nbr for g in base + moved + base[:1]]
        rng.shuffle(rows)
        for n_fixed in range(3):
            forms = canonical_block(rows, n_fixed)[0]
            for cap in (ORBIT_CAP, rng.randint(2, 12)):
                got = close_orbits(forms, n_fixed, cap)
                want = close_orbits_reference(forms, n_fixed, cap)
                for a, b in zip(got[:3], want[:3]):
                    assert np.array_equal(a, b)
                assert got[3] == want[3]


def test_rooted_seven_canonicalises_fewer_moves(monkeypatch):
    # the rows close_orbits sends to canonical_block over the rooted
    # 7-vertex enumeration: 29,834 when every move is made
    rows = []

    def counting(block, n_fixed=0):
        rows.append(len(block))
        return canonical_block(block, n_fixed)

    monkeypatch.setattr(graphcode_lt.graphs, "canonical_block", counting)
    assert len(_representatives(7, 1)) == 63
    assert sum(rows) == 22611


def test_orbit_past_one_key_word_matches_naive_closure():
    # past 11 vertices a form's key takes two int64 words
    double_star = Graph.from_edges(12, [(0, 1)] + [(i % 2, i) for i in range(2, 12)])
    for g in (star_graph(12), star_graph(13), double_star):
        for n_fixed in range(3):
            members, truncated = lc_orbit(g, n_fixed=n_fixed)
            assert not truncated
            assert members == _naive_orbit(g, n_fixed)


def _all_connected_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            yield g


def _count_lc_classes(n: int) -> int:
    """Number of LC equivalence classes of connected graphs on n vertices,
    computed by naive orbit closure with no vertex held fixed."""
    seen: set[tuple] = set()
    classes = 0
    for g in _all_connected_graphs(n):
        key = canonical_key(g, 0)
        if key in seen:
            continue
        classes += 1
        members, truncated = lc_orbit(g, n_fixed=0)
        assert not truncated
        for m in members:
            seen.add((m.n, m.nbr))
    return classes


def test_known_lc_class_counts():
    # connected graphs up to joint isomorphism + local complementation
    assert _count_lc_classes(2) == 1
    assert _count_lc_classes(3) == 1
    assert _count_lc_classes(4) == 2
    assert _count_lc_classes(5) == 4


def test_orbit_contains_start_and_respects_fixed_vertex():
    g = path_graph(4)
    members, truncated = lc_orbit(g, n_fixed=1)
    assert not truncated
    assert canonical_form(g, 1) in members
    for m in members:
        assert m.n == 4


def test_orbit_cap_truncates():
    g = cycle_graph(6)
    members, truncated = lc_orbit(g, cap=3, n_fixed=1)
    assert truncated
    assert len(members) == 3
    with pytest.raises(RuntimeError):
        orbit_key(g, cap=3)


def test_orbit_key_lc_and_relabeling_invariant():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(3, 6)
        g = random_graph(rng, n, 0.6)
        base = orbit_key(g)
        v = rng.randrange(n)
        assert orbit_key(local_complement(g, v)) == base
        perm = [0] + rng.sample(range(1, n), n - 1)
        assert orbit_key(relabeled(g, perm)) == base


def test_graph_state_generators_letters():
    gens = graph_state_generators(path_graph(3))
    assert [g.to_string() for g in gens] == ["+XZI", "+ZXZ", "+IZX"]
