"""Loss decoders: compiled trees, exact polynomials, break-even, Monte Carlo.

Anchors: closed-form star and pentagon polynomials, exact break-even roots,
a full adaptive-strategy minimax as the optimality oracle, and Monte Carlo
as the statistical oracle.
"""

from __future__ import annotations

import math
import random

import pytest

from graphcode_lt import losstree
from graphcode_lt.codes import (
    GraphCode,
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    pentagon_code,
    shor_22_code,
    star_code,
    tree_code,
)
from graphcode_lt.graphs import Graph, path_graph, star_graph
from graphcode_lt.losstree import (
    DecisionTree,
    Leaf,
    build_arbitrary_tree,
    build_pauli_tree,
    _strategies,
    break_even,
    decode,
    load_or_build,
    monte_carlo_decode,
    narrow,
    success_polynomial,
    total_polynomial,
)
from graphcode_lt.graphs import lc_orbit
from graphcode_lt.opsets import enumerate_nontrivial
from graphcode_lt.pauli import commutes_qubitwise, fits
from graphcode_lt.polynomials import LossPolynomial

from _oracles import (
    evaluate_reference,
    optimal_success,
    strategies_reference,
    tree_polynomial_reference,
)
from test_golden import _codes as golden_codes


def random_code(rng: random.Random, n_vertices: int) -> GraphCode:
    while True:
        edges = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n_vertices, edges)
        if g.is_connected():
            return GraphCode(g, 0)


# -- closed-form polynomials -----------------------------------------------------


def test_pentagon_pauli_polynomials():
    code = pentagon_code()
    for basis in "XYZ":
        poly = success_polynomial(build_pauli_tree(code, basis))
        assert poly.to_string() == "2*eta^2 - eta^4"
        assert poly.eta_coefficients() == {2: 2, 4: -1}


def test_pentagon_arbitrary_polynomial():
    poly = success_polynomial(build_arbitrary_tree(pentagon_code()))
    assert poly.to_string() == "4*eta^3 - 3*eta^4"


def test_star_polynomials():
    for n in (2, 3, 4, 5):
        code = star_code(n)
        z = success_polynomial(build_pauli_tree(code, "Z"))
        # logical Z needs any one qubit: ell_bar = ell^n, so
        # eta_bar = 1 - (1 - eta)^n
        assert z.eta_coefficients() == {k: (-1) ** (k + 1) * math.comb(n, k)
                                        for k in range(1, n + 1)}
        for basis in "XY":
            p = success_polynomial(build_pauli_tree(code, basis))
            # logical X (and Y) need every qubit: eta_bar = eta^n
            assert p.eta_coefficients() == {n: 1}


def test_small_code_arbitrary_polynomials():
    path2 = GraphCode(path_graph(2), 0)
    assert success_polynomial(build_arbitrary_tree(path2)).eta_coefficients() == {1: 1}
    leaf_star = GraphCode(star_graph(3), 1)
    assert success_polynomial(build_arbitrary_tree(leaf_star)).eta_coefficients() == {2: 1}


def test_probability_conservation():
    rng = random.Random(17)
    trees = [build_pauli_tree(pentagon_code(), "Z"),
             build_arbitrary_tree(pentagon_code()),
             build_pauli_tree(star_code(5), "X"),
             build_arbitrary_tree(star_code(4))]
    for _ in range(8):
        code = random_code(rng, rng.randint(3, 8))
        trees.append(build_pauli_tree(code, rng.choice("XYZ")))
        trees.append(build_arbitrary_tree(code))
    for tree in trees:
        assert total_polynomial(tree).eta_coefficients() == {0: 1}, tree.kind


def test_monotone_in_eta():
    rng = random.Random(19)
    for _ in range(6):
        code = random_code(rng, rng.randint(3, 7))
        poly = success_polynomial(build_arbitrary_tree(code))
        values = [poly.evaluate(k / 40) for k in range(41)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_evaluate_matches_term_loop_bit_for_bit():
    # the cached per-term exponent sums change no float: every golden
    # success polynomial, on a grid evaluated twice (first call builds)
    grid = [k / 200 for k in range(201)]
    for code in golden_codes().values():
        trees = [build_pauli_tree(code, b) for b in "XYZ"]
        trees.append(build_arbitrary_tree(code))
        for tree in trees:
            poly = success_polynomial(tree)
            want = [evaluate_reference(poly, eta) for eta in grid]
            assert [poly.evaluate(eta) for eta in grid] == want
            assert [poly.evaluate(eta) for eta in grid] == want


def test_polynomial_terms_keep_reference_order():
    # ``evaluate`` sums terms in dict order, so the order fixes its last
    # bits: the terms must come in the bottom-up, detected-first order
    for code in golden_codes().values():
        trees = [build_pauli_tree(code, b) for b in "XYZ"]
        trees.append(build_arbitrary_tree(code))
        for tree in trees:
            success = tree_polynomial_reference(tree.root,
                                                lambda leaf: leaf.success)
            assert list(success_polynomial(tree).terms.items()) == list(
                success.items())
            total = tree_polynomial_reference(tree.root, lambda leaf: True)
            assert list(total_polynomial(tree).terms.items()) == list(
                total.items())


# -- break-even --------------------------------------------------------------------


def test_pentagon_break_even_points():
    pauli = success_polynomial(build_pauli_tree(pentagon_code(), "Z"))
    got = break_even(pauli)
    assert got == pytest.approx((3 - math.sqrt(5)) / 2, abs=2e-6)
    arb = success_polynomial(build_arbitrary_tree(pentagon_code()))
    assert break_even(arb) == pytest.approx((5 - math.sqrt(13)) / 6, abs=2e-6)


def test_break_even_none_for_identity_curve():
    # single-qubit code: eta_bar = eta, the curve is the diagonal
    code = star_code(1)
    poly = success_polynomial(build_pauli_tree(code, "Z"))
    assert poly.eta_coefficients() == {1: 1}
    assert break_even(poly) is None


def test_break_even_none_for_fragile_code():
    # eta_bar = eta^n stays below the diagonal: no interior crossing
    poly = success_polynomial(build_pauli_tree(star_code(4), "X"))
    assert break_even(poly) is None


# -- tree structure invariants --------------------------------------------------------


def _walk_nodes(tree):
    stack = [(tree.root, set())]
    while stack:
        node, seen = stack.pop()
        if isinstance(node, Leaf):
            yield node, seen
            continue
        assert node.qubit not in seen, "qubit repeated on a path"
        nxt = seen | {node.qubit}
        stack.append((node.on_detect, nxt))
        stack.append((node.on_loss, nxt))


def test_paths_never_repeat_qubits_and_leaves_certify():
    rng = random.Random(23)
    codes = [pentagon_code(), star_code(4)]
    codes += [random_code(rng, rng.randint(3, 6)) for _ in range(6)]
    for code in codes:
        for basis in "XZ":
            tree = build_pauli_tree(code, basis)
            ops = enumerate_nontrivial(code, "Logical" + basis)
            for leaf, _ in _walk_nodes(tree):
                if leaf.success:
                    (target,) = leaf.targets
                    assert target in ops
                    assert commutes_qubitwise(target, leaf.pattern, completed=True)
                else:
                    assert not any(commutes_qubitwise(op, leaf.pattern, completed=False)
                                   for op in ops)
        tree = build_arbitrary_tree(code)
        for leaf, _ in _walk_nodes(tree):
            if leaf.success:
                first, second = leaf.targets
                assert not first.commutes(second)
                assert leaf.pattern.mother & (1 << leaf.output)
                bit = ~(1 << leaf.output)
                for op in leaf.targets:
                    masked = type(op)(op.n, op.x & bit, op.z & bit)
                    assert commutes_qubitwise(masked, leaf.pattern, completed=True)


def test_strategies_match_commutation_reference():
    # differing on exactly one shared qubit implies anticommuting, so
    # dropping the commutation test keeps every pair, in order
    library = [pentagon_code(), star_code(3), branched_chain_code(),
               shor_22_code(), decorated_pentagon_code(), cube_code(),
               tree_code([3, 2]), tree_code([2, 2, 1])]
    randoms = [random_code(random.Random(seed), size)
               for seed, size in enumerate((6, 7, 7, 8, 8))]
    for code in library + randoms:
        got = _strategies(code, 14)
        assert [(t.first, t.second, t.output)
                for t in got] == strategies_reference(code, 14)
        assert not any(t.first.commutes(t.second) for t in got)


def test_narrow_keeps_fitting_targets_in_order():
    rng = random.Random(3)
    code = cube_code()
    targets = list(_strategies(code, 14))
    targets += [losstree.Target(op)
                for op in enumerate_nontrivial(code, "LogicalZ")]
    for _ in range(200):
        # each letter of each qubit admitted with probability 3/4
        allowed = rng.getrandbits(4 * code.n) | rng.getrandbits(4 * code.n)
        assert narrow(targets, allowed) == [
            t for t in targets if fits(t.need, allowed)]


def test_decode_walk():
    code = pentagon_code()
    tree = build_pauli_tree(code, "Z")
    all_detected = decode(tree, 0b1111)
    assert all_detected.success
    all_lost = decode(tree, 0)
    assert not all_lost.success
    # exhaustive: walking every mask and weighting by probability matches
    # the polynomial at an arbitrary eta
    eta = 0.73
    total = 0.0
    for mask in range(16):
        leaf = decode(tree, mask)
        if leaf.success:
            k = bin(mask).count("1")
            total += eta ** k * (1 - eta) ** (4 - k)
    assert total == pytest.approx(success_polynomial(tree).evaluate(eta), abs=1e-12)


# -- optimality ------------------------------------------------------------------------


def test_heuristic_matches_exact_optimal_on_reference_codes():
    for eta in (0.35, 0.6, 0.9, 0.99):
        pent = pentagon_code()
        arb = success_polynomial(build_arbitrary_tree(pent)).evaluate(eta)
        assert arb == pytest.approx(optimal_success(pent, eta), abs=1e-12)
        pzl = success_polynomial(build_pauli_tree(pent, "Z")).evaluate(eta)
        assert pzl == pytest.approx(optimal_success(pent, eta, "Z"), abs=1e-12)
        leaf_star = GraphCode(star_graph(3), 1)
        got = success_polynomial(build_arbitrary_tree(leaf_star)).evaluate(eta)
        assert got == pytest.approx(optimal_success(leaf_star, eta), abs=1e-12)


def test_heuristic_never_beats_optimal():
    rng = random.Random(29)
    for _ in range(5):
        code = random_code(rng, rng.randint(3, 6))
        eta = rng.uniform(0.3, 0.99)
        heur = success_polynomial(build_arbitrary_tree(code)).evaluate(eta)
        assert heur <= optimal_success(code, eta) + 1e-12


def test_optimal_guard():
    with pytest.raises(ValueError):
        optimal_success(star_code(7), 0.9)


# -- LC invariance -----------------------------------------------------------------------


def test_arbitrary_polynomial_lc_invariant():
    code = pentagon_code()
    base = success_polynomial(build_arbitrary_tree(code)).eta_coefficients()
    members, truncated = lc_orbit(code.progenitor, n_fixed=1)
    assert not truncated
    for g in members:
        got = success_polynomial(build_arbitrary_tree(GraphCode(g, 0)))
        assert got.eta_coefficients() == base


def test_pauli_average_lc_invariant():
    code = pentagon_code()

    def averaged(c):
        terms = {}
        for basis in "XYZ":
            for key, mult in success_polynomial(build_pauli_tree(c, basis)).terms.items():
                terms[key] = terms.get(key, 0) + mult
        return LossPolynomial(terms).eta_coefficients()

    base = averaged(code)
    members, _ = lc_orbit(code.progenitor, n_fixed=1)
    for g in members:
        assert averaged(GraphCode(g, 0)) == base


# -- Monte Carlo --------------------------------------------------------------------------


def test_monte_carlo_agreement_four_sigma():
    code = pentagon_code()
    tree = build_pauli_tree(code, "Z")
    exact = 2 * 0.8 ** 2 - 0.8 ** 4
    mc = monte_carlo_decode(code, tree, 0.8, trials=10 ** 6, seed=42)
    assert abs(mc.estimate - exact) <= 4 * mc.stderr


def test_monte_carlo_extremes_and_determinism():
    code = pentagon_code()
    tree = build_arbitrary_tree(code)
    assert monte_carlo_decode(code, tree, 1.0, 1000, seed=3).estimate == 1.0
    assert monte_carlo_decode(code, tree, 0.0, 1000, seed=3).estimate == 0.0
    a = monte_carlo_decode(code, tree, 0.77, 20000, seed=9).estimate
    b = monte_carlo_decode(code, tree, 0.77, 20000, seed=9).estimate
    assert a == b
    with pytest.raises(ValueError):
        monte_carlo_decode(code, tree, 0.5, 0)


# -- serialization and cache -----------------------------------------------------------------


def test_tree_json_round_trip():
    code = pentagon_code()
    for tree in [build_pauli_tree(code, "Y"), build_arbitrary_tree(code)]:
        back = DecisionTree.from_json(tree.to_json())
        assert back.kind == tree.kind
        assert back.code == code
        assert (success_polynomial(back).eta_coefficients()
                == success_polynomial(tree).eta_coefficients())
        assert back.stats() == tree.stats()


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAPHCODE_LT_CACHE", str(tmp_path))
    code = pentagon_code()
    first = load_or_build(code, "arbitrary")
    cached = list(tmp_path.glob("tree_*.json"))
    assert len(cached) == 1
    # the entry is written beside the cache and renamed into place whole
    assert DecisionTree.from_json(cached[0].read_text()).stats() == first.stats()
    assert list(tmp_path.iterdir()) == cached
    second = load_or_build(code, "arbitrary")
    assert (success_polynomial(second).eta_coefficients()
            == success_polynomial(first).eta_coefficients())


def test_disk_cache_ignores_entries_of_other_versions(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAPHCODE_LT_CACHE", str(tmp_path))
    code = pentagon_code()
    want = success_polynomial(build_arbitrary_tree(code)).to_string()
    # what a stale entry holds here: another code's tree
    stale = build_pauli_tree(star_code(2), "Z").to_json()
    for name, value in (("__version__", "0.0.0"), ("TREE_FORMAT", 0)):
        with monkeypatch.context() as m:
            m.setattr(losstree, name, value)
            load_or_build(code, "arbitrary")
        entries = set(tmp_path.glob("tree_*.json"))
        for path in entries:
            path.write_text(stale)
        got = load_or_build(code, "arbitrary")
        assert got.code == code
        assert success_polynomial(got).to_string() == want
        (fresh,) = set(tmp_path.glob("tree_*.json")) - entries
        fresh.unlink()
