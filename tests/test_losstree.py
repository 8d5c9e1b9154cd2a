"""Loss decoders: compiled trees, exact polynomials, break-even, Monte Carlo.

Anchors: closed-form star and pentagon polynomials, exact break-even roots,
a full adaptive-strategy minimax as the optimality oracle, and Monte Carlo
as the statistical oracle.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
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
from graphcode_lt.graphs import Graph, star_graph
from graphcode_lt.losstree import (
    SMALL,
    Leaf,
    TargetSet,
    build_arbitrary_tree,
    build_pauli_tree,
    _strategies,
    decode,
    load_or_build,
    monte_carlo_decode,
    success_polynomial,
    total_polynomial,
)
from graphcode_lt.graphs import lc_orbit
from graphcode_lt.opsets import enumerate_nontrivial
from graphcode_lt.pauli import (
    MeasurementPattern,
    PauliOperator,
    commutes_qubitwise,
    fits,
)
from graphcode_lt.polynomials import LossPolynomial, _rise_point, break_even

from _oracles import (
    evaluate_reference,
    is_connected,
    monte_carlo_successes_reference,
    optimal_success,
    path_graph,
    strategies_reference,
    tree_polynomial_reference,
)
from test_golden import _codes as golden_codes


def random_code(rng: random.Random, n_vertices: int) -> GraphCode:
    while True:
        edges = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n_vertices, edges)
        if is_connected(g):
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
    # the numpy kernel gives the floats of a plain-Python loop over the
    # Bernstein counts in its arithmetic: every golden success polynomial,
    # on a grid evaluated twice
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
    # ``evaluate_heterogeneous`` sums terms in dict order, so the order
    # fixes its last bits: the terms must come in the bottom-up,
    # detected-first order
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


def test_break_even_closed_forms():
    # roots isolated and refined exactly match their closed forms to 1e-9
    cases = [
        (build_pauli_tree(pentagon_code(), "Z"), (3 - math.sqrt(5)) / 2),
        (build_arbitrary_tree(pentagon_code()), (5 - math.sqrt(13)) / 6),
        (build_pauli_tree(branched_chain_code(), "X"), (math.sqrt(5) - 1) / 2),
    ]
    for tree, root in cases:
        assert break_even(success_polynomial(tree)) == pytest.approx(root, abs=1e-9)


def _loss_curve(*factors) -> LossPolynomial:
    """The success polynomial whose loss map has g(ell) = ell_bar(ell) - ell
    equal to the product of ``factors`` (integer coefficients in ell,
    lowest degree first): P(eta) = 1 - ell - g(ell) at ell = 1 - eta, each
    power ell^j written as the term (1 - eta)^j."""
    g = [1]
    for f in factors:
        prod = [0] * (len(g) + len(f) - 1)
        for i, a in enumerate(g):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        g = prod
    powers = {0: 1, 1: -1}
    for j, c in enumerate(g):
        powers[j] = powers.get(j, 0) - c
    return LossPolynomial({((0, 0, 0, 0), (j, 0, 0, 0)): c
                           for j, c in powers.items()})


def test_break_even_finds_crossings_a_grid_misses():
    ends = ([0, 1], [1, -1])  # the roots at ell = 0 and 1
    # two crossings inside the 1/2000 cell (0.7, 0.7005)
    poly = _loss_curve(*ends, [-70010, 100000], [-70030, 100000])
    assert break_even(poly) == pytest.approx(0.7003, abs=1e-12)
    # one crossing in (0.9995, 1), above a lower one at 1/2
    poly = _loss_curve(*ends, [-1, 2], [-9998, 10000])
    assert break_even(poly) == pytest.approx(0.9998, abs=1e-12)


def test_break_even_ignores_tangent_points():
    # g = ell (1 - ell) (2 ell - 1)^2 touches zero at 1/2 without changing
    # sign, so the curve meets the diagonal there but never crosses it
    poly = _loss_curve([0, 1], [1, -1], [-1, 2], [-1, 2])
    assert poly.evaluate(0.5) == 0.5
    assert break_even(poly) is None
    # a crossing of odd multiplicity three still counts
    poly = _loss_curve([0, 1], [1, -1], [-1, 2], [-1, 2], [-1, 2])
    assert break_even(poly) == 0.5


def test_break_even_is_largest_odd_multiplicity_root():
    # g = ell (1 - ell) times factors with known rational roots, each of
    # multiplicity 1-3, some outside (0, 1), at times a quadratic with no
    # real root and a sign flip
    rng = random.Random(21)
    for _ in range(60):
        factors, mults = [[0, 1], [1, -1]], {}
        for _ in range(rng.randint(1, 4)):
            den = rng.randint(1, 40)
            num = rng.randint(-10, 50)
            mult = rng.randint(1, 3)
            factors += [[-num, den]] * mult
            root = Fraction(num, den)
            mults[root] = mults.get(root, 0) + mult
        crossings = [r for r, m in mults.items() if 0 < r < 1 and m % 2]
        if rng.random() < 0.3:
            factors.append([1, 0, 1])
        if rng.random() < 0.5:
            factors.append([-1])
        got = break_even(_loss_curve(*factors))
        if crossings:
            assert got == pytest.approx(float(max(crossings)), abs=1e-12)
        else:
            assert got is None


def test_rise_point_is_last_root_of_any_multiplicity():
    # with ell = 1 - v the map's gap is P(v) - v = -g(ell): the map climbs
    # from above the least root of g in (0, 1) when g < 0 just above 0,
    # and a root where g only touches zero still counts as not above
    poly = _loss_curve([0, 1], [1, -1], [-1, 2], [-1, 2], [-1])
    assert _rise_point(poly) == 0.5
    assert _rise_point(_loss_curve([0, 1], [1, -1], [-1, 2], [-1, 2])) == 1.0
    assert _rise_point(_loss_curve([0])) is None
    rng = random.Random(22)
    for _ in range(60):
        factors, roots = [[0, 1], [1, -1]], set()
        for _ in range(rng.randint(1, 4)):
            den, num = rng.randint(1, 40), rng.randint(-10, 50)
            factors += [[-num, den]] * rng.randint(1, 3)
            roots.add(Fraction(num, den))
        if rng.random() < 0.3:
            factors.append([1, 0, 1])
        if rng.random() < 0.5:
            factors.append([-1])
        poly = _loss_curve(*factors)
        inside = [r for r in roots if 0 < r < 1]
        # g's lowest-order nonzero coefficient: the product of the factors'
        lowest = math.prod(next(c for c in f if c) for f in factors)
        want = 1.0 if lowest > 0 else 1 - float(min(inside, default=1))
        assert _rise_point(poly) == pytest.approx(want, abs=1e-12)


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
                assert leaf.pattern.status(leaf.output) == "A"
                bit = ~(1 << leaf.output)
                for op in leaf.targets:
                    masked = type(op)(op.n, op.x & bit, op.z & bit)
                    assert commutes_qubitwise(masked, leaf.pattern, completed=True)


def triples(ts) -> list[tuple]:
    """(first, second, output) of every target, rebuilt from the index
    arrays and the operator tuple."""
    return [(ts.ops[i], ts.ops[j], o) for i, j, o in
            zip(*ts.pair.T.tolist(), ts.output.tolist())]


def need_reference(first, second, output) -> int:
    """A target's joint letter mask, from the operators' own masks."""
    need = first.masks | second.masks
    n, bit = first.n, 1 << output
    return need & ~(bit | bit << n | bit << 2 * n) | bit << 3 * n


def test_strategies_match_commutation_reference():
    # differing on exactly one shared qubit implies anticommuting, so
    # dropping the commutation test keeps every pair, in order
    library = [pentagon_code(), star_code(3), branched_chain_code(),
               shor_22_code(), decorated_pentagon_code(), cube_code(),
               tree_code([3, 2]), tree_code([2, 2, 1])]
    randoms = [random_code(random.Random(seed), size)
               for seed, size in enumerate((6, 7, 7, 8, 8))]
    for code in library + randoms:
        got = _strategies(code)
        want = strategies_reference(code)
        assert len(got) == len(want)
        assert triples(got) == want
        assert [(*ops, output) for ops, output in got] == want
        assert got.ops == enumerate_nontrivial(code, "AllLogical")
        assert got.need.tolist() == [need_reference(*t) for t in want]
        assert not any(a.commutes(b) for a, b, _ in want)


def test_blocked_pairing_crosses_block_edges(monkeypatch):
    # a budget of a few rows a block, and one below a single row (cut
    # into pieces of columns), must still find every pair in (i, j) order
    for code in (cube_code(), tree_code([3, 2])):
        want = strategies_reference(code)
        count = len(enumerate_nontrivial(code, "AllLogical"))
        for budget in (3 * count, 40):
            monkeypatch.setattr(losstree, "KERNEL_FLOATS", budget)
            got = _strategies.__wrapped__(code)
            assert triples(got) == want, (code, budget)


def test_pairing_memory_does_not_grow_with_operators_squared():
    # tree[3,3] has 1,752 operators: a pass over all pairs at once would
    # hold 24.5 MB a temporary; blocks hold KERNEL_FLOATS entries, so the
    # peak is a few of them plus the pairs found (in arrays whose room
    # doubles as they fill)
    code = tree_code([3, 3])
    x, z = losstree._xz(enumerate_nontrivial(code, "AllLogical"))
    assert len(x) ** 2 > 40 * losstree.KERNEL_FLOATS
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs = losstree._anticommuting_pairs(x, z)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    found = sum(a.nbytes for a in pairs)
    assert len(pairs[0]) == 82944
    assert peak <= 8 * 8 * losstree.KERNEL_FLOATS + 2 * found


def test_targets_take_seventeen_bytes_and_no_object_each():
    # int32 operator pairs, an int8 output and the uint64 mask; building
    # the set keeps the mask and per-operator lists, nothing per target
    code = tree_code([3, 2])
    ops = enumerate_nontrivial(code, "AllLogical")
    x, z = losstree._xz(ops)
    pairs = losstree._anticommuting_pairs(x, z)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ts = TargetSet(code.n, x, z, pairs, ops)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ts) > 20 * len(ops)
    singles = TargetSet(code.n, x, z)
    for targets in (ts, singles):
        assert targets.pair.dtype == np.int32
        assert targets.pair.shape == (len(targets), 2)
        assert targets.output.dtype == np.int8
        assert targets.need.dtype == np.uint64
        stored = targets.pair.nbytes + targets.output.nbytes + targets.need.nbytes
        assert stored <= 17 * len(targets)
        assert targets.need_view.obj is targets.need
    assert (singles.output == -1).all()
    assert kept <= ts.need.nbytes + 200 * len(ops)


def test_blocked_targets_match_one_block(monkeypatch):
    # pairing, masks, narrow, toward and attempt in pieces of a few
    # targets give what one block gives, across the pieces' edges, for
    # intp and int32 states and for short lists
    rng = random.Random(39)
    code = cube_code()
    n = code.n
    ops = enumerate_nontrivial(code, "AllLogical")
    x, z = losstree._xz(ops)
    monkeypatch.setattr(losstree, "KERNEL_FLOATS", 1 << 30)
    whole = TargetSet(n, x, z, losstree._anticommuting_pairs(x, z), ops)
    states = [list(range(len(whole)))]
    states += [sorted(rng.sample(range(len(whole)), size))
               for size in (1, SMALL - 1, SMALL, SMALL + 1, 3 * SMALL, 200)]
    letters = [random_allowed(rng, n) for _ in range(12)]
    letters.append((1 << 4 * n) - 1)
    patterns = [MeasurementPattern(n)]
    patterns += [random_pattern(rng, n) for _ in range(6)]
    q = rng.randrange(n)
    ranks = (None, losstree._rank(x, z, n, ~(1 << q)))

    def answers(ts, given):
        """Every query's answer on ``given``, each filter's result
        checked by ``check_kept``."""
        kept = [check_kept(ts.narrow(given, a), given) for a in letters]
        kept += [check_kept(ts.toward(given, o), given) for o in range(-1, n)]
        return kept, [ts.attempt(given, p, r) for p in patterns for r in ranks]

    want = [answers(whole, np.array(state, np.intp)) for state in states]
    for budget in (1, 5, SMALL, 97):
        monkeypatch.setattr(losstree, "KERNEL_FLOATS", budget)
        ts = TargetSet(n, x, z, losstree._anticommuting_pairs(x, z), ops)
        for name in ("pair", "output", "need"):
            got, one = getattr(ts, name), getattr(whole, name)
            assert got.dtype == one.dtype and np.array_equal(got, one), name
        for state, answer in zip(states, want):
            given = [np.array(state, np.intp), np.array(state, np.int32)]
            for g in given + ([state] if len(state) < SMALL else []):
                assert answers(ts, g) == answer, (budget, len(state))


def check_kept(got, given) -> list:
    """A filter's result as a list, once checked for its type: a list of
    ints below ``SMALL`` targets, else an array of ``given``'s dtype, and
    ``given`` itself when the filter dropped none of it."""
    if len(got) < SMALL:
        assert type(got) is list and all(type(t) is int for t in got)
    else:
        assert got.dtype == given.dtype
        assert (got is given) == (len(got) == len(given))
    return list(got)


def random_allowed(rng: random.Random, n: int) -> int:
    # each letter of each qubit admitted with probability 3/4
    return rng.getrandbits(4 * n) | rng.getrandbits(4 * n)


def random_pattern(rng: random.Random, n: int) -> MeasurementPattern:
    # some qubits measured in a Pauli basis, some lost
    pattern = MeasurementPattern(n)
    for q in rng.sample(range(n), rng.randint(0, n)):
        pattern = (pattern.lose(q) if rng.random() < 0.3
                   else pattern.measure(q, rng.choice("XYZ")))
    return pattern


def check_narrow(ts, idx, allowed) -> int:
    """Check ``narrow`` against ``fits`` one target at a time, given
    ``idx`` as an array and, when short, as a list; returns how many
    targets ``narrow`` dropped."""
    need = ts.need.tolist()
    want = [t for t in idx if fits(need[t], allowed)]
    given = np.array(idx, dtype=np.intp)
    for g in [given] + ([list(idx)] if len(idx) < SMALL else []):
        assert check_kept(ts.narrow(g, allowed), given) == want
    return len(idx) - len(want)


def test_narrow_keeps_fitting_targets_in_order():
    # both sides of the size cut, on pairs and on single operators
    rng = random.Random(3)
    code = cube_code()
    ops = enumerate_nontrivial(code, "LogicalZ")
    singles = TargetSet(code.n, *losstree._xz(ops), ops=ops)
    assert singles.need.tolist() == [op.masks for op in ops]
    for ts in (_strategies(code), singles):
        assert len(ts) > SMALL
        for size in (0, 1, SMALL - 1, SMALL, len(ts)):
            for _ in range(40):
                idx = rng.sample(range(len(ts)), size)
                check_narrow(ts, idx, random_allowed(rng, code.n))


def test_narrow_on_fourteen_qubits_denies_top_letters():
    # tree[2,3,1] has 14 qubits, so its A letters reach bit 55; deny only
    # A letters of the highest qubits, where a clipped or signed mask
    # would go wrong
    code = tree_code([2, 3, 1])
    ts = _strategies(code)
    n = code.n
    assert n == 14 and int(ts.need.max()) >> 4 * n == 0
    assert int(ts.need.max()).bit_length() > 3 * n
    rng = random.Random(5)
    full = (1 << 4 * n) - 1
    every = list(range(len(ts)))
    for top in (1, 2, 4):
        allowed = full & ~(((1 << top) - 1) << 4 * n - top)
        assert check_narrow(ts, every, allowed) > 0
        check_narrow(ts, rng.sample(every, SMALL - 1), allowed)
    check_narrow(ts, every, random_allowed(rng, n))


def test_busiest_output_ties_go_to_lowest():
    ts = _strategies(cube_code())
    out = ts.output
    for a, b in ((0, 1), (1, 0), (2, 5)):
        ia, ib = np.flatnonzero(out == a)[:2], np.flatnonzero(out == b)[:2]
        # two targets each: a tie, whichever order they come in
        assert ts.busiest_output(np.concatenate((ib, ia))) == min(a, b)
        assert ts.busiest_output(np.concatenate((ia, ib[:1]))) == a


def test_attempt_with_keep_takes_first_of_equal_ranks(monkeypatch):
    # two operators that differ only on qubit 0 rank equal once qubit 0 is
    # removed: the first one listed is attempted, as min() picks it
    # (sorted by (weight, x, z), as a TargetSet's operators are), also
    # when a budget of one target a piece puts them in different pieces
    ops = tuple(PauliOperator.from_letters(t) for t in ("ZZI", "XZI", "IXX"))
    assert list(ops) == sorted(ops, key=lambda o: (o.weight, o.x, o.z))
    ts = TargetSet(3, *losstree._xz(ops), ops=ops)
    pattern = MeasurementPattern(3)
    rank = losstree._rank(ts.x, ts.z, 3, ~1)
    assert rank[0] == rank[1] < rank[2]
    first = pattern.measure(0, "X")
    for budget in (1, 2, 1 << 13):
        monkeypatch.setattr(losstree, "KERNEL_FLOATS", budget)
        for kind in (np.array, list):
            assert ts.attempt(kind([0, 1, 2]), pattern, rank) == (0, "Z")
            assert ts.attempt(kind([1, 0, 2]), pattern, rank) == (0, "X")
            assert ts.attempt(kind([2, 1, 0, 1]), pattern, rank) == (0, "X")
            # without a rank the index is the rank; measured support is
            # skipped
            assert ts.attempt(kind([2, 1, 0]), pattern) == (0, "Z")
            assert ts.attempt(kind([2, 1, 0]), first) == (1, "Z")
            assert ts.attempt(kind([0]), first.measure(1, "Z")) is None


def attempt_reference(ts, targets, pattern, keep):
    """The attempt rule on ``ts.ops``: among the targets' operators, read
    (first, second) from ``pair``, with unmeasured support, the least
    (weight, x, z) key on the qubits in ``keep``, the first read of equal
    keys, then its lowest unmeasured qubit."""
    free = pattern.unmeasured
    members = [i for t in targets for i in ts.pair[t].tolist()]
    live = [i for i in members if (ts.ops[i].x | ts.ops[i].z) & free]
    if not live:
        return None

    def key(i):
        x, z = ts.ops[i].x & keep, ts.ops[i].z & keep
        return (x | z).bit_count(), x, z
    op = ts.ops[min(live, key=key)]
    low = (op.x | op.z) & free
    q = (low & -low).bit_length() - 1
    return q, op.letter_at(q)


def test_attempt_matches_reference_on_both_sides_of_the_cut():
    # on strategy pairs and on single operators (the coset side decoder's
    # targets), repeated targets included
    rng = random.Random(11)
    code = cube_code()
    n = code.n
    ops = enumerate_nontrivial(code, "LogicalX")
    singles = TargetSet(n, *losstree._xz(ops), ops=ops)
    for ts in (_strategies(code), singles):
        for size in (0, 1, SMALL - 1, SMALL, 3 * SMALL):
            for _ in range(40):
                targets = rng.choices(range(len(ts)), k=size)
                pattern = random_pattern(rng, n)
                q = rng.randrange(n)
                given = [np.array(targets, dtype=np.intp)]
                given += [targets] if size < SMALL else []
                for rank, keep in ((None, -1),
                                   (losstree._rank(ts.x, ts.z, n, ~(1 << q)),
                                    ~(1 << q))):
                    want = attempt_reference(ts, targets, pattern, keep)
                    for g in given:
                        assert ts.attempt(g, pattern, rank) == want


def test_long_state_queries_hold_no_state_sized_temporary():
    # about 2^20 random targets over a few hundred random operators on 8
    # qubits: each query reads the state a KERNEL_FLOATS piece at a time,
    # so its peak less the result it returns stays within a few pieces'
    # temporaries, where one pass over the state would hold megabytes
    rng = np.random.default_rng(42)
    n, count, size = 8, 400, 1 << 20
    x = rng.integers(0, 1 << n, count, dtype=np.int64)
    z = rng.integers(0, 1 << n, count, dtype=np.int64)
    x[(x | z) == 0] = 1
    pair = rng.integers(0, count, (size, 2), dtype=np.int32)
    # qubit 0 is the output of about one target in a thousand
    output = rng.integers(1, n, size, dtype=np.int8)
    output[rng.random(size) < 1e-3] = 0
    ts = TargetSet(n, x, z, (pair, output))
    alive = np.arange(size, dtype=np.int32)
    pattern = MeasurementPattern(n)
    rank = losstree._rank(x, z, n, ~1)
    bound = 4 * losstree.KERNEL_FLOATS * 8
    # narrow keeps every target: pieces kept whole stay views of the state
    calls = ((lambda: ts.toward(alive, 0)), (lambda: ts.attempt(alive, pattern)),
             (lambda: ts.attempt(alive, pattern, rank)),
             (lambda: ts.narrow(alive, pattern.allowed())))
    for call in calls:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        fresh = isinstance(result, np.ndarray) and result is not alive
        held = result.nbytes if fresh else 0
        assert peak - held < bound, (peak, held)
    mine = ts.toward(alive, 0)
    assert 0 < len(mine) < size // 100
    assert list(mine) == np.flatnonzero(output == 0).tolist()
    # every operator has unmeasured support at the root, so the rule takes
    # the least operator, or the first read of the least rank
    flat = pair.ravel()
    for i, r in ((int(flat.min()), None),
                 (int(flat[np.argmin(rank[flat])]), rank)):
        op = PauliOperator(n, int(x[i]), int(z[i]))
        q = (op.support & -op.support).bit_length() - 1
        assert ts.attempt(alive, pattern, r) == (q, op.letter_at(q))


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
    trials = 10 ** 6
    mc = monte_carlo_decode(tree, 0.8, trials, seed=42)
    assert abs(mc - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)


def test_monte_carlo_extremes_and_determinism():
    code = pentagon_code()
    tree = build_arbitrary_tree(code)
    assert monte_carlo_decode(tree, 1.0, 1000, seed=3) == 1.0
    assert monte_carlo_decode(tree, 0.0, 1000, seed=3) == 0.0
    a = monte_carlo_decode(tree, 0.77, 20000, seed=9)
    b = monte_carlo_decode(tree, 0.77, 20000, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        monte_carlo_decode(tree, 0.5, 0)


def test_monte_carlo_memory_is_bounded_by_the_chunk():
    # 2^22 trials drawn one uniform per qubit at once peak near 70 MB (17
    # bytes a trial); tallied per loss configuration in one multinomial
    # draw they take 2^n entries, whatever the trial count
    code = pentagon_code()
    tree = build_pauli_tree(code, "Z")
    trials = 1 << 22
    exact = 2 * 0.8 ** 2 - 0.8 ** 4
    tracemalloc.start()
    try:
        mc = monte_carlo_decode(tree, 0.8, trials, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert abs(mc - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)


def test_loss_tally_per_qubit_counts_within_four_sigma():
    # each qubit is detected in a binomial(trials, eta) count of the
    # trials: the configurations with its bit set
    n, trials = 10, 10 ** 6
    masks = np.arange(1 << n)
    for eta, seed in ((0.7, 0), (0.95, 1), (0.1, 2)):
        tally = losstree._loss_tally(n, eta, trials, seed)
        assert tally.sum() == trials
        sigma = math.sqrt(trials * eta * (1 - eta))
        for q in range(n):
            detected = int(tally[(masks >> q) & 1 == 1].sum())
            assert abs(detected - eta * trials) <= 4 * sigma


def test_monte_carlo_counts_match_cylinder_sets():
    # tallying the samples per loss configuration counts exactly the
    # trials that reach a success leaf
    trials = 20000
    cases = [(pentagon_code(), "arbitrary"), (cube_code(), "X"),
             (tree_code([3, 2]), "Z")]
    for code, kind in cases:
        tree = load_or_build(code, kind)
        for seed in (0, 1, 2):
            want = monte_carlo_successes_reference(tree, 0.7, trials, seed)
            got = monte_carlo_decode(tree, 0.7, trials, seed)
            assert got == want / trials


# -- serialization and memo --------------------------------------------------------------------


def test_load_or_build_keeps_the_builder_tree_in_memory(tmp_path, monkeypatch):
    # the cache directory holds search checkpoints only: a tree is the
    # builder's, memoised per code, and a repeat call returns that object
    monkeypatch.setenv("GRAPHCODE_LT_CACHE", str(tmp_path))
    code = pentagon_code()
    for kind in ("X", "Y", "Z", "arbitrary"):
        tree = load_or_build(code, kind)
        assert tree is (build_arbitrary_tree(code) if kind == "arbitrary"
                        else build_pauli_tree(code, kind))
        assert load_or_build(code, kind) is tree
    assert list(tmp_path.iterdir()) == []
