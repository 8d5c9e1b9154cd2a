"""Loss decoders: compiled trees, exact polynomials, break-even, Monte Carlo.

Anchors: closed-form star and pentagon polynomials, exact break-even roots,
a full adaptive-strategy minimax as the optimality oracle, and Monte Carlo
as the statistical oracle.
"""

from __future__ import annotations

import math
import random
import sys
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
    LOST,
    SHORT,
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
    BASES,
    MeasurementPattern,
    PauliOperator,
    commutes_qubitwise,
    fits,
    packed,
    spread,
)
from graphcode_lt.polynomials import LossPolynomial, _rise_point, break_even

from _oracles import (
    attempt_reference,
    evaluate_reference,
    is_connected,
    monte_carlo_successes_reference,
    optimal_success,
    path_graph,
    pauli_from_letters,
    strategies_reference,
    target_need,
    targets_in_pair_order,
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
    """(first, second, output) of every target, in pair order."""
    return [(*ops, output) for ops, output in targets_in_pair_order(ts)]


def group_of(ts, t: int) -> int:
    """The group holding target ``t``."""
    return next(g for g in range(len(ts.outputs)) if t < ts.starts[g + 1])


def members(ts, state) -> list:
    """The targets of ``state``, one bitset per group, as indices, in
    index order."""
    return [ts.starts[g] + i for g, bits in enumerate(state)
            for i in range(bits.bit_length()) if bits >> i & 1]


def state_of(ts, targets) -> list:
    """The state, one bitset per group, of the targets ``targets``."""
    state = [0] * len(ts.outputs)
    for t in targets:
        g = group_of(ts, t)
        state[g] |= 1 << t - ts.starts[g]
    return state


def needs(ts) -> list:
    """Each target's joint letter mask, from its operators' own masks."""
    return [target_need(*ts[t]) for t in range(len(ts))]


def move_allowed(n: int, q: int, k: int) -> int:
    """The packed letters left admitted once qubit ``q`` is measured in
    letter ``k`` of ``BASES``, or lost (``LOST``): every letter elsewhere,
    and on q letter k alone, or none."""
    allowed = ((1 << 4 * n) - 1) & ~spread(1 << q, n, BASES)
    return allowed | (spread(1 << q, n, BASES[k]) if k < LOST else 0)


def check_tables(ts) -> None:
    """Each table of ``ts`` holds exactly the targets that ``pauli.fits``
    admits once its qubit reads its letter (or is lost), checked one
    target at a time, and no bit past its group."""
    n = ts.n
    for t in range(len(ts)):
        g = group_of(ts, t)
        need, bit = target_need(*ts[t]), 1 << t - ts.starts[g]
        for q in range(n):
            for k in range(LOST + 1):
                admitted = bool(ts.admits[g][q + k * n] & bit)
                assert admitted == fits(need, move_allowed(n, q, k)), (t, q, k)
    for g, tables in enumerate(ts.admits):
        assert len(tables) == (LOST + 1) * n
        whole = (1 << ts.starts[g + 1] - ts.starts[g]) - 1
        assert all(table & whole == table >= 0 for table in tables)


def test_strategies_match_commutation_reference():
    # differing on exactly one shared qubit implies anticommuting, so
    # dropping the commutation test keeps every pair, in order; the set
    # groups them by output, each group in that order, and its tables
    # match pauli.fits on each target's letters
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
        assert got.ops == enumerate_nontrivial(code, "AllLogical")
        assert got.outputs == tuple(range(code.n))
        assert [got[t] for t in range(len(got))] == [
            ((a, b), o) for o in range(code.n) for a, b, out in want
            if out == o]
        check_tables(got)
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


def test_targets_take_a_pair_and_4n_bits_and_no_object_each():
    # an int32 operator pair a target, and per group 4n bitsets of one
    # bit a target (the A and LOST tables share their int objects);
    # building the set keeps those and per-operator lists, nothing per
    # target
    code = tree_code([3, 2])
    n = code.n
    ops = enumerate_nontrivial(code, "AllLogical")
    x, z = losstree._xz(ops)
    pairs = losstree._grouped(*losstree._anticommuting_pairs(x, z), n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ts = TargetSet(n, x, z, pairs, ops)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ts) > 20 * len(ops)
    singles = TargetSet(n, x, z)
    assert singles.outputs == (-1,) and singles.starts == (0, len(ops))
    for targets in (ts, singles):
        assert targets.pair.dtype == np.int32
        assert targets.pair.shape == (len(targets), 2)
        tables = {id(t): t for group in targets.admits for t in group}
        stored = sum(map(sys.getsizeof, tables.values()))
        assert stored <= 4 * n * len(targets) // 8 + 64 * len(tables)
        for g, group in enumerate(targets.admits):
            whole = (1 << targets.starts[g + 1] - targets.starts[g]) - 1
            for q in range(n):
                idle = group[q + LOST * n]
                assert group[q + 3 * n] is idle or group[q + 3 * n] == whole
    assert kept <= ts.pair.nbytes + stored + 200 * len(ops)


def random_state(rng: random.Random, ts, size: int) -> list:
    """A state of ``size`` targets drawn from every group."""
    return state_of(ts, rng.sample(range(len(ts)), min(size, len(ts))))


def test_blocked_targets_match_one_block(monkeypatch):
    # grouping, tables, narrow, finished and attempt in pieces of a few
    # targets give what one block gives, across the pieces' edges, and
    # attempt reads a state alike one target at a time and in numpy
    # pieces
    rng = random.Random(39)
    code = cube_code()
    n = code.n
    ops = enumerate_nontrivial(code, "AllLogical")
    x, z = losstree._xz(ops)
    # a hand-made set of the first few pairs toward each output: none
    # toward qubit 0, one toward qubit 1, and groups that end mid-byte,
    # three of them longer than a piece of 8 targets
    pair, output = losstree._anticommuting_pairs(x, z)
    sizes = (0, 1, 13, 3, 21, 9, 30)
    assert len(sizes) == n
    keep = np.sort(np.concatenate([np.flatnonzero(output == q)[:size]
                                   for q, size in enumerate(sizes)]))
    few = pair[keep], output[keep]

    def build(pairs):
        return TargetSet(n, x, z, losstree._grouped(*pairs, n), ops)

    monkeypatch.setattr(losstree, "KERNEL_FLOATS", 1 << 30)
    whole = build(losstree._anticommuting_pairs(x, z))
    whole_few = build(few)
    assert whole_few.starts == (0, 0, 1, 14, 17, 38, 47, 77)
    check_tables(whole_few)
    states = [whole.full()]
    states += [random_state(rng, whole, size)
               for size in (1, 7, 64, 192, 700)]
    frees = [(1 << n) - 1] + [random_pattern(rng, n).unmeasured
                              for _ in range(6)]
    q = rng.randrange(n)
    ranks = (None, losstree._rank(x, z, n, ~(1 << q)))

    def answers(ts, state):
        """Every query's answer on ``state``."""
        narrowed = [ts.narrow(state, q, k) for q in range(n)
                    for k in range(LOST + 1)]
        groups = list(enumerate(state))
        done = [ts.finished(g, bits, f) for g, bits in groups for f in frees]
        moves = [ts.attempt(g, bits, f, r) for g, bits in groups
                 for f in frees for r in ranks]
        return narrowed, done, moves, ts.busiest_output(state)

    want = [answers(whole, state) for state in states]
    # pieces of 8 targets (budgets 1 to 8), 16 and 96 from each group's
    # start: a piece edge falls inside every group of more than 8 targets
    for budget in (1, 5, 8, 16, 97):
        monkeypatch.setattr(losstree, "KERNEL_FLOATS", budget)
        ts = build(losstree._anticommuting_pairs(x, z))
        ts_few = build(few)
        check_tables(ts_few)
        for got, one_block in ((ts, whole), (ts_few, whole_few)):
            assert got.pair.dtype == one_block.pair.dtype
            assert np.array_equal(got.pair, one_block.pair)
            assert got.starts == one_block.starts
            assert got.admits == one_block.admits
        for short in (0, SHORT):
            monkeypatch.setattr(losstree, "SHORT", short)
            for state, answer in zip(states, want):
                assert answers(ts, state) == answer, (budget, short)


def random_pattern(rng: random.Random, n: int) -> MeasurementPattern:
    # some qubits measured in a Pauli basis, some lost
    pattern = MeasurementPattern(n)
    for q in rng.sample(range(n), rng.randint(0, n)):
        pattern = (pattern.lose(q) if rng.random() < 0.3
                   else pattern.measure(q, rng.choice("XYZ")))
    return pattern


def test_narrow_keeps_fitting_targets_in_order():
    # one move at a time, and along random paths of moves from the root,
    # a state holds exactly the targets pauli.fits admits, and finished
    # those whose letters all sit on measured qubits, on pairs and on
    # single operators
    rng = random.Random(3)
    code = cube_code()
    n = code.n
    ops = enumerate_nontrivial(code, "LogicalZ")
    singles = TargetSet(n, *losstree._xz(ops), ops=ops)
    for ts in (_strategies(code), singles):
        need = needs(ts)
        for size in (0, 1, 31, 32, len(ts)):
            for _ in range(40):
                state = random_state(rng, ts, size)
                q, k = rng.randrange(n), rng.randrange(LOST + 1)
                allowed = move_allowed(n, q, k)
                assert members(ts, ts.narrow(state, q, k)) == [
                    t for t in members(ts, state) if fits(need[t], allowed)]
        for _ in range(30):
            pattern, state = MeasurementPattern(n), ts.full()
            for q in rng.sample(range(n), rng.randint(1, n)):
                k = rng.choice((0, 1, 2, 3, LOST))
                pattern = (pattern.lose(q) if k == LOST
                           else pattern.measure(q, BASES[k]))
                state = ts.narrow(state, q, k)
                alive = members(ts, state)
                assert alive == [t for t in range(len(ts))
                                 if fits(need[t], pattern.allowed())]
                done = [ts.finished(g, bits, pattern.unmeasured)
                        for g, bits in enumerate(state)]
                assert members(ts, done) == [
                    t for t in alive if fits(need[t], pattern.letters)]


def test_narrow_on_fourteen_qubits_denies_top_letters():
    # tree[2,3,1] has 14 qubits, so its A letters reach bit 55, and each
    # of its groups spans several KERNEL_FLOATS pieces joined into one
    # table: every table of every group holds the targets pauli.fits
    # admits; then measure or lose the highest qubits, whose A letters a
    # clipped or signed mask would get wrong, and check every target
    code = tree_code([2, 3, 1])
    ts = _strategies(code)
    n = code.n
    assert n == 14
    assert min(b - a for a, b in zip(ts.starts, ts.starts[1:])) > \
        3 * losstree.KERNEL_FLOATS
    # target_need of every target, each operator's mask made once
    masks = packed(ts.x.astype(np.uint64), ts.z.astype(np.uint64), n)
    groups = []
    for g, (lo, hi) in enumerate(zip(ts.starts, ts.starts[1:])):
        bit = 1 << ts.outputs[g]
        drop = np.uint64(~spread(bit, n, "XYZ") & (1 << 4 * n) - 1)
        first, second = ts.pair[lo:hi].T
        need = (masks[first] | masks[second]) & drop | np.uint64(spread(bit, n, "A"))
        for q in range(n):
            for k in range(LOST + 1):
                fit = need & ~np.uint64(move_allowed(n, q, k)) == 0
                want = np.packbits(fit, bitorder="little").tobytes()
                assert ts.admits[g][q + k * n] == int.from_bytes(want, "little"), \
                    (g, q, k)
        groups.append(need)
    need = np.concatenate(groups).tolist()
    for t in random.Random(5).sample(range(len(ts)), 200):
        assert need[t] == target_need(*ts[t])
    full = ts.full()
    for q in (13, 12, 10):
        for k in (0, 2, LOST):
            state = ts.narrow(full, q, k)
            allowed = move_allowed(n, q, k)
            assert sum(map(int.bit_count, state)) < len(ts)
            # every target toward q needs its A letter there
            assert state[q] == 0
            for g, (lo, hi) in enumerate(zip(ts.starts, ts.starts[1:])):
                # the group's bits, lowest first
                kept = bin(state[g])[:1:-1].ljust(hi - lo, "0")
                want = "".join("01"[fits(need[t], allowed)]
                               for t in range(lo, hi))
                assert kept == want, (q, k, g)


def test_busiest_output_ties_go_to_lowest():
    ts = _strategies(cube_code())
    for a, b in ((0, 1), (1, 0), (2, 5)):
        state = [0] * ts.n
        # two targets each: a tie, whichever group holds them
        state[a], state[b] = 0b11, 0b101
        assert ts.busiest_output(state) == min(a, b)
        state[b] = 0b100
        assert ts.busiest_output(state) == a


def test_attempt_with_keep_takes_first_of_equal_ranks(monkeypatch):
    # two operators that differ only on qubit 0 rank equal once qubit 0 is
    # removed: the first one read (the lower target) is attempted, as
    # min() picks it (sorted by (weight, x, z), as a TargetSet's
    # operators are), also when a budget of one target a piece puts them
    # in different pieces and when the state is read in numpy pieces
    ops = tuple(pauli_from_letters(t) for t in ("ZZI", "XZI", "IXX"))
    assert list(ops) == sorted(ops, key=lambda o: (o.weight, o.x, o.z))
    ts = TargetSet(3, *losstree._xz(ops), ops=ops)
    free = MeasurementPattern(3).unmeasured
    rank = losstree._rank(ts.x, ts.z, 3, ~1)
    assert rank[0] == rank[1] < rank[2]
    x, z = BASES.index("X"), BASES.index("Z")
    for budget in (1, 2, 1 << 13):
        monkeypatch.setattr(losstree, "KERNEL_FLOATS", budget)
        for short in (0, SHORT):
            monkeypatch.setattr(losstree, "SHORT", short)
            assert ts.attempt(0, 0b111, free, rank) == (0, z)
            assert ts.attempt(0, 0b110, free, rank) == (0, x)
            assert ts.attempt(0, 0b100, free, rank) == (1, x)
            # without a rank the index is the rank; measured support is
            # skipped
            assert ts.attempt(0, 0b111, free) == (0, z)
            assert ts.attempt(0, 0b111, free & ~1) == (1, z)
            assert ts.attempt(0, 0b001, 0b100) is None
            assert ts.attempt(0, 0b001, 0b100, rank) is None
            assert ts.attempt(0, 0, free, rank) is None


def test_attempt_matches_reference_on_both_sides_of_the_cut(monkeypatch):
    # on each group of strategy pairs and on single operators (the coset
    # side decoder's targets), read one target at a time and in numpy
    # pieces
    rng = random.Random(11)
    code = cube_code()
    n = code.n
    ops = enumerate_nontrivial(code, "LogicalX")
    singles = TargetSet(n, *losstree._xz(ops), ops=ops)
    for ts in (_strategies(code), singles):
        for size in (0, 1, 7, 64, 400):
            for _ in range(40):
                g = rng.randrange(len(ts.outputs))
                lo, hi = ts.starts[g], ts.starts[g + 1]
                targets = sorted(rng.sample(range(lo, hi), min(size, hi - lo)))
                bits = sum(1 << t - lo for t in targets)
                free = random_pattern(rng, n).unmeasured
                q = rng.randrange(n)
                listed = [op for t in targets for op in ts[t][0]]
                for rank, keep in ((None, -1),
                                   (losstree._rank(ts.x, ts.z, n, ~(1 << q)),
                                    ~(1 << q))):
                    want = attempt_reference(listed, free, keep)
                    if want is not None:
                        want = want[0], BASES.index(want[1])
                    for short in (0, SHORT):
                        monkeypatch.setattr(losstree, "SHORT", short)
                        assert ts.attempt(g, bits, free, rank) == want


def test_long_state_queries_hold_no_state_sized_temporary():
    # about 2^20 random targets over a few hundred random operators on 8
    # qubits, one bit each in a state: each query reads a group's bitset
    # a KERNEL_FLOATS piece at a time, so its peak less the result it
    # returns stays within a few pieces' temporaries, where an index
    # array of the group would hold megabytes
    rng = np.random.default_rng(42)
    n, count, size = 8, 400, 1 << 20
    x = rng.integers(0, 1 << n, count, dtype=np.int64)
    z = rng.integers(0, 1 << n, count, dtype=np.int64)
    x[(x | z) == 0] = 1
    pair = rng.integers(0, count, (size, 2), dtype=np.int32)
    # qubit 0 is the output of about one target in a thousand
    output = rng.integers(1, n, size, dtype=np.int8)
    output[rng.random(size) < 1e-3] = 0
    ts = TargetSet(n, x, z, losstree._grouped(pair, output, n))
    state, free, g = ts.full(), (1 << n) - 1, 1
    rank = losstree._rank(x, z, n, ~1)
    bound = 4 * losstree.KERNEL_FLOATS * 8
    calls = ((lambda: ts.narrow(state, 3, 0)),
             (lambda: ts.finished(g, state[g], free)),
             (lambda: ts.attempt(g, state[g], free)),
             (lambda: ts.attempt(g, state[g], free, rank)),
             (lambda: ts.busiest_output(state)))
    for call in calls:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        held = sum(map(sys.getsizeof, result if isinstance(result, list)
                       else [result]))
        assert peak - held < bound, (peak, held)
    # group 0 holds the targets toward qubit 0, in their given order
    mine = ts.pair[ts.starts[0]:ts.starts[1]]
    assert 0 < len(mine) < size // 100
    assert mine.tolist() == pair[output == 0].tolist()
    # every operator has unmeasured support at the root, so the rule takes
    # the group's least operator, or the first read of the least rank
    flat = ts.pair[ts.starts[g]:ts.starts[g + 1]].ravel()
    for i, r in ((int(flat.min()), None),
                 (int(flat[np.argmin(rank[flat])]), rank)):
        op = PauliOperator(n, int(x[i]), int(z[i]))
        q = (op.support & -op.support).bit_length() - 1
        assert ts.attempt(g, state[g], free, r) == (
            q, BASES.index(op.letter_at(q)))


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
