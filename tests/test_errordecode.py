"""Error-decoder tests: check selection, ML syndrome decoding, fault rates.

The brute-force reference decoder below recomputes leaf error rates with
itertools and dict tables, sharing no code path with the numpy syndrome
tables it verifies.
"""

import random
from collections import defaultdict
from itertools import product

import numpy as np
import pytest

from _oracles import (
    check_extension_reference,
    exhaustive_checks,
    greedy_checks_reference,
    pattern_from_chars,
    qubitwise_commuting,
)
from graphcode_lt import errordecode
from graphcode_lt.codes import (
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    pentagon_code,
    shor_22_code,
    star_code,
    tree_code,
)
from graphcode_lt.cli import main
from graphcode_lt.errordecode import (
    CheckSet,
    ErrorAnalysis,
    _error_analysis,
    _greedy_checks,
    _masked_targets,
    depolarizing,
    error_threshold,
    fault_probability,
    logical_flip_rates,
    ml_logical_error,
)
from graphcode_lt.losstree import (
    Leaf,
    _strategies,
    build_arbitrary_tree,
    build_pauli_tree,
    grow,
    paths,
    success_polynomial,
)
from graphcode_lt.opsets import ResourceLimitError, stabilizer_group
from graphcode_lt.pauli import PauliOperator, PauliSpan, iter_bits
from graphcode_lt.polynomials import KERNEL_FLOATS, LossPolynomial, break_even
from graphcode_lt.search import enumerate_candidates
from test_golden import _codes as golden_codes
from test_golden import _random_code


def no_loss_leaf(tree) -> Leaf:
    node = tree.root
    while not isinstance(node, Leaf):
        node = node.on_detect
    assert node.success
    return node


def checks_for(code, leaf: Leaf) -> CheckSet:
    """The check set ``ErrorAnalysis`` measures at a success leaf."""
    targets = _masked_targets(leaf)
    return CheckSet(targets, _greedy_checks(code, leaf.pattern, targets))


def reference_ml(leaf: Leaf, checks: CheckSet, rates: tuple) -> float:
    """Independent route: itertools enumeration with dict syndrome tables."""
    ops = list(checks.targets) + list(checks.checks)
    qubits = sorted({q for op in ops for q in iter_bits(op.support)})
    letters = {}
    for q in qubits:
        for op in ops:
            if op.letter_at(q) != "I":
                letters[q] = op.letter_at(q)
                break
    table = defaultdict(lambda: defaultdict(float))
    for flips in product((0, 1), repeat=len(qubits)):
        p = 1.0
        for f, q in zip(flips, qubits):
            r = rates["XYZ".index(letters[q])]
            p *= r if f else 1.0 - r
        syn = tuple(
            sum(f for f, q in zip(flips, qubits) if op.letter_at(q) != "I") % 2
            for op in checks.checks)
        tgt = tuple(
            sum(f for f, q in zip(flips, qubits) if op.letter_at(q) != "I") % 2
            for op in checks.targets)
        table[syn][tgt] += p
    err = 1.0 - sum(max(cell.values()) for cell in table.values())
    if leaf.output is not None:
        err = 1.0 - (1.0 - min(1.0, sum(rates) / 2)) * (1.0 - err)
    return err


# -- error model ------------------------------------------------------------------


def _output_leaf_error(rates: tuple) -> float:
    """The ML error of an arbitrary-basis leaf with nothing to decode but
    its output qubit: 1 - (1 - rA), rA the arbitrary-basis flip rate."""
    leaf = Leaf("success", pattern_from_chars("A"), output=0)
    return ml_logical_error(leaf, CheckSet((), ()), rates)


def test_error_model_rates():
    assert depolarizing(0.01) == (0.02, 0.02, 0.02)
    # the arbitrary-basis rate of depolarizing(lam) is 3*lam, float for
    # float; 1 - (1 - x) loses no bit of x in [1/2, 1]
    rng = random.Random(5)
    lams = [0.0, 1e-3, 1.0 / 6.0, 1.0 / 3.0]
    lams += [rng.uniform(0.0, 1.0 / 3.0) for _ in range(500)]
    for lam in lams:
        assert _output_leaf_error(depolarizing(lam)) == 1.0 - (1.0 - 3 * lam)


def test_error_model_reads_a_list_as_an_array():
    # a float gives three Python floats; a list or tuple gives the rate
    # block of the 1-D array it is checked as, each entry doubled, not
    # the sequence repeated
    rates = depolarizing(0.01)
    assert rates == (0.02, 0.02, 0.02)
    assert all(type(r) is float for r in rates)
    for given in ([0.01, 0.02], (0.01, 0.02), np.array([0.01, 0.02])):
        rates = depolarizing(given)
        assert len(rates) == 3
        for r in rates:
            assert isinstance(r, np.ndarray) and r.tolist() == [0.02, 0.04]
    with pytest.raises(ValueError):
        depolarizing([0.01, 0.34])


def test_error_model_validation():
    with pytest.raises(ValueError):
        depolarizing(-0.001)
    with pytest.raises(ValueError):
        depolarizing(0.34)
    depolarizing(1.0 / 3.0)
    for rates in ((1.5, 0.0, 0.0), (0.0, -0.01, 0.0), (0.0, 0.0, float("nan"))):
        with pytest.raises(ValueError):
            _output_leaf_error(rates)
    # a failed leaf feeds back a flip rate of exactly one
    pattern = pattern_from_chars("XX")
    target = PauliOperator.from_letters("XX")
    leaf = Leaf("success", pattern, targets=(target,))
    assert ml_logical_error(leaf, CheckSet((target,), ()), (1.0, 0.0, 1.0)) == 0.0


def test_error_model_from_rates():
    # per-basis rates set directly: a Y measurement flips at rY (the
    # decoder returns 1 - (1 - rY), one rounding away)
    pattern = pattern_from_chars("Y")
    target = PauliOperator.from_letters("Y")
    leaf = Leaf("success", pattern, targets=(target,))
    err = ml_logical_error(leaf, CheckSet((target,), ()), (0.1, 0.2, 0.3))
    assert err == pytest.approx(0.2, abs=1e-15)
    # the arbitrary-basis rate is half the Pauli rates' sum, capped at one
    assert _output_leaf_error((0.1, 0.2, 0.3)) == pytest.approx(0.3, abs=1e-15)
    assert _output_leaf_error((0.9, 0.9, 0.9)) == 1.0


def test_qubitwise_commuting():
    a = PauliOperator.from_letters("XZI")
    assert qubitwise_commuting(a, PauliOperator.from_letters("XIZ"))
    assert qubitwise_commuting(a, PauliOperator.from_letters("III"))
    assert not qubitwise_commuting(a, PauliOperator.from_letters("ZZI"))


# -- check selection ---------------------------------------------------------------


def test_cube_no_loss_checks_three_independent_weight_four():
    # [DERIVED: exhaustive commuting-set search below reproduces the greedy
    # choice's error exactly, with the same number of checks]
    cube = cube_code()
    leaf = no_loss_leaf(build_pauli_tree(cube, "Z"))
    group = stabilizer_group(cube)
    cs = checks_for(cube, leaf)
    assert len(cs.checks) == 3
    assert all(c.weight == 4 for c in cs.checks)
    span = PauliSpan(cube.n, cs.checks)
    assert len(span.rows) == 3
    for i, a in enumerate(cs.checks):
        for b in cs.checks[i + 1:]:
            assert qubitwise_commuting(a, b)
    rates = depolarizing(0.01)
    best, best_err = exhaustive_checks(leaf, group, rates)
    assert len(best.checks) == 3
    assert ml_logical_error(leaf, cs, rates) == pytest.approx(best_err, abs=1e-12)


def test_single_qubit_code_empty_checks():
    # [TRIVIAL] a one-qubit code has no non-identity stabilizers
    code = star_code(1)
    leaf = no_loss_leaf(build_pauli_tree(code, "Z"))
    cs = checks_for(code, leaf)
    assert cs.checks == ()


def test_pentagon_greedy_matches_exhaustive_audit():
    # [DERIVED: greedy run cross-checked against exhaustive enumeration;
    # on the pentagon no check improves the leaf error, so greedy's extra
    # pick is harmless]
    pent = pentagon_code()
    group = stabilizer_group(pent)
    rates = depolarizing(0.02)
    for tree in (build_pauli_tree(pent, "Z"), build_arbitrary_tree(pent)):
        leaf = no_loss_leaf(tree)
        cs = checks_for(pent, leaf)
        _, best_err = exhaustive_checks(leaf, group, rates)
        assert ml_logical_error(leaf, cs, rates) == pytest.approx(best_err, abs=1e-12)


def test_greedy_checks_match_group_scan():
    # the array kernel against the scan over the whole group: every
    # success leaf of the golden codes' trees, then random prospective
    # patterns with random logical targets
    codes = list(golden_codes().values())
    for code in codes:
        group = stabilizer_group(code)
        trees = [build_pauli_tree(code, b) for b in "XYZ"]
        trees.append(build_arbitrary_tree(code))
        for tree in trees:
            for leaf, _ in paths(tree.root):
                if leaf.success:
                    targets = _masked_targets(leaf)
                    assert _greedy_checks(code, leaf.pattern, targets) == \
                        greedy_checks_reference(leaf.pattern, targets, group)
    rng = random.Random(11)
    for _ in range(200):
        code = rng.choice(codes)
        group = stabilizer_group(code)
        pattern = pattern_from_chars("".join(
            rng.choice("..XYZA_") for _ in range(code.n)))
        targets = tuple(code.logical(rng.choice("XYZ")) * rng.choice(group)
                        for _ in range(rng.randint(1, 2)))
        assert _greedy_checks(code, pattern, targets) == \
            greedy_checks_reference(pattern, targets, group)


def test_exhaustive_checks_cap():
    cube = cube_code()
    leaf = no_loss_leaf(build_pauli_tree(cube, "Z"))
    with pytest.raises(ResourceLimitError):
        exhaustive_checks(leaf, stabilizer_group(cube), depolarizing(0.01), cap=2)


# -- ML decoding -------------------------------------------------------------------


def test_parity_channel_closed_form():
    # [TRIVIAL: with no checks the decoder keeps the majority parity, so the
    # error is the odd-flip probability (1 - (1-2r)^w) / 2]
    for w in range(1, 6):
        pattern = pattern_from_chars("Z" * w)
        target = PauliOperator.from_letters("Z" * w)
        leaf = Leaf("success", pattern, targets=(target,))
        for lam in (0.0, 0.01, 0.05, 0.2):
            rates = depolarizing(lam)
            r = rates[2]
            expected = (1.0 - (1.0 - 2.0 * r) ** w) / 2.0
            got = ml_logical_error(leaf, CheckSet((target,), ()), rates)
            assert got == pytest.approx(expected, abs=1e-12)


def test_pentagon_no_loss_weight_two_parity():
    # the pentagon Z target has weight 2 and its greedy check cannot help,
    # so the closed-form parity value survives end to end
    pent = pentagon_code()
    leaf = no_loss_leaf(build_pauli_tree(pent, "Z"))
    cs = checks_for(pent, leaf)
    rates = depolarizing(0.02)
    r = 0.04
    assert ml_logical_error(leaf, cs, rates) == pytest.approx(
        (1.0 - (1.0 - 2.0 * r) ** 2) / 2.0, abs=1e-12)


def test_ml_bounds_and_monotone_in_lambda():
    cube = cube_code()
    leaf = no_loss_leaf(build_pauli_tree(cube, "Z"))
    cs = checks_for(cube, leaf)
    # monotone only while each flip rate 2*lambda stays below 1/2
    grid = [i / 80 for i in range(21)]
    values = [ml_logical_error(leaf, cs, depolarizing(lam)) for lam in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_ml_matches_bruteforce_reference():
    codes = [pentagon_code(), branched_chain_code(), decorated_pentagon_code(),
             star_code(4)]
    rates = depolarizing(0.03)
    for code in codes:
        trees = [build_pauli_tree(code, b) for b in "XYZ"]
        trees.append(build_arbitrary_tree(code))
        for tree in trees:
            for leaf, _ in paths(tree.root):
                if not leaf.success:
                    continue
                cs = checks_for(code, leaf)
                got = ml_logical_error(leaf, cs, rates)
                want = reference_ml(leaf, cs, rates)
                assert got == pytest.approx(want, abs=1e-12)


def test_extended_leaves_match_bruteforce():
    rates = depolarizing(0.04)
    for code in (pentagon_code(), decorated_pentagon_code()):
        tree = build_arbitrary_tree(code)
        analysis = ErrorAnalysis(code, tree)
        for _, leaf, checks, _ in analysis.entries:
            if leaf is None:
                continue
            got = ml_logical_error(leaf, checks, rates)
            want = reference_ml(leaf, checks, rates)
            assert got == pytest.approx(want, abs=1e-12)


def test_arbitrary_error_never_below_output_rate():
    # the output-qubit flip is outside the stabilized space, so no check
    # set can push the leaf error under 3*lambda
    for code in (pentagon_code(), decorated_pentagon_code()):
        tree = build_arbitrary_tree(code)
        for lam in (0.01, 0.05, 0.1):
            rates = depolarizing(lam)
            for leaf, _ in paths(tree.root):
                if not leaf.success:
                    continue
                cs = checks_for(code, leaf)
                assert ml_logical_error(leaf, cs, rates) >= 3 * lam - 1e-12


def test_cube_ml_quadratic_at_low_lambda():
    # [PAPER: distance-3 behavior] every single flip is corrected, so the
    # residual is the two-flip coefficient C(7,2)*(2*lambda)^2 = 84*lambda^2
    cube = cube_code()
    leaf = no_loss_leaf(build_pauli_tree(cube, "Z"))
    cs = checks_for(cube, leaf)
    for lam in (1e-3, 1e-4):
        err = ml_logical_error(leaf, cs, depolarizing(lam))
        assert 75.0 < err / lam**2 < 90.0


def test_ml_enumeration_limit():
    n = 21
    pattern = pattern_from_chars("Z" * n)
    target = PauliOperator.from_letters("Z" * n)
    leaf = Leaf("success", pattern, targets=(target,))
    with pytest.raises(ResourceLimitError):
        ml_logical_error(leaf, CheckSet((target,), ()), depolarizing(0.01))


# -- fault probability -------------------------------------------------------------


def test_fault_zero_without_noise():
    # [TRIVIAL] eta=1, lambda=0
    rates = depolarizing(0.0)
    for code, kind in [
        (pentagon_code(), "Z"),
        (cube_code(), "X"),
        (decorated_pentagon_code(), "arbitrary"),
    ]:
        assert fault_probability(code, kind, 1.0, rates) == pytest.approx(0.0, abs=1e-14)


def test_fault_lambda_zero_reduces_to_loss_only():
    # [TRIVIAL: reduction] with no errors the only fault is decoder failure
    rates = depolarizing(0.0)
    cases = [
        (cube_code(), "Z", build_pauli_tree(cube_code(), "Z")),
        (pentagon_code(), "Y", build_pauli_tree(pentagon_code(), "Y")),
        (pentagon_code(), "arbitrary", build_arbitrary_tree(pentagon_code())),
    ]
    for code, kind, tree in cases:
        poly = success_polynomial(tree)
        for eta in (0.5, 0.7, 0.85, 0.95):
            assert fault_probability(code, kind, eta, rates) == pytest.approx(
                1.0 - poly.evaluate(eta), abs=1e-12)


def test_syndrome_tables_built_once_with_the_extension(monkeypatch):
    # one table per success entry, all built with the extension; the fault
    # sum only evaluates them
    code = tree_code([2, 2, 1])
    tree = build_arbitrary_tree(code)
    built = [0]
    table = errordecode.SyndromeTable

    def counting(*args):
        built[0] += 1
        return table(*args)

    monkeypatch.setattr(errordecode, "SyndromeTable", counting)
    analysis = ErrorAnalysis(code, tree)
    success = sum(leaf is not None for _, leaf, _, _ in analysis.entries)
    assert success > 0 and built[0] == success
    for eta, lam in ((0.9, 0.01), (0.5, 0.05), (1.0, 0.001)):
        analysis.fault_probability(eta, depolarizing(lam))
    assert built[0] == success


def test_fault_block_equals_points():
    # a block of transmissions is one kernel call, and each of its values is
    # the one-point call's float
    codes = [pentagon_code(), decorated_pentagon_code(), branched_chain_code(),
             shor_22_code(), cube_code(), tree_code([3, 2]), tree_code([2, 2, 1])]
    etas = [k / 16 for k in range(17)]
    for code in codes:
        for kind in ("X", "Y", "Z", "arbitrary"):
            for rates in (depolarizing(0.01), (0.01, 0.03, 0.2)):
                got = fault_probability(code, kind, etas, rates)
                assert got.tolist() == [fault_probability(code, kind, eta, rates)
                                        for eta in etas]


def test_fault_refuses_eta_outside_unit_interval():
    cube = cube_code()
    rates = depolarizing(0.01)
    for eta in (1.5, -0.2, float("nan"), [0.5, 1.5], [0.2, float("nan")]):
        with pytest.raises(ValueError, match="eta"):
            fault_probability(cube, "X", eta, rates)


def test_extension_conserves_probability():
    for code, tree in [
        (cube_code(), build_pauli_tree(cube_code(), "Z")),
        (pentagon_code(), build_arbitrary_tree(pentagon_code())),
        (decorated_pentagon_code(), build_arbitrary_tree(decorated_pentagon_code())),
    ]:
        analysis = ErrorAnalysis(code, tree)
        terms = defaultdict(int)
        for key, _, _, _ in analysis.entries:
            terms[key] += 1
        assert LossPolynomial(terms).eta_coefficients() == {0: 1}


def _comparable(entries) -> list:
    """Entries with each ``CheckSet`` as its (targets, checks) pair; the
    loss-tree leaves are compared as objects of the one tree."""
    return [(key, leaf, checks and (checks.targets, checks.checks), pattern)
            for key, leaf, checks, pattern in entries]


def test_extension_matches_choosing_checks_at_every_node():
    # keeping the checks across detected attempts gives the entries, in
    # order, of choosing them afresh at every node of the extension
    cases = [(tree_code([2, 3, 1]), "arbitrary")]
    cases += [(_random_code(seed, size), kind)
              for seed, size in ((11, 8), (12, 9), (13, 10), (14, 11))
              for kind in ("X", "Y", "Z", "arbitrary")]
    for code, kind in cases:
        tree = (build_arbitrary_tree(code) if kind == "arbitrary"
                else build_pauli_tree(code, kind))
        assert _comparable(ErrorAnalysis(code, tree).entries) == \
            _comparable(check_extension_reference(code, tree))


def test_checks_rechosen_only_after_a_loss(monkeypatch):
    # one greedy choice at each extension root and one after each lost
    # check attempt, none after a detected one
    cube = cube_code()
    tree = build_pauli_tree(cube, "Z")
    calls, roots = [0], []

    def counting(*args):
        calls[0] += 1
        return _greedy_checks(*args)

    def recording(pattern, state, step):
        roots.append(grow(pattern, state, step))
        return roots[-1]

    monkeypatch.setattr(errordecode, "_greedy_checks", counting)
    monkeypatch.setattr(errordecode, "grow", recording)
    ErrorAnalysis(cube, tree)
    assert len(roots) == sum(leaf.success for leaf, _ in paths(tree.root))
    # every attempt of an extension is one measure node with one lost branch
    lost = sum(len(list(paths(root))) - 1 for root in roots)
    assert lost > 0
    assert calls[0] == len(roots) + lost


def test_cube_fault_ratio_break_even():
    # [PAPER: errors beat the bare qubit up to lambda = 3.2%]
    cube = cube_code()
    rates = depolarizing(0.032)
    # the bare qubit faults when lost or flipped: 1 - eta (1 - rate)
    ratio = (fault_probability(cube, "Z", 1.0, rates)
             / (1.0 - 1.0 * (1.0 - rates[2])))
    assert ratio == pytest.approx(1.0, abs=0.02)


# -- concatenation error threshold ---------------------------------------------


def test_cube_flip_rates_symmetric():
    rates = logical_flip_rates(cube_code(), (0.05, 0.05, 0.05))
    assert rates[0] == pytest.approx(rates[1], abs=1e-12)
    assert rates[0] == pytest.approx(rates[2], abs=1e-12)


def _flip_rate_codes() -> list:
    """The library codes, every rooted class on 6 progenitor vertices and
    seeded random codes on 8 to 11 vertices."""
    codes = list(golden_codes().values()) + [star_code(3)]
    codes += list(enumerate_candidates(6))
    codes += [_random_code(seed, size) for seed, size in
              ((11, 8), (12, 9), (13, 10), (14, 11))]
    return codes


def test_flip_rates_equal_fault_probability_at_unit_transmission():
    # decoding only the loss-free leaf is exact: the same floats as the
    # sum over every extended leaf at eta = 1
    vectors = [(0.0, 0.0, 0.0)]
    vectors += [(2 * lam,) * 3 for lam in (0.001, 0.05, 1.0 / 3.0)]
    vectors += [(0.01, 0.03, 0.2), (0.3, 0.0, 0.07)]
    for code in _flip_rate_codes():
        for r in vectors:
            want = tuple(fault_probability(code, b, 1.0, r) for b in "XYZ")
            assert logical_flip_rates(code, r) == want


def test_block_flip_rates_equal_the_per_point_call():
    # a block is binned by one bincount over bins offset per point, which
    # keeps each bin's index order, so every point's rates are the floats
    # of its one-point call; 1,200 points span at least three
    # KERNEL_FLOATS chunks of every table here
    rng = np.random.default_rng(38)
    lams = np.array([0.0, *np.linspace(0.001, 0.1, 100), 1.0 / 3.0])
    rates = np.vstack([np.stack(depolarizing(lams), axis=1),
                       rng.uniform(0.0, 1.0, (1200 - len(lams), 3))])
    for code in golden_codes().values():
        block = logical_flip_rates(code, rates)
        assert block.shape == (1200, 3)
        for r, row in zip(rates.tolist(), block.tolist()):
            assert logical_flip_rates(code, tuple(r)) == tuple(row)
        for basis in "XYZ":
            table = errordecode._loss_free_table(code, basis)
            if table is not None:
                assert len(rates) > 2 * KERNEL_FLOATS // max(
                    len(table.bins), table.size)


def test_lambda_sweep_builds_no_error_analysis(capsys):
    before = _error_analysis.cache_info().misses
    assert main(["sweep", "--graph", "tree:2,2,1",
                 "--lambda-grid", "0.001,0.05", "--format", "json"]) == 0
    capsys.readouterr()
    assert _error_analysis.cache_info().misses == before


def test_cube_error_threshold():
    # [PAPER: lambda* = 3.2% +/- 0.3%]
    assert error_threshold(cube_code()) == pytest.approx(0.032, abs=0.003)


def test_star_error_threshold_zero():
    # the star's X logical is an unprotected weight-n parity, so iteration
    # never contracts
    assert error_threshold(star_code(3)) == pytest.approx(0.0, abs=1e-3)


# -- decorated pentagon ------------------------------------------------------------


def clairvoyant_break_even(code) -> float:
    """Upper bound over the strategy class: a decoder that knows every
    qubit's fate in advance succeeds iff some strategy's full qubit set
    is delivered.  Independent of the decision-tree recursion."""
    masks = sorted({first.support | second.support | (1 << output)
                    for (first, second), output in _strategies(code)})
    n = code.n
    terms: dict = {}
    for detected in range(1 << n):
        if any(mask & ~detected == 0 for mask in masks):
            k = detected.bit_count()
            key = ((k, 0, 0, 0), (n - k, 0, 0, 0))
            terms[key] = terms.get(key, 0) + 1
    return break_even(LossPolynomial(terms))


def test_decorated_pentagon_break_even_saturates_bound():
    # [DERIVED: the decision tree meets the clairvoyant upper bound, so no
    # decoder over SPC strategies can do better on this graph]
    code = decorated_pentagon_code()
    poly = success_polynomial(build_arbitrary_tree(code))
    be = break_even(poly)
    assert be == pytest.approx(0.318923, abs=5e-4)
    assert be == pytest.approx(clairvoyant_break_even(code), abs=2e-6)


def test_decorated_pentagon_error_ratio_approaches_one():
    # [PAPER: logical-to-physical error ratio tends to 1 at low rates]
    code = decorated_pentagon_code()
    ratios = []
    for lam in (1e-3, 1e-4):
        fault = fault_probability(code, "arbitrary", 1.0, depolarizing(lam))
        ratios.append(fault / (3.0 * lam))
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
    assert ratios[1] == pytest.approx(1.0, abs=0.005)
