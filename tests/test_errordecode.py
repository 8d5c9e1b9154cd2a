"""Error-decoder tests: check selection, ML syndrome decoding, fault rates.

The brute-force reference decoder below recomputes leaf error rates with
itertools and dict tables, sharing no code path with the numpy syndrome
tables it verifies.
"""

import random
from collections import defaultdict
from itertools import product

import pytest

from _oracles import exhaustive_checks, greedy_checks_reference, qubitwise_commuting
from graphcode_lt.codes import (
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    pentagon_code,
    star_code,
)
from graphcode_lt.errordecode import (
    CheckSet,
    ErrorAnalysis,
    ErrorModel,
    _greedy_checks,
    _masked_targets,
    error_threshold,
    fault_probability,
    logical_flip_rates,
    ml_logical_error,
    physical_fault,
)
from graphcode_lt.losstree import (
    Leaf,
    _strategies,
    build_arbitrary_tree,
    build_pauli_tree,
    success_polynomial,
)
from graphcode_lt.opsets import ResourceLimitError, stabilizer_group
from graphcode_lt.pauli import MeasurementPattern, PauliOperator, PauliSpan, iter_bits
from graphcode_lt.polynomials import LossPolynomial, break_even
from test_golden import _codes as golden_codes


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


def reference_ml(leaf: Leaf, checks: CheckSet, em: ErrorModel) -> float:
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
            r = em.rate(letters[q])
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
        err = 1.0 - (1.0 - em.rate("A")) * (1.0 - err)
    return err


# -- error model ------------------------------------------------------------------


def test_error_model_rates():
    em = ErrorModel(0.01)
    assert em.rate("X") == em.rate("Y") == em.rate("Z") == pytest.approx(0.02)
    assert em.rate("A") == pytest.approx(0.03)


def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(-0.001)
    with pytest.raises(ValueError):
        ErrorModel(0.34)
    ErrorModel(1.0 / 3.0)


def test_error_model_immutable():
    em = ErrorModel(0.0)
    with pytest.raises(AttributeError):
        em.lam = 0.1


def test_error_model_from_rates():
    em = ErrorModel.from_rates(0.1, 0.2, 0.3, 0.05)
    assert em.rate("Y") == 0.2 and em.rate("A") == 0.05


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
    assert span.rank == 3
    for i, a in enumerate(cs.checks):
        for b in cs.checks[i + 1:]:
            assert qubitwise_commuting(a, b)
    em = ErrorModel(0.01)
    best, best_err = exhaustive_checks(leaf, group, em)
    assert len(best.checks) == 3
    assert ml_logical_error(leaf, cs, em) == pytest.approx(best_err, abs=1e-12)


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
    em = ErrorModel(0.02)
    for tree in (build_pauli_tree(pent, "Z"), build_arbitrary_tree(pent)):
        leaf = no_loss_leaf(tree)
        cs = checks_for(pent, leaf)
        _, best_err = exhaustive_checks(leaf, group, em)
        assert ml_logical_error(leaf, cs, em) == pytest.approx(best_err, abs=1e-12)


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
            for leaf in tree.leaves():
                if leaf.success:
                    targets = _masked_targets(leaf)
                    assert _greedy_checks(code, leaf.pattern, targets) == \
                        greedy_checks_reference(leaf.pattern, targets, group)
    rng = random.Random(11)
    for _ in range(200):
        code = rng.choice(codes)
        group = stabilizer_group(code)
        pattern = MeasurementPattern.from_chars("".join(
            rng.choice("..XYZA_") for _ in range(code.n)))
        targets = tuple(code.logical(rng.choice("XYZ")) * rng.choice(group)
                        for _ in range(rng.randint(1, 2)))
        assert _greedy_checks(code, pattern, targets) == \
            greedy_checks_reference(pattern, targets, group)


def test_exhaustive_checks_cap():
    cube = cube_code()
    leaf = no_loss_leaf(build_pauli_tree(cube, "Z"))
    with pytest.raises(ResourceLimitError):
        exhaustive_checks(leaf, stabilizer_group(cube), ErrorModel(0.01), cap=2)


# -- ML decoding -------------------------------------------------------------------


def test_parity_channel_closed_form():
    # [TRIVIAL: with no checks the decoder keeps the majority parity, so the
    # error is the odd-flip probability (1 - (1-2r)^w) / 2]
    for w in range(1, 6):
        pattern = MeasurementPattern.from_chars("Z" * w)
        target = PauliOperator.from_letters("Z" * w)
        leaf = Leaf("success", pattern, targets=(target,))
        for lam in (0.0, 0.01, 0.05, 0.2):
            em = ErrorModel(lam)
            r = em.rate("Z")
            expected = (1.0 - (1.0 - 2.0 * r) ** w) / 2.0
            got = ml_logical_error(leaf, CheckSet((target,), ()), em)
            assert got == pytest.approx(expected, abs=1e-12)


def test_pentagon_no_loss_weight_two_parity():
    # the pentagon Z target has weight 2 and its greedy check cannot help,
    # so the closed-form parity value survives end to end
    pent = pentagon_code()
    leaf = no_loss_leaf(build_pauli_tree(pent, "Z"))
    cs = checks_for(pent, leaf)
    em = ErrorModel(0.02)
    r = 0.04
    assert ml_logical_error(leaf, cs, em) == pytest.approx(
        (1.0 - (1.0 - 2.0 * r) ** 2) / 2.0, abs=1e-12)


def test_ml_bounds_and_monotone_in_lambda():
    cube = cube_code()
    leaf = no_loss_leaf(build_pauli_tree(cube, "Z"))
    cs = checks_for(cube, leaf)
    # monotone only while each flip rate 2*lambda stays below 1/2
    grid = [i / 80 for i in range(21)]
    values = [ml_logical_error(leaf, cs, ErrorModel(lam)) for lam in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_ml_matches_bruteforce_reference():
    codes = [pentagon_code(), branched_chain_code(), decorated_pentagon_code(),
             star_code(4)]
    em = ErrorModel(0.03)
    for code in codes:
        trees = [build_pauli_tree(code, b) for b in "XYZ"]
        trees.append(build_arbitrary_tree(code))
        for tree in trees:
            for leaf in tree.leaves():
                if not leaf.success:
                    continue
                cs = checks_for(code, leaf)
                got = ml_logical_error(leaf, cs, em)
                want = reference_ml(leaf, cs, em)
                assert got == pytest.approx(want, abs=1e-12)


def test_extended_leaves_match_bruteforce():
    em = ErrorModel(0.04)
    for code in (pentagon_code(), decorated_pentagon_code()):
        tree = build_arbitrary_tree(code)
        analysis = ErrorAnalysis(code, tree)
        for entry in analysis.entries:
            if entry.leaf is None:
                continue
            got = ml_logical_error(entry.leaf, entry.checks, em)
            want = reference_ml(entry.leaf, entry.checks, em)
            assert got == pytest.approx(want, abs=1e-12)


def test_arbitrary_error_never_below_output_rate():
    # the output-qubit flip is outside the stabilized space, so no check
    # set can push the leaf error under 3*lambda
    for code in (pentagon_code(), decorated_pentagon_code()):
        tree = build_arbitrary_tree(code)
        for lam in (0.01, 0.05, 0.1):
            em = ErrorModel(lam)
            for leaf in tree.leaves():
                if not leaf.success:
                    continue
                cs = checks_for(code, leaf)
                assert ml_logical_error(leaf, cs, em) >= 3 * lam - 1e-12


def test_cube_ml_quadratic_at_low_lambda():
    # [PAPER: distance-3 behavior] every single flip is corrected, so the
    # residual is the two-flip coefficient C(7,2)*(2*lambda)^2 = 84*lambda^2
    cube = cube_code()
    leaf = no_loss_leaf(build_pauli_tree(cube, "Z"))
    cs = checks_for(cube, leaf)
    for lam in (1e-3, 1e-4):
        err = ml_logical_error(leaf, cs, ErrorModel(lam))
        assert 75.0 < err / lam**2 < 90.0


def test_ml_enumeration_limit():
    n = 21
    pattern = MeasurementPattern.from_chars("Z" * n)
    target = PauliOperator.from_letters("Z" * n)
    leaf = Leaf("success", pattern, targets=(target,))
    with pytest.raises(ResourceLimitError):
        ml_logical_error(leaf, CheckSet((target,), ()), ErrorModel(0.01))


# -- fault probability -------------------------------------------------------------


def test_fault_zero_without_noise():
    # [TRIVIAL] eta=1, lambda=0
    em = ErrorModel(0.0)
    for code, kind in [
        (pentagon_code(), "Z"),
        (cube_code(), "X"),
        (decorated_pentagon_code(), "arbitrary"),
    ]:
        assert fault_probability(code, kind, 1.0, em) == pytest.approx(0.0, abs=1e-14)


def test_fault_lambda_zero_reduces_to_loss_only():
    # [TRIVIAL: reduction] with no errors the only fault is decoder failure
    em = ErrorModel(0.0)
    cases = [
        (cube_code(), "Z", build_pauli_tree(cube_code(), "Z")),
        (pentagon_code(), "Y", build_pauli_tree(pentagon_code(), "Y")),
        (pentagon_code(), "arbitrary", build_arbitrary_tree(pentagon_code())),
    ]
    for code, kind, tree in cases:
        poly = success_polynomial(tree)
        for eta in (0.5, 0.7, 0.85, 0.95):
            assert fault_probability(code, kind, eta, em) == pytest.approx(
                1.0 - poly.evaluate(eta), abs=1e-12)


def test_extension_conserves_probability():
    for code, tree in [
        (cube_code(), build_pauli_tree(cube_code(), "Z")),
        (pentagon_code(), build_arbitrary_tree(pentagon_code())),
        (decorated_pentagon_code(), build_arbitrary_tree(decorated_pentagon_code())),
    ]:
        analysis = ErrorAnalysis(code, tree)
        terms = defaultdict(int)
        for entry in analysis.entries:
            for key, mult in entry.monomial.terms.items():
                terms[key] += mult
        assert LossPolynomial(terms).eta_coefficients() == {0: 1}


def test_cube_fault_ratio_break_even():
    # [PAPER: errors beat the bare qubit up to lambda = 3.2%]
    cube = cube_code()
    em = ErrorModel(0.032)
    ratio = (fault_probability(cube, "Z", 1.0, em)
             / physical_fault(1.0, em, "Z"))
    assert ratio == pytest.approx(1.0, abs=0.02)


def test_physical_fault_formula():
    em = ErrorModel(0.01)
    assert physical_fault(0.9, em, "X") == pytest.approx(1.0 - 0.9 * 0.98)
    assert physical_fault(1.0, em, "A") == pytest.approx(0.03)


# -- concatenation error threshold ---------------------------------------------


def test_cube_flip_rates_symmetric():
    rates = logical_flip_rates(cube_code(), (0.05, 0.05, 0.05))
    assert rates[0] == pytest.approx(rates[1], abs=1e-12)
    assert rates[0] == pytest.approx(rates[2], abs=1e-12)


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
    masks = sorted({s.first.support | s.second.support | (1 << s.output)
                    for s in _strategies(code)})
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
        fault = fault_probability(code, "arbitrary", 1.0, ErrorModel(lam))
        ratios.append(fault / (3.0 * lam))
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
    assert ratios[1] == pytest.approx(1.0, abs=0.005)
