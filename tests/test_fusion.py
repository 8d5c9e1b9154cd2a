"""Fusion engine tests: outcome model, transversal and adaptive analyses.

The closure oracle below rebuilds subgroup membership by breadth-first
products over (x, z) masks, sharing nothing with the transversal engine's
recovery table; the span recursion in ``_oracles`` recounts every
assignment.  The star and two-qubit closed forms were derived by hand
from the outcome combinatorics.
"""

import random
from itertools import product

import numpy as np
import pytest

from graphcode_lt import cli, fusion
from graphcode_lt.codes import (
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    forget,
    pentagon_code,
    shor_22_code,
    star_code,
    tree_code,
)
from graphcode_lt.fusion import (
    AdaptiveFusionAnalysis,
    compile_failure_bases,
    logical_fusion,
    _gate_outcomes,
    _classify,
    _cosets,
    _recovery_table,
    _transversal_counts,
)
from graphcode_lt.losstree import LOST, _strategies
from graphcode_lt.opsets import ResourceLimitError, stabilizer_group
from graphcode_lt.pauli import BASES, MeasurementPattern, fits, spread
from graphcode_lt.search import enumerate_candidates

from _oracles import (
    _embed,
    _pair,
    adaptive_float_terms,
    adaptive_result_reference,
    adaptive_terms,
    adaptive_terms_reference,
    coset_members_reference,
    interface_letters,
    target_need,
    transversal_counts_reference,
)
from test_golden import _codes as golden_codes


def result_sum(r) -> float:
    return r.p_success + r.p_fail_logical + r.p_loss_logical


def transversal(code, p_fail, eta, randomize_failures=False):
    return logical_fusion(code, p_fail, eta, adaptive=False,
                          randomize_failures=randomize_failures)


def gate(p_fail: float, eta: float):
    """The bare gate's (s, f, l): the transversal fusion of a one-qubit
    code, which is one physical fusion
    (test_single_qubit_code_reduces_to_physical_fusion)."""
    return transversal(star_code(1), p_fail, eta)


# -- outcome model ----------------------------------------------------------------


def test_fusion_model_outcomes_sum_to_one():
    for p_fail in (0.5, 0.25, 0.125):
        for eta in (0.0, 0.5, 0.9, 1.0):
            s, f, l = gate(p_fail, eta)
            assert s + f + l == pytest.approx(1.0, abs=1e-15)
            assert s == pytest.approx(eta ** (1 / p_fail) * (1 - p_fail))


def test_fusion_model_zero_failure():
    """p_fail = 0 is the deterministic-gate limit: eta^(1/p_fail) goes to
    0 below eta = 1 and is 1 at it.  The gate keeps it in its domain
    (test_adaptive_perfect_gates relies on it), while the network figures
    of merit, which need a finite photon count per gate, refuse it."""
    assert gate(0.0, 1.0).p_success == 1.0
    assert gate(0.0, 0.9).p_loss_logical == 1.0


def test_fusion_model_validation():
    with pytest.raises(ValueError):
        gate(-0.1, 0.9)
    with pytest.raises(ValueError):
        gate(0.5, 1.1)
    # a bad gate is refused before the failure bases are compiled, so
    # before the transversal engine's size limit (13 qubits is past it)
    with pytest.raises(ValueError):
        transversal(star_code(13), 2.0, 0.9)


def test_equal_gate_floats_are_one_memo_key():
    # the memo keys on the code and the two floats, so equal (p_fail,
    # eta), however made, find the failure bases compiled first, and so
    # does each point of a compiled transversal fusion
    code = pentagon_code()
    first = compile_failure_bases(code, 0.5, 0.9)
    hits = compile_failure_bases.cache_info().hits
    assert compile_failure_bases(code, 1 / 2, 9 / 10) is first
    assert compile_failure_bases(code, 0.5, np.float64(0.9)) is first
    transversal(code, 0.5, 0.9)
    transversal(code, 0.5, np.array([0.9, 0.9]))
    assert compile_failure_bases.cache_info().hits == hits + 5


def test_boosted_levels_match_model():
    for m in (1, 2, 3):
        # a bare boosted fusion succeeds with (1 - 2^-m) eta^(2^m)
        want = (1.0 - 2.0 ** -m) * 0.97 ** (2 ** m)
        assert gate(2.0 ** -m, 0.97).p_success == pytest.approx(want,
                                                                abs=1e-15)


def test_boosted_baseline_values():
    # [PAPER: standard fusions succeed half the time]
    assert gate(2.0 ** -1, 1.0).p_success == pytest.approx(0.5)
    # [TRIVIAL] 1 - 1/8
    assert gate(2.0 ** -3, 1.0).p_success == pytest.approx(0.875)
    # [DERIVED: direct evaluation]
    assert gate(2.0 ** -2, 0.99).p_success == pytest.approx(
        0.75 * 0.99 ** 4, abs=1e-15)


def test_erasure_is_half_failure_plus_loss():
    r = transversal(star_code(2), 0.5, 0.9)
    want = r.p_loss_logical + 0.5 * r.p_fail_logical
    assert r.erasure_xx == pytest.approx(want, abs=1e-15)


# -- transversal engine ------------------------------------------------------------


def test_single_qubit_code_reduces_to_physical_fusion():
    # [TRIVIAL] one fused pair: success iff the gate succeeds, the failure
    # parity matches one logical, loss erases both
    s, f, l = (float(v[0]) for v in _gate_outcomes(0.5, 0.9))
    r = transversal(star_code(1), 0.5, 0.9)
    assert r.p_success == pytest.approx(s, abs=1e-15)
    assert r.p_fail_logical == pytest.approx(f, abs=1e-15)
    assert r.p_loss_logical == pytest.approx(l, abs=1e-15)


def test_star_codes_at_unit_transmission():
    # [DERIVED: 3^n enumeration at eta=1; the XX logical parity is a pure
    # Z-type product, so only the all-fail assignment misses ZZ]
    for n in (2, 3, 4, 5):
        code = star_code(n)
        r = transversal(code, 0.5, 1.0)
        assert r.p_success == pytest.approx(1.0 - 2.0 ** -n, abs=1e-12)
        assert r.p_fail_logical == pytest.approx(2.0 ** -n, abs=1e-12)
        assert r.p_loss_logical == pytest.approx(0.0, abs=1e-15)
        assert compile_failure_bases(code, 0.5, 1.0) == ("Z",) * n


def test_transversal_conservation_and_unit_loss():
    for code in (pentagon_code(), branched_chain_code(), cube_code()):
        for p_fail, eta in ((0.5, 0.9), (0.25, 0.8)):
            r = transversal(code, p_fail, eta)
            assert result_sum(r) == pytest.approx(1.0, abs=1e-12)
        r = transversal(code, 0.5, 1.0)
        assert r.p_loss_logical == pytest.approx(0.0, abs=1e-15)


def test_transversal_randomized_conservation():
    r = transversal(pentagon_code(), 0.5, 0.9, randomize_failures=True)
    assert result_sum(r) == pytest.approx(1.0, abs=1e-12)


def test_transversal_limit_and_bases_validation():
    # 13 qubits: past TRANSVERSAL_LIMIT, refused before any table is built
    for randomize in (False, True):
        with pytest.raises(ResourceLimitError, match="limit is n <= 12"):
            transversal(star_code(13), 0.5, 0.9, randomize_failures=randomize)
    with pytest.raises(ValueError, match="XX or ZZ"):
        _transversal_counts(pentagon_code(), ("X", "Y", "Z", "Z"))


def closure(ops, n2: int) -> set:
    """Subgroup generated by ops over (x, z) masks, phases ignored."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    gens = [(op.x, op.z) for op in ops]
    while frontier:
        cx, cz = frontier.pop()
        for gx, gz in gens:
            nxt = (cx ^ gx, cz ^ gz)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_generation_matches_subgroup_closure():
    # the recovery table against brute-force subgroup closure, all 4^n
    # transversal outcome assignments of small codes; entry sum(d_q << 2q)
    # with digit bit 0 for an obtained XX parity and bit 1 for ZZ
    digits = {"s": 3, "fx": 1, "fz": 2, "l": 0}
    for code in (star_code(2), branched_chain_code()):
        n = code.n
        table = _recovery_table(code)
        xx = _embed(code.logical_x, 0, n) * _embed(code.logical_x, 1, n)
        zz = _embed(code.logical_z, 0, n) * _embed(code.logical_z, 1, n)
        gens = [_embed(g, side, n) for side in (0, 1)
                for g in code.stabilizer_generators]
        for assign in product(digits, repeat=n):
            obtained = list(gens)
            for i, a in enumerate(assign):
                if a in ("s", "fx"):
                    obtained.append(_pair("X", i, n))
                if a in ("s", "fz"):
                    obtained.append(_pair("Z", i, n))
            members = closure(obtained, 2 * n)
            entry = int(table[sum(digits[a] << 2 * i
                                  for i, a in enumerate(assign))])
            assert bool(entry & 1) == ((xx.x, xx.z) in members), assign
            assert bool(entry & 2) == ((zz.x, zz.z) in members), assign


def test_transversal_counts_match_span_reference():
    rng = random.Random(5)
    codes = (star_code(2), pentagon_code(), branched_chain_code(),
             decorated_pentagon_code(), cube_code())
    for code in codes:
        n = code.n
        bases = [None, ("X",) * n, ("Z",) * n]
        bases += [tuple(rng.choice("XZ") for _ in range(n)) for _ in range(3)]
        for fb in bases:
            got = _transversal_counts(code, fb)
            assert got == transversal_counts_reference(code, fb), (code, fb)
            assert sum(got.values()) == (4 if fb is None else 3) ** n


def test_classify_rule():
    assert _classify(True, True) == "success"
    assert _classify(True, False) == "fail"
    assert _classify(False, True) == "fail"
    assert _classify(False, False) == "loss"


# -- adaptive engine ---------------------------------------------------------------


def test_adaptive_perfect_gates():
    # [TRIVIAL] eta=1 and p_fail=0: the first fusion succeeds and both
    # teleportations complete
    r = logical_fusion(pentagon_code(), 0.0, 1.0)
    assert r.p_success == pytest.approx(1.0, abs=1e-15)


def test_adaptive_two_qubit_closed_form():
    # [DERIVED: hand enumeration of the star-2 process; see the branch
    # bookkeeping in the module docstring tests]
    code = star_code(2)
    for p_fail, eta in ((0.5, 0.9), (0.25, 0.7), (0.5, 1.0)):
        s, f, l = gate(p_fail, eta)
        want_ps = s * eta ** 2 + f * s
        want_pf = s * (1 - eta ** 2) + f ** 2 + l * eta ** 2
        want_pl = f * l + l * (1 - eta ** 2)
        r = logical_fusion(code, p_fail, eta)
        assert r.p_success == pytest.approx(want_ps, abs=1e-12)
        assert r.p_fail_logical == pytest.approx(want_pf, abs=1e-12)
        assert r.p_loss_logical == pytest.approx(want_pl, abs=1e-12)


def test_adaptive_single_qubit_equals_transversal():
    # [DERIVED: with one qubit the two protocols are the same gate]
    for p_fail, eta in ((0.5, 0.9), (0.25, 0.95)):
        ra = logical_fusion(star_code(1), p_fail, eta)
        rt = transversal(star_code(1), p_fail, eta)
        assert ra.p_success == pytest.approx(rt.p_success, abs=1e-12)
        assert ra.p_fail_logical == pytest.approx(rt.p_fail_logical, abs=1e-12)


def test_adaptive_sequential_attempts_at_unit_transmission():
    # [DERIVED: at eta=1 every output can be attempted in turn, so only
    # the all-fail fusion path misses the teleportation]
    assert logical_fusion(star_code(3), 0.5, 1.0).p_success \
        == pytest.approx(1.0 - 0.5 ** 3, abs=1e-12)
    assert logical_fusion(cube_code(), 0.5, 1.0).p_success \
        == pytest.approx(1.0 - 0.5 ** 7, abs=1e-12)


def test_adaptive_conservation_and_unit_loss():
    codes = (star_code(3), pentagon_code(), decorated_pentagon_code())
    for code in codes:
        for p_fail, eta in ((0.5, 0.9), (0.25, 0.8), (0.5, 1.0)):
            r = logical_fusion(code, p_fail, eta)
            assert result_sum(r) == pytest.approx(1.0, abs=1e-12)
            if eta == 1.0:
                assert r.p_loss_logical == pytest.approx(0.0, abs=1e-15)
        r = logical_fusion(code, 0.5, 0.9, randomize_failures=True)
        assert result_sum(r) == pytest.approx(1.0, abs=1e-12)


def test_adaptive_matches_attempt_ceiling_on_decorated_pentagon():
    # [DERIVED: an order-free upper bound for the strategy class; this
    # graph supports exactly two useful fusion attempts, so the adaptive
    # engine meets the bound and the transversal engine can exceed it]
    code = decorated_pentagon_code()
    sts = [(target_need(ops, output), output)
           for ops, output in _strategies(code)]
    outs = sorted({output for _, output in sts})
    hits = 0
    for bits in product("sf", repeat=len(outs)):
        assign = dict(zip(outs, bits))
        pat = MeasurementPattern(code.n)
        ifs = []
        for o, b in assign.items():
            pat = pat.measure(o, "A")
            ifs.append((o, "s" if b == "s" else "fz"))
        masks = pat.allowed() | interface_letters(tuple(ifs), code.n)
        if any(assign[o] == "s" and fits(need, masks) for need, o in sts):
            hits += 1
    ceiling = hits / 2 ** len(outs)
    got = logical_fusion(code, 0.5, 1.0).p_success
    assert got == pytest.approx(ceiling, abs=1e-12)
    # the logged counterexample to "adaptive beats transversal": on this
    # graph the transversal harvest is worth more than two attempts
    trans = transversal(code, 0.5, 1.0).p_success
    assert trans > got


def test_adaptive_beats_transversal_on_pentagon_grid():
    code = pentagon_code()
    for eta in (0.85, 0.9, 0.95, 1.0):
        ra = logical_fusion(code, 0.5, eta)
        rt = transversal(code, 0.5, eta)
        assert ra.p_success >= rt.p_success - 1e-12


@pytest.mark.parametrize("name", sorted(golden_codes()))
def test_result_matches_term_loop_bit_for_bit(name):
    # the numpy kernel must reproduce every float of the plain-Python term
    # loop of its arithmetic, over a dense eta grid and at the 0.0 ** 0
    # corners, each point evaluated alone
    code = golden_codes()[name]
    models = [(p_fail, i / 1000) for p_fail in (1.0, 0.5, 0.25, 2 ** -8)
              for i in range(1001)]
    models += [(0.0, 0.0), (0.0, 1.0)]
    analysis = AdaptiveFusionAnalysis(code)
    for randomize in (False, True):
        terms = adaptive_float_terms(adaptive_terms(analysis, randomize))
        for p_fail, eta in models:
            got = tuple(analysis.result(p_fail, eta, randomize)[0].tolist())
            want = adaptive_result_reference(terms, p_fail, eta)
            assert got == want, (randomize, p_fail, eta)


def test_one_walk_keeps_each_models_terms_and_order():
    # the one walk compiles both gate models; each model's terms, and the
    # order their keys were first tallied in (the order result sums its
    # columns in), equal a walk of that model alone, on the compile-cold
    # benchmark's seven codes and on every rooted 7-vertex class
    codes = [pentagon_code(), decorated_pentagon_code(), branched_chain_code(),
             shor_22_code(), cube_code(), tree_code([3, 2]), tree_code([2, 2, 1])]
    codes += list(enumerate_candidates(7))
    assert len(codes) == 7 + 63
    for code in codes:
        analysis = AdaptiveFusionAnalysis(code)
        for randomize in (False, True):
            got = adaptive_terms(analysis, randomize)
            want = adaptive_terms_reference(code, randomize)
            assert list(got) == list(want)
            for klass in want:
                assert list(got[klass].items()) == list(want[klass].items()), \
                    (code, randomize, klass)


def test_columns_are_built_for_the_model_asked():
    # the compile keeps the tally alone; result builds a gate model's
    # columns the first time it is asked for that model, and a search
    # that reads only the randomized one never builds the fixed one
    analysis = AdaptiveFusionAnalysis(cube_code())
    assert analysis._built == [None, None]
    first = analysis.result(0.5, 0.9, randomize_failures=True)
    assert analysis._built[0] is None and analysis._built[1] is not None
    built = analysis._built[1]
    again = analysis.result(0.5, 0.9, randomize_failures=True)
    assert analysis._built[1] is built
    assert first.tolist() == again.tolist()
    analysis.result(0.5, 0.9)
    assert analysis._built[0] is not None


def test_fusion_then_fbqc_walks_a_code_once(monkeypatch, capsys):
    # the fixed-basis fusion and the randomized fbqc threshold read one
    # compile of the code
    walks = []
    compile_code = AdaptiveFusionAnalysis.__init__

    def counted(self, code):
        walks.append(code)
        compile_code(self, code)

    monkeypatch.setattr(AdaptiveFusionAnalysis, "__init__", counted)
    forget(cube_code())
    assert cli.main(["fusion", "--graph", "cube", "--eta", "0.9"]) == 0
    assert cli.main(["fbqc", "--graph", "cube", "--pfail", "0.5"]) == 0
    assert walks == [cube_code()]
    assert fusion._adaptive_analysis(cube_code()) is not None
    assert walks == [cube_code()]
    capsys.readouterr()


def test_target_needs_match_operator_masks():
    # on 7, 9 and 10 qubits, where a letter placed at q + 3k instead of
    # q + k*n lands on another qubit's bit: a strategy table holds the
    # pairs whose joint letters admit its letter there, the output qubit
    # an A letter only, and a coset table the members whose own letters
    # do; the cosets are the X and Z logicals times the stabilizers,
    # sorted by (weight, x, z), with the X members marked
    for code in (cube_code(), tree_code([3, 2]), tree_code([2, 2, 1])):
        n = code.n
        strategies = _strategies(code)
        for t in range(len(strategies)):
            (first, second), output = strategies[t]
            # the output qubit is an A letter only
            need = first.masks | second.masks
            for k in range(3):
                need &= ~(1 << output + k * n)
            check_target(strategies, t, need | 1 << output + 3 * n)
        cosets, is_x = _cosets(code)
        want = coset_members_reference(code)
        assert len(cosets) == len(want)
        for t, (op, x_member) in enumerate(want):
            assert (cosets.x[t], cosets.z[t], is_x[t]) == (op.x, op.z, x_member)
            check_target(cosets, t, op.masks)
        group = stabilizer_group(code)
        for logical, x_member in ((code.logical_x, True), (code.logical_z, False)):
            got = [op.masks for op, m in want if m == x_member]
            assert sorted(got) == sorted((logical * s).masks for s in group)


def check_target(ts, t: int, need: int) -> None:
    """Target ``t`` of ``ts`` sits in each table exactly when ``pauli.fits``
    admits ``need`` once that table's qubit reads its letter, or is lost."""
    n = ts.n
    g = next(g for g in range(len(ts.outputs)) if t < ts.starts[g + 1])
    bit = 1 << t - ts.starts[g]
    for q in range(n):
        others = ((1 << 4 * n) - 1) & ~spread(1 << q, n, BASES)
        for k in range(LOST + 1):
            allowed = others | (spread(1 << q, n, BASES[k]) if k < LOST else 0)
            assert bool(ts.admits[g][q + k * n] & bit) == fits(need, allowed)


def _walk_allowed(pattern, interfaces) -> int:
    """The adaptive walk's masks: the interfaces' letters, and A letters
    on unmeasured qubits only."""
    n = pattern.n
    letters = pattern.allowed() | interface_letters(interfaces, n)
    letters &= (1 << 3 * n) - 1
    return letters | pattern.unmeasured << 3 * n


def test_walk_narrowing_matches_full_refilter():
    # along random fuse (s, fx, fz) and lose paths, narrowing the parent's
    # candidates by each move gives what testing every strategy with
    # pauli.fits gives, and a fused qubit's side decoder starts from the
    # group of strategies toward it, which is every strategy toward it
    # that fits the side decoder's masks
    rng = random.Random(11)
    emptied = 0
    for code in (decorated_pentagon_code(), cube_code()):
        sts = _strategies(code)
        need = [target_need(*sts[t]) for t in range(len(sts))]

        def members(state):
            return [sts.starts[g] + i for g, bits in enumerate(state)
                    for i in range(bits.bit_length()) if bits >> i & 1]

        for _ in range(30):
            pattern, interfaces, cands = MeasurementPattern(code.n), (), sts.full()
            while True:
                allowed = _walk_allowed(pattern, interfaces)
                assert members(cands) == [t for t in range(len(sts))
                                          if fits(need[t], allowed)]
                if not any(cands):
                    emptied += 1
                    break
                q = rng.choice([g for g, bits in enumerate(cands) if bits])
                move = rng.choice(("s", "fx", "fz", "lose"))
                if move == "lose":
                    pattern = pattern.lose(q)
                    cands = sts.narrow(cands, q, LOST)
                    continue
                pattern = pattern.measure(q, "A")
                interfaces += ((q, move),)
                if move == "s":
                    side = (pattern.allowed()
                            | interface_letters(interfaces, code.n))
                    toward = [0] * code.n
                    toward[q] = cands[sts.toward(q)]
                    assert members(toward) == [
                        t for t in range(len(sts))
                        if sts[t][1] == q and fits(need[t], side)]
                    break
                cands = sts.narrow(cands, q, BASES.index(move[1].upper()))
    assert emptied > 0
