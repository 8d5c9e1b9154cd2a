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

from graphcode_lt.codes import (
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    pentagon_code,
    star_code,
)
from graphcode_lt.fusion import (
    AdaptiveFusionAnalysis,
    FusionModel,
    adaptive_fusion,
    compile_failure_bases,
    transversal_fusion,
    _interface_letters,
    _classify,
    _recovery_table,
    _transversal_counts,
)
from graphcode_lt.losstree import SMALL, _strategies
from graphcode_lt.opsets import ResourceLimitError
from graphcode_lt.pauli import BASIS_FUSION, MeasurementPattern, fits

from _oracles import (
    _embed,
    _pair,
    adaptive_result_reference,
    transversal_counts_reference,
)
from test_golden import _codes as golden_codes


def result_sum(r) -> float:
    return r.p_success + r.p_fail_logical + r.p_loss_logical


# -- outcome model ----------------------------------------------------------------


def test_fusion_model_outcomes_sum_to_one():
    for p_fail in (0.5, 0.25, 0.125):
        for eta in (0.0, 0.5, 0.9, 1.0):
            fm = FusionModel(p_fail, eta)
            assert fm.s + fm.f + fm.l == pytest.approx(1.0, abs=1e-15)
            assert fm.s == pytest.approx(eta ** (1 / p_fail) * (1 - p_fail))


def test_fusion_model_zero_failure():
    """p_fail = 0 is the deterministic-gate limit: eta^(1/p_fail) goes to
    0 below eta = 1 and is 1 at it.  The model keeps it in its domain
    (test_adaptive_perfect_gates relies on it), while the network figures
    of merit, which need a finite photon count per gate, refuse it."""
    assert FusionModel(0.0, 1.0).s == 1.0
    assert FusionModel(0.0, 0.9).l == 1.0


def test_fusion_model_validation():
    with pytest.raises(ValueError):
        FusionModel(-0.1, 0.9)
    with pytest.raises(ValueError):
        FusionModel(0.5, 1.1)
    with pytest.raises(ValueError):
        FusionModel.boosted(0, 0.9)


def test_boosted_levels_match_model():
    for m in (1, 2, 3):
        fm = FusionModel.boosted(m, 0.97)
        assert fm.p_fail == 2.0 ** -m
        # a bare boosted fusion succeeds with (1 - 2^-m) eta^(2^m)
        want = (1.0 - 2.0 ** -m) * 0.97 ** (2 ** m)
        assert fm.s == pytest.approx(want, abs=1e-15)


def test_boosted_baseline_values():
    # [PAPER: standard fusions succeed half the time]
    assert FusionModel.boosted(1, 1.0).s == pytest.approx(0.5)
    # [TRIVIAL] 1 - 1/8
    assert FusionModel.boosted(3, 1.0).s == pytest.approx(0.875)
    # [DERIVED: direct evaluation]
    assert FusionModel.boosted(2, 0.99).s == pytest.approx(0.75 * 0.99 ** 4,
                                                           abs=1e-15)


def test_erasure_is_half_failure_plus_loss():
    r = transversal_fusion(star_code(2), FusionModel(0.5, 0.9))
    want = r.p_loss_logical + 0.5 * r.p_fail_logical
    assert r.erasure_xx == pytest.approx(want, abs=1e-15)


# -- transversal engine ------------------------------------------------------------


def test_single_qubit_code_reduces_to_physical_fusion():
    # [TRIVIAL] one fused pair: success iff the gate succeeds, the failure
    # parity matches one logical, loss erases both
    fm = FusionModel(0.5, 0.9)
    r = transversal_fusion(star_code(1), fm)
    assert r.p_success == pytest.approx(fm.s, abs=1e-15)
    assert r.p_fail_logical == pytest.approx(fm.f, abs=1e-15)
    assert r.p_loss_logical == pytest.approx(fm.l, abs=1e-15)


def test_star_codes_at_unit_transmission():
    # [DERIVED: 3^n enumeration at eta=1; the XX logical parity is a pure
    # Z-type product, so only the all-fail assignment misses ZZ]
    for n in (2, 3, 4, 5):
        code = star_code(n)
        fm = FusionModel(0.5, 1.0)
        r = transversal_fusion(code, fm)
        assert r.p_success == pytest.approx(1.0 - 2.0 ** -n, abs=1e-12)
        assert r.p_fail_logical == pytest.approx(2.0 ** -n, abs=1e-12)
        assert r.p_loss_logical == pytest.approx(0.0, abs=1e-15)
        assert compile_failure_bases(code, fm) == ("Z",) * n


def test_transversal_conservation_and_unit_loss():
    for code in (pentagon_code(), branched_chain_code(), cube_code()):
        for fm in (FusionModel(0.5, 0.9), FusionModel(0.25, 0.8)):
            r = transversal_fusion(code, fm)
            assert result_sum(r) == pytest.approx(1.0, abs=1e-12)
        r = transversal_fusion(code, FusionModel(0.5, 1.0))
        assert r.p_loss_logical == pytest.approx(0.0, abs=1e-15)


def test_transversal_randomized_conservation():
    r = transversal_fusion(pentagon_code(), FusionModel(0.5, 0.9),
                           randomize_failures=True)
    assert result_sum(r) == pytest.approx(1.0, abs=1e-12)


def test_transversal_limit_and_bases_validation():
    # 13 qubits: past TRANSVERSAL_LIMIT, refused before any table is built
    for randomize in (False, True):
        with pytest.raises(ResourceLimitError, match="limit is n <= 12"):
            transversal_fusion(star_code(13), FusionModel(0.5, 0.9),
                               randomize_failures=randomize)
    with pytest.raises(ValueError):
        transversal_fusion(pentagon_code(), FusionModel(0.5, 0.9),
                           failure_bases=("Z", "Z"))


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
            got = _transversal_counts(code, fb, 12)
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
    r = adaptive_fusion(pentagon_code(), FusionModel(0.0, 1.0))
    assert r.p_success == pytest.approx(1.0, abs=1e-15)


def test_adaptive_two_qubit_closed_form():
    # [DERIVED: hand enumeration of the star-2 process; see the branch
    # bookkeeping in the module docstring tests]
    code = star_code(2)
    for p_fail, eta in ((0.5, 0.9), (0.25, 0.7), (0.5, 1.0)):
        fm = FusionModel(p_fail, eta)
        s, f, l = fm.s, fm.f, fm.l
        want_ps = s * eta ** 2 + f * s
        want_pf = s * (1 - eta ** 2) + f ** 2 + l * eta ** 2
        want_pl = f * l + l * (1 - eta ** 2)
        r = adaptive_fusion(code, fm)
        assert r.p_success == pytest.approx(want_ps, abs=1e-12)
        assert r.p_fail_logical == pytest.approx(want_pf, abs=1e-12)
        assert r.p_loss_logical == pytest.approx(want_pl, abs=1e-12)


def test_adaptive_single_qubit_equals_transversal():
    # [DERIVED: with one qubit the two protocols are the same gate]
    for fm in (FusionModel(0.5, 0.9), FusionModel(0.25, 0.95)):
        ra = adaptive_fusion(star_code(1), fm)
        rt = transversal_fusion(star_code(1), fm)
        assert ra.p_success == pytest.approx(rt.p_success, abs=1e-12)
        assert ra.p_fail_logical == pytest.approx(rt.p_fail_logical, abs=1e-12)


def test_adaptive_sequential_attempts_at_unit_transmission():
    # [DERIVED: at eta=1 every output can be attempted in turn, so only
    # the all-fail fusion path misses the teleportation]
    assert adaptive_fusion(star_code(3), FusionModel(0.5, 1.0)).p_success \
        == pytest.approx(1.0 - 0.5 ** 3, abs=1e-12)
    assert adaptive_fusion(cube_code(), FusionModel(0.5, 1.0)).p_success \
        == pytest.approx(1.0 - 0.5 ** 7, abs=1e-12)


def test_adaptive_conservation_and_unit_loss():
    codes = (star_code(3), pentagon_code(), decorated_pentagon_code())
    for code in codes:
        for fm in (FusionModel(0.5, 0.9), FusionModel(0.25, 0.8),
                   FusionModel(0.5, 1.0)):
            r = adaptive_fusion(code, fm)
            assert result_sum(r) == pytest.approx(1.0, abs=1e-12)
            if fm.eta == 1.0:
                assert r.p_loss_logical == pytest.approx(0.0, abs=1e-15)
        r = adaptive_fusion(code, FusionModel(0.5, 0.9),
                            randomize_failures=True)
        assert result_sum(r) == pytest.approx(1.0, abs=1e-12)


def test_adaptive_matches_attempt_ceiling_on_decorated_pentagon():
    # [DERIVED: an order-free upper bound for the strategy class; this
    # graph supports exactly two useful fusion attempts, so the adaptive
    # engine meets the bound and the transversal engine can exceed it]
    code = decorated_pentagon_code()
    sts = _strategies(code)
    outs = sorted(set(sts.output.tolist()))
    hits = 0
    for bits in product("sf", repeat=len(outs)):
        assign = dict(zip(outs, bits))
        pat = MeasurementPattern(code.n)
        ifs = []
        for o, b in assign.items():
            pat = pat.measure(o, BASIS_FUSION)
            ifs.append((o, "s" if b == "s" else "fz"))
        masks = pat.allowed(True) | _interface_letters(tuple(ifs), code.n)
        if any(assign[o] == "s" and fits(need, masks)
               for o, need in zip(sts.output.tolist(), sts.needs)):
            hits += 1
    ceiling = hits / 2 ** len(outs)
    got = adaptive_fusion(code, FusionModel(0.5, 1.0)).p_success
    assert got == pytest.approx(ceiling, abs=1e-12)
    # the logged counterexample to "adaptive beats transversal": on this
    # graph the transversal harvest is worth more than two attempts
    trans = transversal_fusion(code, FusionModel(0.5, 1.0)).p_success
    assert trans > got


def test_adaptive_beats_transversal_on_pentagon_grid():
    code = pentagon_code()
    for eta in (0.85, 0.9, 0.95, 1.0):
        fm = FusionModel(0.5, eta)
        ra = adaptive_fusion(code, fm)
        rt = transversal_fusion(code, fm)
        assert ra.p_success >= rt.p_success - 1e-12


@pytest.mark.parametrize("name", sorted(golden_codes()))
def test_result_matches_term_loop_bit_for_bit(name):
    # the column form must reproduce every float of the term-by-term
    # product, over a dense eta grid and at the 0.0 ** 0 corners
    code = golden_codes()[name]
    models = [FusionModel(p_fail, i / 1000) for p_fail in (1.0, 0.5, 0.25, 2 ** -8)
              for i in range(1001)]
    models += [FusionModel(0.0, 0.0), FusionModel(0.0, 1.0)]
    for randomize in (False, True):
        analysis = AdaptiveFusionAnalysis(code, randomize)
        for fm in models:
            got = analysis.result(fm)
            want = adaptive_result_reference(analysis, fm)
            assert (got.p_success, got.p_fail_logical,
                    got.p_loss_logical) == want, (randomize, fm)


def _walk_allowed(pattern, interfaces) -> int:
    """The adaptive walk's masks: the interfaces' letters, and A letters
    on unmeasured qubits only."""
    n = pattern.n
    letters = pattern.allowed(True) | _interface_letters(interfaces, n)
    letters &= (1 << 3 * n) - 1
    return letters | pattern.unmeasured << 3 * n


def test_walk_narrowing_matches_full_refilter():
    # along random fuse (s, fx, fz) and lose paths, narrowing the parent's
    # candidates gives what testing every strategy with pauli.fits gives,
    # and a fused qubit's side decoder starts from the same strategies
    # either way; the paths cross the size cut from above to below
    rng = random.Random(11)
    sizes = set()
    for code in (decorated_pentagon_code(), cube_code()):
        sts = _strategies(code)
        every = np.arange(len(sts))

        def refilter(allowed):
            return [t for t in range(len(sts)) if fits(sts.needs[t], allowed)]

        for _ in range(30):
            pattern, interfaces, cands = MeasurementPattern(code.n), (), every
            while True:
                allowed = _walk_allowed(pattern, interfaces)
                sizes.add(len(cands))
                cands = sts.narrow(cands, allowed)
                assert cands.tolist() == refilter(allowed)
                if not cands.size:
                    break
                q = rng.choice(sorted(set(sts.output[cands].tolist())))
                move = rng.choice(("s", "fx", "fz", "lose"))
                if move == "lose":
                    pattern = pattern.lose(q)
                    continue
                pattern = pattern.measure(q, BASIS_FUSION)
                interfaces += ((q, move),)
                if move == "s":
                    side = (pattern.allowed(True)
                            | _interface_letters(interfaces, code.n))
                    toward = every[sts.output == q]
                    assert (sts.narrow(cands[sts.output[cands] == q],
                                       side).tolist()
                            == sts.narrow(toward, side).tolist())
    assert min(sizes) < SMALL <= max(sizes)
