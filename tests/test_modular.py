"""Layered stacks: cascade/concatenation recursions, thresholds, stack search.

Anchors: closed-form star-cascade and star-concatenation formulas, exhaustive
decision trees built on the explicit composite graphs, and clairvoyant
survivor-lattice oracles.  The recursion commits each block to one delivery
basis in advance, so against a full-graph decoder it is a lower bound that
turns into exact equality precisely when no survivor knowledge can change
the choice; both sides of that line are pinned here.
"""

from __future__ import annotations

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from _oracles import (
    build_cascade_code,
    clairvoyant_pauli_masks,
    clairvoyant_teleport_masks,
    evaluate_masks,
    teleport_bound_masks,
)
from graphcode_lt.codes import (
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    pentagon_code,
    shor_22_code,
    star_code,
    tree_code,
    tree_progenitor,
)
from graphcode_lt.graphs import canonical_key
from graphcode_lt.losstree import (
    build_arbitrary_tree,
    build_pauli_tree,
    success_polynomial,
)
from graphcode_lt.modular import (
    MODES,
    LayerStack,
    StackResult,
    fixed_point_threshold,
    logical_transmission,
    optimize_stack,
    stack_flip_rates,
    unit_F,
    _top,
)
from graphcode_lt.polynomials import BASES, break_even
from graphcode_lt.search import enumerate_candidates


def logical(layers, mode, eta) -> dict:
    return logical_transmission(LayerStack(layers, mode, eta))


def top(stack: LayerStack) -> dict:
    """The outermost unit's code-qubit transmissions of a one-point stack,
    as floats keyed by basis."""
    return {b: v.item() for b, v in _top(stack).items()}


# -- value containers ---------------------------------------------------------------


def test_layer_stack_validation():
    pent = pentagon_code()
    with pytest.raises(ValueError):
        LayerStack([], "cascaded", 0.9)
    with pytest.raises(ValueError):
        LayerStack([pent], "stacked", 0.9)
    with pytest.raises(ValueError):
        LayerStack([pent], "cascaded", 1.2)
    with pytest.raises(TypeError):
        LayerStack([pent.progenitor], "cascaded", 0.9)
    stack = LayerStack([pent, pent], "cascaded", 0.9)
    assert len(stack.layers) == 2
    assert stack.mode == "cascaded"
    assert stack.layers == (pent, pent)


def test_layer_stack_compares_by_value():
    # stacks of the same layers, mode and eta are equal and hash alike,
    # a block eta as its tuple of floats, and a pickled stack equals its
    # original
    pent, cube = pentagon_code(), cube_code()
    for eta in (0.9, [0.25, 0.5], np.array([0.25, 0.5])):
        stack = LayerStack([pent, cube], "cascaded", eta)
        twin = LayerStack((pent, cube), "cascaded", eta)
        assert stack == twin and hash(stack) == hash(twin)
        assert len({stack, twin}) == 1
        assert pickle.loads(pickle.dumps(stack)) == stack
    block = LayerStack([pent], "cascaded", np.array([0.25, 0.5]))
    assert block.eta == (0.25, 0.5) and type(block.eta[0]) is float
    assert block == LayerStack([pent], "cascaded", (0.25, 0.5))
    assert block != LayerStack([pent], "cascaded", (0.25, 0.75))
    assert block != LayerStack([pent], "concatenated", (0.25, 0.5))
    assert block != LayerStack([cube], "cascaded", (0.25, 0.5))


def test_qubit_counts_per_mode():
    pent = pentagon_code()
    # [TRIVIAL] pentagon unit has 4 code qubits; a cascade keeps every layer
    # physical (4 + 16 + 64) while concatenation keeps only the deepest (4^3)
    assert LayerStack([pent] * 2, "cascaded", 0.9).qubit_count == 20
    assert LayerStack([pent] * 2, "concatenated", 0.9).qubit_count == 16
    assert LayerStack([pent] * 3, "cascaded", 0.9).qubit_count == 84
    assert LayerStack([pent] * 3, "concatenated", 0.9).qubit_count == 64
    assert LayerStack([tree_code([2]), tree_code([3])], "cascaded", 0.9).qubit_count == 8


# -- unit response functions ----------------------------------------------------------


def test_unit_f_validates_basis():
    with pytest.raises(ValueError):
        unit_F(pentagon_code(), "W")


def test_unit_f_extremes_and_monotonicity():
    # [TRIVIAL] perfect transmission always succeeds, total loss never does
    for code in (pentagon_code(), cube_code(), tree_code([2, 2])):
        for basis in "XYZA":
            poly = unit_F(code, basis)
            one = {"X": 1.0, "Y": 1.0, "Z": 1.0, "A": 1.0}
            assert poly.evaluate_heterogeneous(one) == pytest.approx(1.0, abs=1e-12)
            zero = {"X": 0.0, "Y": 0.0, "Z": 0.0, "A": 0.0}
            assert poly.evaluate_heterogeneous(zero) == pytest.approx(0.0, abs=1e-12)
    # component-wise monotone: raising any basis transmission cannot hurt
    poly = unit_F(pentagon_code(), "A")
    base = {"X": 0.5, "Y": 0.6, "Z": 0.7, "A": 0.55}
    low = poly.evaluate_heterogeneous(base)
    for key in "XYZA":
        bumped = dict(base)
        bumped[key] = min(1.0, bumped[key] + 0.2)
        assert poly.evaluate_heterogeneous(bumped) >= low - 1e-12


def test_unit_f_needs_every_basis_transmission():
    # a basis left out of the vector must not read as perfect transmission
    with pytest.raises(KeyError):
        unit_F(pentagon_code(), "A").evaluate_heterogeneous({"X": 0.5})


def test_star_unit_heterogeneous_closed_forms():
    # [DERIVED: star logical Z is X on any one leaf, logical X is Z on all
    # leaves, so F_Z = 1 - (1 - r_X)^n and F_X = r_Z^n]
    r = {"X": 0.37, "Y": 0.81, "Z": 0.64, "A": 0.5}
    for n in (2, 3, 4):
        star = star_code(n)
        fz = unit_F(star, "Z").evaluate_heterogeneous(r)
        assert fz == pytest.approx(1 - (1 - r["X"]) ** n, abs=1e-12)
        fx = unit_F(star, "X").evaluate_heterogeneous(r)
        assert fx == pytest.approx(r["Z"] ** n, abs=1e-12)


def test_cube_pauli_symmetry():
    # [PAPER: the cube code's loss tolerance is basis-independent]
    for eta in (0.3, 0.55, 0.8, 0.95):
        values = {unit_F(cube_code(), b).evaluate(eta) for b in "XYZ"}
        assert max(values) - min(values) < 1e-12


# -- cascades ---------------------------------------------------------------------------


def test_single_layer_stack_is_bare():
    # [TRIVIAL: empty recursion] one layer means bare physical code qubits
    for mode in MODES:
        stack = LayerStack([pentagon_code()], mode, 0.83)
        assert top(stack) == dict.fromkeys(BASES, 0.83)
    got = logical(([pentagon_code()]), "cascaded", 0.8)
    assert got["Z"] == pytest.approx(2 * 0.8 ** 2 - 0.8 ** 4, abs=1e-12)
    assert got["A"] == pytest.approx(4 * 0.8 ** 3 - 3 * 0.8 ** 4, abs=1e-12)


def test_cascade_star_closed_forms():
    # [DERIVED: one cascade step sends x -> eta * eta^b (direct measurement
    # and the block's all-leaf delivery) and z -> 1 - (1-eta)^(b+1) (direct
    # or any leaf of the block); the top star then applies the closed forms
    # of the previous test]
    for b1, b2 in ((2, 2), (2, 3), (3, 2), (4, 2)):
        for eta in (0.4, 0.7, 0.9):
            got = logical([tree_code([b1]), tree_code([b2])], "cascaded", eta)
            z = 1 - (1 - eta ** (b2 + 1)) ** b1
            x = (1 - (1 - eta) ** (b2 + 1)) ** b1
            assert got["Z"] == pytest.approx(z, abs=1e-12)
            assert got["X"] == pytest.approx(x, abs=1e-12)


def test_cascade_matches_direct_trees_on_star_family():
    # [DERIVED: exhaustive Pauli decision trees on the explicit cascaded
    # graph; for star units the committed recursion loses nothing in X or Z,
    # so the two routes agree to floating-point precision]
    for branching in ([2, 2], [2, 3], [3, 2]):
        units = [tree_code([b]) for b in branching]
        code = build_cascade_code(units)
        for basis in "XZ":
            poly = success_polynomial(build_pauli_tree(code, basis))
            for eta in (0.45, 0.7, 0.9):
                got = logical(units, "cascaded", eta)[basis]
                assert got == pytest.approx(poly.evaluate(eta), abs=1e-12)


def test_cascade_matches_direct_trees_depth_three():
    # [DERIVED: same equivalence three layers deep, 14 physical qubits]
    units = [tree_code([2])] * 3
    code = build_cascade_code(units)
    assert code.n == 14
    for basis in "XZ":
        poly = success_polynomial(build_pauli_tree(code, basis))
        for eta in (0.6, 0.9):
            got = logical(units, "cascaded", eta)[basis]
            assert got == pytest.approx(poly.evaluate(eta), abs=1e-12)


def test_cascade_star_over_pentagon_pauli_equalities():
    # [DERIVED: with the star on top the X pattern demands one fixed basis
    # per block, so the recursion is exact for X and matches the committed
    # tree for Z]
    units = [tree_code([2]), pentagon_code()]
    code = build_cascade_code(units)
    assert code.n == 10
    for basis, eta in (("X", 0.6), ("X", 0.9), ("Z", 0.6), ("Z", 0.9)):
        poly = success_polynomial(build_pauli_tree(code, basis))
        got = logical(units, "cascaded", eta)[basis]
        assert got == pytest.approx(poly.evaluate(eta), abs=1e-12)


def test_cascade_is_a_committed_lower_bound():
    # [DERIVED: with the pentagon on top the full-graph decoder can steer
    # different blocks to different bases after seeing losses, which the
    # per-block commitment cannot express; the survivor-lattice oracle in
    # turn beats the committed tree]
    units = [pentagon_code(), tree_code([2])]
    code = build_cascade_code(units)
    assert code.n == 12
    rec = logical(units, "cascaded", 0.6)["X"]
    tree = success_polynomial(build_pauli_tree(code, "X")).evaluate(0.6)
    clair = evaluate_masks(clairvoyant_pauli_masks(code, "X"), code.n, 0.6)
    assert rec == pytest.approx(0.881876865024, abs=1e-9)
    assert tree == pytest.approx(0.900318302208, abs=1e-9)
    assert clair == pytest.approx(0.900509405184, abs=1e-9)
    assert rec < tree < clair


def test_cascade_pivot_gap_identity():
    # [DERIVED: for star2 over star2 in Y the recursion commits the Y demand
    # to one branch, value y*z with y = eta^3 (host plus its block) and
    # z = 1 - (1-eta)^3 (host or either child).  When that host is lost the
    # full tree pivots the Y demand to the other branch while the lost side
    # still yields Z through its two children, adding exactly
    # (1-eta) * eta^3 * (1 - (1-eta)^2)]
    units = [tree_code([2]), tree_code([2])]
    eta = 0.9
    rec = logical(units, "cascaded", eta)["Y"]
    code = build_cascade_code(units)
    tree = success_polynomial(build_pauli_tree(code, "Y")).evaluate(eta)
    y, z = eta ** 3, 1 - (1 - eta) ** 3
    assert rec == pytest.approx(y * z, abs=1e-12)
    pivot = (1 - eta) * eta ** 3 * (1 - (1 - eta) ** 2)
    assert tree == pytest.approx(rec + pivot, abs=1e-12)


def test_cascade_choices_attain_the_block_maximum():
    # non-Z demands on a cascaded qubit go through whichever of the block's
    # logical X and Y is stronger at the vector fed to it; X and Y tie on
    # the pentagon, X is stronger on the other units
    units = (pentagon_code(), tree_code([2, 1]), tree_code([2, 2]),
             decorated_pentagon_code())
    for unit in units:
        for eta in (0.6, 0.8, 0.95):
            r = dict.fromkeys(BASES, eta)
            fx, fy = (unit_F(unit, b).evaluate_heterogeneous(r) for b in "XY")
            got = top(LayerStack([unit, unit], "cascaded", eta))
            assert got["X"] == got["Y"] == got["A"] == eta * max(fx, fy)


def test_twenty_qubit_cascade_against_lattice_oracles():
    # [DERIVED: survivor-lattice oracles over all 2^20 loss patterns; X and
    # Z bounds are exact clairvoyance, the teleport bound ignores letter
    # clashes away from the output and so is a strict upper bound]
    pent = pentagon_code()
    units = [pent, pent]
    code = build_cascade_code(units)
    assert code.n == 20
    got = logical(units, "cascaded", 0.9)
    assert got["X"] == pytest.approx(0.998216805878, abs=1e-9)
    assert got["Z"] == pytest.approx(0.981606751478, abs=1e-9)
    assert got["A"] == pytest.approx(0.953169949696, abs=1e-9)
    clair_x = evaluate_masks(clairvoyant_pauli_masks(code, "X"), 20, 0.9)
    clair_z = evaluate_masks(clairvoyant_pauli_masks(code, "Z"), 20, 0.9)
    assert clair_x == pytest.approx(0.999125963009, abs=1e-9)
    assert clair_z == pytest.approx(0.985978269325, abs=1e-9)
    assert got["X"] <= clair_x and got["Z"] <= clair_z
    bound_a = evaluate_masks(teleport_bound_masks(code), 20, 0.9)
    assert bound_a == pytest.approx(0.985230047976, abs=1e-9)
    assert got["A"] <= bound_a
    # [TRIVIAL] nothing is lost at eta = 1
    perfect = logical(units, "cascaded", 1.0)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in perfect.values())


def test_unit_trees_and_teleport_clairvoyance():
    # [DERIVED: quadratic pair enumeration over whole cosets; the pentagon,
    # decorated pentagon and stars already meet the clairvoyant bound, the
    # cube and branched chain trees are strictly committed]
    tight = [pentagon_code(), decorated_pentagon_code(), star_code(4)]
    for code in tight:
        tree = success_polynomial(build_arbitrary_tree(code)).evaluate(0.8)
        clair = evaluate_masks(clairvoyant_teleport_masks(code), code.n, 0.8)
        assert tree == pytest.approx(clair, abs=1e-12)
    for code in (cube_code(), branched_chain_code()):
        tree = success_polynomial(build_arbitrary_tree(code)).evaluate(0.8)
        clair = evaluate_masks(clairvoyant_teleport_masks(code), code.n, 0.8)
        assert tree < clair - 1e-6


def test_decorated_pentagon_z_tree_is_not_clairvoyant():
    # [DERIVED: at eta = 0.35 the committed Z tree leaves reachable survivor
    # sets on the table; pinning the gap guards both implementations]
    code = decorated_pentagon_code()
    tree = success_polynomial(build_pauli_tree(code, "Z")).evaluate(0.35)
    clair = evaluate_masks(clairvoyant_pauli_masks(code, "Z"), code.n, 0.35)
    assert tree == pytest.approx(0.248108437500, abs=1e-9)
    assert clair == pytest.approx(0.259882984375, abs=1e-9)


def test_build_cascade_code_star_family_is_a_tree():
    got = build_cascade_code([tree_code([2]), tree_code([3])])
    want = tree_progenitor([2, 3])
    assert canonical_key(got.progenitor) == canonical_key(want)
    assert got.n == 8
    assert build_cascade_code([pentagon_code(), pentagon_code()]).n == 20
    with pytest.raises(ValueError):
        build_cascade_code([])


def test_mode_guards():
    pent = pentagon_code()
    with pytest.raises(ValueError):
        stack_flip_rates(LayerStack([pent, pent], "cascaded", 0.9), 0.01)


# -- concatenation ------------------------------------------------------------------------


def test_concat_star_closed_forms():
    # [DERIVED: substitution has no direct-measurement term, so the star
    # composition is a plain function composition]
    for eta in (0.4, 0.6, 0.9):
        got = logical([tree_code([2]), tree_code([3])], "concatenated", eta)
        assert got["Z"] == pytest.approx(1 - (1 - eta ** 3) ** 2, abs=1e-12)
        assert got["X"] == pytest.approx((1 - (1 - eta) ** 3) ** 2, abs=1e-12)


def test_concat_two_layer_composition_identity():
    # composing the unit polynomial with itself must equal the recursion
    pent = pentagon_code()
    eta = 0.85
    inner = {b: unit_F(pent, b).evaluate(eta) for b in ("X", "Y", "Z", "A")}
    got = top(LayerStack([pent, pent], "concatenated", eta))
    assert got == pytest.approx(inner, abs=1e-12)
    outer = logical([pent, pent], "concatenated", eta)
    for basis in ("X", "Y", "Z", "A"):
        direct = unit_F(pent, basis).evaluate_heterogeneous(inner)
        assert got is not None and outer[basis] == pytest.approx(direct, abs=1e-12)


def test_cascade_z_route_dominates_concat_z():
    # [DERIVED: eta + (1-eta)*F >= F, so the cascade's direct-or-indirect Z
    # route beats pure substitution; no such order holds for X, Y or A,
    # whose cascade routes also need the host qubit itself]
    for eta in (0.4, 0.6, 0.8, 0.9):
        for unit in (pentagon_code(), tree_code([3])):
            casc = top(LayerStack([unit, unit], "cascaded", eta))
            conc = top(LayerStack([unit, unit], "concatenated", eta))
            assert casc["Z"] >= conc["Z"] - 1e-12
            assert casc["Z"] >= eta - 1e-12


def test_concat_depth_three_matches_exact_fraction_evaluation():
    # [DERIVED: the fold applied to exact rationals; in floats the cube's X
    # transmission rounds to 1.0000000000000002 at this eta]
    cube = cube_code()
    eta = Fraction("0.92")

    def exact(basis, r):
        total = Fraction(0)
        for (a, b), mult in unit_F(cube, basis).terms.items():
            term = Fraction(mult)
            for i, m in enumerate(BASES):
                term *= r[m] ** a[i] * (1 - r[m]) ** b[i]
            total += term
        return total

    r = dict.fromkeys(BASES, eta)
    for _ in range(3):
        r = {m: exact(m, r) for m in BASES}
    got = logical([cube] * 3, "concatenated", float(eta))
    for m in BASES:
        assert 0.0 <= got[m] <= 1.0
        assert got[m] == pytest.approx(float(r[m]), abs=1e-12)


# -- thresholds ---------------------------------------------------------------------------


def test_cube_fixed_point_threshold_is_one_half():
    # [PAPER: basis-independent units self-concatenate up to 50% loss]
    got = fixed_point_threshold(cube_code())
    assert got == pytest.approx(0.5, abs=1e-6)


def test_star_fixed_point_extremes():
    # [DERIVED: the star Z map 1 - (1-v)^n flows to 1 from any positive
    # start, so every loss below 1 is recoverable; the X map v^n flows to 0]
    assert fixed_point_threshold(star_code(4), bases=("Z",)) == pytest.approx(1.0, abs=1e-6)
    assert fixed_point_threshold(star_code(4), bases=("X",)) == pytest.approx(0.0, abs=1e-6)
    # the joint Pauli map is limited by its weakest component
    assert fixed_point_threshold(star_code(4)) == pytest.approx(0.0, abs=1e-6)


def test_fixed_point_threshold_none_on_identity_map():
    # [TRIVIAL] a single-qubit code passes transmission through unchanged
    assert fixed_point_threshold(star_code(1), bases=("Z",)) is None


def test_arbitrary_basis_threshold_matches_break_even():
    # [DERIVED: for a scalar map the unstable fixed point is the break-even
    # crossing of the unit curve, giving a closed form for the pentagon]
    got = fixed_point_threshold(pentagon_code(), bases=("A",))
    assert got == pytest.approx((5 - math.sqrt(13)) / 6, abs=1e-9)
    dpent = decorated_pentagon_code()
    got = fixed_point_threshold(dpent, bases=("A",))
    even = break_even(success_polynomial(build_arbitrary_tree(dpent)))
    assert got == pytest.approx(even, abs=1e-5)
    assert got == pytest.approx(0.318923057523, abs=1e-9)


def test_fixed_point_threshold_exact_values():
    # [DERIVED: the pentagon's X, Y and Z unit maps are all 2v^2 - v^4, and
    # P(v) - v = -v (v - 1)(v^2 + v - 1) rises above zero past
    # (sqrt(5) - 1) / 2]
    got = fixed_point_threshold(pentagon_code())
    assert got == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
    # [DERIVED: the Y map, 3v^3 - 2v^4 on the branched chain and Shor code
    # and 5v^4 - 6v^5 + 2v^6 on tree[2,2], lies below the identity just
    # under 1, so no transmission short of 1 climbs]
    for code in (branched_chain_code(), shor_22_code(), tree_code([2, 2])):
        assert fixed_point_threshold(code) == 0.0
    with pytest.raises(ValueError):
        fixed_point_threshold(pentagon_code(), bases=())


def test_fixed_point_threshold_is_the_last_rise():
    # [DERIVED: eta* = 1 - threshold is the last point where the scalar map
    # m(v) = min over X, Y, Z of P_b(v) is not above the identity; on the
    # 1/4096 grid, in exact Fractions, m is above v at the first point past
    # eta* and not at the last point before it]
    library = [pentagon_code(), decorated_pentagon_code(), cube_code(),
               branched_chain_code(), shor_22_code(), star_code(4),
               tree_code([2, 2])]
    for code in [*library, *enumerate_candidates(7)]:
        maps = [unit_F(code, b).eta_coefficients() for b in "XYZ"]

        def above(k: int) -> bool:
            v = Fraction(k, 4096)
            return min(sum(c * v ** e for e, c in p.items()) for p in maps) > v

        grid = 4096 * Fraction(1 - fixed_point_threshold(code))
        if grid < 4096:
            assert above(math.floor(grid) + 1), code
        if grid > 0:
            assert not above(math.ceil(grid) - 1), code


def test_stack_flip_rates_bracket_the_cube_error_threshold():
    # [PAPER: lambda* = 3.2%] deeper self-concatenation suppresses flips
    # below threshold and amplifies them above
    cube = cube_code()

    def worst(depth, lam):
        stack = LayerStack([cube] * depth, "concatenated", 1.0)
        return max(stack_flip_rates(stack, lam))

    below = [worst(d, 0.025) for d in (1, 2, 3)]
    assert below[1] < below[0] and below[2] < below[1]
    above = [worst(d, 0.04) for d in (1, 2, 3)]
    assert above[1] > above[0] and above[2] > above[1]


# -- stack search -------------------------------------------------------------------------


def test_optimize_stack_is_sorted_and_consistent():
    lib = [tree_code([2]), pentagon_code()]
    results = optimize_stack(lib, 2, 0.9, basis="A")
    assert len(results) == 2 + 4
    losses = [r.logical_loss for r in results]
    assert losses == sorted(losses)
    for res in results:
        direct = logical_transmission(res.stack)["A"]
        assert res.logical_loss == pytest.approx(1 - direct, abs=1e-12)
        assert res.qubit_count == res.stack.qubit_count
        assert res.stack.mode == "concatenated"
        assert res.stack.eta == 0.9


def test_optimize_stack_mixed_library_beats_stars():
    # [DERIVED: stars cannot teleport (their arbitrary-basis value is
    # eta^n), so any pentagon-bearing stack wins the arbitrary objective]
    lib = [tree_code([2]), tree_code([3]), pentagon_code(), branched_chain_code()]
    mixed = optimize_stack(lib, 2, 0.9, basis="A")
    stars = optimize_stack([tree_code([2]), tree_code([3])], 2, 0.9, basis="A")
    assert mixed[0].logical_loss == pytest.approx(0.009865254424, abs=1e-9)
    assert stars[0].logical_loss == pytest.approx(0.19, abs=1e-9)
    assert mixed[0].logical_loss < stars[0].logical_loss / 15
    top = mixed[0].stack.layers[0]
    assert top == pentagon_code()


def test_optimize_stack_guards():
    with pytest.raises(ValueError):
        optimize_stack([], 2, 0.9)
    with pytest.raises(ValueError):
        optimize_stack([pentagon_code()], 1, 0.9, mode="nested")


def test_optimize_stack_cascaded_mode_agrees_with_recursion():
    lib = [tree_code([2]), pentagon_code()]
    results = optimize_stack(lib, 2, 0.8, basis="Z", mode="cascaded")
    for res in results:
        direct = logical_transmission(res.stack)["Z"]
        assert res.logical_loss == pytest.approx(1 - direct, abs=1e-12)


def test_optimize_stack_loss_is_the_clamped_recursion():
    # the float sum of a depth-3 concatenated cube's X polynomial rounds past
    # 1 at eta 0.92; the search must clamp it as logical_transmission does,
    # not report a negative loss
    for res in optimize_stack([cube_code()], 3, 0.92, basis="X"):
        assert res.logical_loss >= 0.0
        assert res.logical_loss == 1 - logical_transmission(res.stack)["X"]


def test_stack_result_repr_and_immutable():
    res = optimize_stack([pentagon_code()], 1, 0.9)[0]
    assert "StackResult" in repr(res)
    with pytest.raises(AttributeError):
        res.logical_loss = 0.0
