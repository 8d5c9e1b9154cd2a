"""The monomial kernel, ``polynomials.monomial_sums``, through every
engine that evaluates with it.

Each engine's floats must lie within 1e-12 of the exact (``Fraction``)
sum of its own terms at the same float bases, and a point's value must
be the same float whether it is evaluated alone or anywhere in a block.
"""

from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from graphcode_lt.apps import rgs_link_probability
from graphcode_lt.cli import BLOCK, main
from graphcode_lt.codes import (
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    pentagon_code,
    shor_22_code,
    tree_code,
)
from graphcode_lt.fusion import (
    AdaptiveFusionAnalysis,
    _gate_outcomes,
    _transversal_counts,
    compile_failure_bases,
    logical_fusion,
)
from graphcode_lt.losstree import (
    build_arbitrary_tree,
    build_pauli_tree,
    success_polynomial,
)
from graphcode_lt.modular import LayerStack, logical_transmission
from graphcode_lt.pauli import BASES
from graphcode_lt.polynomials import KERNEL_FLOATS, LossPolynomial, monomial_sums
from graphcode_lt.search import Objective, enumerate_candidates, evaluate_objective

# 20 dyadic transmissions, both ends included: 1 - eta is exact for each
DYADIC = [k / 16 for k in range(17)] + [1 / 32, 3 / 64, 63 / 64]
TOL = 1e-12


def _library() -> dict:
    return {"pentagon": pentagon_code(), "decorated-pentagon": decorated_pentagon_code(),
            "branched-chain": branched_chain_code(), "shor22": shor_22_code(),
            "cube": cube_code(), "tree:3,2": tree_code([3, 2]),
            "tree:2,2,1": tree_code([2, 2, 1]), "tree:3,3": tree_code([3, 3])}


def _polynomials(code) -> list:
    trees = [build_pauli_tree(code, b) for b in "XYZ"]
    return [success_polynomial(t) for t in trees + [build_arbitrary_tree(code)]]


def _exact(terms: dict, bases: tuple) -> Fraction:
    """Sum of coef * prod_i bases[i] ** key[i] in exact arithmetic."""
    bases = [Fraction(b) for b in bases]
    total = Fraction(0)
    for key, coef in terms.items():
        term = Fraction(coef)
        for base, k in zip(bases, key):
            term *= base ** k
        total += term
    return total


def _close(got: float, exact: Fraction) -> bool:
    return abs(Fraction(got) - exact) <= TOL


# -- agreement with the exact sums ------------------------------------------------


@pytest.mark.parametrize("name", sorted(_library()))
def test_loss_polynomials_within_1e_12_of_exact(name):
    rng = np.random.default_rng(5)
    for poly in _polynomials(_library()[name]):
        terms = {a + b: m for (a, b), m in poly.terms.items()}
        for eta in DYADIC:
            exact = _exact(terms, (eta,) * 4 + (1.0 - eta,) * 4)
            assert _close(poly.evaluate(eta), exact), (name, eta)
        for _ in range(5):
            etas = dict(zip(BASES, rng.choice(DYADIC, size=4).tolist()))
            bases = tuple(etas[b] for b in BASES) + tuple(1.0 - etas[b]
                                                          for b in BASES)
            exact = _exact(terms, bases)
            assert _close(poly.evaluate_heterogeneous(etas), exact), (name, etas)


@pytest.mark.parametrize("name", sorted(_library()))
def test_adaptive_fusion_within_1e_12_of_exact(name):
    code = _library()[name]
    for randomize in (False, True):
        analysis = AdaptiveFusionAnalysis(code, randomize)
        for p_fail in (0.5, 0.25):
            got = analysis.result(p_fail, np.array(DYADIC))
            gates = np.array(_gate_outcomes(p_fail, DYADIC)).T.tolist()
            for row, eta, (s, f, l) in zip(got.tolist(), DYADIC, gates):
                bases = (s, f, l, eta, 1.0 - eta)
                for value, klass in zip(row, ("success", "fail", "loss")):
                    exact = _exact(analysis._terms[klass], bases)
                    assert _close(value, exact), (name, randomize, p_fail,
                                                  eta, klass)


@pytest.mark.parametrize("name", sorted(_library()))
def test_transversal_fusion_within_1e_12_of_exact(name):
    code = _library()[name]
    n = code.n
    for randomize in (False, True):
        for eta in DYADIC[::2] if n > 10 else DYADIC:
            bases = None if randomize else compile_failure_bases(code, 0.5, eta)
            sums = dict.fromkeys(("success", "fail", "loss"), Fraction(0))
            s, f, l = (Fraction(float(v[0])) for v in _gate_outcomes(0.5, eta))
            for (ns, nfx, nfz, klass), mult in _transversal_counts(
                    code, bases).items():
                nf = nfx + nfz
                weight = Fraction(1, 2 ** nf) if randomize else 1
                sums[klass] += mult * weight * s ** ns * f ** nf * l ** (n - ns - nf)
            got = logical_fusion(code, 0.5, eta, adaptive=False,
                                 randomize_failures=randomize)
            for value, klass in zip(got, ("success", "fail", "loss")):
                assert _close(value, sums[klass]), (name, randomize, eta, klass)


def test_bernstein_counts_are_the_polynomial():
    # the counts reproduce every success polynomial exactly, and equal
    # polynomials written with different terms share them
    for code in _library().values():
        for poly in _polynomials(code):
            d = len(poly.bernstein) - 1
            for eta in (Fraction(1, 3), Fraction(5, 7)):
                direct = sum(m * eta ** sum(a) * (1 - eta) ** sum(b)
                             for (a, b), m in poly.terms.items())
                assert direct == sum(c * eta ** k * (1 - eta) ** (d - k)
                                     for k, c in enumerate(poly.bernstein))
    one = LossPolynomial({((1, 0, 0, 0), (0, 0, 0, 0)): 1})
    two = LossPolynomial({((2, 0, 0, 0), (0, 0, 0, 0)): 1,
                          ((1, 0, 0, 0), (1, 0, 0, 0)): 1})
    assert one.to_string() == two.to_string() == "eta"
    assert one.bernstein == two.bernstein == (0, 1)


@pytest.mark.parametrize("kind", ["arbitrary", "pauli_all_bases"])
def test_equal_polynomials_score_equal_floats(kind):
    # rooted 7-vertex classes with one polynomial used to score apart by
    # the round-off of their term order, which then ranked them
    scores: dict = {}
    for code in enumerate_candidates(7):
        score, poly = evaluate_objective(Objective(kind, eta=0.7), code)
        scores.setdefault(poly, set()).add(score)
    assert sum(len(s) > 1 for s in scores.values()) == 0
    assert any(len(s) == 1 for s in scores.values())


# -- blocks ------------------------------------------------------------------------


def _at(label: str):
    """A function of a float or a 1-D array of transmissions: one point's
    values, or an array with one row of them per point."""
    tree = tree_code([2, 2, 1])
    poly = _polynomials(tree)[3]
    if label == "evaluate":
        return poly.evaluate
    if label == "heterogeneous":
        return lambda eta: poly.evaluate_heterogeneous(
            {"X": eta, "Y": np.multiply(eta, 0.5), "Z": np.subtract(1.0, eta),
             "A": eta})
    if label == "stack":
        return lambda eta: logical_transmission(
            LayerStack([pentagon_code()] * 2, "cascaded", eta))["A"]
    adaptive = label == "adaptive"
    return lambda eta: np.asarray(logical_fusion(
        tree, 0.5, eta, adaptive=adaptive, randomize_failures=True)).T


@pytest.mark.parametrize("label", ["evaluate", "heterogeneous", "stack",
                                   "adaptive", "transversal"])
def test_a_point_is_the_same_float_alone_and_in_any_block(label):
    # past the kernel's own passes of KERNEL_FLOATS floats and the CLI's
    # blocks, each point alone, at a block's edge and inside one
    f = _at(label)
    grid = np.arange(2 * BLOCK + 3) / (2 * BLOCK + 2)
    whole = np.asarray(f(grid))
    assert len(whole) == len(grid)
    for i in (0, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1, len(grid) - 1):
        alone = np.asarray(f(float(grid[i])))
        assert alone.tolist() == whole[i].tolist(), i
    for lo, hi in ((0, 1), (3, 70), (100, 1125), (BLOCK, len(grid))):
        assert np.asarray(f(grid[lo:hi])).tolist() == whole[lo:hi].tolist()


def test_compiled_transversal_points_match_alone():
    # points are grouped by their compiled failure bases; each row must
    # still be its point's one-point value
    code = pentagon_code()
    grid = np.arange(33) / 32
    rows = np.asarray(logical_fusion(code, 0.5, grid, adaptive=False)).T
    assert rows.tolist() == [list(logical_fusion(code, 0.5, e, adaptive=False))
                             for e in grid.tolist()]


def test_grids_of_zero_one_and_past_a_block_of_points():
    poly = _polynomials(cube_code())[0]
    assert poly.evaluate(np.array([])).shape == (0,)
    assert logical_fusion(cube_code(), 0.5, np.array([])).p_success.shape == (0,)
    assert isinstance(poly.evaluate(0.5), float)
    assert poly.evaluate(np.array([0.5])).tolist() == [poly.evaluate(0.5)]
    grid = np.arange(BLOCK + 1) / BLOCK
    assert poly.evaluate(grid).tolist() == [poly.evaluate(e) for e in grid.tolist()]


def test_empty_class_ranges_sum_to_zero():
    # np.add.reduceat would return the next term for an empty range; an
    # analysis without its fail terms must still give 0.0 there
    analysis = AdaptiveFusionAnalysis(cube_code(), False)
    success, fail, _ = analysis._ends
    keep = np.r_[0:success, fail:len(analysis._coef)]
    ends = (success, success, len(keep))
    bases = np.array(_gate_outcomes(0.5, DYADIC)
                     + (np.array(DYADIC), 1.0 - np.array(DYADIC))).T
    got = monomial_sums(analysis._coef[keep], analysis._exps[:, keep], bases,
                        ends)
    full = analysis.result(0.5, DYADIC)
    etas = DYADIC
    assert got[:, 1].tolist() == [0.0] * len(etas)
    assert got[:, 0].tolist() == full[:, 0].tolist()
    assert got[:, 2].tolist() == full[:, 2].tolist()
    empty = monomial_sums(np.zeros(0), np.zeros((2, 0), dtype=np.intp),
                          np.ones((3, 2)), (0, 0))
    assert empty.tolist() == [[0.0, 0.0]] * 3


def test_kernel_memory_does_not_grow_with_points_times_terms():
    # 50 points by 3 * KERNEL_FLOATS terms would be 150 temporaries' worth
    # as one product; the kernel holds a few pieces at a time
    rng = np.random.default_rng(3)
    terms = 3 * KERNEL_FLOATS
    coef, bases = rng.random(terms), rng.random((50, 4))
    exps = rng.integers(0, 6, size=(4, terms)).astype(np.intp)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = monomial_sums(coef, exps, bases, (terms // 2, terms))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * KERNEL_FLOATS + out.nbytes
    assert out[0, 1] > 0.0


# -- the command line --------------------------------------------------------------


def _rows(capsys, argv) -> list:
    assert main(argv + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["result"]


def test_grid_commands_match_one_point_calls(capsys):
    # a grid of BLOCK + 1 points spans two blocks; every row equals the
    # one-point entry point float for float
    grid = f"0:1:{1 / BLOCK!r}"
    code = pentagon_code()
    rows = _rows(capsys, ["sweep", "--graph", "pentagon", "--eta-grid", grid])
    assert len(rows) == BLOCK + 1
    poly = success_polynomial(build_arbitrary_tree(code))
    assert [r["loss_arbitrary"] for r in rows] == [
        1.0 - poly.evaluate(r["eta"]) for r in rows]
    rows = _rows(capsys, ["fusion", "--graph", "pentagon", "--eta-grid", grid])
    assert [r["p_success"] for r in rows] == [
        logical_fusion(code, 0.5, r["eta"]).p_success for r in rows]
    # the grid is dyadic, so 1 - ell gives each eta back exactly
    rows = _rows(capsys, ["rgs", "--graph", "pentagon", "--eta-grid", grid])
    assert [r["p_link"] for r in rows] == [
        rgs_link_probability(code, 1.0 - r["ell"]) for r in rows]
    rows = _rows(capsys, ["concat", "--graph", "pentagon", "--depth", "2",
                          "--eta-grid", grid])
    assert [r["z"] for r in rows] == [logical_transmission(LayerStack(
        [code] * 2, "concatenated", r["eta"]))["Z"] for r in rows]
