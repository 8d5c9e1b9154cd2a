"""Repeater-link and loss-threshold tests.

The repeater closed form below was derived by hand from the sequential
swap protocol on a depth-two tree [b, 1]: the station tries branch
fusions in order until one succeeds (that branch's two leaves then
carry the output, eta^2 each side), earlier failed gates contribute
their parity for free, earlier lost gates need both leaves indirectly
(eta^2), and every branch after the success point is removed by
single-leaf X measurements on both sides ((1 - (1-eta)^2)^2).
"""

import json

import pytest

from graphcode_lt.cli import EXIT_OK, EXIT_VALIDATION, main
from graphcode_lt.codes import (
    branched_chain_code,
    cube_code,
    decorated_pentagon_code,
    pentagon_code,
    shor_22_code,
    star_code,
    tree_code,
)
from graphcode_lt.fusion import logical_fusion
from graphcode_lt import apps
from graphcode_lt.apps import (
    ERASURE_BUDGET,
    fbqc_loss_threshold,
    rgs_link_probability,
)


def swap_chain_form(b: int, p_fail: float, eta: float) -> float:
    # [DERIVED: hand calculation, see module docstring]
    arrival = eta ** (1.0 / p_fail)
    succeed = arrival * (1.0 - p_fail)
    fail = arrival * p_fail
    lost = 1.0 - arrival
    trim = (1.0 - (1.0 - eta) ** 2) ** 2
    return succeed * eta * eta * sum(
        (fail + lost * eta * eta) ** (k - 1) * trim ** (b - k)
        for k in range(1, b + 1))


# -- design points ----------------------------------------------------------------


def test_repeater_spec_validation():
    # a repeater design point is a code, a gate quality and a strategy
    code = pentagon_code()
    for p_fail in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"p_fail must lie in \(0, 1\]"):
            rgs_link_probability(code, 0.9, p_fail=p_fail)
    assert rgs_link_probability(code, 0.9, p_fail=1.0, adaptive=False) >= 0.0


def test_fbqc_spec_validation():
    code = pentagon_code()
    for p_fail in (-0.1, 0.0, 1.5):
        with pytest.raises(ValueError, match=r"p_fail must lie in \(0, 1\]"):
            fbqc_loss_threshold(code, p_fail=p_fail)
    assert ERASURE_BUDGET == 0.12


# -- repeater links ---------------------------------------------------------------


@pytest.mark.parametrize("branches", [1, 2, 3, 4])
@pytest.mark.parametrize("p_fail,eta", [(0.5, 0.9), (0.5, 0.97), (0.25, 0.95)])
def test_swap_chain_closed_form(branches, p_fail, eta):
    # [DERIVED: independent closed form for depth-two trees]
    code = tree_code([branches, 1])
    assert rgs_link_probability(code, eta, p_fail) == pytest.approx(
        swap_chain_form(branches, p_fail, eta), abs=1e-12)


def test_link_probability_lossless_pentagon():
    # [DERIVED: exact enumeration] At eta=1 only gate failure remains and
    # both strategies recover from single failures: 1 - p_fail^2.
    for adaptive in (True, False):
        p = rgs_link_probability(pentagon_code(), 1.0, 0.5, adaptive)
        assert p == pytest.approx(0.75, abs=1e-12)


def test_link_probability_vanishes_without_photons():
    # [TRIVIAL] no photon arrives at eta=0
    assert rgs_link_probability(tree_code([2, 1]), 0.0, 0.5) == 0.0


def test_link_matches_raw_fusion():
    # [TRIVIAL: a link is one logical fusion of the code with itself]
    code = decorated_pentagon_code()
    for adaptive in (True, False):
        assert rgs_link_probability(code, 0.92, 0.25, adaptive=adaptive) == \
            logical_fusion(code, 0.25, 0.92, adaptive=adaptive).p_success


def test_end_to_end_composition(capsys):
    p1 = rgs_link_probability(tree_code([2, 1]), 0.95, 0.5)
    # [DERIVED: frozen from exact enumeration]
    assert p1 == pytest.approx(0.62482810703125, abs=1e-12)
    # stations link independently, so a chain of them succeeds with p1 ** depth
    for depth in (1, 3, 5):
        assert main(["rgs", "--graph", "tree:2,1", "--pfail", "0.5",
                     "--eta", "0.95", "--depth", str(depth),
                     "--format", "json"]) == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)["result"]
        assert row["p_link"] == p1
        assert row["p_end_to_end"] == pytest.approx(p1 ** depth, abs=1e-15)
    assert main(["rgs", "--graph", "tree:2,1", "--eta", "0.95",
                 "--depth", "0"]) == EXIT_VALIDATION


def test_adaptive_never_below_transversal_link():
    code = pentagon_code()
    for eta in (0.85, 0.92, 0.99):
        a = rgs_link_probability(code, eta, 0.5, adaptive=True)
        t = rgs_link_probability(code, eta, 0.5, adaptive=False)
        assert a >= t - 1e-12


# -- loss thresholds --------------------------------------------------------------


def test_shor_transversal_threshold():
    # [PAPER: 2.7% +- 0.3% for the four-qubit pair code at 75% boosted fusion]
    thr = fbqc_loss_threshold(shor_22_code(), p_fail=0.25, adaptive=False)
    assert thr == pytest.approx(0.027130126953125, abs=2e-4)
    assert abs(thr - 0.027) < 0.003


def test_shor_transversal_dead_at_half():
    # [DERIVED: unboosted failure alone exceeds the erasure budget]
    assert fbqc_loss_threshold(shor_22_code(), 0.5, adaptive=False) == 0.0


def test_shor_adaptive_beats_transversal():
    # [DERIVED: frozen from bisection over exact enumerations]
    a = fbqc_loss_threshold(shor_22_code(), 0.25, adaptive=True)
    t = fbqc_loss_threshold(shor_22_code(), 0.25, adaptive=False)
    assert a == pytest.approx(0.050201416015625, abs=2e-4)
    assert a > t


def test_threshold_unimodal_in_boosting():
    # Boosting trades arrival probability against failure rate, so the
    # threshold rises from zero and falls again along the boosted ladder.
    thrs = [fbqc_loss_threshold(shor_22_code(), pf, adaptive=False)
            for pf in (0.5, 0.25, 0.125, 0.0625)]
    # [DERIVED: frozen curve, peak at one boosting level]
    assert thrs[0] == 0.0
    assert thrs[1] == pytest.approx(0.027130126953125, abs=2e-4)
    assert thrs[2] == pytest.approx(0.022125244140625, abs=2e-4)
    assert thrs[3] == pytest.approx(0.013153076171875, abs=2e-4)
    peak = max(range(4), key=lambda i: thrs[i])
    assert peak == 1
    assert all(thrs[i] >= thrs[i + 1] for i in range(peak, 3))


@pytest.mark.parametrize("make,frozen", [
    (pentagon_code, 0.029327392578125),
    (decorated_pentagon_code, 0.026275634765625),
    (branched_chain_code, 0.021575927734375),
    (cube_code, 0.037994384765625),
])
def test_library_adaptive_thresholds(make, frozen):
    # [DERIVED: frozen from bisection over exact enumerations]
    thr = fbqc_loss_threshold(make(), p_fail=0.5, adaptive=True)
    assert thr == pytest.approx(frozen, abs=2e-4)


def test_erasure_identity_under_randomization():
    # [TRIVIAL: 50/50 randomization splits failures between the parities]
    r = logical_fusion(pentagon_code(), 0.5, 0.93, randomize_failures=True)
    assert r.erasure_xx == pytest.approx(
        r.p_loss_logical + 0.5 * r.p_fail_logical, abs=1e-15)


def test_threshold_monotone_in_budget(monkeypatch):
    code = pentagon_code()
    base = fbqc_loss_threshold(code, 0.5)
    monkeypatch.setattr(apps, "ERASURE_BUDGET", 0.2)
    loose = fbqc_loss_threshold(code, 0.5)
    monkeypatch.setattr(apps, "ERASURE_BUDGET", 0.08)
    tight = fbqc_loss_threshold(code, 0.5)
    assert loose > base > tight


def test_star_code_has_no_threshold():
    # A bare star cannot protect both parities at once.
    assert fbqc_loss_threshold(star_code(4), p_fail=0.5, adaptive=True) == 0.0
