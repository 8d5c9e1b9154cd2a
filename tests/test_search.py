"""Search tests: class enumeration, objective scoring, ranking determinism.

The class-count oracle in _oracles partitions every connected labeled
graph by union-find over raw adjacency masks, sharing nothing with the
canonical-labeling path the enumerator uses.  Winner optimality is
cross-checked against the clairvoyant survivor-lattice oracles, which
upper-bound any committed decoder, so a winner matching the lattice
maximum cannot be dominated.
"""

import hashlib
import json
import logging
import random

import pytest

import graphcode_lt
from graphcode_lt import fusion, search
from graphcode_lt.codes import GraphCode, pentagon_code, star_code, tree_code
from graphcode_lt.graphs import Graph, local_complement
from graphcode_lt.opsets import ResourceLimitError
from graphcode_lt.search import (
    OBJECTIVE_KINDS,
    Objective,
    enumerate_candidates,
    evaluate_objective,
    optimize,
    read_candidates,
    unrooted_representatives,
)

from _oracles import (
    clairvoyant_teleport_masks,
    dedupe_recheck,
    equivalence_class_count,
    evaluate_masks,
    optimal_pauli_tree_value,
    orbit_key,
    rooted_representatives_reference,
)


# -- enumeration ------------------------------------------------------------------


def test_unrooted_class_counts_match_oracle():
    # [DERIVED: exhaustive orbit closure over all connected labeled graphs]
    for n in (2, 3, 4, 5):
        assert len(unrooted_representatives(n)) == equivalence_class_count(
            n, rooted=False)
    # [DERIVED: Danielsen-Parker LC orbit counts; n = 6 is past the oracle]
    assert [len(unrooted_representatives(n)) for n in range(2, 7)] == \
        [1, 1, 2, 4, 11]


def test_rooted_class_counts_match_oracle():
    # [DERIVED: same oracle with the root pinned under permutations]
    for n in (2, 3, 4, 5):
        assert len(list(enumerate_candidates(n))) == equivalence_class_count(
            n, rooted=True)


def test_seven_vertex_class_counts():
    # [DERIVED: Danielsen-Parker LC orbit counts; the rooted count is the
    # 63 classes the search benchmark scores]
    assert len(unrooted_representatives(7)) == 26
    cands = list(enumerate_candidates(7))
    assert len(cands) == 63
    # the representatives and their order, pinned as a digest: search
    # output breaks ties by graph6
    text = "\n".join(c.progenitor.to_graph6() for c in cands)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3b7465d767a6ed4e6729821e63477767b0ee21e462ae16f9bfc88ecc47ab84ca"


def test_candidates_match_two_pass_reference():
    # [DERIVED: one rooted orbit closed per root of every unrooted class]
    # Search output breaks ties by graph6, so the representatives and
    # their order matter, not just their number.
    for n, count in zip(range(2, 7), (1, 1, 2, 6, 17)):
        cands = list(enumerate_candidates(n))
        assert len(cands) == count
        assert all(c.input_vertex == 0 for c in cands)
        assert [c.progenitor for c in cands] == \
            rooted_representatives_reference(n)


def test_three_vertex_candidates_collapse_to_one_class():
    # [TRIVIAL: path and triangle merge under complementation at the middle]
    assert len(list(enumerate_candidates(3))) == 1


def test_candidates_are_pairwise_inequivalent():
    cands = list(enumerate_candidates(5))
    keys = {orbit_key(c.progenitor, n_fixed=1) for c in cands}
    assert len(keys) == len(cands)
    assert all(c.input_vertex == 0 for c in cands)


def test_enumeration_is_deterministic():
    first = [c.progenitor.to_graph6() for c in enumerate_candidates(6)]
    second = [c.progenitor.to_graph6() for c in enumerate_candidates(6)]
    assert first == second


def test_enumerate_validation():
    with pytest.raises(ValueError):
        list(enumerate_candidates(1))
    with pytest.raises(ValueError):
        list(enumerate_candidates(None))


def test_enumerate_checks_size_when_called():
    # the bounds are checked at the call, before the stream is read: n
    # progenitor vertices make (n - 1)-qubit codes, which no objective
    # scores past EXHAUSTIVE_LIMIT, so 15 vertices is the limit itself
    with pytest.raises(ValueError, match=">= 2"):
        enumerate_candidates(1)
    with pytest.raises(ResourceLimitError, match="limit is n <= 14"):
        enumerate_candidates(16)
    enumerate_candidates(15)


def test_dedupe_recheck():
    cands = list(enumerate_candidates(5))
    assert dedupe_recheck(cands)
    pentagon = pentagon_code()
    twin = GraphCode(local_complement(pentagon.progenitor, 2), 0)
    assert not dedupe_recheck([pentagon, twin])


# -- file source ------------------------------------------------------------------


def test_file_candidates_round_trip(tmp_path):
    cands = list(enumerate_candidates(5))
    path = tmp_path / "candidates.txt"
    lines = ["# comment", ""]
    lines += [f"{c.progenitor.to_graph6()} {c.input_vertex}" for c in cands]
    path.write_text("\n".join(lines) + "\n")
    loaded = list(read_candidates(str(path)))
    assert [(c.progenitor.nbr, c.input_vertex) for c in loaded] == \
        [(c.progenitor.nbr, c.input_vertex) for c in cands]


def test_file_candidates_report_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("DUW 0\nnot-a-graph6-%% 0\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2"):
        list(read_candidates(str(path)))
    path.write_text("DUW\n")
    with pytest.raises(ValueError, match=r"bad\.txt:1"):
        list(read_candidates(str(path)))
    path.write_text("DUW zero\n")
    with pytest.raises(ValueError, match="input vertex"):
        list(read_candidates(str(path)))


# -- objectives -------------------------------------------------------------------


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective("best_ever")
    with pytest.raises(ValueError):
        Objective("arbitrary", eta=1.5)
    with pytest.raises(ValueError):
        Objective("arbitrary", p_fail=0.0)
    obj = Objective("fusion_success", eta=0.9)
    with pytest.raises(AttributeError):
        obj.eta = 0.5
    assert obj.as_dict()["kind"] == "fusion_success"


def test_objective_defaults_near_threshold():
    # [TRIVIAL: default operating point is 30% loss]
    assert Objective("arbitrary").eta == pytest.approx(0.70)


def test_pauli_objective_scores_worst_basis():
    code = star_code(4)
    score, poly = evaluate_objective(Objective("pauli_all_bases", eta=0.9),
                                     code)
    # [DERIVED: star X is the weak basis, 1 - (1-eta)^n beats eta^n]
    assert score == pytest.approx(0.9 ** 4, abs=1e-12)
    assert poly is not None


def test_fusion_objective_matches_engine():
    from graphcode_lt.fusion import logical_fusion
    code = pentagon_code()
    score, poly = evaluate_objective(
        Objective("fusion_success", eta=0.9, p_fail=0.5), code)
    assert score == logical_fusion(code, 0.5, 0.9).p_success
    assert poly is None


# -- optimization -----------------------------------------------------------------


def test_pentagon_unique_best_four_qubit_class():
    # [PAPER: smallest loss-tolerant code for both objectives]
    cands = list(enumerate_candidates(5))
    pent_key = orbit_key(pentagon_code().progenitor, n_fixed=1)
    for kind in ("pauli_all_bases", "arbitrary"):
        result = optimize(Objective(kind, eta=0.99), cands)
        best = result.ranked[0]
        runner = result.ranked[1]
        assert best.score > runner.score + 1e-6
        winner = Graph.from_graph6(best.graph6)
        assert orbit_key(winner, n_fixed=1) == pent_key


def test_pauli_winner_not_dominated_by_optimal_trees():
    # The compiled tree is greedy, so rank it against the exact optimum
    # over all adaptive trees: no candidate may beat the winner there.
    cands = list(enumerate_candidates(6))
    eta = 0.99

    def exact_opt(code):
        return min(optimal_pauli_tree_value(code, b, eta) for b in "XYZ")

    result = optimize(Objective("pauli_all_bases", eta=eta), cands)
    winner = GraphCode(Graph.from_graph6(result.ranked[0].graph6), 0)
    best_exact = max(exact_opt(c) for c in cands)
    assert exact_opt(winner) == pytest.approx(best_exact, abs=1e-12)


def test_greedy_tree_deviation_is_bounded_and_logged():
    # [DERIVED: DP over adaptive trees] One 5-qubit class is underrated
    # by the greedy compiler in Y; the deviation is pinned so a silent
    # regression (or silent fix) shows up here.
    from graphcode_lt.losstree import build_pauli_tree, success_polynomial

    code = next(c for c in enumerate_candidates(6)
                if c.progenitor.to_graph6() == "ESPw")
    tree = success_polynomial(build_pauli_tree(code, "Y")).evaluate(0.99)
    opt = optimal_pauli_tree_value(code, "Y", 0.99)
    assert tree == pytest.approx(0.9897049800, abs=1e-9)
    assert opt == pytest.approx(0.9994079700, abs=1e-9)


def test_arbitrary_winner_not_dominated_by_clairvoyant_rank():
    # The lattice oracle upper-bounds every decoder, so a winner whose
    # compiled tree attains the global lattice maximum cannot be beaten.
    cands = list(enumerate_candidates(6))
    eta = 0.99

    def exact_teleport(code):
        return evaluate_masks(clairvoyant_teleport_masks(code), code.n, eta)

    result = optimize(Objective("arbitrary", eta=eta), cands)
    best_bound = max(exact_teleport(c) for c in cands)
    assert result.ranked[0].score == pytest.approx(best_bound, abs=1e-12)


def test_ranking_invariant_under_permutation():
    cands = list(enumerate_candidates(5))
    obj = Objective("pauli_all_bases", eta=0.9)
    baseline = optimize(obj, cands).ranked
    rng = random.Random(11)
    for _ in range(3):
        shuffled = cands[:]
        rng.shuffle(shuffled)
        again = optimize(obj, shuffled).ranked
        assert [(c.graph6, c.input_vertex, c.score) for c in again] == \
            [(c.graph6, c.input_vertex, c.score) for c in baseline]


def test_oversized_code_refused_by_every_objective(monkeypatch):
    # past EXHAUSTIVE_LIMIT every objective refuses the code before any
    # engine runs, the fusion-network threshold included, and optimize
    # logs the refusal as a failure
    def refuse(*args):
        raise AssertionError("an engine ran past the search's limit")

    for engine in ("build_pauli_tree", "build_arbitrary_tree",
                   "rgs_link_probability", "fbqc_loss_threshold"):
        monkeypatch.setattr(search, engine, refuse)
    code = star_code(16)
    for kind in OBJECTIVE_KINDS:
        with pytest.raises(ResourceLimitError, match="limit is n <= 14"):
            evaluate_objective(Objective(kind), code)
        result = optimize(Objective(kind), [code])
        assert not result.ranked
        assert [f[:2] for f in result.failures] == \
            [(code.progenitor.to_graph6(), code.input_vertex)]
        assert "limit is n <= 14" in result.failures[0][2]


def test_transversal_score_keeps_engine_limit(monkeypatch):
    # 14 qubits pass the search's limit but not the transversal engine's
    # own (fusion.TRANSVERSAL_LIMIT = 12); the recovery table would take
    # 268 MB, so building it fails the test at once
    def refuse(code):
        raise AssertionError("recovery table built past the engine limit")

    monkeypatch.setattr(fusion, "_recovery_table", refuse)
    code = tree_code([2, 2, 2])
    assert code.n == 14
    with pytest.raises(ResourceLimitError, match="limit is n <= 12"):
        evaluate_objective(Objective("fusion_success", adaptive=False), code)


def test_infeasible_candidates_logged_not_dropped():
    cands = [pentagon_code(), star_code(16)]
    result = optimize(Objective("pauli_all_bases", eta=0.9), cands)
    assert len(result.ranked) == 1
    assert len(result.failures) == 1
    g6, iv, msg = result.failures[0]
    assert g6 == star_code(16).progenitor.to_graph6()
    assert "limit" in msg
    text = result.to_jsonl()
    assert sum(1 for line in text.splitlines() if "error" in json.loads(line)) == 1


def test_duplicate_candidates_scored_once():
    cands = [pentagon_code(), pentagon_code()]
    result = optimize(Objective("arbitrary", eta=0.9), cands)
    assert len(result.ranked) == 1


def test_checkpoint_resume(tmp_path, caplog):
    cands = list(enumerate_candidates(5))
    obj = Objective("arbitrary", eta=0.9)
    path = tmp_path / "scores.jsonl"
    first = optimize(obj, cands, checkpoint=str(path))
    lines_after_first = path.read_text().strip().splitlines()
    assert len(lines_after_first) == len(cands)
    second = optimize(obj, cands, checkpoint=str(path))
    assert path.read_text().strip().splitlines() == lines_after_first
    assert [(c.graph6, c.score) for c in second.ranked] == \
        [(c.graph6, c.score) for c in first.ranked]
    # A kill during a write leaves the last line torn; resuming rescores
    # that candidate without fusing the new record onto the fragment.
    text = path.read_text()
    whole = len(text.encode()) - len(lines_after_first[-1].encode()) - 1
    path.write_text(text[: len(text) - len(lines_after_first[-1]) // 2])
    for attempt in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="graphcode_lt.search"):
            resumed = optimize(obj, cands, checkpoint=str(path))
        # only the first resume finds the torn line, and says where it was
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        if attempt == 0:
            assert len(warnings) == 1
            assert str(path) in warnings[0]
            assert f"byte offset {whole}" in warnings[0]
        else:
            assert warnings == []
        assert [(c.graph6, c.score) for c in resumed.ranked] == \
            [(c.graph6, c.score) for c in first.ranked]
        lines = path.read_text().splitlines()
        assert len(lines) == len(cands)
        assert all(json.loads(line) for line in lines)
    # A malformed line before the last one is not a torn write.
    path.write_text("{torn\n" + path.read_text())
    with pytest.raises(ValueError):
        optimize(obj, cands, checkpoint=str(path))


def test_checkpoint_rescores_records_of_other_versions(tmp_path):
    cands = list(enumerate_candidates(4))
    obj = Objective("arbitrary", eta=0.9)
    path = tmp_path / "scores.jsonl"
    first = optimize(obj, cands, checkpoint=str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert {rec["version"] for rec in records} == {graphcode_lt.__version__}
    # the same records from another version, with scores no run produced
    stale = [dict(rec, version="0.0.0", score=-1.0) for rec in records]
    path.write_text("".join(json.dumps(rec, sort_keys=True) + "\n"
                            for rec in stale))
    resumed = optimize(obj, cands, checkpoint=str(path))
    assert [(c.graph6, c.score) for c in resumed.ranked] == \
        [(c.graph6, c.score) for c in first.ranked]
    lines = path.read_text().splitlines()
    assert len(lines) == 2 * len(records)
    assert [json.loads(line) for line in lines[len(records):]] == records


def test_checkpoint_ignores_other_objectives(tmp_path):
    cands = list(enumerate_candidates(4))
    path = tmp_path / "scores.jsonl"
    optimize(Objective("arbitrary", eta=0.9), cands, checkpoint=str(path))
    before = len(path.read_text().strip().splitlines())
    optimize(Objective("arbitrary", eta=0.8), cands, checkpoint=str(path))
    assert len(path.read_text().strip().splitlines()) == 2 * before


def test_jsonl_records_are_complete():
    cands = list(enumerate_candidates(4))
    obj = Objective("pauli_all_bases", eta=0.9)
    result = optimize(obj, cands)
    for line in result.to_jsonl().strip().splitlines():
        rec = json.loads(line)
        assert rec["objective"] == obj.as_dict()
        assert set(rec) >= {"graph6", "input", "objective", "score"}


def test_parallel_workers_agree_with_serial():
    cands = list(enumerate_candidates(5))
    obj = Objective("pauli_all_bases", eta=0.9)
    serial = optimize(obj, cands, workers=1)
    parallel = optimize(obj, cands, workers=2)
    assert [(c.graph6, c.score) for c in serial.ranked] == \
        [(c.graph6, c.score) for c in parallel.ranked]


def test_process_pool_capped_at_tasks_and_cpus(monkeypatch):
    """A fork-started pool starts every worker it is allowed at the first
    submit, so ``workers`` is only an upper bound: the pool asked for is
    no larger than the pending candidates or the CPUs, and one worker
    scores in-process."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    cands = list(enumerate_candidates(5))[:3]
    obj = Objective("pauli_all_bases", eta=0.9)
    want = [(c.graph6, c.score) for c in optimize(obj, cands).ranked]
    for cpus, pool in ((8, [3]), (2, [2]), (1, []), (None, [])):
        asked.clear()
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        result = optimize(obj, cands, workers=10_000)
        assert asked == pool
        assert [(c.graph6, c.score) for c in result.ranked] == want


def test_optimize_validation():
    with pytest.raises(ValueError):
        optimize(Objective("arbitrary"), [], workers=0)
    result = optimize(Objective("arbitrary"), [])
    assert result.ranked == () and result.failures == ()
