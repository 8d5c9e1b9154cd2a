"""Candidate-code enumeration and exhaustive multi-objective search.

Candidates are progenitor graphs with the input at vertex 0, one
representative per local-complementation (LC) class under relabelings
that fix the input.  One growth builds these rooted classes and the
unrooted ones alike, one vertex at a time, with the first ``n_fixed``
vertices pinned (the extension scheme Danielsen and Parker used to
classify LC orbits).  It is complete: a spanning tree has two leaves, so
every connected graph on two or more vertices has a vertex other than
the input whose removal leaves it connected, and local complementations
at the remaining vertices commute with that removal.  Attaching a new
vertex to every nonempty subset of every (n-1)-vertex representative
therefore reaches every n-vertex class.  An extension whose canonical
key is a member of an orbit already closed at its level is skipped, so
each distinct orbit is closed exactly once; its minimum member key is
the representative.

Objectives score a candidate through the decoder, fusion and
fusion-network engines as a pure function of the code, each engine at
its own default size limit; ``optimize`` evaluates a candidate stream
against one objective with optional process parallelism, a qubit budget
(oversized candidates are deferred to a wider second pass), and an
append-only JSON-lines checkpoint that makes long sweeps
resumable.  Rankings are sorted by score with a total tie-break, so any
permutation of the candidate stream yields the same result order.
"""

from __future__ import annotations

import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .codes import GraphCode, InvalidCodeError, forget
from .graphs import Graph, canonical_key, lc_orbit
from .losstree import build_arbitrary_tree, build_pauli_tree, success_polynomial
from .apps import _validated_p_fail, fbqc_loss_threshold, rgs_link_probability
from .opsets import EXHAUSTIVE_LIMIT, ResourceLimitError

log = logging.getLogger(__name__)

__all__ = [
    "Objective",
    "ScoredCandidate",
    "SearchResult",
    "enumerate_candidates",
    "optimize",
    "read_candidates",
    "unrooted_representatives",
]

OBJECTIVE_KINDS = ("pauli_all_bases", "arbitrary", "fusion_success",
                   "fbqc_threshold")


class Objective:
    """A pure scoring function over candidate codes.

    ``eta`` fixes the operating transmission for decoder and fusion
    scores; the default sits near threshold at 30% loss.  ``p_fail``
    feeds the fusion outcome model, ``adaptive`` picks the fusion
    strategy, and ``tie_break`` optionally names a second kind whose
    score refines the ranking before the structural tie-break.
    """

    __slots__ = ("kind", "eta", "p_fail", "adaptive", "tie_break")

    def __init__(self, kind: str, eta: float = 0.70, p_fail: float = 0.5,
                 adaptive: bool = True, tie_break: str | None = None):
        if kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {kind!r}")
        if tie_break is not None and tie_break not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown tie-break kind {tie_break!r}")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "p_fail", _validated_p_fail(p_fail))
        object.__setattr__(self, "adaptive", bool(adaptive))
        object.__setattr__(self, "tie_break", tie_break)

    def __setattr__(self, name, value):
        raise AttributeError("Objective is immutable")

    def as_dict(self) -> dict:
        return {"kind": self.kind, "eta": self.eta, "p_fail": self.p_fail,
                "adaptive": self.adaptive, "tie_break": self.tie_break}

    def __eq__(self, other) -> bool:
        return (isinstance(other, Objective)
                and self.as_dict() == other.as_dict())

    def __hash__(self) -> int:
        return hash((self.kind, self.eta, self.p_fail, self.adaptive,
                     self.tie_break))

    def __repr__(self) -> str:
        return (f"Objective({self.kind!r}, eta={self.eta}, "
                f"p_fail={self.p_fail}, adaptive={self.adaptive})")


def _score_kind(kind: str, code: GraphCode,
                obj: Objective) -> tuple[float, str | None]:
    if kind == "pauli_all_bases":
        polys = {b: success_polynomial(build_pauli_tree(code, b)) for b in "XYZ"}
        worst = min("XYZ", key=lambda b: polys[b].evaluate(obj.eta))
        return polys[worst].evaluate(obj.eta), polys[worst].to_string()
    if kind == "arbitrary":
        poly = success_polynomial(build_arbitrary_tree(code))
        return poly.evaluate(obj.eta), poly.to_string()
    if kind == "fusion_success":
        return rgs_link_probability(code, obj.eta, obj.p_fail, obj.adaptive), None
    return fbqc_loss_threshold(code, obj.p_fail, obj.adaptive), None


def evaluate_objective(obj: Objective, code: GraphCode,
                       limit: int = EXHAUSTIVE_LIMIT) -> tuple[float, float, str | None]:
    """(score, tie-break score, canonical polynomial or None) for one code.

    A code on more than ``limit`` qubits raises ``ResourceLimitError``
    before any engine runs; the engines themselves run at their own
    default limits, so a transversal fusion score still refuses codes
    above ``fusion.TRANSVERSAL_LIMIT``.
    """
    if code.n > limit:
        raise ResourceLimitError(
            f"exhaustive enumeration needs 2^{code.n - 1} products; "
            f"limit is n <= {limit}")
    score, poly = _score_kind(obj.kind, code, obj)
    second = 0.0
    if obj.tie_break is not None:
        second, _ = _score_kind(obj.tie_break, code, obj)
    return score, second, poly


# -- candidate enumeration ---------------------------------------------------------


def _representatives(n: int, n_fixed: int) -> list[Graph]:
    """One representative per LC class of connected n-vertex graphs, where
    relabelings must fix the first ``n_fixed`` vertices.  Each is its
    orbit's minimum (n, nbr) key; the list is sorted by nbr."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if n == 1:
        return [Graph(1, (0,))]
    reps = [Graph(2, (2, 1))]
    for level in range(3, n + 1):
        seen: set[tuple] = set()
        found: list[Graph] = []
        for g in reps:
            for mask in range(1, 1 << g.n):
                cand = g.add_vertex(mask)
                if canonical_key(cand, n_fixed=n_fixed) in seen:
                    continue
                members, truncated = lc_orbit(cand, n_fixed=n_fixed)
                if truncated:
                    raise ResourceLimitError(
                        f"orbit closure exceeded cap at n={level}")
                keys = [(m.n, m.nbr) for m in members]
                seen.update(keys)
                found.append(Graph(*min(keys)))
        reps = sorted(found, key=lambda h: h.nbr)
    return reps


def unrooted_representatives(n: int) -> list[Graph]:
    """One representative per LC class of connected graphs on n vertices."""
    return _representatives(n, 0)


def read_candidates(path: str):
    """Candidates from a file: one 'graph6 input-vertex' pair per line."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'graph6 input-vertex', "
                    f"got {line!r}")
            try:
                g = Graph.from_graph6(parts[0])
            except Exception as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed graph6 {parts[0]!r}: {exc}")
            try:
                input_vertex = int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: input vertex must be an integer, "
                    f"got {parts[1]!r}")
            try:
                yield GraphCode(g, input_vertex)
            except InvalidCodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")


def enumerate_candidates(n_total: int | None = None, source: str = "generated"):
    """Deterministic stream of candidate codes, no two LC-equivalent.

    ``source`` is either the literal "generated" (exhaustive class
    representatives on ``n_total`` progenitor vertices, input fixed at
    vertex 0) or a path to a candidate file for externally supplied
    representatives at sizes the generator cannot reach.
    """
    if source == "generated":
        if n_total is None:
            raise ValueError("generated enumeration needs n_total")
        if n_total < 2:
            raise ValueError(f"n_total must be >= 2, got {n_total}")
        for g in _representatives(n_total, 1):
            yield GraphCode(g, 0)
    else:
        yield from read_candidates(source)


# -- optimization ------------------------------------------------------------------


class ScoredCandidate:
    """One evaluated candidate, ready for ranking and serialization."""

    __slots__ = ("graph6", "input_vertex", "score", "tie_break", "polynomial")

    def __init__(self, graph6: str, input_vertex: int, score: float,
                 tie_break: float, polynomial: str | None):
        object.__setattr__(self, "graph6", graph6)
        object.__setattr__(self, "input_vertex", input_vertex)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "tie_break", tie_break)
        object.__setattr__(self, "polynomial", polynomial)

    def __setattr__(self, name, value):
        raise AttributeError("ScoredCandidate is immutable")

    def record(self, objective: Objective) -> dict:
        return {"graph6": self.graph6, "input": self.input_vertex,
                "objective": objective.as_dict(), "score": self.score,
                "tie_break": self.tie_break, "polynomial": self.polynomial}

    def __repr__(self) -> str:
        return (f"ScoredCandidate({self.graph6!r}, input={self.input_vertex}, "
                f"score={self.score:.6g})")


class SearchResult:
    """Ranked scores plus the per-candidate failures that were skipped."""

    __slots__ = ("objective", "ranked", "failures")

    def __init__(self, objective: Objective, ranked, failures):
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "ranked", tuple(ranked))
        object.__setattr__(self, "failures", tuple(failures))

    def __setattr__(self, name, value):
        raise AttributeError("SearchResult is immutable")

    def best(self) -> ScoredCandidate:
        if not self.ranked:
            raise ValueError("no candidate was scored")
        return self.ranked[0]

    def to_jsonl(self) -> str:
        lines = [json.dumps(c.record(self.objective), sort_keys=True)
                 for c in self.ranked]
        lines += [json.dumps({"graph6": g6, "input": iv, "error": msg,
                              "objective": self.objective.as_dict()},
                             sort_keys=True)
                  for g6, iv, msg in self.failures]
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return (f"SearchResult({self.objective.kind!r}, "
                f"ranked={len(self.ranked)}, failures={len(self.failures)})")


def _rank_key(c: ScoredCandidate):
    return (-c.score, -c.tie_break, c.graph6, c.input_vertex)


def _eval_packed(args):
    g6, input_vertex, obj_dict, limit = args
    obj = Objective(**obj_dict)
    code = GraphCode(Graph.from_graph6(g6), input_vertex)
    try:
        score, second, poly = evaluate_objective(obj, code, limit)
        return g6, input_vertex, score, second, poly, None
    except ResourceLimitError as exc:
        return g6, input_vertex, 0.0, 0.0, None, ("deferred", str(exc))
    except Exception as exc:
        return g6, input_vertex, 0.0, 0.0, None, ("failed", repr(exc))
    finally:
        # a search scores each code once, so its derived data is dead
        forget(code)


def _run_pass(tasks, workers: int):
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_eval_packed, tasks, chunksize=1)
    else:
        for task in tasks:
            yield _eval_packed(task)


def _load_checkpoint(path: str | None, objective: Objective) -> tuple[dict, int]:
    """Scores recorded for ``objective`` in the checkpoint at ``path``, and
    the length in bytes of the file's whole records.

    Each record is one line, written with its newline last.  A final line
    without a newline was cut short by a kill during the write: it is left
    out with a warning, so its candidate is scored again.  A malformed line
    before it is not a torn write and raises.  A record written by another
    version of the package is ignored, so its candidate is scored again.
    """
    cached: dict[tuple[str, int], ScoredCandidate] = {}
    if not path or not os.path.exists(path):
        return cached, 0
    obj_dict = objective.as_dict()
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    if lines and not lines[-1].endswith(b"\n"):
        torn = lines.pop()
        log.warning("checkpoint %s: dropping a torn final line of %d bytes "
                    "at byte offset %d", path, len(torn), sum(map(len, lines)))
    for line in lines:
        if not line.strip():
            continue
        rec = json.loads(line)
        if (rec.get("objective") != obj_dict or "error" in rec
                or rec.get("version") != __version__):
            continue
        cached[(rec["graph6"], rec["input"])] = ScoredCandidate(
            rec["graph6"], rec["input"], rec["score"],
            rec.get("tie_break", 0.0), rec.get("polynomial"))
    return cached, sum(map(len, lines))


def optimize(objective: Objective, candidates, *, workers: int = 1,
             budget: int | None = None,
             checkpoint: str | None = None) -> SearchResult:
    """Score every candidate against one objective and rank the results.

    ``budget`` caps the qubit count of a code scored in the first pass;
    candidates over budget are deferred to a second pass at
    ``EXHAUSTIVE_LIMIT``, and a candidate refused there, by that limit or
    by an engine's own, is logged as a failure.  With a
    ``checkpoint`` path, finished scores are appended as JSON lines and
    reloaded on rerun, so an interrupted sweep resumes where it stopped.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    first_limit = EXHAUSTIVE_LIMIT if budget is None else budget
    cached, intact = _load_checkpoint(checkpoint, objective)
    obj_dict = objective.as_dict()

    pending = []
    scored = []
    seen: set[tuple[str, int]] = set()
    for code in candidates:
        g6 = code.progenitor.to_graph6()
        ident = (g6, code.input_vertex)
        if ident in seen:
            continue
        seen.add(ident)
        if ident in cached:
            scored.append(cached[ident])
        else:
            pending.append((g6, code.input_vertex, obj_dict, first_limit))

    sink = None
    if checkpoint:
        sink = open(checkpoint, "a", encoding="ascii")
        sink.truncate(intact)  # new records must not follow a torn line
    failures = []
    try:
        tasks, limit = pending, first_limit
        while tasks:
            deferred = []
            for g6, iv, score, second, poly, err in _run_pass(tasks, workers):
                if err is None:
                    cand = ScoredCandidate(g6, iv, score, second, poly)
                    scored.append(cand)
                    if sink:
                        record = dict(cand.record(objective),
                                      version=__version__)
                        sink.write(json.dumps(record, sort_keys=True) + "\n")
                        sink.flush()
                elif err[0] == "deferred" and limit < EXHAUSTIVE_LIMIT:
                    deferred.append((g6, iv, obj_dict, EXHAUSTIVE_LIMIT))
                else:
                    failures.append((g6, iv, err[1]))
            tasks, limit = deferred, EXHAUSTIVE_LIMIT
    finally:
        if sink:
            sink.close()

    scored.sort(key=_rank_key)
    failures.sort()
    return SearchResult(objective, scored, failures)
