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
therefore reaches every n-vertex class.  Each level canonicalises all
its extensions as one block and closes all their orbits together
(``graphs.close_orbits``): seeds whose closures reach a common form are
one class, and a class's least member, by neighbour rows, is its
representative.

Objectives score a candidate through the decoder, fusion and
fusion-network engines as a pure function of the code, each engine at
its own default size limit; ``optimize`` evaluates a candidate stream
against one objective with optional process parallelism and an
append-only JSON-lines checkpoint that makes long sweeps
resumable.  Its ``workers`` (the CLI's ``--threads``) is an upper bound:
the pool is capped at the number of pending candidates and of CPUs, and
a cap of one scores in-process.  Workers are sent the objective and the
codes the candidate stream built (a code pickles as its progenitor and
input vertex), and the parent writes each record's graph6.  Rankings are
sorted by score, then by graph6 and input vertex, so any permutation of
the candidate stream yields the same result order.
"""

from __future__ import annotations

import functools
import json
import logging
import os
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .codes import GraphCode, InvalidCodeError, forget
from .graphs import ORBIT_CAP, Graph, canonical_block, close_orbits
from .losstree import build_arbitrary_tree, build_pauli_tree, success_polynomial
from .apps import _validated_p_fail, fbqc_loss_threshold, rgs_link_probability
from .opsets import ResourceLimitError, check_exhaustive

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


@dataclass(frozen=True)
class Objective:
    """A pure scoring function over candidate codes.

    ``eta`` fixes the operating transmission for decoder and fusion
    scores; the default sits near threshold at 30% loss.  ``p_fail``
    feeds the fusion outcome model, and ``adaptive`` picks the fusion
    strategy.
    """

    kind: str
    eta: float = 0.70
    p_fail: float = 0.5
    adaptive: bool = True

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        _validated_p_fail(self.p_fail)
        object.__setattr__(self, "adaptive", bool(self.adaptive))

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate_objective(obj: Objective, code: GraphCode) -> tuple[float, str | None]:
    """(score, canonical polynomial or None) for one code.

    A code on more than ``EXHAUSTIVE_LIMIT`` qubits raises
    ``ResourceLimitError`` before any engine runs; the engines themselves
    run at their own default limits, so a transversal fusion score still
    refuses codes above ``fusion.TRANSVERSAL_LIMIT``.
    """
    check_exhaustive(code.n)
    if obj.kind == "pauli_all_bases":
        polys = {b: success_polynomial(build_pauli_tree(code, b)) for b in "XYZ"}
        worst = min("XYZ", key=lambda b: polys[b].evaluate(obj.eta))
        return polys[worst].evaluate(obj.eta), polys[worst].to_string()
    if obj.kind == "arbitrary":
        poly = success_polynomial(build_arbitrary_tree(code))
        return poly.evaluate(obj.eta), poly.to_string()
    if obj.kind == "fusion_success":
        return rgs_link_probability(code, obj.eta, obj.p_fail, obj.adaptive), None
    return fbqc_loss_threshold(code, obj.p_fail, obj.adaptive), None


# -- candidate enumeration ---------------------------------------------------------


def _representatives(n: int, n_fixed: int) -> list[Graph]:
    """One representative per LC class of connected n-vertex graphs, where
    relabelings must fix the first ``n_fixed`` vertices.  Each is its
    orbit's least member, graphs ordering as their (n, nbr) tuples; the
    list is sorted by nbr.  An orbit of ``ORBIT_CAP`` members or more
    raises ``ResourceLimitError``."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if n == 1:
        return [Graph(1, (0,))]
    reps = np.array([[2, 1]], dtype=np.int64)
    for level in range(3, n + 1):
        # every representative with a new vertex on every nonempty subset
        masks = np.arange(1, 1 << level - 1)
        grown = np.empty((len(reps), len(masks), level), np.int64)
        grown[:, :, -1] = masks
        grown[:, :, :-1] = reps[:, None] | (
            masks[:, None] >> np.arange(level - 1) & 1) << level - 1
        forms = canonical_block(grown.reshape(-1, level), n_fixed)[0]
        members, labels, roots, truncated = close_orbits(forms, n_fixed, ORBIT_CAP)
        if truncated:
            raise ResourceLimitError(f"orbit closure exceeded cap at n={level}")
        # each class's least member: its first row sorted by class, then nbr
        classes = roots[labels]
        order = np.lexsort((*members.T[::-1], classes))
        least = np.ones(len(order), bool)
        least[1:] = classes[order[1:]] != classes[order[:-1]]
        reps = members[order[least]]
        reps = reps[np.lexsort(reps.T[::-1])]
    return [Graph._trusted(n, row) for row in map(tuple, reps.tolist())]


def unrooted_representatives(n: int) -> list[Graph]:
    """One representative per LC class of connected graphs on n vertices."""
    return _representatives(n, 0)


def read_candidates(path: str):
    """Candidates from a file: one 'graph6 input-vertex' pair per line.

    The file is opened by the call, so one that cannot be opened raises
    ``OSError`` there; its lines are parsed as the stream is read, and the
    stream closes the file."""
    return _parse_candidates(open(path, "r", encoding="ascii"), path)


def _parse_candidates(fh, path: str):
    with fh:
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
            except ValueError as exc:
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


def enumerate_candidates(n_total: int):
    """Deterministic stream of candidate codes, no two LC-equivalent: one
    representative per rooted class on ``n_total`` progenitor vertices,
    input fixed at vertex 0.  ``read_candidates`` supplies codes at sizes
    this cannot reach.  ``n_total`` is checked when called, and the
    classes are enumerated as the stream is read.  Each candidate has
    ``n_total - 1`` code qubits, so a size whose codes no objective may
    score (past ``EXHAUSTIVE_LIMIT``) raises ``ResourceLimitError`` before
    any class is enumerated."""
    if n_total is None or n_total < 2:
        raise ValueError(f"candidate size must be >= 2, got {n_total}")
    check_exhaustive(n_total - 1)

    def stream():
        for g in _representatives(n_total, 1):
            yield GraphCode(g, 0)

    return stream()


# -- optimization ------------------------------------------------------------------


class ScoredCandidate(NamedTuple):
    """One evaluated candidate, ready for ranking and serialization."""

    graph6: str
    input_vertex: int
    score: float
    polynomial: str | None

    def record(self, objective: Objective) -> dict:
        # the always-0.0 tie_break column stays while the benchmark's
        # output check (perfbench/check.py) reads it
        return {"graph6": self.graph6, "input": self.input_vertex,
                "objective": objective.as_dict(), "score": self.score,
                "tie_break": 0.0, "polynomial": self.polynomial}


class SearchResult(NamedTuple):
    """Ranked scores plus the per-candidate failures that were skipped."""

    objective: Objective
    ranked: tuple
    failures: tuple

    def to_jsonl(self) -> str:
        lines = [json.dumps(c.record(self.objective), sort_keys=True)
                 for c in self.ranked]
        lines += [json.dumps({"graph6": g6, "input": iv, "error": msg,
                              "objective": self.objective.as_dict()},
                             sort_keys=True)
                  for g6, iv, msg in self.failures]
        return "\n".join(lines) + ("\n" if lines else "")


def _rank_key(c: ScoredCandidate):
    return (-c.score, c.graph6, c.input_vertex)


def _score(objective: Objective, code: GraphCode):
    """(score, polynomial, error message or None)."""
    try:
        return (*evaluate_objective(objective, code), None)
    except ResourceLimitError as exc:
        return 0.0, None, str(exc)
    except Exception as exc:
        return 0.0, None, repr(exc)
    finally:
        # a search scores each code once, so its derived data is dead
        forget(code)


def _run_pass(objective: Objective, codes: list, workers: int):
    # a fork-started pool starts all its processes at the first submit, so
    # ask for no more than there are codes and CPUs to score them
    workers = min(workers, len(codes), os.cpu_count() or 1)
    score = functools.partial(_score, objective)
    if workers > 1:
        # imported here: the pool's modules (multiprocessing, socket) cost
        # import time and memory that a one-process run never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(score, codes, chunksize=1)
    else:
        yield from map(score, codes)


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
            rec["graph6"], rec["input"], rec["score"], rec.get("polynomial"))
    return cached, sum(map(len, lines))


def optimize(objective: Objective, candidates, *, workers: int = 1,
             checkpoint: str | None = None) -> SearchResult:
    """Score every candidate against one objective and rank the results.

    A candidate that fails to score, one refused by ``EXHAUSTIVE_LIMIT``
    or by an engine's own limit included, is logged as a failure.  With a
    ``checkpoint`` path, finished scores are appended as JSON lines and
    reloaded on rerun, so an interrupted sweep resumes where it stopped.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cached, intact = _load_checkpoint(checkpoint, objective)

    pending = {}  # (graph6, input) -> code, in stream order
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
            pending[ident] = code

    sink = None
    if checkpoint:
        sink = open(checkpoint, "a", encoding="ascii")
        sink.truncate(intact)  # new records must not follow a torn line
    failures = []
    try:
        results = _run_pass(objective, list(pending.values()), workers)
        for (g6, iv), (score, poly, err) in zip(pending, results):
            if err is not None:
                failures.append((g6, iv, err))
                continue
            cand = ScoredCandidate(g6, iv, score, poly)
            scored.append(cand)
            if sink:
                record = dict(cand.record(objective), version=__version__)
                sink.write(json.dumps(record, sort_keys=True) + "\n")
                sink.flush()
    finally:
        if sink:
            sink.close()

    scored.sort(key=_rank_key)
    failures.sort()
    return SearchResult(objective, tuple(scored), tuple(failures))
