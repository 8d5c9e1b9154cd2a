"""Single-logical-qubit codes carved out of graph states.

A code is specified by a progenitor graph on n+1 vertices together with a
distinguished input vertex.  The n remaining vertices carry the code
qubits; the input's neighborhood B fixes the logical operators

    logical X = prod_{b in B} Z_b
    logical Z = K_{b0}          (the code-graph generator at the lowest b)

and the stabilizer group is generated by K_{b0} K_b for the other b in B
together with K_{b'} for every code qubit outside B.  All K operators here
live on the code graph, the induced subgraph on the code qubits.

The construction guarantees a valid code, so it is not re-checked:
  - only K_{b0} has an X on b0, so logical X = Z_B anticommutes with K_{b0};
  - each K_{b0} K_b has X on two qubits of B and each K_{b'} on none, so
    all commute with Z_B, and graph-state generators commute pairwise;
  - their X parts {b0, b} and {b'} are distinct, so the n - 1 are independent.

A ``GraphCode`` is a namedtuple of eight fields, six of them derived from
``(progenitor, input_vertex)`` when it is made.  Equality and hash read
those two alone, and a code pickles and copies as those two, so a code
loaded in another process is derived again and reaches the same
``per_code`` memo entry as its original.
"""

from __future__ import annotations

import functools
import json
from collections import namedtuple

from .graphs import Graph, graph_state_generators, star_graph
from .pauli import PauliOperator


class InvalidCodeError(ValueError):
    """Raised when a progenitor graph does not define a valid code."""


class GraphCode(namedtuple("GraphCode", "progenitor input_vertex b0 n "
                           "logical_x logical_y logical_z "
                           "stabilizer_generators")):
    """A graph code for one logical qubit, from a progenitor graph.

    Code qubits are the progenitor vertices other than the input, relabeled
    to 0..n-1 in ascending original order.  ``GraphCode(progenitor,
    input_vertex)`` derives the other six fields; equality, hash and
    pickling read those two arguments alone.
    """

    __slots__ = ()

    def __new__(cls, progenitor: Graph, input_vertex: int = 0):
        if not 0 <= input_vertex < progenitor.n:
            raise InvalidCodeError(f"input vertex {input_vertex} out of range")
        b_orig = progenitor.neighbors(input_vertex)
        if not b_orig:
            raise InvalidCodeError("input vertex has no neighbors")
        b0 = b_orig[0]

        code_vertices = tuple(v for v in range(progenitor.n) if v != input_vertex)
        pos = {v: i for i, v in enumerate(code_vertices)}
        n = len(code_vertices)
        code_graph = progenitor.induced(list(code_vertices))

        branch_mask = 0
        for b in b_orig:
            branch_mask |= 1 << pos[b]
        k = graph_state_generators(code_graph)
        b0_idx = pos[b0]

        logical_x = PauliOperator(n, 0, branch_mask)
        logical_z = k[b0_idx]
        gens = [k[b0_idx] * k[pos[b]] for b in b_orig if b != b0]
        gens += [k[i] for i in range(n) if not (branch_mask >> i) & 1]
        return tuple.__new__(cls, (progenitor, input_vertex, b0, n, logical_x,
                                   logical_x * logical_z, logical_z,
                                   tuple(gens)))

    def __getnewargs__(self):
        return self[:2]

    # -- logical accessors ------------------------------------------------

    def logical(self, which: str) -> PauliOperator:
        if which == "X":
            return self.logical_x
        if which == "Y":
            return self.logical_y
        if which == "Z":
            return self.logical_z
        raise ValueError(f"unknown logical label: {which}")

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "n_vertices": self.progenitor.n,
            "edges": self.progenitor.edges(),
            "input": self.input_vertex,
            "b0": self.b0,
        })

    def __eq__(self, other) -> bool:
        return (isinstance(other, GraphCode) and self[1] == other[1]
                and self[0] == other[0])

    # tuple.__ne__ would compare all eight fields
    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

    def __repr__(self) -> str:
        return (f"GraphCode(n={self.n}, input={self.input_vertex}, "
                f"edges={self.progenitor.edges()})")


# -- derived data per code ---------------------------------------------------

# How many codes keep their derived data (operator sets, trees, fusion
# analyses): a search scores one code after another, and each 12-qubit
# code's data runs to tens of MB, so a code touched less recently than the
# last CODES_KEPT is dropped whole.
CODES_KEPT = 8

# code -> {(function, args): value}, least recently used first.  A plain
# dict: an OrderedDict hashes the key again to read its last key or to
# move one.
_MEMO: "dict[GraphCode, dict]" = {}

CacheInfo = namedtuple("CacheInfo", "hits misses")


def per_code(fn):
    """Memoise ``fn(code, *args)`` in ``code``'s memo entry.

    Calls are keyed by the function and its further positional arguments.
    Every call makes ``code`` the most recently used; beyond ``CODES_KEPT``
    codes, the least recently used one is forgotten.  A call on the most
    recent code hashes it once, since that entry is not moved.
    Exceptions are not stored.  ``cache_info()`` reports the
    decorated function's own hits and misses (builds).
    """
    counts = [0, 0]

    @functools.wraps(fn)
    def memoised(code, *args):
        entries = _MEMO.get(code)
        if entries is None:
            entries = _MEMO[code] = {}
            if len(_MEMO) > CODES_KEPT:
                del _MEMO[next(iter(_MEMO))]
        else:
            last = next(reversed(_MEMO))
            if last is not code and last != code:
                _MEMO[code] = _MEMO.pop(code)
        key = (fn, args)
        if key in entries:
            counts[0] += 1
            return entries[key]
        counts[1] += 1
        value = entries[key] = fn(code, *args)
        return value

    memoised.cache_info = lambda: CacheInfo(*counts)
    return memoised


def forget(code: GraphCode) -> None:
    """Drop everything memoised for ``code``."""
    _MEMO.pop(code, None)


# -- named examples ---------------------------------------------------------

def pentagon_code() -> GraphCode:
    """The five-cycle progenitor: four code qubits on a path."""
    ring = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    return GraphCode(ring, 0)


def star_code(n: int) -> GraphCode:
    """Star progenitor with the input at the center; n code qubits."""
    return GraphCode(star_graph(n + 1), 0)


def cube_code() -> GraphCode:
    """Seven code qubits; the progenitor is in the cube's orbit."""
    edges = [(0, 4), (0, 5), (0, 7), (1, 3), (1, 4), (1, 5),
             (2, 3), (2, 5), (2, 7), (3, 6), (4, 6), (6, 7)]
    return GraphCode(Graph.from_edges(8, edges), 0)


def branched_chain_code() -> GraphCode:
    """Two two-qubit branches hanging off the input: four code qubits."""
    edges = [(0, 1), (1, 2), (0, 3), (3, 4)]
    return GraphCode(Graph.from_edges(5, edges), 0)


def decorated_pentagon_code() -> GraphCode:
    """Pentagon with pendant qubits on two non-adjacent cycle vertices.

    Six code qubits.  The smallest code we found that is loss tolerant
    for arbitrary-basis measurements (break-even near 32% loss) while
    its logical error rate approaches the bare output-qubit rate at low
    noise.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5), (3, 6)]
    return GraphCode(Graph.from_edges(7, edges), 0)


def shor_22_code() -> GraphCode:
    """The (2,2) Shor code as a graph code: the depth-two tree [2, 1].

    Hadamards on the two leaf qubits turn the tree code's stabilizers
    (Z X on each arm, X X Z Z across) into the familiar pair-wise Z Z
    plus all-X form, so this progenitor is in the Shor code's local
    equivalence class.  Four code qubits.
    """
    return tree_code([2, 1])


def tree_progenitor(branching: list[int]) -> Graph:
    """Tree with the input as root; level v has branching[v] children each."""
    edges = []
    level = [0]
    count = 1
    for b in branching:
        nxt = []
        for parent in level:
            for _ in range(b):
                edges.append((parent, count))
                nxt.append(count)
                count += 1
        level = nxt
    return Graph.from_edges(count, edges)


def tree_code(branching: list[int]) -> GraphCode:
    """Code whose progenitor is the rooted tree with the given branching."""
    return GraphCode(tree_progenitor(branching), 0)
