"""Simple undirected graphs with local complementation and LC orbits.

A graph is the namedtuple ``(n, nbr)``, ``nbr`` a tuple of neighbor bit
masks, so graphs are hashable values, equal and hashed as that tuple, and
local complementation is a few xors.  The public constructor ``Graph(n,
nbr)`` checks the row count, the range of every row, loops and symmetry.
Graphs built here from rows that are symmetric by construction skip those
checks through ``Graph._trusted``.

Canonical labeling pins a prefix of distinguished vertices (the code
input) and orders the rest to minimize the column string: position p
contributes the bits linking it to positions 0..p-1.  One numpy kernel,
``canonical_block``, labels a block of graphs on one vertex count, given
as an int array of neighbour rows.  It walks the positions level by
level and keeps, per graph, only the partial orders whose column string
so far is the least, each extended by its unplaced vertices of least
column and by one vertex per twin class (vertices an automorphism fixing
the placed ones swaps).  Every dropped order can only tie or lose, so the
result is the lexicographic minimum over every order, with a placement
that gives it.  ``canonical_form`` and ``canonical_key`` are one-graph
blocks.

Orbit closure, ``close_orbits``, runs breadth first over a block of seed
forms at once: each layer makes its local complementations in one
vectorised xor, skipping those that can only land on a form already
found (the move back to a member's parent, and a move at a vertex with
a lower twin), and canonicalises them in one kernel call per chunk.  One
compact key per form, kept sorted, tells new forms from found ones, and a
union-find forest over the seeds merges two seeds' orbits when a move
from one reaches a form found from the other.  ``lc_orbit`` is the
one-seed case; the class enumeration in ``search`` closes all of a
level's orbits together.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .pauli import PauliOperator, iter_bits
from .polynomials import KERNEL_FLOATS


def _graph6_size(n: int) -> list[int]:
    """The 6-bit values that open a graph6 string: n itself below 63,
    else 63 and n in three values, or 63, 63 and n in six from 258048."""
    if n < 63:
        return [n]
    width = 3 if n < 258048 else 6
    return [63] * (width // 3) + [n >> 6 * k & 63 for k in reversed(range(width))]


class Graph(namedtuple("Graph", "n nbr")):
    """Immutable undirected graph on vertices 0..n-1, no self loops."""

    __slots__ = ()

    def __new__(cls, n: int, nbr: tuple[int, ...]):
        if len(nbr) != n:
            raise ValueError("adjacency length does not match vertex count")
        for v, row in enumerate(nbr):
            if row >> n:
                raise ValueError(f"vertex {v} has neighbors out of range")
            if (row >> v) & 1:
                raise ValueError(f"self loop at vertex {v}")
        for v in range(n):
            for u in iter_bits(nbr[v]):
                if not (nbr[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency at ({v}, {u})")
        return tuple.__new__(cls, (n, tuple(nbr)))

    @classmethod
    def _trusted(cls, n: int, nbr: tuple[int, ...]) -> "Graph":
        """A graph from a tuple of rows this module built symmetric,
        loop-free and in range: the field tuple itself, made by
        ``tuple.__new__`` without the checks of ``Graph(n, nbr)``."""
        return tuple.__new__(cls, (n, nbr))

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        nbr = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        return cls(n, tuple(nbr))

    @classmethod
    def from_graph6(cls, text: str) -> "Graph":
        """Read graph6 text, optionally after a ``>>graph6<<`` header.
        Text that is not graph6 raises ValueError."""
        data = [ord(c) - 63 for c in text.strip().removeprefix(">>graph6<<")]
        if not all(0 <= d < 64 for d in data):
            raise ValueError("characters must lie in '?'..'~'")
        skip = 2 if data[:2] == [63, 63] else 1 if data[:1] == [63] else 0
        width = (1, 3, 6)[skip]
        if len(data) < skip + width:
            raise ValueError("text ends inside the vertex count")
        n = 0
        for d in data[skip:skip + width]:
            n = n << 6 | d
        body = data[skip + width:]
        if len(body) != (n * (n - 1) // 2 + 5) // 6:
            raise ValueError(f"{len(body)} edge characters do not fit {n} vertices")
        bits = "".join(f"{d:06b}" for d in body)
        pairs = ((i, j) for j in range(1, n) for i in range(j))
        return cls.from_edges(n, (p for p, b in zip(pairs, bits) if b == "1"))

    def to_graph6(self) -> str:
        """graph6 text: the vertex count, then the upper triangle six
        bits per character, column by column, so the first character's
        top bit is edge (0, 1)."""
        # column j holds bits i = 0..j-1, low vertex first
        bits = "".join(f"{self.nbr[j] & (1 << j) - 1:0{j}b}"[::-1]
                       for j in range(1, self.n))
        bits += "0" * (-len(bits) % 6)
        body = [int(bits[k:k + 6], 2) for k in range(0, len(bits), 6)]
        return "".join(chr(63 + d) for d in _graph6_size(self.n) + body)

    # -- inspection ------------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in iter_bits(self.nbr[v]):
                if u > v:
                    out.append((v, u))
        return out

    def neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self.nbr[v]))

    def induced(self, vertices: list[int]) -> "Graph":
        """Induced subgraph, relabeled to 0..len(vertices)-1 in list order."""
        pos = {v: i for i, v in enumerate(vertices)}
        nbr = [0] * len(vertices)
        for v in vertices:
            for u in iter_bits(self.nbr[v]):
                if u in pos:
                    nbr[pos[v]] |= 1 << pos[u]
        return Graph(len(vertices), tuple(nbr))

    def __repr__(self) -> str:
        return f"Graph({self.n}, edges={self.edges()})"


# -- standard builders ----------------------------------------------------

def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def graph_state_generators(g: Graph) -> list[PauliOperator]:
    """Stabilizer generators K_i = X_i prod_{k in N(i)} Z_k of the graph state."""
    return [PauliOperator(g.n, 1 << i, g.nbr[i]) for i in range(g.n)]


def local_complement(g: Graph, v: int) -> Graph:
    """Toggle all edges inside the neighborhood of v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    nv = g.nbr[v]
    nbr = list(g.nbr)
    for u in iter_bits(nv):
        nbr[u] ^= nv & ~(1 << u)
    return Graph._trusted(g.n, tuple(nbr))


# -- canonical labeling ----------------------------------------------------

# The column of a placed vertex: above every column, which has at most 62
# bits, and unchanged when a position bit is or-ed in.
_PLACED = np.iinfo(np.int64).max


def canonical_block(rows, n_fixed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Canonical forms of a block of graphs on one vertex count.

    ``rows`` holds one graph's neighbour masks per row, shape (graphs, n),
    n <= 63.  The first ``n_fixed`` vertices keep their positions (all of
    them when ``n_fixed >= n``).  Placing a vertex at position p >=
    n_fixed contributes its column: the integer with bit i set when it is
    adjacent to the vertex at position i < p.  A canonical form has the
    least column string over all (n - n_fixed)! orders.  Returns
    ``(forms, place)``: the forms' neighbour masks, and ``place[b, p]``,
    the vertex of graph b put at position p.

    The graphs go through in chunks, each walked position by position.
    Per graph, every partial order whose column string so far is the
    least is kept:

    - each kept order carries each unplaced vertex's column against its
      placed prefix, and placing a vertex at p sets bit p in its unplaced
      neighbours;
    - an order extends only by its unplaced vertices of least column,
      and only the orders whose least column is the graph's least go on:
      any other choice loses at position p whatever follows;
    - of unplaced twins, vertices with N(u) - {v} = N(v) - {u}, only the
      lowest is placed: swapping two is an automorphism fixing every
      placed vertex, so both give the same strings.

    Every order dropped can only tie or lose, so the orders left after
    the last position all give the least string, and ``place`` is the
    first.  A chunk has ``KERNEL_FLOATS // n**2`` graphs, so its
    per-graph temporaries hold at most ``KERNEL_FLOATS`` entries; its
    per-order ones hold n entries per order kept, one per way a graph's
    prefix ties the least.
    """
    rows = np.asarray(rows)
    count, n = rows.shape
    if n_fixed < 0:
        raise ValueError(f"n_fixed must be >= 0, got {n_fixed}")
    if n > 63:
        raise ValueError(f"canonical labeling takes at most 63 vertices, got {n}")
    rows = rows.astype(np.int64, copy=False)
    forms = np.empty_like(rows)
    place = np.empty_like(rows)
    step = max(1, KERNEL_FLOATS // max(1, n * n))
    for lo in range(0, count, step):
        forms[lo:lo + step], place[lo:lo + step] = _canonical_chunk(
            rows[lo:lo + step], min(n_fixed, n))
    return forms, place


def _lower_twins(rows: np.ndarray, fixed: int) -> np.ndarray:
    """``earlier[graph, v]``: the mask of the unpinned u < v twinned with
    v, N(u) - {v} = N(v) - {u}, in each graph of ``rows``."""
    vertices = np.arange(rows.shape[1])
    bit = np.left_shift(1, vertices, dtype=np.int64)
    lower = (vertices[:, None] < vertices) & (vertices[:, None] >= fixed)
    twins = ((rows[:, :, None] ^ rows[:, None, :])
             & ~(bit[:, None] | bit) == 0) & lower           # [graph, u, v]
    return (twins * bit[:, None]).sum(axis=1)


def _canonical_chunk(rows: np.ndarray, fixed: int) -> tuple[np.ndarray, np.ndarray]:
    count, n = rows.shape
    vertices = np.arange(n)
    bit = np.left_shift(1, vertices, dtype=np.int64)
    adjacent = rows[:, :, None] >> vertices & 1              # [graph, v, u]
    earlier = _lower_twins(rows, fixed)

    # one row per kept order: its graph, unplaced vertices, the unplaced
    # vertices' columns and the vertices placed so far, grouped by graph;
    # placing v or-s row v of ``placed`` into its order's columns
    graphs = np.arange(count)
    graph = graphs
    free = np.full(count, (1 << n) - 1 ^ (1 << fixed) - 1, dtype=np.int64)
    col = rows & (1 << fixed) - 1
    col[:, :fixed] = _PLACED
    placed = np.diag(np.full(n, _PLACED))
    place = vertices[None].repeat(count, axis=0)
    for p in range(fixed, n):
        low = col.min(axis=1)
        # every graph keeps an order, so its first is where it sorts in
        least = np.minimum.reduceat(low, np.searchsorted(graph, graphs))
        pick = ((col == low[:, None]) & (low == least[graph])[:, None]
                & (earlier[graph] & free[:, None] == 0))
        order, v = np.nonzero(pick)
        graph = graph[order]
        free = free[order] ^ bit[v]
        col = col[order] | adjacent[graph, v] << p | placed[v]
        place = place[order]
        place[:, p] = v
    place = place[np.searchsorted(graph, graphs)]
    moved = adjacent[graphs[:, None, None], place[:, :, None], place[:, None, :]]
    return (moved << vertices).sum(axis=2), place


def canonical_form(g: Graph, n_fixed: int = 0) -> Graph:
    """The canonically relabeled graph (first ``n_fixed`` vertices pinned):
    the relabeling with the least column string, a one-graph block of
    ``canonical_block``."""
    forms, _ = canonical_block([g.nbr], n_fixed)
    return Graph._trusted(g.n, tuple(forms[0].tolist()))


def canonical_key(g: Graph, n_fixed: int = 0) -> tuple:
    """Hashable canonical invariant under permutations preserving the pinned prefix."""
    return tuple(canonical_form(g, n_fixed))


# -- LC orbits ----------------------------------------------------------------

# The most members an LC orbit closure collects by default; the class
# enumeration in ``search`` refuses an orbit this large.
ORBIT_CAP = 10 ** 6


def _keys(forms: np.ndarray) -> np.ndarray:
    """One key per form, equal exactly when the forms are: its column
    string, column p in p bits, packed into as few int64 words as hold
    it.  One word (an int64 array) holds 11 vertices; past that the words
    are viewed as one void value per form, which sorts and compares too."""
    count, n = forms.shape
    words = [np.zeros(count, np.int64)]
    shift = 0
    for p in range(1, n):
        if shift + p > 63:
            words.append(np.zeros(count, np.int64))
            shift = 0
        words[-1] |= (forms[:, p] & (1 << p) - 1) << shift
        shift += p
    if len(words) == 1:
        return words[0]
    return np.stack(words, axis=1).view(np.dtype((np.void, 8 * len(words))))[:, 0]


def _lc_moves(rows: np.ndarray, skip: np.ndarray) -> tuple:
    """Local complementation of each graph of ``rows`` at each vertex of
    degree two or more (at the others it is the identity) that is not in
    its ``skip`` mask, graph by graph in vertex order: (the source row of
    each move, its vertex, the moved graphs)."""
    vertices = np.arange(rows.shape[1])
    source, v = np.nonzero((rows & rows - 1 != 0)
                           & (skip[:, None] >> vertices & 1 == 0))
    centre = rows[source, v][:, None]
    inside = centre & ~np.left_shift(1, vertices, dtype=np.int64)
    return source, v, rows[source] ^ (centre >> vertices & 1) * inside


def _first_equal(keys: np.ndarray) -> np.ndarray:
    """For each key, the least index whose key equals it."""
    if not len(keys):
        return np.arange(0)
    by_key = np.argsort(keys)
    head = np.ones(len(keys), bool)
    head[1:] = keys[by_key[1:]] != keys[by_key[:-1]]
    least = np.minimum.reduceat(by_key, np.flatnonzero(head))
    first = np.empty_like(by_key)
    first[by_key] = least[np.cumsum(head) - 1]
    return first


def _union(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the sets of ``a[i]`` and ``b[i]`` in the flat union-find
    forest ``parent`` (every entry its root): each root is hooked under
    a lesser root it meets, then the forest is flattened again."""
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return
        # a root met twice takes one of its hooks now, the rest next round
        parent[np.maximum(ra, rb)[apart]] = np.minimum(ra, rb)[apart]
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent[:] = up


def close_orbits(forms: np.ndarray, n_fixed: int, cap: int):
    """The LC orbits of a block of canonical forms, closed together.

    The distinct ``forms`` are the seeds.  The closure is breadth first:
    each layer makes the moves of its members at once (``_lc_moves``),
    canonicalises them as one block per chunk, and keeps the forms not
    found before as the next layer, in the order of the moves that first
    reach them.  From one seed this is the order in which a closure that
    expands one member at a time, in vertex order, finds them.  Every
    member is labelled with the seed whose closure found it first; a
    move that reaches a form found from another seed merges the two
    seeds' orbits in a union-find forest over seeds, so each class is one
    tree.  One sorted key per form (``_keys``) answers "found before?".

    Two kinds of move are not made, since each can only land on a form
    already found, from the same member's seed:

    - the move back to a member's parent: local complementation is an
      involution, so repeating the parent's move, at the position where
      ``canonical_block``'s ``place`` put its vertex, gives the parent;
    - a move at a vertex with a lower unpinned twin (N(u) - {v} = N(v) -
      {u}, u < v): swapping the two is an automorphism fixing the pinned
      vertices, so both moves give the same form, and u's comes first.

    No skipped move is the first to reach a form, and the seeds it would
    merge are merged already, so the members, labels and roots are those
    of making every move.

    Returns ``(members, labels, roots, truncated)``: the members' rows in
    the order found, each member's seed label, each seed's root, and
    whether the closure stopped once some orbit had ``cap`` members, after
    the layer that reached it.
    """
    keys = _keys(forms)
    seeds = np.flatnonzero(_first_equal(keys) == np.arange(len(keys)))
    count, n = len(seeds), forms.shape[1]
    bit = np.left_shift(1, np.arange(n), dtype=np.int64)
    # each member's move back to its parent as a vertex mask, 0 for a seed
    frontier, label = forms[seeds], np.arange(count)
    back = np.zeros(count, np.int64)
    by_key = np.argsort(keys[seeds])
    known, known_label = keys[seeds][by_key], by_key
    parent, sizes = label.copy(), np.ones(count)
    layers, labels = [frontier], [label]
    step = max(1, KERNEL_FLOATS // max(1, n * n))
    while True:
        if np.bincount(parent, weights=sizes).max() >= cap:
            truncated = True
            break
        if not len(frontier):
            truncated = False
            break
        linked, linked_to, fresh = [], [], []
        for lo in range(0, len(frontier), step):
            chunk = frontier[lo:lo + step]
            twinned = _lower_twins(chunk, min(n_fixed, n)) != 0
            skip = back[lo:lo + step] | (twinned * bit).sum(axis=1)
            source, v, moved = _lc_moves(chunk, skip)
            found, place = canonical_block(moved, n_fixed)
            # where vertex v lands, the move back to the source is made
            home = (place == v[:, None]).argmax(axis=1)
            found_keys = _keys(found)
            found_label = label[lo + source]
            at = np.searchsorted(known, found_keys).clip(max=len(known) - 1)
            old = known[at] == found_keys
            linked.append(found_label[old])
            linked_to.append(known_label[at[old]])
            fresh.append((found[~old], found_keys[~old], found_label[~old],
                          home[~old]))
        found, found_keys, found_label, home = map(np.concatenate, zip(*fresh))
        # each new form goes to the first move that reached it, and the
        # seeds of every later move reaching it are merged with its seed
        first = _first_equal(found_keys)
        linked.append(found_label)
        linked_to.append(found_label[first])
        _union(parent, np.concatenate(linked), np.concatenate(linked_to))
        new = np.flatnonzero(first == np.arange(len(first)))
        frontier, label, back = found[new], found_label[new], bit[home[new]]
        layers.append(frontier)
        labels.append(label)
        sizes += np.bincount(label, minlength=count)
        known = np.concatenate([known, found_keys[new]])
        known_label = np.concatenate([known_label, label])
        by_key = np.argsort(known)
        known, known_label = known[by_key], known_label[by_key]
    return np.concatenate(layers), np.concatenate(labels), parent, truncated


def lc_orbit(g: Graph, cap: int = ORBIT_CAP, n_fixed: int = 1) -> tuple[set[Graph], bool]:
    """Closure of ``g`` under local complementation at every vertex.

    Members are deduplicated by canonical labeling with the first
    ``n_fixed`` vertices held fixed (vertex 0 is the code input by
    convention).  The closure is breadth first: each member, in the order
    found, tries its moves in vertex order.  Returns (members,
    truncated_flag); enumeration stops once ``cap`` members are collected,
    the start member included, so ``cap`` = k keeps the first min(k, |orbit|)
    members in that order and flags truncation exactly when k <= |orbit|.
    This is ``close_orbits`` from one seed.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    members, _, _, truncated = close_orbits(
        canonical_block([g.nbr], n_fixed)[0], n_fixed, cap)
    return {Graph._trusted(g.n, tuple(row)) for row in members[:cap].tolist()}, truncated
