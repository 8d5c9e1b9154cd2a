"""Simple undirected graphs with local complementation and LC orbits.

A graph is the namedtuple ``(n, nbr)``, ``nbr`` a tuple of neighbor bit
masks, so graphs are hashable values, equal and hashed as that tuple, and
local complementation is a few xors.  The public constructor ``Graph(n,
nbr)`` checks the row count, the range of every row, loops and symmetry.
Graphs built here from rows that are symmetric by construction skip those
checks through ``Graph._trusted``.

Canonical labeling pins a prefix of distinguished vertices (the code
input) and orders the rest to minimize the column string: position p
contributes the bits linking it to positions 0..p-1.  The search keeps
each unplaced vertex's column against the placed prefix, branches only
on the vertices whose column is least, tries one vertex per twin class
(vertices an automorphism fixing the prefix swaps) and cuts prefixes past
the best string so far.  Each pruned branch can only tie or lose, so the
result is the lexicographic minimum over every order.  The search also
reports where it placed each vertex.

Orbit closure skips local complementations whose canonical form is
already known.  Complementation at v leaves N(v) unchanged, so it is an
involution, and it commutes with relabeling.  If LC_v(h) canonicalises
to cf by placing v at position p, then LC_p(cf) is that relabeling of h.
The relabeling fixes the pinned prefix, so it has h's canonical form: the
move at p on cf walks back to a member already found.  Skipping it
changes neither the members nor the order they are found in.
"""

from __future__ import annotations

from collections import namedtuple

from .pauli import PauliOperator, iter_bits


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

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.nbr[u] >> v) & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self.nbr[v]))

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= self.nbr[v]
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1

    def induced(self, vertices: list[int]) -> "Graph":
        """Induced subgraph, relabeled to 0..len(vertices)-1 in list order."""
        pos = {v: i for i, v in enumerate(vertices)}
        nbr = [0] * len(vertices)
        for v in vertices:
            for u in iter_bits(self.nbr[v]):
                if u in pos:
                    nbr[pos[v]] |= 1 << pos[u]
        return Graph(len(vertices), tuple(nbr))

    def relabeled(self, perm: list[int]) -> "Graph":
        """Apply ``perm`` where perm[old] = new position."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertices")
        nbr = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in iter_bits(self.nbr[v]):
                row |= 1 << perm[u]
            nbr[perm[v]] = row
        return Graph._trusted(self.n, tuple(nbr))

    def add_vertex(self, neighborhood: int) -> "Graph":
        """New graph with vertex n attached to the given neighbor mask."""
        if neighborhood < 0 or neighborhood >> self.n:
            raise ValueError("neighborhood has vertices out of range")
        bit = 1 << self.n
        nbr = [row | (bit if (neighborhood >> v) & 1 else 0)
               for v, row in enumerate(self.nbr)]
        nbr.append(neighborhood)
        return Graph._trusted(self.n + 1, tuple(nbr))

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

def _earlier_twins(nbr: tuple[int, ...], n_fixed: int) -> list[int]:
    """Per vertex, the mask of lower unpinned vertices that are its twins.

    Unpinned u and v are twins when N(u) - {v} = N(v) - {u}: swapping
    them is an automorphism that moves no other vertex.
    """
    twins = [0] * len(nbr)
    for v in range(n_fixed, len(nbr)):
        for u in range(n_fixed, v):
            if not (nbr[u] ^ nbr[v]) & ~((1 << u) | (1 << v)):
                twins[v] |= 1 << u
    return twins


def _canonical(g: Graph, n_fixed: int) -> tuple[Graph, list[int]]:
    """The canonical form of ``g`` and the placement that gives it.

    The first ``n_fixed`` vertices keep their positions.  Placing a vertex
    at position p >= n_fixed contributes its column: the integer with bit
    i set when it is adjacent to the vertex at position i < p.  The
    canonical form has the least column string over all (n - n_fixed)!
    orders, and ``position[v]`` is v's index in it, so
    ``g.relabeled(position)`` is the form.  A depth-first search finds it
    without visiting every order:

    - Each unplaced vertex carries its column against the placed prefix,
      and placing a vertex at p sets bit p in its unplaced neighbours.
    - A node branches only on the unplaced vertices whose column is the
      least: any other choice loses at position p whatever follows.
    - Twins (``_earlier_twins``) share a column while both are unplaced.
      Swapping them is an automorphism fixing every placed vertex, so
      their subtrees give the same strings and only the lowest unplaced
      vertex of each twin class is tried.
    - A prefix past the best string found so far is cut off.

    Every pruned subtree holds only strings at or above one that is kept,
    so the minimum is exactly that of the full enumeration.
    """
    n, nbr = g.n, g.nbr
    if n - n_fixed < 2:
        return g, list(range(n))
    adjacent = [[u for u in range(n) if row >> u & 1] for row in nbr]
    earlier_twins = _earlier_twins(nbr, n_fixed)
    cols: list[int] = []
    order: list[int] = []
    best_cols: list[int] = []
    best_order: list[int] = []

    def rec(pos: int, free: list[int], mask: int, col: list[int],
            tied: bool):
        # ``free`` lists the two or more unplaced vertices, ``mask`` holds
        # them as bits; ``tied``: the placed columns equal the best's prefix
        nonlocal best_cols, best_order
        low = min([col[v] for v in free])
        if tied:
            ref = best_cols[pos - n_fixed]
            if low > ref:
                return
            tied = low == ref
        cols.append(low)
        bit = 1 << pos
        last = len(free) == 2
        for v in free:
            if col[v] != low or earlier_twins[v] & mask:
                continue
            rest = free.copy()
            rest.remove(v)
            if last:
                # the one vertex left goes at pos + 1: a leaf
                u = rest[0]
                tail = col[u] | (bit if nbr[v] >> u & 1 else 0)
                if not tied or tail < best_cols[-1]:
                    best_cols = cols + [tail]
                    best_order = order + [v, u]
            else:
                child = col[:]
                for u in adjacent[v]:
                    child[u] |= bit
                order.append(v)
                rec(pos + 1, rest, mask ^ (1 << v), child, tied)
                order.pop()
            # the first child always reaches a leaf that ties or beats
            # the best, so this prefix is now the best string's prefix
            tied = True
        cols.pop()

    prefix = (1 << n_fixed) - 1
    rec(n_fixed, list(range(n_fixed, n)), ((1 << n) - 1) ^ prefix,
        [row & prefix for row in nbr], False)
    position = list(range(n))
    for p, v in enumerate(best_order, n_fixed):
        position[v] = p
    rows = [0] * n
    for v, adj in enumerate(adjacent):
        row = 0
        for u in adj:
            row |= 1 << position[u]
        rows[position[v]] = row
    return Graph._trusted(n, tuple(rows)), position


def canonical_form(g: Graph, n_fixed: int = 0) -> Graph:
    """The canonically relabeled graph (first ``n_fixed`` vertices pinned):
    the relabeling with the least column string (``_canonical``)."""
    return _canonical(g, n_fixed)[0]


def canonical_key(g: Graph, n_fixed: int = 0) -> tuple:
    """Hashable canonical invariant under permutations preserving the pinned prefix."""
    return tuple(_canonical(g, n_fixed)[0])


def lc_orbit(g: Graph, cap: int = 10 ** 6, n_fixed: int = 1) -> tuple[set[Graph], bool]:
    """Closure of ``g`` under local complementation at every vertex.

    Members are deduplicated by canonical labeling with the first
    ``n_fixed`` vertices held fixed (vertex 0 is the code input by
    convention).  The closure is breadth first: each member, in the order
    found, tries its moves in vertex order.  Returns (members,
    truncated_flag); enumeration stops once ``cap`` members are collected,
    the start member included, so ``cap`` = k keeps the first min(k, |orbit|)
    members in that order and flags truncation exactly when k <= |orbit|.

    Moves whose result is already known are skipped, so each skipped
    result is in the closure already and the members and the order they
    are found in are those of a closure that tries every move:

    - complementing at a vertex of degree at most one is the identity;
    - an unpinned vertex with a lower twin (``_earlier_twins``) is mapped
      onto that twin by an automorphism fixing the pinned prefix, so both
      complementations have the same canonical form;
    - complementation at v is an involution that leaves N(v) as it is.
      When LC_v(h) canonicalises to cf by the placement ``position``
      (``_canonical``), LC at position[v] takes cf back to the
      relabeling of h by ``position``, which fixes the pinned prefix, so
      to h's canonical form.  ``back`` maps each member to the mask of
      its moves found to lead back to a known member.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    start = _canonical(g, n_fixed)[0]
    if cap == 1:
        return {start}, True
    order = [start]
    back = {start: 0}
    for h in order:
        skip = back[h]
        twins = _earlier_twins(h.nbr, n_fixed)
        for v, row in enumerate(h.nbr):
            if not row & (row - 1) or twins[v] or skip >> v & 1:
                continue
            cf, position = _canonical(local_complement(h, v), n_fixed)
            if cf in back:
                back[cf] |= 1 << position[v]
                continue
            back[cf] = 1 << position[v]
            order.append(cf)
            if len(order) >= cap:
                return set(order), True
    return set(order), False
