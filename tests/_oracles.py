"""Shared brute-force oracles: dense matrices and literal graph states.

Everything here is deliberately naive (kron products, full state vectors)
so the package's bitmask arithmetic is always checked against an
independent computation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from graphcode_lt.codes import GraphCode
from graphcode_lt.errordecode import (
    CheckSet,
    _greedy_checks,
    _masked_targets,
    ml_logical_error,
)
from graphcode_lt.fusion import (
    _CLASSES,
    _INTERFACE_LETTERS,
    _classify,
    _gate_outcomes,
    _model,
)
from graphcode_lt.graphs import Graph, canonical_form, local_complement
from graphcode_lt.losstree import Leaf, grow, paths
from graphcode_lt.opsets import ResourceLimitError, enumerate_nontrivial
from graphcode_lt.pauli import (
    BASES,
    MeasurementPattern,
    PauliOperator,
    PauliSpan,
    fits,
    iter_bits,
    packed,
    spread,
)

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI_MATS["Y"] = 1j * PAULI_MATS["X"] @ PAULI_MATS["Z"]


# -- graph fixtures -----------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def is_connected(g: Graph) -> bool:
    """Whether ``g``, with at least one vertex, is connected."""
    return _mask_connected(g.nbr)


# -- Pauli and pattern text forms ---------------------------------------------


def pauli_from_string(text: str) -> PauliOperator:
    """Parse the text form ``[+|-][i]<letters>``, e.g. ``"-iXYZ"``."""
    for sign in ("+i", "-i", "+", "-"):
        if text.startswith(sign):
            return PauliOperator.from_letters(text[len(sign):], sign)
    return PauliOperator.from_letters(text)


def pattern_from_chars(chars: str) -> MeasurementPattern:
    """The pattern ``chars`` writes (``MeasurementPattern.chars``); any
    other letter raises ValueError."""
    n = len(chars)
    letters = unmeasured = 0
    for q, ch in enumerate(chars):
        if ch == ".":
            unmeasured |= 1 << q
        elif ch in BASES:
            letters |= spread(1 << q, n, ch)
        elif ch != "_":
            raise ValueError(f"unknown status letter: {ch!r}")
    return MeasurementPattern(n, letters, unmeasured)


def span_contains(span: PauliSpan, op: PauliOperator) -> bool:
    """Membership of ``op`` in ``span`` up to phase: adding it to a copy
    of the span adds no row."""
    return not span.copy().add(op)


def symplectic_rank(ops) -> int:
    """GF(2) rank of a collection of Pauli operators, phases ignored."""
    ops = list(ops)
    if not ops:
        return 0
    return len(PauliSpan(ops[0].n, ops).rows)


def qubitwise_commuting(a: PauliOperator, b: PauliOperator) -> bool:
    """Letters agree wherever both operators act (jointly measurable)."""
    both = (a.x | a.z) & (b.x | b.z)
    return both & ((a.x ^ b.x) | (a.z ^ b.z)) == 0


def dense(op: PauliOperator) -> np.ndarray:
    """i^phase * kron of X^x Z^z, qubit 0 as the leftmost factor."""
    out = np.eye(1, dtype=complex)
    for q in range(op.n):
        m = np.eye(2, dtype=complex)
        if (op.x >> q) & 1:
            m = m @ PAULI_MATS["X"]
        if (op.z >> q) & 1:
            m = m @ PAULI_MATS["Z"]
        out = np.kron(out, m)
    return (1j ** op.phase) * out


def code_graph(code: GraphCode) -> Graph:
    """The progenitor induced on the code qubits (all but the input)."""
    g = code.progenitor
    return g.induced([v for v in range(g.n) if v != code.input_vertex])


def graph_state_vector(g: Graph) -> np.ndarray:
    """State vector of the graph state: CZ on every edge applied to |+...+>.

    Qubit 0 is the leftmost tensor factor, so basis index bit order matches
    ``dense``.
    """
    n = g.n
    dim = 1 << n
    vec = np.full(dim, dim ** -0.5, dtype=complex)
    for u, v in g.edges():
        for idx in range(dim):
            # qubit q reads from bit (n - 1 - q) of the basis index
            bu = (idx >> (n - 1 - u)) & 1
            bv = (idx >> (n - 1 - v)) & 1
            if bu and bv:
                vec[idx] = -vec[idx]
    return vec


def project_qubit(vec: np.ndarray, n: int, qubit: int, axis_vec: np.ndarray) -> np.ndarray:
    """Project one qubit onto a single-qubit state, returning the reduced vector."""
    shape = [2] * n
    tensor = vec.reshape(shape)
    reduced = np.tensordot(axis_vec.conj(), tensor, axes=([0], [qubit]))
    return reduced.reshape(-1)


PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


# -- survivor-set lattice oracles -------------------------------------------------
#
# A loss pattern is a bit mask of surviving code qubits.  Decoding success
# for a clairvoyant decoder (one that sees the whole survivor set before
# choosing measurements) is a monotone property of the mask, so the exact
# success probability follows from marking the winning masks and summing
# binomial weights.  Memberships are packed as (x << n) | z in int64, which
# keeps whole stabilizer cosets as flat numpy arrays up to n = 20.


def packed_cosets(code) -> tuple[int, dict]:
    """The stabilizer group's three logical cosets as packed arrays."""
    n = code.n
    span = np.zeros(1, dtype=np.int64)
    for g in code.stabilizer_generators:
        span = np.concatenate([span, span ^ np.int64((g.x << n) | g.z)])
    lx = np.int64((code.logical_x.x << n) | code.logical_x.z)
    lz = np.int64((code.logical_z.x << n) | code.logical_z.z)
    return n, {"X": span ^ lx, "Z": span ^ lz, "Y": span ^ lx ^ lz}


def zeta_or(ok: np.ndarray, n: int) -> np.ndarray:
    """Spread True upward through the subset lattice, in place."""
    for q in range(n):
        half = ok.reshape(-1, 2 << q)
        half[:, 1 << q:] |= half[:, : 1 << q]
    return ok


def evaluate_masks(ok: np.ndarray, n: int, eta: float) -> float:
    """Success probability when exactly the marked survivor masks win."""
    # popcounts of 0 .. 2^n - 1, built by doubling (numpy 1.24 has no
    # bitwise_count)
    weights = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        weights = np.concatenate([weights, weights + 1])
    counts = np.bincount(weights[ok], minlength=n + 1)
    return float(sum(int(c) * eta ** k * (1 - eta) ** (n - k)
                     for k, c in enumerate(counts)))


def clairvoyant_pauli_masks(code, basis: str) -> np.ndarray:
    """Masks where some representative of the logical class survives whole."""
    n, cosets = packed_cosets(code)
    low = np.int64((1 << n) - 1)
    members = cosets[basis]
    ok = np.zeros(1 << n, dtype=bool)
    ok[((members >> n) | members) & low] = True
    return zeta_or(ok, n)


def clairvoyant_teleport_masks(code) -> np.ndarray:
    """Masks admitting a teleport pair: two logicals from different classes
    overlapping with equal letters except at exactly one shared qubit.

    Quadratic in the coset size, so keep n at 12 or below.
    """
    import itertools

    n, cosets = packed_cosets(code)
    low = np.int64((1 << n) - 1)
    ok = np.zeros(1 << n, dtype=bool)
    for ca, cb in itertools.combinations("XYZ", 2):
        bs = cosets[cb]
        xb, zb = (bs >> n) & low, bs & low
        sb = xb | zb
        for a in cosets[ca]:
            xa = np.int64((int(a) >> n) & int(low))
            za = np.int64(int(a) & int(low))
            sa = xa | za
            differ = (sa & sb) & ((xa ^ xb) | (za ^ zb))
            good = (differ != 0) & (differ & (differ - 1) == 0)  # one bit
            if good.any():
                ok[(sa | sb)[good]] = True
    return zeta_or(ok, n)


def teleport_bound_masks(code) -> np.ndarray:
    """Upper bound on teleport masks: per output qubit, members of two
    classes acting there with different letters, letter clashes elsewhere
    ignored.  Linear in the coset size, usable at n = 20."""
    import itertools

    n, cosets = packed_cosets(code)
    low = np.int64((1 << n) - 1)
    ok = np.zeros(1 << n, dtype=bool)
    for q in range(n):
        per = {}
        for cls in "XYZ":
            members = cosets[cls]
            x, z = (members >> n) & low, members & low
            letter = (((x >> q) & 1) * 2 + ((z >> q) & 1)).astype(np.int64)
            for l in (1, 2, 3):
                sel = letter == l
                if not sel.any():
                    per[cls, l] = None
                    continue
                arr = np.zeros(1 << n, dtype=bool)
                arr[(x | z)[sel]] = True
                per[cls, l] = zeta_or(arr, n)
        for ca, cb in itertools.combinations("XYZ", 2):
            for la in (1, 2, 3):
                for lb in (1, 2, 3):
                    u, v = per[ca, la], per[cb, lb]
                    if la != lb and u is not None and v is not None:
                        ok |= u & v
    return ok


# -- explicit cascade graphs ---------------------------------------------------


def build_cascade_code(layers) -> GraphCode:
    """The cascade as one explicit progenitor graph.

    Each code qubit of layer k becomes the input vertex of a fresh copy
    of the layer k+1 unit.  The composite keeps the outermost input as
    its own, so decoding it directly must reproduce the layer recursion.
    """
    layers = list(layers)
    if not layers:
        raise ValueError("a cascade needs at least one layer")
    top = layers[0]
    edges = list(top.progenitor.edges())
    count = top.progenitor.n
    frontier = [v for v in range(count) if v != top.input_vertex]
    for unit in layers[1:]:
        nxt = []
        for host in frontier:
            ids = {}
            for v in range(unit.progenitor.n):
                if v == unit.input_vertex:
                    ids[v] = host
                else:
                    ids[v] = count
                    nxt.append(count)
                    count += 1
            edges.extend((ids[u], ids[v]) for u, v in unit.progenitor.edges())
        frontier = nxt
    return GraphCode(Graph.from_edges(count, edges), top.input_vertex)


# -- local-equivalence class counting ----------------------------------------------
# Independent of the package's canonical-form machinery: graphs are raw
# adjacency-mask tuples, equivalence is the closure under complementation
# moves and vertex permutations, counted by union-find over every
# connected labeled graph.


def _mask_lc(nbr: tuple, v: int) -> tuple:
    out = list(nbr)
    hood = [u for u in range(len(nbr)) if (nbr[v] >> u) & 1]
    for i, a in enumerate(hood):
        for b in hood[i + 1:]:
            out[a] ^= 1 << b
            out[b] ^= 1 << a
    return tuple(out)


def _mask_perm(nbr: tuple, perm: tuple) -> tuple:
    n = len(nbr)
    out = [0] * n
    for v in range(n):
        for u in range(n):
            if (nbr[v] >> u) & 1:
                out[perm[v]] |= 1 << perm[u]
    return tuple(out)


def _mask_connected(nbr: tuple) -> bool:
    n = len(nbr)
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in range(n):
            if (nbr[v] >> u) & 1 and not (seen >> u) & 1:
                seen |= 1 << u
                frontier.append(u)
    return seen == (1 << n) - 1


def _all_connected(n: int) -> list[tuple]:
    from itertools import combinations

    pairs = list(combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        nbr = [0] * n
        for i, (a, b) in enumerate(pairs):
            if (bits >> i) & 1:
                nbr[a] |= 1 << b
                nbr[b] |= 1 << a
        if _mask_connected(tuple(nbr)):
            out.append(tuple(nbr))
    return out


def equivalence_class_count(n: int, rooted: bool) -> int:
    """Number of LC classes of connected n-vertex graphs, optionally with
    vertex 0 pinned as the root that permutations must preserve."""
    from itertools import permutations

    graphs = _all_connected(n)
    index = {g: i for i, g in enumerate(graphs)}
    parent = list(range(len(graphs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    perms = [p for p in permutations(range(n)) if not rooted or p[0] == 0]
    for g in graphs:
        i = index[g]
        for v in range(n):
            if g[v]:
                union(i, index[_mask_lc(g, v)])
        for p in perms:
            union(i, index[_mask_perm(g, p)])
    return len({find(i) for i in range(len(graphs))})


# -- canonical labelling by exhaustion ---------------------------------------------
# The definition the package's pruned search must reproduce: try every
# order of the unpinned vertices and keep the least column string.


def lexmin_canonical_form(g: Graph, n_fixed: int = 0) -> Graph:
    """Relabeling of ``g`` with the least column string, the first
    ``n_fixed`` vertices pinned.

    The column of position p is the integer with bit i set when the
    vertices at positions i < p and p are adjacent; columns of positions
    n_fixed..n-1 compare lexicographically.
    """
    from itertools import permutations

    best = None
    for order in permutations(range(n_fixed, g.n)):
        place = list(range(n_fixed)) + list(order)
        cols = [sum(1 << i for i in range(p) if g.nbr[place[i]] >> place[p] & 1)
                for p in range(n_fixed, g.n)]
        if best is None or cols < best[0]:
            best = (cols, place)
    position = {v: p for p, v in enumerate(best[1])}
    return Graph.from_edges(g.n, [(position[u], position[v])
                                  for u, v in g.edges()])


# -- LC orbits with no move skipped ---------------------------------------------
# Closures that try complementation at every vertex of every member, so
# they share nothing with the package's move skipping in ``lc_orbit``.


def breadth_first_orbit(g: Graph, n_fixed: int) -> list[Graph]:
    """Canonical forms of the LC orbit of ``g`` in the order ``lc_orbit``
    finds them: breadth first, each member expanding at every vertex in
    increasing order."""
    order = [canonical_form(g, n_fixed)]
    seen = set(order)
    for h in order:
        for v in range(h.n):
            cf = canonical_form(local_complement(h, v), n_fixed)
            if cf not in seen:
                seen.add(cf)
                order.append(cf)
    return order


def _naive_orbit(g: Graph, n_fixed: int) -> set[Graph]:
    """Closure under complementation at every vertex, no move skipped."""
    return set(breadth_first_orbit(g, n_fixed))


def close_orbits_reference(forms: np.ndarray, n_fixed: int, cap: int):
    """``graphs.close_orbits`` by a closure that makes every move, one
    at a time: each member of a layer, in order, complements at every
    vertex in increasing order, and a form not found before joins the
    next layer with the member's seed label.  A form found before merges
    the two seeds' orbits; each seed's root is the least seed its orbit
    meets."""
    n = forms.shape[1]
    found, layer = {}, []
    for row in map(tuple, forms.tolist()):
        if row not in found:
            found[row] = len(layer)
            layer.append(row)
    members, labels = list(layer), list(range(len(layer)))
    parent = list(range(len(layer)))

    def root(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    while True:
        sizes = {}
        for label in labels:
            sizes[root(label)] = sizes.get(root(label), 0) + 1
        if max(sizes.values()) >= cap:
            truncated = True
            break
        if not layer:
            truncated = False
            break
        fresh = []
        for row in layer:
            label = found[row]
            for v in range(n):
                form = canonical_form(local_complement(Graph(n, row), v), n_fixed).nbr
                if form in found:
                    a, b = root(label), root(found[form])
                    parent[max(a, b)] = min(a, b)
                else:
                    found[form] = label
                    fresh.append(form)
                    members.append(form)
                    labels.append(label)
        layer = fresh
    roots = [root(a) for a in range(len(parent))]
    return np.array(members), np.array(labels), np.array(roots), truncated


# -- rooted classes by orbit closure ---------------------------------------------
# The two-pass definition of the candidate list: close one rooted orbit
# for every root of every unrooted class, and keep each orbit's minimum
# member once.


def orbit_key(g: Graph, n_fixed: int = 1, cap: int = 10 ** 6) -> tuple:
    """Canonical key of the whole LC orbit: minimum member key.  An orbit
    of ``cap`` or more members raises ``RuntimeError``."""
    members = _naive_orbit(g, n_fixed)
    if len(members) >= cap:
        raise RuntimeError(f"orbit has {len(members)} members, cap is {cap}")
    return min((m.n, m.nbr) for m in members)


def _root_at_zero(g: Graph, r: int) -> Graph:
    perm = list(range(g.n))
    perm[0], perm[r] = perm[r], perm[0]
    return g.relabeled(perm)


def rooted_representatives_reference(n: int) -> list[Graph]:
    """Minimum orbit member of every rooted class on n vertices, sorted by
    adjacency rows, found by trying each vertex of each unrooted class as
    the root."""
    from graphcode_lt.search import unrooted_representatives

    keys = {orbit_key(_root_at_zero(g, r), n_fixed=1)
            for g in unrooted_representatives(n) for r in range(n)}
    return sorted((Graph(*key) for key in keys), key=lambda h: h.nbr)


def dedupe_recheck(codes, sample: int = 10, cap: int = 10 ** 5) -> bool:
    """Verify no two sampled candidates share a rooted LC class.

    Evenly samples the list and recomputes orbit keys; a truncated orbit
    (too large to close under ``cap``) is skipped rather than misjudged.
    """
    codes = list(codes)
    if len(codes) < 2:
        return True
    step = max(1, len(codes) // sample)
    picked = codes[::step][:sample]
    keys = []
    for code in picked:
        rooted = _root_at_zero(code.progenitor, code.input_vertex)
        try:
            keys.append(orbit_key(rooted, n_fixed=1, cap=cap))
        except RuntimeError:
            continue
    return len(keys) == len(set(keys))


def optimal_pauli_tree_value(code, basis: str, eta: float) -> float:
    """Exact optimum over all adaptive measurement trees for one Pauli
    logical: dynamic programming over per-qubit states (unmeasured, lost,
    or measured-ok in X, Y or Z), maximizing over the next qubit and basis
    at every step.  Upper-bounds the greedy compiled tree, lower-bounds
    the pattern-clairvoyant mask value."""
    from functools import lru_cache

    from graphcode_lt.opsets import enumerate_nontrivial

    letter_code = {(1, 0): 2, (1, 1): 3, (0, 1): 4}
    members = []
    for op in enumerate_nontrivial(code, "Logical" + basis):
        need = []
        for q in range(code.n):
            xb, zb = (op.x >> q) & 1, (op.z >> q) & 1
            if xb or zb:
                need.append((q, letter_code[(xb, zb)]))
        members.append(tuple(need))
    power = [5 ** q for q in range(code.n)]

    @lru_cache(maxsize=None)
    def value(state: int) -> float:
        digits = [(state // power[q]) % 5 for q in range(code.n)]
        for need in members:
            if all(digits[q] == l for q, l in need):
                return 1.0
        best = 0.0
        for q in range(code.n):
            if digits[q] != 0:
                continue
            lost = value(state + power[q])
            for l in (2, 3, 4):
                v = eta * value(state + l * power[q]) + (1.0 - eta) * lost
                if v > best:
                    best = v
        return best

    return value(0)


def optimal_success(code, eta: float, kind: str = "arbitrary",
                    limit: int = 6) -> float:
    """Best achievable success probability over all adaptive strategies.

    Full minimax over measurement choices with memoization on the per-qubit
    statuses; exponential in n, so guarded by ``limit``.  A target is a
    {qubit: letter} map, checked letter by letter: an X, Y or Z logical
    (``kind``), or for ``"arbitrary"`` an anticommuting pair whose one
    disagreeing shared qubit is the output, read with the letter A.
    Shows that the deterministic heuristics give up nothing on the
    reference codes.
    """
    from functools import lru_cache

    from graphcode_lt.opsets import enumerate_nontrivial

    n = code.n
    if n > limit:
        raise ValueError(f"optimal search limited to n <= {limit}")

    def letters(op) -> dict:
        return {q: op.letter_at(q) for q in range(n) if op.letter_at(q) != "I"}

    if kind == "arbitrary":
        ops = enumerate_nontrivial(code, "AllLogical")
        targets = []
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if a.commutes(b):
                    continue
                la, lb = letters(a), letters(b)
                differ = [q for q in la if q in lb and la[q] != lb[q]]
                if len(differ) == 1:
                    targets.append({**la, **lb, differ[0]: "A"})
    else:
        targets = [letters(op) for op in
                   enumerate_nontrivial(code, "Logical" + kind)]

    # per-qubit status: "." unmeasured, "_" lost, else the measured letter
    @lru_cache(maxsize=None)
    def value(status: str) -> float:
        alive = [t for t in targets
                 if all(status[q] in (letter, ".") for q, letter in t.items())]
        if not alive:
            return 0.0
        if any(all(status[q] == letter for q, letter in t.items())
               for t in alive):
            return 1.0
        best = 0.0
        for q, letter in {(q, letter) for t in alive
                          for q, letter in t.items() if status[q] == "."}:
            measured = status[:q] + letter + status[q + 1:]
            lost = status[:q] + "_" + status[q + 1:]
            v = eta * value(measured) + (1.0 - eta) * value(lost)
            if v > best:
                best = v
        return best

    return value("." * n)


# -- strategy pairs with the commutation test ---------------------------------


def strategies_reference(code) -> list[tuple]:
    """``losstree._strategies`` as (first, second, output) triples, found
    by testing every pair of logical operators for anticommutation before
    asking that they differ on exactly one shared qubit."""
    ops = enumerate_nontrivial(code, "AllLogical")
    out = []
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            if a.commutes(b):
                continue
            both = a.support & b.support
            differ = both & ((a.x ^ b.x) | (a.z ^ b.z))
            if differ.bit_count() == 1:
                out.append((a, b, next(iter_bits(differ))))
    return out


# -- operator filter, check choice and evaluation, one item at a time ------------


def nontrivial_reference(ops, stabilizers) -> list:
    """``opsets._nontrivial`` one operator and one stabilizer at a time:
    the members of ``ops``, in order, inside which no non-identity
    stabilizer fits."""
    masks = [s.masks for s in stabilizers if s.x | s.z]
    out = []
    for op in ops:
        letters = op.masks
        if not any(fits(m, letters) for m in masks):
            out.append(op)
    return out


def greedy_checks_reference(pattern, targets, group) -> tuple:
    """``errordecode._greedy_checks`` over a stabilizer group: keep the
    non-identity members measurable under ``pattern``, sort them by
    (-target overlap, weight, x, z), then choose greedily."""
    target_support = 0
    for t in targets:
        target_support |= t.support
    allowed = pattern.allowed()
    cands = [s for s in group if s.weight and fits(s.masks, allowed)]
    cands.sort(key=lambda s: (-(s.support & target_support).bit_count(),
                              s.weight, s.x, s.z))
    chosen: list[PauliOperator] = []
    span = PauliSpan(pattern.n)
    for cand in cands:
        if not all(qubitwise_commuting(cand, c) for c in chosen):
            continue
        if not span.add(cand):
            continue
        chosen.append(cand)
    return tuple(chosen)


def check_extension_reference(code, tree) -> list:
    """``ErrorAnalysis.entries`` with the greedy checks chosen afresh at
    every node of each check extension, detected or lost, where the
    package re-chooses them only after a lost check qubit."""

    def step(pattern, targets):
        chosen = _greedy_checks(code, pattern, targets)
        pending = 0
        for c in chosen:
            pending |= c.support & pattern.unmeasured
        if not pending:
            return Leaf("success", pattern, chosen)
        q = next(iter_bits(pending))
        letter = next(c.letter_at(q) for c in chosen if c.letter_at(q) != "I")
        return q, letter, targets, targets

    entries = []
    for leaf, key in paths(tree.root):
        if not leaf.success:
            entries.append((key, None, None, None))
            continue
        targets = _masked_targets(leaf)
        for end, ext_key in paths(grow(leaf.pattern, targets, step), key):
            entries.append((ext_key, leaf, CheckSet(targets, end.targets),
                            end.pattern))
    return entries


def tree_polynomial_reference(node, counted) -> dict:
    """Terms of the polynomial summing every leaf below ``node`` that
    ``counted`` accepts, built bottom-up: a measure node raises each term
    of its detected child by eta_M and of its lost child by 1 - eta_M,
    and merges the two dicts, the detected child's terms first."""
    if isinstance(node, Leaf):
        return {((0, 0, 0, 0), (0, 0, 0, 0)): 1} if counted(node) else {}
    i = "XYZA".index(node.basis)
    out: dict = {}
    for child, lost in ((node.on_detect, False), (node.on_loss, True)):
        for (a, b), mult in tree_polynomial_reference(child, counted).items():
            if lost:
                b = b[:i] + (b[i] + 1,) + b[i + 1:]
            else:
                a = a[:i] + (a[i] + 1,) + a[i + 1:]
            out[(a, b)] = out.get((a, b), 0) + mult
    return out


def evaluate_reference(poly, eta: float) -> float:
    """``LossPolynomial.evaluate`` as a loop over the Bernstein counts of
    ``bernstein_reference``, in the arithmetic of ``monomial_terms_reference``."""
    counts = bernstein_reference(poly)
    d = len(counts) - 1
    return monomial_terms_reference(
        [((k, d - k), c) for k, c in enumerate(counts)], (eta, 1.0 - eta))


def bernstein_reference(poly) -> list[int]:
    """The count c_k of each eta^k (1-eta)^(d-k) in ``poly``, k = 0..d, at
    its degree d: each term expanded into powers of eta, then each power
    eta^j spread as eta^j (eta + 1 - eta)^(d - j)."""
    power: dict = {}
    for (a, b), mult in poly.terms.items():
        for j in range(sum(b) + 1):
            k = sum(a) + j
            power[k] = power.get(k, 0) + mult * math.comb(sum(b), j) * (-1) ** j
    d = max((k for k, c in power.items() if c), default=0)
    return [sum(power.get(j, 0) * math.comb(d - j, k - j) for j in range(k + 1))
            for k in range(d + 1)]


def monte_carlo_successes_reference(tree, eta: float, trials: int,
                                    seed: int) -> int:
    """The success count of ``monte_carlo_decode``, from the same samples
    counted leaf by leaf: the per-configuration tally is drawn by the
    same generator call, with each configuration's probability the
    product, qubit 0 first, of eta per detected qubit and 1 - eta per
    lost one.  A leaf is a cylinder set over its attempted qubits, so a
    configuration reaches it iff every attempted qubit's fate matches the
    leaf's pattern."""
    n = tree.code.n
    probs = [math.prod(eta if c >> q & 1 else 1.0 - eta for q in range(n))
             for c in range(1 << n)]
    tally = np.random.default_rng(seed).multinomial(trials, probs)
    masks = np.arange(1 << n)
    successes = 0
    for leaf, _ in paths(tree.root):
        if not leaf.success:
            continue
        p = leaf.pattern
        attempted = ((1 << p.n) - 1) & ~p.unmeasured
        detected = sum(1 << q for q in range(p.n)
                       if p.status(q) not in ("lost", "unmeasured"))
        successes += int(tally[(masks & attempted) == detected].sum())
    return successes


# -- the monomial kernel term by term -------------------------------------------


def monomial_terms_reference(items, bases) -> float:
    """The sum ``polynomials.monomial_sums`` gives for one class of fewer
    than ``KERNEL_FLOATS`` terms, ``items`` a list of (exponents,
    coefficient) at the float ``bases``, in plain Python floats: base^k
    as k multiplications onto 1.0, each term multiplied in base order,
    and the terms summed left to right, then added onto 0.0."""
    top = max((max(exps) for exps, _ in items), default=0)
    powers = _power_rows(bases, top)
    parts = []
    for exps, coef in items:
        value = float(coef)
        for row, k in zip(powers, exps):
            value *= row[k]
        parts.append(value)
    total = parts[0] if parts else 0.0
    for value in parts[1:]:
        total += value
    return 0.0 + total


def _power_rows(bases, top: int) -> list:
    """base^0 .. base^top of each base, each power one multiplication
    onto the one before, from 1.0."""
    powers = []
    for base in bases:
        row = [1.0]
        for _ in range(top):
            row.append(row[-1] * base)
        powers.append(row)
    return powers


def adaptive_terms(analysis, randomize: bool) -> dict:
    """The exact terms of one gate model of an ``AdaptiveFusionAnalysis``
    by class, read off its one tally (``fusion._model``): each count over
    2^b for b randomized failures, as a ``Fraction``, in column order."""
    half = 1 if randomize else 0
    return {klass: {key: Fraction(count, 1 << half * key[1])
                    for key, count in terms.items()}
            for klass, terms in _model(analysis._tally, randomize).items()}


def adaptive_float_terms(terms: dict) -> tuple:
    """The terms of one gate model of an ``AdaptiveFusionAnalysis``
    (``adaptive_terms``) for ``adaptive_result_reference``,
    converted once: the largest exponent, and per class, in (success,
    fail, loss) order, a list of (exponents, float coefficient)."""
    classes = tuple([(exps, float(coef)) for exps, coef in
                     terms[klass].items()]
                    for klass in ("success", "fail", "loss"))
    top = max((max(exps) for items in classes for exps, _ in items),
              default=0)
    return top, classes


def adaptive_result_reference(terms, p_fail: float,
                              eta: float) -> tuple[float, float, float]:
    """(success, fail, loss) of ``AdaptiveFusionAnalysis.result`` at one
    gate, ``terms`` from ``adaptive_float_terms``: each class summed in
    ``monomial_terms_reference``'s arithmetic, written out for the five
    bases (s, f, l, eta, 1 - eta) over one set of power rows a point,
    with s, f and l the gate's own (``fusion._gate_outcomes``)."""
    top, classes = terms
    s, f, l = (float(v[0]) for v in _gate_outcomes(p_fail, eta))
    ps, pf, pl, pe, pm = _power_rows((s, f, l, eta, 1.0 - eta), top)
    sums = []
    for items in classes:
        # adding the terms one by one onto 0.0 gives the float of summing
        # them left to right and adding that onto 0.0: the two differ at
        # most in the sign of a zero, which that last addition clears
        total = 0.0
        for (a, b, c, d, e), coef in items:
            total += coef * ps[a] * pf[b] * pl[c] * pe[d] * pm[e]
        sums.append(total)
    return tuple(sums)


# -- adaptive fusion, one gate model a walk ---------------------------------------


def interface_letters(interfaces: tuple, n: int) -> int:
    """Packed letter mask of the letters the fused ``interfaces``, (qubit,
    gate outcome) pairs, make recoverable: any Pauli letter after a
    successful gate ("s"), and only the surviving parity's letter after a
    failed one ("fx" or "fz")."""
    letters = 0
    for q, kind in interfaces:
        letters |= spread(1 << q, n, _INTERFACE_LETTERS[kind])
    return letters


def target_need(ops, output) -> int:
    """A target's joint packed letter mask (``pauli.packed``), from its
    one or two operators: an output qubit, when it has one, is read in
    the A letter only."""
    n = ops[0].n
    need = 0
    for op in ops:
        need |= packed(op.x, op.z, n)
    if output is None:
        return need
    bit = 1 << output
    return need & ~spread(bit, n, "XYZ") | spread(bit, n, "A")


def attempt_reference(ops, free: int, keep: int = -1):
    """The attempt rule on the operators ``ops``, as listed: of those with
    support on the unmeasured qubits ``free``, the least (weight, x, z)
    key on the qubits of ``keep``, the first listed of equal keys, then
    its lowest unmeasured qubit, as (qubit, letter).  None when no
    operator has unmeasured support."""
    def key(op):
        x, z = op.x & keep, op.z & keep
        return (x | z).bit_count(), x, z

    live = [op for op in ops if op.support & free]
    if not live:
        return None
    op = min(live, key=key)
    low = op.support & free
    q = (low & -low).bit_length() - 1
    return q, op.letter_at(q)


def coset_members_reference(code) -> list[tuple[PauliOperator, bool]]:
    """The X and Z logical coset members, each with True for an X
    member, sorted by (weight, x, z) across both cosets."""
    n, cosets = packed_cosets(code)
    members = [(PauliOperator(n, v >> n, v & ((1 << n) - 1)), basis == "X")
               for basis in "XZ" for v in cosets[basis].tolist()]
    return sorted(members, key=lambda m: (m[0].weight, m[0].x, m[0].z))


def adaptive_terms_reference(code, randomize: bool) -> dict:
    """The ``adaptive_terms`` of one gate model of
    ``AdaptiveFusionAnalysis``, compiled by a walk of that model alone:
    the fixed model walks only fz failures, the randomized one fx and then
    fz.  Strategies come from ``strategies_reference`` and coset members
    from ``packed_cosets``, each with its packed letter mask
    (``target_need``); every list is narrowed with ``pauli.fits`` one
    target at a time, the next attempt follows ``attempt_reference``, and
    each side decoder rebuilds its interface letters from the interface
    list and tallies its fold term by term, as the engine did before one
    walk compiled both models."""
    n = code.n
    strategies = strategies_reference(code)
    needs = [target_need((a, b), o) for a, b, o in strategies]
    members = coset_members_reference(code)
    member_needs = [target_need((op,), None) for op, _ in members]
    counts = {klass: {} for klass in _CLASSES}

    def fitting(targets, need, allowed):
        return [t for t in targets if fits(need[t], allowed)]

    def side(pattern, interfaces, output, pairs) -> dict:
        keep = -1 if output is None else ~(1 << output)
        letters = interface_letters(interfaces, n)

        def step(pat, state):
            alive, salvage = state
            allowed = pat.allowed() | letters
            done = pat.letters | letters
            alive = fitting(alive, needs, allowed)
            if alive:
                if fitting(alive, needs, done):
                    return Leaf("success", pat,
                                fitting(salvage, member_needs, done))
                ops = [op for t in alive for op in strategies[t][:2]]
                move = attempt_reference(ops, pat.unmeasured, keep)
                return move + ((alive, salvage), (alive, salvage))
            salvage = fitting(salvage, member_needs, allowed)
            done_members = fitting(salvage, member_needs, done)
            move = (None if done_members else attempt_reference(
                [members[m][0] for m in salvage], pat.unmeasured))
            if move is None:
                return Leaf("success" if done_members else "failure", pat,
                            done_members)
            return move + ((alive, salvage), (alive, salvage))

        face = spread(sum(1 << q for q, _ in interfaces), n, "XYZ")
        groups: dict = {}
        start = fitting(range(len(members)), member_needs,
                        pattern.allowed() | letters)
        for leaf, (a, b) in paths(grow(pattern, (pairs, start), step)):
            lx, lz = set(), set()
            for m in leaf.targets:
                (lx if members[m][1] else lz).add(member_needs[m] & face)
            de = (sum(a), sum(b))
            poly = groups.setdefault((frozenset(lx), frozenset(lz)), {})
            poly[de] = poly.get(de, 0) + 1
        return groups

    def fold(groups, fusions):
        for (lx1, lz1), poly1 in groups.items():
            for (lx2, lz2), poly2 in groups.items():
                tally = counts[_classify(bool(lx1 & lx2), bool(lz1 & lz2))]
                for (d1, e1), c1 in poly1.items():
                    for (d2, e2), c2 in poly2.items():
                        key = fusions + (d1 + d2, e1 + e2)
                        tally[key] = tally.get(key, 0) + c1 * c2

    def walk(pattern, interfaces, candidates, a, b, c):
        settled = ((1 << n) - 1) ^ pattern.unmeasured
        allowed = ((pattern.allowed() | interface_letters(interfaces, n))
                   & ~spread(settled, n, "A"))
        candidates = fitting(candidates, needs, allowed)
        if not candidates:
            fold(side(pattern, interfaces, None, []), (a, b, c))
            return
        # the output most candidates share, the lowest of a tie
        outputs = [strategies[t][2] for t in candidates]
        q = min(set(outputs), key=lambda o: (-outputs.count(o), o))
        fused = pattern.measure(q, "A")
        fold(side(fused, interfaces + ((q, "s"),), q,
                  [t for t in candidates if strategies[t][2] == q]),
             (a + 1, b, c))
        for kind in ("fx", "fz") if randomize else ("fz",):
            walk(fused, interfaces + ((q, kind),), candidates, a, b + 1, c)
        walk(pattern.lose(q), interfaces, candidates, a, b, c + 1)

    walk(MeasurementPattern(n), (), list(range(len(strategies))), 0, 0, 0)
    half = 1 if randomize else 0
    return {klass: {key: Fraction(count, 1 << half * key[1])
                    for key, count in tally.items()}
            for klass, tally in counts.items()}


# -- transversal fusion by GF(2) span ------------------------------------------


def _embed(op: PauliOperator, side: int, n: int) -> PauliOperator:
    """``op`` on one side (0 or 1) of a 2n-qubit fused pair of codes."""
    shift = side * n
    return PauliOperator(2 * n, op.x << shift, op.z << shift)


def _pair(letter: str, qubit: int, n: int) -> PauliOperator:
    """The XX or ZZ parity of ``qubit`` and its twin."""
    bits = (1 << qubit) | (1 << (n + qubit))
    if letter == "X":
        return PauliOperator(2 * n, bits, 0)
    if letter == "Z":
        return PauliOperator(2 * n, 0, bits)
    raise ValueError(f"fusion parities are XX or ZZ, got letter {letter!r}")


def _base_span(code) -> tuple:
    """Span of both codes' stabilizers, plus the two logical parities."""
    n = code.n
    gens = []
    for side in (0, 1):
        gens += [_embed(g, side, n) for g in code.stabilizer_generators]
    span = PauliSpan(2 * n, gens)
    xx = _embed(code.logical_x, 0, n) * _embed(code.logical_x, 1, n)
    zz = _embed(code.logical_z, 0, n) * _embed(code.logical_z, 1, n)
    return span, xx, zz


def transversal_counts_reference(code, failure_bases) -> dict:
    """``fusion._transversal_counts`` by brute force: every outcome
    assignment adds its pair parities to the span of both codes'
    stabilizers, and each logical parity is tested for membership.

    Keys are (n_success, n_fail_x, n_fail_z, class); ``failure_bases=None``
    tries both failure bases on every qubit.
    """
    n = code.n
    span0, xx, zz = _base_span(code)
    counts: dict = {}

    def rec(i: int, span: PauliSpan, ns: int, nfx: int, nfz: int):
        if i == n:
            xx_in, zz_in = span_contains(span, xx), span_contains(span, zz)
            klass = ("success" if xx_in and zz_in
                     else "fail" if xx_in or zz_in else "loss")
            key = (ns, nfx, nfz, klass)
            counts[key] = counts.get(key, 0) + 1
            return
        rec(i + 1, span, ns, nfx, nfz)  # loss: nothing obtained
        sp = span.copy()
        sp.add(_pair("X", i, n))
        sp.add(_pair("Z", i, n))
        rec(i + 1, sp, ns + 1, nfx, nfz)
        letters = "XZ" if failure_bases is None else failure_bases[i]
        for letter in letters:
            sp = span.copy()
            sp.add(_pair(letter, i, n))
            rec(i + 1, sp, ns, nfx + (letter == "X"), nfz + (letter == "Z"))

    rec(0, span0, 0, 0, 0)
    return counts


def exhaustive_checks(leaf: Leaf, surviving_stabilizers, rates,
                      cap: int = 200_000) -> tuple[CheckSet, float]:
    """Best check set by brute force over commuting subsets (gap audit).

    Walks every independent qubit-wise-commuting subset of the surviving
    stabilizers and keeps the one minimizing the leaf's logical error.
    Exponential; guarded by ``cap`` on visited subsets.
    """
    targets = _masked_targets(leaf)
    allowed = leaf.pattern.allowed()
    group = [s for s in surviving_stabilizers
             if s.weight and fits(s.masks, allowed)]
    group.sort(key=lambda s: (s.weight, s.x, s.z))
    best_err = ml_logical_error(leaf, CheckSet(targets, ()), rates)
    best = CheckSet(targets, ())
    visited = 0

    def rec(start: int, chosen: list, span: PauliSpan):
        nonlocal best, best_err, visited
        for i in range(start, len(group)):
            cand = group[i]
            if not all(qubitwise_commuting(cand, c) for c in chosen):
                continue
            if span_contains(span, cand):
                continue
            visited += 1
            if visited > cap:
                raise ResourceLimitError("exhaustive check search exceeded cap")
            sub = span.copy()
            sub.add(cand)
            chosen.append(cand)
            err = ml_logical_error(leaf, CheckSet(targets, tuple(chosen)), rates)
            if err < best_err - 1e-15:
                best_err = err
                best = CheckSet(targets, tuple(chosen))
            rec(i + 1, chosen, sub)
            chosen.pop()

    rec(0, [], PauliSpan(leaf.pattern.n))
    return best, best_err


def grid_points_reference(start: float, stop: float, step: float) -> list:
    """The points of a start:stop:step grid as ``cli.parse_grid`` made them
    by stepping a list: every round(start + k * step, 12) up to the first
    that passes stop by more than 1e-12."""
    out = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        out.append(round(v, 12))
        k += 1
    return out
