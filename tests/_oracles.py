"""Shared brute-force oracles: dense matrices and literal graph states.

Everything here is deliberately naive (kron products, full state vectors)
so the package's bitmask arithmetic is always checked against an
independent computation.
"""

from __future__ import annotations

import numpy as np

from graphcode_lt.graphs import Graph, orbit_key
from graphcode_lt.pauli import PauliOperator

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI_MATS["Y"] = 1j * PAULI_MATS["X"] @ PAULI_MATS["Z"]


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
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
    counts = np.bincount(weights[ok].astype(np.int64), minlength=n + 1)
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
            good = np.bitwise_count(differ.astype(np.uint64)) == 1
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


# -- rooted classes by orbit closure ---------------------------------------------
# The two-pass definition of the candidate list: close one rooted orbit
# for every root of every unrooted class, and keep each orbit's minimum
# member once.


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
    for op in enumerate_nontrivial(code, "Logical" + basis, 14).operators:
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
        ops = enumerate_nontrivial(code, "AllLogical").operators
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
                   enumerate_nontrivial(code, "Logical" + kind).operators]

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
