"""Offline loss decoders compiled into decision trees.

A tree node attempts one qubit in one basis and branches on detection
versus loss.  The Pauli decoder hunts for any fully measured non-trivial
logical operator; the arbitrary decoder first locks in an output qubit
(measured in the rotated basis) and then teleports the logical onto it by
completing an anticommuting operator pair.  Trees are built once, then
evaluated exactly (success polynomial), sampled (Monte Carlo), decoded
per loss mask, or extended with checks by the error decoder.

Every adaptive decoder in the package is one recursion, ``grow``, driven
by a per-decoder ``step``: both trees here, the per-side decoder of
adaptive fusion and the error decoder's check extension.  Both kinds of
target are held per code as one ``TargetSet`` of numpy arrays: operator
indices, output qubits and each target's joint packed letter mask, which
``pauli.fits`` would match against a pattern.  A decoder's state is an
index array into it, and ``narrow``, ``busiest_output`` and ``attempt``
are numpy passes over that array; a ``Target`` of ``PauliOperator``s is
built only for a leaf.  One walk, ``paths``, reads a built
tree back: it yields each terminal node with the detected and lost
attempt counts on its path, which are the exponents of its monomial in
the success polynomial and in the error decoder's per-leaf sums.  The
fusion side decoder needs only each leaf's attempt totals, which it reads
off the leaf's pattern (``leaves``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import namedtuple

import numpy as np

from . import __version__
from .codes import GraphCode, per_code
from .opsets import EXHAUSTIVE_LIMIT, enumerate_nontrivial
from .pauli import (
    BASIS_A,
    Basis,
    MeasurementPattern,
    PauliOperator,
)
from .polynomials import BASES, LossPolynomial, break_even  # re-export break_even

__all__ = [
    "DecisionTree", "Leaf", "MeasureNode", "Target", "TargetSet", "grow",
    "paths", "build_pauli_tree", "build_arbitrary_tree", "success_polynomial",
    "total_polynomial", "monte_carlo_decode", "decode", "break_even",
    "load_or_build",
]

CACHE_ENV = "GRAPHCODE_LT_CACHE"
# Version of the trees the decoders build; bump it with any change to
# what they build, so the disk cache never serves a tree from older code.
TREE_FORMAT = 1


class Leaf:
    """Terminal decoder state.

    ``targets`` holds the fully measured operator (Pauli mode) or the
    anticommuting pair (arbitrary mode); ``output`` is the teleportation
    output qubit in arbitrary mode.
    """

    __slots__ = ("outcome", "pattern", "targets", "output")

    def __init__(self, outcome: str, pattern: MeasurementPattern,
                 targets: tuple = (), output: int | None = None):
        self.outcome = outcome
        self.pattern = pattern
        self.targets = targets
        self.output = output

    @property
    def success(self) -> bool:
        return self.outcome == "success"

    def __repr__(self) -> str:
        return f"Leaf({self.outcome}, {self.pattern!r})"


class MeasureNode:
    __slots__ = ("qubit", "basis", "on_detect", "on_loss")

    def __init__(self, qubit: int, basis: Basis, on_detect, on_loss):
        self.qubit = qubit
        self.basis = basis
        self.on_detect = on_detect
        self.on_loss = on_loss

    def __repr__(self) -> str:
        return f"MeasureNode(q={self.qubit}, basis={self.basis.kind})"


class DecisionTree:
    """Immutable compiled decoder for one code and one measurement task."""

    __slots__ = ("code", "kind", "root")

    def __init__(self, code: GraphCode, kind: str, root):
        self.code = code
        self.kind = kind
        self.root = root

    def leaves(self):
        return leaves(self.root)

    def stats(self) -> dict:
        outcomes = [leaf.success for leaf in self.leaves()]
        n_success = sum(outcomes)
        # every measure node has two children
        return {"nodes": 2 * len(outcomes) - 1, "success_leaves": n_success,
                "failure_leaves": len(outcomes) - n_success}

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        def enc(node):
            if isinstance(node, Leaf):
                return {
                    "leaf": node.outcome,
                    "pattern": node.pattern.chars(),
                    "targets": [t.to_string() for t in node.targets],
                    "output": node.output,
                }
            return {
                "qubit": node.qubit,
                "basis": node.basis.kind,
                "detected": enc(node.on_detect),
                "lost": enc(node.on_loss),
            }
        return json.dumps({"kind": self.kind, "code": json.loads(self.code.to_json()),
                           "root": enc(self.root)})

    @classmethod
    def from_json(cls, text: str) -> "DecisionTree":
        data = json.loads(text)
        code = GraphCode.from_json(json.dumps(data["code"]))

        def dec(obj):
            if "leaf" in obj:
                return Leaf(obj["leaf"], MeasurementPattern.from_chars(obj["pattern"]),
                            tuple(PauliOperator.from_string(t) for t in obj["targets"]),
                            obj["output"])
            return MeasureNode(obj["qubit"], Basis(obj["basis"]),
                               dec(obj["detected"]), dec(obj["lost"]))

        return cls(code, data["kind"], dec(data["root"]))


# -- the shared recursion -------------------------------------------------------


# one target as operators; ``second`` and ``output`` are None for a single
# logical operator (Pauli mode)
Target = namedtuple("Target", "first second output")


def _rank(x: np.ndarray, z: np.ndarray, n: int, keep: int = -1) -> np.ndarray:
    """One int64 key per operator that orders them as (weight, x, z) does,
    every term restricted to the qubits in ``keep``; needs n <= 16."""
    x, z = x & keep, z & keep
    bits = np.unpackbits((x | z).astype(np.uint16).view(np.uint8))
    weight = bits.reshape(-1, 16).sum(axis=1, dtype=np.int64)
    return weight << 2 * n | x << n | z


# Below this many targets ``narrow`` tests them one at a time in Python
# (see there); at or above it, in one numpy pass.
SMALL = 32


class TargetSet:
    """What a decoder must read out, as per-code arrays.

    A target is one logical operator (Pauli mode), or an anticommuting
    pair teleported onto an output qubit (arbitrary mode).  The operators
    are the int64 arrays ``x`` and ``z``, sorted by (weight, x, z), and
    ``ops`` as ``PauliOperator``s where leaves need them.  Target t reads
    operators ``pair[t] = (first, second)`` (the same index twice for a
    single operator) onto ``output[t]`` (-1: none).  ``need[t]`` is its joint
    packed letter mask (``PauliOperator.masks``) as a uint64: 4n bits, so
    n <= 16.  The output qubit counts as an A letter only, since it must
    be measured in the rotated basis.

    A decoder's state is an index array into the targets, and its
    kernels are numpy passes over it.  ``len`` is the number of targets;
    indexing builds one as a ``Target``.
    """

    __slots__ = ("n", "ops", "x", "z", "support", "pair", "output", "need",
                 "needs")

    def __init__(self, n: int, x: np.ndarray, z: np.ndarray,
                 pairs: tuple | None = None, ops: tuple = ()):
        self.n, self.ops, self.x, self.z, self.support = n, ops, x, z, x | z
        single = np.arange(len(x))
        first, second, self.output = pairs or (single, single, np.full(len(x), -1))
        self.pair = np.stack((first, second), axis=1)
        ux, uz = x.astype(np.uint64), z.astype(np.uint64)
        y, zl, a = (np.uint64(k * n) for k in (1, 2, 3))
        masks = ux & ~uz | (ux & uz) << y | (uz & ~ux) << zl
        need = masks[first] | masks[second]
        # the output qubit's A bit, or 0 for a target with no output
        bit = ((self.output >= 0).astype(np.uint64)
               << self.output.clip(0).astype(np.uint64))
        need = need & ~(bit | bit << y | bit << zl) | bit << a
        self.need, self.needs = need, need.tolist()

    def __len__(self) -> int:
        return len(self.need)

    def __getitem__(self, t) -> Target:
        (i, j), o = self.pair[t].tolist(), int(self.output[t])
        return Target(self.ops[i], None if j == i else self.ops[j], None if o < 0 else o)

    def narrow(self, idx: np.ndarray, allowed: int) -> np.ndarray:
        """The targets in ``idx`` every letter of which the packed
        ``allowed`` mask admits (``pauli.fits``), in their given order.

        Fewer than ``SMALL`` targets are tested one at a time in Python on
        ``needs``, the masks as Python ints, since numpy's fixed cost per
        call dominates there.  Timed on one call (Python 3.11, numpy 2.4,
        2-core VM): 0.85 us against numpy's 2.1 us at 4 targets, 1.5
        against 2.1 at 16, 2.5 against 2.2 at 32; the two meet near 28.
        The decoders' lists are short on small codes (a median of 4 over
        the 7-vertex search) and run to thousands on 12-14 qubits."""
        if len(idx) < SMALL:
            deny, needs = ~allowed, self.needs
            return np.array([t for t in idx.tolist() if not needs[t] & deny], np.intp)
        deny = np.uint64(~allowed & ((1 << 4 * self.n) - 1))
        return idx[(self.need[idx] & deny) == 0]

    def busiest_output(self, idx: np.ndarray) -> int:
        """The output qubit shared by the most targets in ``idx``; ties go
        to the lowest (``argmax`` takes the first maximum)."""
        return int(np.bincount(self.output[idx]).argmax())

    def attempt(self, members: np.ndarray, pattern: MeasurementPattern,
                rank: np.ndarray | None = None):
        """The attempt rule: the lowest-ranked operator among ``members``
        (operator indices) with unmeasured support, then its lowest
        unmeasured qubit, in that operator's letter.

        ``rank`` is one int64 key per operator (``_rank``); ``argmin``
        keeps the first of equal keys, so members may repeat without
        changing the result.  Without it the index is the rank, since
        the operators are sorted by (weight, x, z).  Returns None when no
        member has unmeasured support.
        """
        free = pattern.unmeasured
        live = members[(self.support[members] & free) != 0]
        if not live.size:
            return None
        i = int(live.min() if rank is None else live[rank[live].argmin()])
        low = int(self.support[i]) & free
        q = (low & -low).bit_length() - 1
        return q, Basis("IXZY"[int(self.x[i]) >> q & 1 | (int(self.z[i]) >> q & 1) << 1])


def grow(pattern: MeasurementPattern, state, step):
    """Build an adaptive measure/lose tree from ``pattern``.

    ``step(pattern, state)`` returns either a terminal node or a tuple
    ``(qubit, basis, detect_state, lost_state)``: attempt ``qubit`` in
    ``basis`` and continue from the detected and lost patterns with those
    states.  A state typically holds the targets still alive; each child
    narrows its parent's, since measuring only removes wildcards and a
    dead target stays dead.
    """
    move = step(pattern, state)
    if not isinstance(move, tuple):
        return move
    q, basis, detect_state, lost_state = move
    return MeasureNode(q, basis, grow(pattern.measure(q, basis), detect_state, step),
                       grow(pattern.lose(q), lost_state, step))


def leaves(node):
    """The terminal nodes of a measure/lose tree."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, MeasureNode):
            stack.append(node.on_detect)
            stack.append(node.on_loss)
        else:
            yield node


# the exponent slot of each attempted basis; a fusion attempt counts as A
_SLOT = {kind: i for i, kind in enumerate(BASES)}
_SLOT["fusion"] = _SLOT["A"]


def paths(node, key=((0, 0, 0, 0), (0, 0, 0, 0))):
    """Each terminal node of a measure/lose tree with its attempt key.

    The key is ``((aX, aY, aZ, aA), (bX, bY, bZ, bA))``: ``key`` plus the
    detected (a) and lost (b) attempts per basis on the path from
    ``node``, so the node is reached with probability
    prod_M eta_M^a_M (1-eta_M)^b_M.  Detected branches come first.
    """
    stack = [(node, key)]
    while stack:
        node, (a, b) = stack.pop()
        if not isinstance(node, MeasureNode):
            yield node, (a, b)
            continue
        i = _SLOT[node.basis.kind]
        stack.append((node.on_loss, (a, b[:i] + (b[i] + 1,) + b[i + 1:])))
        stack.append((node.on_detect, (a[:i] + (a[i] + 1,) + a[i + 1:], b)))


# -- the two loss decoders -----------------------------------------------------


def _tree_step(pattern: MeasurementPattern, state):
    """One node of either loss decoder.  ``state`` is (the targets, the
    alive ones, the output qubit being completed or -1); Pauli targets
    have output -1, so their decoder never picks one."""
    ts, alive, current = state
    alive = ts.narrow(alive, pattern.allowed(True))
    if not alive.size:
        return Leaf("failure", pattern)
    done = ts.narrow(alive, pattern.allowed(False))
    if done.size:
        first, second, output = ts[done[0]]
        ops = (first,) if second is None else (first, second)
        return Leaf("success", pattern, targets=ops, output=output)
    mine = alive[ts.output[alive] == current]
    if not mine.size:
        # pick (or re-pick) the output and try the rotated measurement
        o = ts.busiest_output(alive)
        return o, BASIS_A, (ts, alive, o), (ts, alive, -1)
    q, b = ts.attempt(ts.pair[mine].ravel(), pattern)
    return q, b, (ts, alive, current), (ts, alive, current)


def _tree(code: GraphCode, kind: str, ts: TargetSet) -> DecisionTree:
    """Grow a loss decoder over the targets ``ts``, all alive at first."""
    root = grow(MeasurementPattern(code.n), (ts, np.arange(len(ts)), -1),
                _tree_step)
    return DecisionTree(code, kind, root)


def _xz(ops) -> np.ndarray:
    """The x and z masks of ``ops`` as the two rows of an int64 array."""
    return np.array([(op.x, op.z) for op in ops], dtype=np.int64).reshape(-1, 2).T


@per_code
def build_pauli_tree(code: GraphCode, basis: str = "Z") -> DecisionTree:
    """Compile the Pauli-basis loss decoder for one logical basis."""
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"basis must be X, Y or Z, got {basis!r}")
    # per_code memoises by the arguments as given, and AllLogical passes
    # the limit on to each class: pass it too, to share those entries
    ops = enumerate_nontrivial(code, "Logical" + basis, EXHAUSTIVE_LIMIT)
    return _tree(code, f"pauli-{basis}", TargetSet(code.n, *_xz(ops), ops=ops))


@per_code
def _strategies(code: GraphCode, limit: int = EXHAUSTIVE_LIMIT) -> TargetSet:
    """Anticommuting operator pairs that differ on exactly one shared qubit,
    the output onto which the pair teleports the logical.

    Such a pair always anticommutes: equal letters commute, and two
    different non-identity letters anticommute on the one qubit, so no
    commutation test is needed.  For operator i, one numpy pass over the
    (x, z) arrays of operators i+1, i+2, ... forms d = (x_i & z_j) ^
    (z_i & x_j), whose bit q is set exactly where the two letters on q
    are different and both non-identity (they anticommute there).  It
    keeps the j with one bit in d (``d != 0 and d & (d - 1) == 0``) in
    increasing order, so pairs come out in the (i, j) order of the double
    loop over the operator set.  They are returned as index arrays into
    the sorted ``AllLogical`` operators, with no object per pair.
    ``limit`` only reaches ``enumerate_nontrivial``; no caller in the
    package sets it.
    """
    ops = enumerate_nontrivial(code, "AllLogical", limit)
    x, z = _xz(ops)
    seconds, bits = [], []
    for i in range(len(ops)):
        d = (x[i] & z[i + 1:]) ^ (z[i] & x[i + 1:])
        hit = np.flatnonzero((d != 0) & (d & (d - 1) == 0))
        seconds.append(hit + (i + 1))
        bits.append(d[hit])
    first = np.repeat(np.arange(len(ops)), [len(j) for j in seconds])
    # each bit is a power of two 2^q, which frexp writes as 0.5 * 2^(q+1)
    output = np.frexp(np.concatenate(bits))[1].astype(np.int64) - 1
    return TargetSet(code.n, x, z, (first, np.concatenate(seconds), output), ops)


@per_code
def build_arbitrary_tree(code: GraphCode) -> DecisionTree:
    """Compile the arbitrary-basis decoder (teleport onto an output qubit)."""
    return _tree(code, "arbitrary", _strategies(code))


# -- evaluation ------------------------------------------------------------------


def _count_paths(tree: DecisionTree, counted) -> LossPolynomial:
    terms: dict = {}
    for leaf, key in paths(tree.root):
        if counted(leaf):
            terms[key] = terms.get(key, 0) + 1
    return LossPolynomial(terms)


def success_polynomial(tree: DecisionTree) -> LossPolynomial:
    """Exact success probability, per-basis attempt exponents preserved."""
    return _count_paths(tree, lambda leaf: leaf.success)


def total_polynomial(tree: DecisionTree) -> LossPolynomial:
    """Sum over all leaves; must equal 1 identically (conservation check)."""
    return _count_paths(tree, lambda leaf: True)


def decode(tree: DecisionTree, detected_mask: int) -> Leaf:
    """Walk the tree for one loss configuration (bit set = qubit detected)."""
    node = tree.root
    while isinstance(node, MeasureNode):
        if (detected_mask >> node.qubit) & 1:
            node = node.on_detect
        else:
            node = node.on_loss
    return node


class MCResult:
    __slots__ = ("estimate", "stderr", "trials")

    def __init__(self, estimate: float, stderr: float, trials: int):
        self.estimate = estimate
        self.stderr = stderr
        self.trials = trials

    def __repr__(self) -> str:
        return f"MCResult({self.estimate:.6f} +/- {self.stderr:.6f}, trials={self.trials})"


def monte_carlo_decode(code: GraphCode, tree: DecisionTree, eta: float,
                       trials: int, seed: int = 0) -> MCResult:
    """Sample i.i.d. per-qubit loss and count decoder successes.

    Leaves are cylinder sets over the attempted qubits, so the count is
    vectorized: a sampled mask reaches a leaf iff every attempted qubit's
    fate matches the leaf's pattern.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    masks = np.zeros(trials, dtype=np.uint64)
    for q in range(code.n):
        bit = np.uint64(1 << q)
        masks |= np.where(rng.random(trials) < eta, bit, np.uint64(0))
    successes = 0
    for leaf in tree.leaves():
        if not leaf.success:
            continue
        p = leaf.pattern
        attempted = np.uint64(((1 << p.n) - 1) & ~p.unmeasured)
        detected = np.uint64(p.mx | p.my | p.mz | p.mother)
        successes += int(np.count_nonzero((masks & attempted) == detected))
    est = successes / trials
    stderr = float(np.sqrt(max(est * (1.0 - est), 1e-12) / trials))
    return MCResult(est, stderr, trials)


# -- disk cache ---------------------------------------------------------------------


def load_or_build(code: GraphCode, kind: str) -> DecisionTree:
    """Build a tree, or reuse a cached copy when GRAPHCODE_LT_CACHE is set.

    ``kind`` is "arbitrary" or one of "X", "Y", "Z" (Pauli mode).  Entries
    are keyed on the package version and ``TREE_FORMAT`` as well as the
    code and kind, so an entry written by other code is never read.
    """
    cache_dir = os.environ.get(CACHE_ENV)
    key = None
    if cache_dir:
        digest = hashlib.sha256("|".join(
            (__version__, str(TREE_FORMAT), code.to_json(), kind)
        ).encode()).hexdigest()[:24]
        key = os.path.join(cache_dir, f"tree_{digest}.json")
        if os.path.exists(key):
            with open(key) as fh:
                return DecisionTree.from_json(fh.read())
    tree = (build_arbitrary_tree(code) if kind == "arbitrary"
            else build_pauli_tree(code, kind))
    if key:
        # Write a temp file beside the entry and rename it into place, so
        # a concurrent reader sees either no entry or the whole tree.
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".tree_",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(tree.to_json())
            os.replace(tmp, key)
        except BaseException:
            os.unlink(tmp)
            raise
    return tree
