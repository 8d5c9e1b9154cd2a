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
target share one type, ``Target``, whose joint letter mask is matched
against a pattern by ``pauli.fits``.  One walk, ``paths``, reads a built
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

import numpy as np

from . import __version__
from .codes import GraphCode, per_code
from .opsets import EXHAUSTIVE_LIMIT, enumerate_nontrivial
from .pauli import (
    BASIS_A,
    Basis,
    MeasurementPattern,
    PauliOperator,
    fits,
    iter_bits,
)
from .polynomials import BASES, LossPolynomial, break_even  # re-export break_even

__all__ = [
    "DecisionTree", "Leaf", "MeasureNode", "Target", "grow", "paths",
    "build_pauli_tree", "build_arbitrary_tree", "success_polynomial",
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


class Target:
    """What a decoder must read out: one logical operator (Pauli mode), or
    an anticommuting pair teleported onto an output qubit (arbitrary mode).

    ``need`` is the joint packed letter mask (``PauliOperator.masks``) of
    every letter the target needs; the output qubit counts as an A letter
    only, since it must be measured in the rotated basis.
    """

    __slots__ = ("first", "second", "output", "need")

    def __init__(self, first: PauliOperator, second: PauliOperator | None = None,
                 output: int | None = None):
        self.first = first
        self.second = second
        self.output = output
        need = 0
        for op in self.ops:
            need |= op.masks
        if output is not None:
            n = first.n
            bit = 1 << output
            need = need & ~(bit | bit << n | bit << 2 * n) | bit << 3 * n
        self.need = need

    @property
    def ops(self) -> tuple:
        return (self.first,) if self.second is None else (self.first, self.second)


def narrow(targets, allowed: int) -> list:
    """The targets every letter of which the packed ``allowed`` mask
    admits, in their given order (``fits``, with ``~allowed`` taken once)."""
    deny = ~allowed
    return [t for t in targets if not t.need & deny]


def attempt(ops, pattern: MeasurementPattern, keep: int = -1):
    """The attempt rule: the lowest (weight, x, z) operator with unmeasured
    support, then its lowest unmeasured qubit, in that operator's letter.

    Operators are ranked on the qubits in ``keep`` only.  Returns None when
    no operator has unmeasured support.
    """
    free = pattern.unmeasured
    live = [op for op in ops if op.support & free]
    if not live:
        return None
    op = min(live, key=lambda o: ((o.support & keep).bit_count(),
                                  o.x & keep, o.z & keep))
    q = next(iter_bits(op.support & free))
    return q, Basis(op.letter_at(q))


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


def busiest_output(targets) -> int:
    """The output qubit shared by the most targets; ties go to the lowest."""
    counts: dict[int, int] = {}
    for t in targets:
        counts[t.output] = counts.get(t.output, 0) + 1
    best = max(counts.values())
    return min(o for o, c in counts.items() if c == best)


def _tree_step(pattern: MeasurementPattern, state):
    """One node of either loss decoder.  ``state`` is (alive targets, the
    output qubit being completed); Pauli targets have no output, so their
    decoder never picks one."""
    alive, current = state
    alive = narrow(alive, pattern.allowed(True))
    if not alive:
        return Leaf("failure", pattern)
    done = pattern.allowed(False)
    for t in alive:
        if fits(t.need, done):
            return Leaf("success", pattern, targets=t.ops, output=t.output)
    members = [op for t in alive if t.output == current for op in t.ops]
    if not members:
        # pick (or re-pick) the output and try the rotated measurement
        o = busiest_output(alive)
        return o, BASIS_A, (alive, o), (alive, None)
    q, b = attempt(members, pattern)
    return q, b, (alive, current), (alive, current)


@per_code
def build_pauli_tree(code: GraphCode, basis: str = "Z",
                     limit: int = EXHAUSTIVE_LIMIT) -> DecisionTree:
    """Compile the Pauli-basis loss decoder for one logical basis."""
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"basis must be X, Y or Z, got {basis!r}")
    ops = enumerate_nontrivial(code, "Logical" + basis, limit)
    root = grow(MeasurementPattern(code.n), ([Target(op) for op in ops], None),
                _tree_step)
    return DecisionTree(code, f"pauli-{basis}", root)


@per_code
def _strategies(code: GraphCode, limit: int) -> tuple[Target, ...]:
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
    loop over the operator set.
    """
    ops = enumerate_nontrivial(code, "AllLogical", limit)
    x, z = np.array([(op.x, op.z) for op in ops], dtype=np.int64).reshape(-1, 2).T
    out = []
    for i, a in enumerate(ops):
        d = (x[i] & z[i + 1:]) ^ (z[i] & x[i + 1:])
        hit = np.flatnonzero((d != 0) & (d & (d - 1) == 0))
        for j, bit in zip(hit.tolist(), d[hit].tolist()):
            out.append(Target(a, ops[i + 1 + j], bit.bit_length() - 1))
    return tuple(out)


@per_code
def build_arbitrary_tree(code: GraphCode,
                         limit: int = EXHAUSTIVE_LIMIT) -> DecisionTree:
    """Compile the arbitrary-basis decoder (teleport onto an output qubit)."""
    root = grow(MeasurementPattern(code.n), (_strategies(code, limit), None),
                _tree_step)
    return DecisionTree(code, "arbitrary", root)


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
