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
adaptive fusion and the error decoder's check extension, whose state is
the checks it chose (re-chosen only after a loss).  Both kinds of loss
target are held per code as one ``TargetSet`` of numpy arrays: operator
indices, output qubits and each target's joint packed letter mask (laid
out by ``pauli.packed`` and ``pauli.spread``), which ``pauli.fits`` would
match against a pattern.  A decoder's state is an index list into it
while short and an index array once long, and its four queries,
``narrow``, ``toward``, ``busiest_output`` and ``attempt``, are Python
loops over a list and numpy passes of bounded pieces over an array
(``_kept``); a target's ``PauliOperator``s are read only for a leaf.
One walk, ``paths``, reads every built tree back: it yields each
terminal node with the detected and lost attempt counts on its path,
which are the exponents of its monomial in the success polynomial and
in the error decoder's per-leaf sums, and the attempt totals of each
fusion side decoder's leaf.
"""

from __future__ import annotations

import json
from collections import namedtuple

import numpy as np

from .codes import GraphCode, per_code
from .opsets import enumerate_nontrivial
from .pauli import BASES, MeasurementPattern, packed, spread
from .polynomials import KERNEL_FLOATS, LossPolynomial

__all__ = [
    "DecisionTree", "Leaf", "MeasureNode", "TargetSet", "grow",
    "paths", "build_pauli_tree", "build_arbitrary_tree", "success_polynomial",
    "total_polynomial", "monte_carlo_decode", "decode", "load_or_build",
]


class Leaf(namedtuple("Leaf", "outcome pattern targets output",
                      defaults=((), None))):
    """Terminal decoder state.

    ``targets`` holds the fully measured operator (Pauli mode) or the
    anticommuting pair (arbitrary mode); ``output`` is the teleportation
    output qubit in arbitrary mode.  A fusion side decoder's leaf holds
    the indices of the logical coset members it measured.
    """

    __slots__ = ()

    @property
    def success(self) -> bool:
        return self.outcome == "success"


# attempt ``qubit`` in ``basis``, a letter of ``BASES``
MeasureNode = namedtuple("MeasureNode", "qubit basis on_detect on_loss")


class DecisionTree(namedtuple("DecisionTree", "code kind root")):
    """Compiled decoder for one code and one measurement task."""

    __slots__ = ()

    def stats(self) -> dict:
        outcomes = [leaf.success for leaf, _ in paths(self.root)]
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
                "basis": node.basis,
                "detected": enc(node.on_detect),
                "lost": enc(node.on_loss),
            }
        return json.dumps({"kind": self.kind, "code": json.loads(self.code.to_json()),
                           "root": enc(self.root)})


# -- the shared recursion -------------------------------------------------------


def _rank(x: np.ndarray, z: np.ndarray, n: int, keep: int = -1) -> np.ndarray:
    """One int64 key per operator that orders them as (weight, x, z) does,
    every term restricted to the qubits in ``keep``; needs n <= 16."""
    x, z = x & keep, z & keep
    bits = np.unpackbits((x | z).astype(np.uint16).view(np.uint8))
    weight = bits.reshape(-1, 16).sum(axis=1, dtype=np.int64)
    return weight << 2 * n | x << n | z


# A decoder state of fewer targets than this is a list of ints, tested one
# at a time in Python; a longer one is an index array, tested in numpy
# passes.  ``_kept`` alone reads it.
SMALL = 32


def _kept(idx: np.ndarray, keep):
    """The entries of the index array ``idx`` that ``keep`` marks, in
    order.  ``keep(piece)`` is a boolean mask over one piece of
    ``KERNEL_FLOATS`` entries, so no temporary grows with ``idx``.
    Returns a list of ints when fewer than ``SMALL`` are kept, else
    ``idx`` itself when every entry is, else an array of its dtype."""
    kept = []
    for lo in range(0, len(idx), KERNEL_FLOATS):
        piece = idx[lo:lo + KERNEL_FLOATS]
        fit = piece[keep(piece)]
        # a piece kept whole stays a view of ``idx``
        kept.append(piece if len(fit) == len(piece) else fit)
    count = sum(map(len, kept))
    if count < SMALL:
        return [t for piece in kept for t in piece.tolist()]
    if count == len(idx):
        return idx
    return kept[0] if len(kept) == 1 else np.concatenate(kept)


class TargetSet:
    """What a decoder must read out, as per-code arrays.

    A target is one logical operator (Pauli mode), or an anticommuting
    pair teleported onto an output qubit (arbitrary mode).  The operators
    are the int64 arrays ``x`` and ``z``, sorted by (weight, x, z), and
    ``ops`` as ``PauliOperator``s where leaves need them.  The targets
    are three arrays and no object each, 17 bytes a target:

    - ``pair``, int32 of shape (targets, 2): target t reads operators
      ``pair[t] = (first, second)``, the same index twice for a single
      operator;
    - ``output``, int8: the qubit it teleports onto, -1 for none;
    - ``need``, uint64: its joint packed letter mask (``pauli.packed``),
      4n bits, so n <= 16.  The output qubit counts as an A letter only,
      since it must be measured in the rotated basis.

    A decoder's state is an index sequence into the targets: a list of
    ints below ``SMALL`` targets, tested one at a time in Python, and an
    index array at or above it (int32 from the root), tested
    ``KERNEL_FLOATS`` targets at a time (``_kept``).  Four queries read a
    state: ``narrow``, ``toward``, ``busiest_output`` and ``attempt``.
    The two filters hand back a list once fewer than ``SMALL`` targets are
    left, so a shrinking state leaves numpy for good, and a short root
    array, as on the pentagon, takes one numpy pass first.  ``len`` is
    the number of targets; ``ts[t]`` is target t as (its one or two
    operators as a tuple of ``PauliOperator``s, its output qubit or
    None), the fields of a success ``Leaf``.
    """

    __slots__ = ("n", "ops", "x", "z", "support", "supports", "pair", "output",
                 "need", "need_view")

    def __init__(self, n: int, x: np.ndarray, z: np.ndarray,
                 pairs: tuple | None = None, ops: tuple = ()):
        """``pairs`` is ``(pair, output)`` as ``_anticommuting_pairs``
        makes them; without it every operator is a target of its own."""
        self.n, self.ops, self.x, self.z, self.support = n, ops, x, z, x | z
        self.supports = self.support.tolist()
        if pairs is None:
            single = np.arange(len(x), dtype=np.int32)
            pairs = np.stack((single, single), axis=1), np.full(len(x), -1, np.int8)
        self.pair, self.output = pairs
        masks = packed(x.astype(np.uint64), z.astype(np.uint64), n)
        self.need = np.empty(len(self.output), np.uint64)
        for lo in range(0, len(self.need), KERNEL_FLOATS):
            pair = self.pair[lo:lo + KERNEL_FLOATS]
            output = self.output[lo:lo + KERNEL_FLOATS]
            # the output qubit's bit, or 0 for a target with no output
            bit = ((output >= 0).astype(np.uint64)
                   << output.clip(0).astype(np.uint64))
            need = masks[pair[:, 0]] | masks[pair[:, 1]]
            self.need[lo:lo + KERNEL_FLOATS] = (need & ~spread(bit, n, "XYZ")
                                                | spread(bit, n, "A"))
        self.need_view = memoryview(self.need)

    def __len__(self) -> int:
        return len(self.need)

    def __getitem__(self, t) -> tuple:
        (i, j), o = self.pair[t].tolist(), int(self.output[t])
        ops = (self.ops[i],) if j == i else (self.ops[i], self.ops[j])
        return ops, None if o < 0 else o

    def narrow(self, idx, allowed: int):
        """The targets in ``idx`` every letter of which the packed
        ``allowed`` mask admits (``pauli.fits``), in their given order.

        A list is tested one target at a time in Python, each mask read
        as a Python int through ``need_view``, a zero-copy ``memoryview``
        of ``need``, since numpy's fixed cost per call dominates there.
        Timed on one call from a list against one numpy pass over an
        array (Python 3.11, numpy 2.4, 2-core VM): 0.8 us against 3.8 at
        4 targets, 1.9 against 3.9 at 16, 3.4 against 4.0 at 32.  The
        decoders' lists are short on small codes (a median of 4 over the
        7-vertex search); their arrays run to millions on 14 qubits."""
        if isinstance(idx, list):
            deny, need = ~allowed, self.need_view
            return [t for t in idx if not need[t] & deny]
        # the letters of the n qubits that ``allowed`` does not admit
        deny = np.uint64(~allowed & ((1 << 4 * self.n) - 1))
        return _kept(idx, lambda piece: (self.need[piece] & deny) == 0)

    def toward(self, idx, q: int):
        """The targets in ``idx`` whose output qubit is ``q``, in their
        given order."""
        if isinstance(idx, list):
            # a memoryview reads single entries as Python ints
            output = memoryview(self.output)
            return [t for t in idx if output[t] == q]
        return _kept(idx, lambda piece: self.output[piece] == q)

    def busiest_output(self, idx) -> int:
        """The output qubit shared by the most targets in ``idx``; ties go
        to the lowest (``argmax`` takes the first maximum).  Counted a
        ``KERNEL_FLOATS`` piece at a time, since ``bincount`` widens its
        input to intp."""
        counts = sum(np.bincount(self.output[idx[lo:lo + KERNEL_FLOATS]],
                                 minlength=self.n)
                     for lo in range(0, len(idx), KERNEL_FLOATS))
        return int(counts.argmax())

    def attempt(self, targets, pattern: MeasurementPattern,
                rank: np.ndarray | None = None):
        """The attempt rule: the lowest-ranked operator of the ``targets``
        with unmeasured support, then its lowest unmeasured qubit, in that
        operator's letter.  Returns None when no operator has unmeasured
        support.

        Each target's operators are read from ``pair``, first then
        second.  ``rank`` is one int64 key per operator (``_rank``), and
        of equal keys the one read first wins, so an operator read twice
        (a single-operator target's) ranks once.  Without it the index is
        the rank, since the operators are sorted by (weight, x, z).

        A list is tested one operator at a time in Python on
        ``supports``, as in ``narrow``: on the 7-vertex search's side
        decoders (a median of 2 targets) that takes about 3 us per call
        against numpy's 6.5.  An array is read half a piece of targets at
        a time, whose ``KERNEL_FLOATS`` operators ``_kept`` tests for
        unmeasured support; the least key of each piece, then the least
        over the pieces, the earlier piece kept on ties, is the operator
        one ``argmin`` over all of them would take.
        """
        free = pattern.unmeasured
        if isinstance(targets, list):
            pair, supports = memoryview(self.pair), self.supports
            live = [i for t in targets for i in (pair[t, 0], pair[t, 1])
                    if supports[i] & free]
            if not live:
                return None
            i = min(live) if rank is None else min(live, key=rank.item)
        else:
            i = best = None
            half = (KERNEL_FLOATS + 1) // 2
            for lo in range(0, len(targets), half):
                live = _kept(self.pair[targets[lo:lo + half]].ravel(),
                             lambda o: (self.support[o] & free) != 0)
                if len(live):
                    j = int(live[np.argmin(live if rank is None else rank[live])])
                    key = j if rank is None else rank[j]
                    if best is None or key < best:
                        best, i = key, j
            if i is None:
                return None
        low = self.supports[i] & free
        q = (low & -low).bit_length() - 1
        return q, "IXZY"[self.x.item(i) >> q & 1 | (self.z.item(i) >> q & 1) << 1]


def grow(pattern: MeasurementPattern, state, step):
    """Build an adaptive measure/lose tree from ``pattern``.

    ``step(pattern, state)`` returns either a ``Leaf``, which ends the
    branch, or a tuple ``(qubit, basis, detect_state, lost_state)``:
    attempt ``qubit`` in ``basis`` and continue from the detected and
    lost patterns with those states.  A ``Leaf`` is a tuple too, so the
    test is for the ``Leaf``.  A state typically holds the targets still
    alive; each child narrows its parent's, since measuring only removes
    wildcards and a dead target stays dead.
    """
    move = step(pattern, state)
    if isinstance(move, Leaf):
        return move
    q, basis, detect_state, lost_state = move
    return MeasureNode(q, basis, grow(pattern.measure(q, basis), detect_state, step),
                       grow(pattern.lose(q), lost_state, step))


def paths(node, key=((0, 0, 0, 0), (0, 0, 0, 0))):
    """Each terminal node of a measure/lose tree with its attempt key.

    The key is ``((aX, aY, aZ, aA), (bX, bY, bZ, bA))``: ``key`` plus the
    detected (a) and lost (b) attempts per basis of ``pauli.BASES`` on
    the path from ``node``, so the node is reached with probability
    prod_M eta_M^a_M (1-eta_M)^b_M.  Detected branches come first.
    """
    stack = [(node, key)]
    while stack:
        node, (a, b) = stack.pop()
        if not isinstance(node, MeasureNode):
            yield node, (a, b)
            continue
        i = BASES.index(node.basis)
        stack.append((node.on_loss, (a, b[:i] + (b[i] + 1,) + b[i + 1:])))
        stack.append((node.on_detect, (a[:i] + (a[i] + 1,) + a[i + 1:], b)))


# -- the two loss decoders -----------------------------------------------------


def _tree_step(pattern: MeasurementPattern, state):
    """One node of either loss decoder.  ``state`` is (the targets, the
    alive ones, the output qubit being completed or -1); Pauli targets
    have output -1, so their decoder never picks one."""
    ts, alive, current = state
    alive = ts.narrow(alive, pattern.allowed())
    if not len(alive):
        return Leaf("failure", pattern)
    done = ts.narrow(alive, pattern.letters)
    if len(done):
        return Leaf("success", pattern, *ts[done[0]])
    mine = ts.toward(alive, current)
    if not len(mine):
        # pick (or re-pick) the output and try the rotated measurement
        o = ts.busiest_output(alive)
        return o, "A", (ts, alive, o), (ts, alive, -1)
    q, b = ts.attempt(mine, pattern)
    return q, b, (ts, alive, current), (ts, alive, current)


def _tree(code: GraphCode, kind: str, ts: TargetSet) -> DecisionTree:
    """Grow a loss decoder over the targets ``ts``, all alive at first."""
    root = grow(MeasurementPattern(code.n),
                (ts, np.arange(len(ts), dtype=np.int32), -1), _tree_step)
    return DecisionTree(code, kind, root)


def _xz(ops) -> np.ndarray:
    """The x and z masks of ``ops`` as the two rows of an int64 array."""
    return np.array([(op.x, op.z) for op in ops], dtype=np.int64).reshape(-1, 2).T


@per_code
def build_pauli_tree(code: GraphCode, basis: str = "Z") -> DecisionTree:
    """Compile the Pauli-basis loss decoder for one logical basis."""
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"basis must be X, Y or Z, got {basis!r}")
    ops = enumerate_nontrivial(code, "Logical" + basis)
    return _tree(code, f"pauli-{basis}", TargetSet(code.n, *_xz(ops), ops=ops))


@per_code
def _strategies(code: GraphCode) -> TargetSet:
    """Anticommuting operator pairs that differ on exactly one shared qubit,
    the output onto which the pair teleports the logical.

    Such a pair always anticommutes: equal letters commute, and two
    different non-identity letters anticommute on the one qubit, so no
    commutation test is needed.  For operators i and j, d = (x_i & z_j)
    ^ (z_i & x_j) has bit q set exactly where the two letters on q are
    different and both non-identity (they anticommute there), and the
    pair is kept when d has one bit (``d != 0 and d & (d - 1) == 0``).
    ``_anticommuting_pairs`` tests the pairs in one blocked numpy pass
    over the upper triangle, rows by all later columns, and reads each
    block in row-major order, so the pairs come out in the (i, j) order
    of the double loop over the operator set.  They are returned as index
    arrays into the sorted ``AllLogical`` operators, with no object per
    pair.
    """
    ops = enumerate_nontrivial(code, "AllLogical")
    x, z = _xz(ops)
    return TargetSet(code.n, x, z, _anticommuting_pairs(x, z), ops)


def _anticommuting_pairs(x: np.ndarray, z: np.ndarray) -> tuple:
    """``(pair, output)`` of the pairs i < j of the operators ``(x, z)``
    that differ on exactly one shared qubit, the output, in the (i, j)
    order of the double loop over the operators: ``TargetSet``'s int32
    (pairs, 2) index array and int8 output qubits.

    Rows i of the upper triangle are taken in blocks, each block against
    the columns j > i of its first row; entries of its later rows with
    j <= i are masked out.  ``np.nonzero`` reads each block in row-major
    order, the loop's order.  A block takes as many rows as
    ``KERNEL_FLOATS`` entries allow, and a row longer than that is cut
    into pieces of ``KERNEL_FLOATS`` columns, read in increasing j, so no
    temporary holds more than ``KERNEL_FLOATS`` entries.  Each piece's
    pairs go straight into the two compact arrays, 9 bytes a pair, whose
    room doubles when they fill.
    """
    count = len(x)
    pair, output, found = np.empty((0, 2), np.int32), np.empty(0, np.int8), 0
    lo = 0
    while lo < count - 1:
        width = count - lo - 1
        rows = min(max(1, KERNEL_FLOATS // width), width)
        hi = lo + rows
        # with one row, the pieces of columns come out in increasing j
        span = max(1, KERNEL_FLOATS // rows)
        xi, zi = x[lo:hi, None], z[lo:hi, None]
        for start in range(lo + 1, count, span):
            stop = min(start + span, count)
            d = (xi & z[None, start:stop]) ^ (zi & x[None, start:stop])
            keep = (d & (d - 1) == 0) & (d != 0)
            # entry (r, c) is the pair (lo + r, start + c): keep j > i
            keep &= np.arange(start, stop)[None, :] > np.arange(lo, hi)[:, None]
            r, c = np.nonzero(keep)
            end = found + len(r)
            if end > len(output):
                # twice the room: the copies add up to fewer than the
                # pairs, and the pages past ``found`` stay untouched
                pair, output = (_grown(a, found, 2 * end) for a in (pair, output))
            pair[found:end, 0], pair[found:end, 1] = r + lo, c + start
            # each bit is a power of two 2^q, which frexp writes as
            # 0.5 * 2^(q+1)
            output[found:end] = np.frexp(d[r, c])[1] - 1
            found = end
        lo = hi
    return pair[:found], output[:found]


def _grown(a: np.ndarray, used: int, room: int) -> np.ndarray:
    """An array of ``room`` rows that starts with ``a``'s first ``used``."""
    grown = np.empty((room,) + a.shape[1:], a.dtype)
    grown[:used] = a[:used]
    return grown


@per_code
def build_arbitrary_tree(code: GraphCode) -> DecisionTree:
    """Compile the arbitrary-basis decoder (teleport onto an output qubit)."""
    return _tree(code, "arbitrary", _strategies(code))


@per_code
def load_or_build(code: GraphCode, kind: str) -> DecisionTree:
    """The loss tree of ``kind``: "arbitrary" or one of "X", "Y", "Z"
    (Pauli mode).

    A tree is a pure function of its code, so it is built once per
    process and kept in the code's memo entry (``codes.per_code``); a
    repeat call returns the same object without calling a builder.
    Nothing is written to disk.
    """
    if kind == "arbitrary":
        return build_arbitrary_tree(code)
    return build_pauli_tree(code, kind)


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


# The most trials ``monte_carlo_decode`` draws: numpy's multinomial
# counts in int64.
MAX_TRIALS = (1 << 63) - 1


def _loss_tally(n: int, eta: float, trials: int, seed: int) -> np.ndarray:
    """How many of ``trials`` i.i.d. samples of per-qubit loss fall on
    each loss configuration c of ``n`` qubits (bit q set: qubit q
    detected), drawn in one ``multinomial`` call of the generator seeded
    with ``seed``.  Configuration c has probability p_c = eta^|c|
    (1-eta)^(n-|c|), made by doubling the configurations one qubit at a
    time, qubit 0 first; a tally of that distribution is the tally of
    sampling the trials qubit by qubit."""
    p = np.ones(1)
    for _ in range(n):
        p = np.concatenate([p * (1.0 - eta), p * eta])
    return np.random.default_rng(seed).multinomial(trials, p)


def monte_carlo_decode(tree: DecisionTree, eta: float, trials: int,
                       seed: int = 0) -> float:
    """Sample i.i.d. per-qubit loss; the fraction of trials the decoder
    succeeds on.

    Each trial is one loss configuration of the tree's code, so the
    trials are drawn straight as a tally over the 2^n configurations (n
    <= ``EXHAUSTIVE_LIMIT``), one multinomial draw (``_loss_tally``), and
    each configuration that occurs is decoded once.  Time and memory grow
    with 2^n, not with the trial count, which may be up to
    ``MAX_TRIALS``.
    """
    if not 0 < trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS}], got {trials}")
    tally = _loss_tally(tree.code.n, eta, trials, seed)
    successes = sum(count for mask, count in enumerate(tally.tolist())
                    if count and decode(tree, mask).success)
    return successes / trials
