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
target are held per code as one ``TargetSet``: operator index pairs
grouped by output qubit, and per group one Python-int bitset per qubit
and letter of the targets that admit that letter there (the letters
laid out as ``pauli.packed`` lays them, which ``pauli.fits`` matches).
A decoder's state is one bitset per group of the targets still alive.
A measured or lost qubit narrows it with one AND a group, so a state
always holds the targets that fit the pattern, and its other queries,
``finished``, ``toward``, ``busiest_output`` and ``attempt``, read set
bits; a target's ``PauliOperator``s are read only for a leaf.
One walk, ``paths``, reads every built tree back: it yields each
terminal node with the detected and lost attempt counts on its path,
which are the exponents of its monomial in the success polynomial and
in the error decoder's per-leaf sums, and the attempt totals of each
fusion side decoder's leaf.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import namedtuple

import numpy as np

from .codes import GraphCode, per_code
from .opsets import enumerate_nontrivial
from .pauli import BASES, MeasurementPattern, packed, spread
from .polynomials import KERNEL_FLOATS, LossPolynomial

__all__ = [
    "DecisionTree", "Leaf", "MeasureNode", "TargetSet", "grow", "paths",
    "build_pauli_tree", "build_arbitrary_tree", "success_polynomial",
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


# The letter index of a lost qubit in a ``TargetSet``'s tables, after the
# four letters of ``BASES``: a lost qubit admits the identity alone.
LOST = len(BASES)

# ``TargetSet.attempt`` reads a state whose bits span at most ``SHORT``
# targets one target at a time in Python, and a wider one in numpy pieces.
SHORT = 1024

# an operator's letter on one qubit, indexed by its x bit | z bit << 1, as
# the index of that letter in ``BASES`` (the identity has none)
_LETTER = (None, 0, 2, 1)


class TargetSet:
    """What a decoder must read out: per-code arrays of targets, grouped
    by output qubit, and one bitset per group, qubit and letter.

    A target is one logical operator (Pauli mode), or an anticommuting
    pair teleported onto an output qubit (arbitrary mode).  The operators
    are the int64 arrays ``x`` and ``z``, sorted by (weight, x, z), and
    ``ops`` as ``PauliOperator``s where leaves need them.  Target t reads
    the operators ``pair[t] = (first, second)``, an int32 row, the same
    index twice for a single operator; ``columns`` are the two columns as
    memoryviews.  The targets come in groups, each an index range
    ``starts[g]:starts[g + 1]``: a pair set has one group per output
    qubit, group q toward qubit q (``outputs[g]``), its pairs in the
    order ``_anticommuting_pairs`` found them; a set of single operators
    is one group with output -1, in operator order.

    A decoder's state is one Python int per group, a bitset whose bit i
    is the group's target ``starts[g] + i``.  ``admits[g]`` holds the
    group's tables, 5n bitsets: entry q + k*n holds the targets that admit
    letter k of ``BASES`` on qubit q, reading that letter there or none,
    and entry q + ``LOST``*n those that read no letter on q.  A target's
    output qubit is read in the A letter only, since it must be measured
    in the rotated basis, and no operator reads A elsewhere, so a qubit's
    A table is the whole group on its output and its ``LOST`` table on
    any other qubit, the same int object.  A target thus costs its 8-byte
    pair and 4n bits, and a qubit measured in letter k, or lost, narrows
    a state with one AND a group (``narrow``).

    Four more queries read a state: ``finished`` ANDs out the targets that
    read a letter on an unmeasured qubit, ``toward`` names one group,
    ``busiest_output`` compares bit counts and ``attempt`` reads the set
    bits.  ``len`` is the number of targets, and ``ts[t]`` is target t as
    (its one or two operators as a tuple of ``PauliOperator``s, its output
    qubit or None), the fields of a success ``Leaf``.  The tables are
    built one group at a time (``_tables``).
    """

    __slots__ = ("n", "ops", "x", "z", "support", "supports", "pair", "columns",
                 "outputs", "starts", "admits")

    def __init__(self, n: int, x: np.ndarray, z: np.ndarray,
                 pairs: tuple | None = None, ops: tuple = ()):
        """``pairs`` is ``(pair, starts)``, pairs grouped by output as
        ``_grouped`` makes them; without it every operator is a target of
        its own."""
        self.n, self.ops, self.x, self.z, self.support = n, ops, x, z, x | z
        self.supports = self.support.tolist()
        if pairs is None:
            single = np.arange(len(x), dtype=np.int32)
            self.pair = np.stack((single, single), axis=1)
            self.outputs, self.starts = (-1,), (0, len(x))
        else:
            self.pair, self.starts = pairs
            self.outputs = tuple(range(n))
        self.columns = memoryview(self.pair[:, 0]), memoryview(self.pair[:, 1])
        self.admits = self._tables(packed(x.astype(np.uint64),
                                          z.astype(np.uint64), n))

    def _tables(self, masks: np.ndarray) -> list:
        """Every group's 5n bitsets, ``admits``, from the operators' packed
        letter masks ``masks``.

        Each group is built on its own, read in pieces from its own start
        of ``KERNEL_FLOATS`` targets (rounded down to whole bytes, at least
        8): ``_letters`` makes each target's admitted letters one word and
        ``_bit_rows`` a piece's words 4n rows of bytes, which fill the
        piece's bytes of the group's 4n byte rows, eight targets a byte.
        Each row, read little-endian, is one table: the 3n Pauli letters,
        then the targets that read no letter.  On the output qubit the
        Pauli tables are then emptied and the A table is the whole group,
        as the class docstring says."""
        n, step = self.n, max(8, KERNEL_FLOATS & ~7)
        admits = []
        for o, lo, hi in zip(self.outputs, self.starts, self.starts[1:]):
            rows = np.empty((4 * n, (hi - lo + 7) // 8), np.uint8)
            for a in range(lo, hi, step):
                rows[:, (a - lo) // 8:(a - lo + step) // 8] = \
                    _bit_rows(self._letters(masks, a, min(a + step, hi)), 4 * n)
            tables = [int.from_bytes(row.tobytes(), "little") for row in rows]
            # the output qubit admits the A letter alone
            paulis = [0 if p % n == o else table
                      for p, table in enumerate(tables[:3 * n])]
            idle, whole = tables[3 * n:], (1 << hi - lo) - 1
            admits.append(paulis + [whole if q == o else idle[q] for q in range(n)]
                          + idle)
        return admits

    def _letters(self, masks: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """One uint64 word per target ``lo:hi``: bit q + k*n set when it
        admits letter k of X, Y, Z on qubit q (reads that letter or none
        there), and bit q + 3n when it reads no letter on q."""
        n, pair = self.n, self.pair[lo:hi]
        need = masks[pair[:, 0]] | masks[pair[:, 1]]
        idle = ~(need | need >> n | need >> 2 * n) & np.uint64((1 << n) - 1)
        return need | idle * np.uint64(spread(1, n, BASES))

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, t) -> tuple:
        if not 0 <= t < len(self):
            raise IndexError(t)
        i, j = self.pair[t].tolist()
        o = self.outputs[bisect_right(self.starts, t) - 1]
        ops = (self.ops[i],) if j == i else (self.ops[i], self.ops[j])
        return ops, None if o < 0 else o

    def full(self) -> list:
        """The state of every target."""
        return [(1 << b - a) - 1 for a, b in zip(self.starts, self.starts[1:])]

    def narrow(self, state: list, q: int, k: int) -> list:
        """The targets of ``state`` that admit letter ``k`` (an index of
        ``BASES``, or ``LOST``) on qubit ``q``: one AND a group."""
        p = q + k * self.n
        return [bits & admits[p] for bits, admits in zip(state, self.admits)]

    def finished(self, g: int, bits: int, free: int) -> int:
        """The targets of group ``g``'s ``bits`` that read no letter on the
        qubits of the mask ``free``, the unmeasured ones: once a state is
        narrowed by every measured and lost qubit, those are the targets
        fully read out (``pauli.fits`` on the measured letters)."""
        admits, lost = self.admits[g], LOST * self.n
        while free and bits:
            low = free & -free
            bits &= admits[lost + low.bit_length() - 1]
            free ^= low
        return bits

    def toward(self, q: int) -> int | None:
        """The group whose targets teleport onto qubit ``q``: group q of a
        pair set, and for -1 a single-operator set's one group; None when
        there is none."""
        return self.outputs.index(q) if q in self.outputs else None

    def busiest_output(self, state: list) -> int:
        """The output qubit shared by the most targets in ``state``; ties
        go to the lowest, as ``index`` takes the first maximum."""
        counts = [bits.bit_count() for bits in state]
        return self.outputs[counts.index(max(counts))]

    def attempt(self, g: int, bits: int, free: int,
                rank: np.ndarray | None = None):
        """The attempt rule on group ``g``'s ``bits``: the lowest-ranked
        operator of the targets with support on the unmeasured qubits
        ``free``, then its lowest such qubit, as (qubit, letter index of
        ``BASES``).  None when no operator has unmeasured support.

        Each target's operators are read from ``pair``, first then
        second, in target order.  ``rank`` is one int64 key per operator
        (``_rank``), and of equal keys the one read first wins, so an
        operator read twice (a single-operator target's) ranks once.
        Without it the index is the rank, since the operators are sorted
        by (weight, x, z); a single-operator set's targets are then its
        operators, so the rule takes the lowest target not ``finished``.

        Otherwise a state whose bits span at most ``SHORT`` targets is
        read one target at a time in Python, each set bit peeled off the
        int, and a wider one a piece of targets at a time (``_pieces``),
        whose operators one numpy pass tests for unmeasured support; the
        least key of each piece, then the least over the pieces, the
        earlier piece kept on ties, is the operator one ``argmin`` over
        all of them would take.  An int operation costs in the words the
        state spans, so a wide state is not peeled in Python even when
        few of its bits are set: the fusion side decoders' states on 14
        qubits are often a few dozen targets spread over a group of
        100,000, which ``_pieces`` reads in one pass over their words.
        """
        start, i = self.starts[g], None
        if rank is None and self.outputs[g] < 0:
            live = bits ^ self.finished(g, bits, free)
            if live:
                i = start + (live & -live).bit_length() - 1
        elif bits.bit_length() <= SHORT:
            (first, second), supports = self.columns, self.supports
            # memoryviews read single entries as Python ints
            keys = range(len(supports)) if rank is None else memoryview(rank)
            best = None
            while bits:
                low = bits & -bits
                bits ^= low
                t = start + low.bit_length() - 1
                j, k = first[t], second[t]
                if supports[j] & free and (i is None or keys[j] < best):
                    i, best = j, keys[j]
                if supports[k] & free and (i is None or keys[k] < best):
                    i, best = k, keys[k]
        else:
            best = None
            for targets in self._pieces(g, bits):
                ops = self.pair[targets].ravel()
                live = ops[(self.support[ops] & free) != 0]
                if len(live):
                    j = int(live[np.argmin(live if rank is None else rank[live])])
                    key = j if rank is None else rank[j]
                    if i is None or key < best:
                        i, best = j, key
        if i is None:
            return None
        low = self.supports[i] & free
        q = (low & -low).bit_length() - 1
        return q, _LETTER[self.x.item(i) >> q & 1 | (self.z.item(i) >> q & 1) << 1]

    def _pieces(self, g: int, bits: int):
        """The targets of group ``g``'s ``bits`` in increasing order, as
        index arrays of at most ``KERNEL_FLOATS`` // 4 targets, whose
        operator pairs make half a ``KERNEL_FLOATS`` piece, so the few
        temporaries ``attempt`` makes of one stay within a few pieces.

        The bitset is read as 64-bit words, and only its nonzero words,
        found ``KERNEL_FLOATS`` words at a time, are unpacked, a run of
        ``KERNEL_FLOATS`` // 128 at a time (one bit a byte), so a sparse
        state costs one pass over its words and work in its set bits."""
        words, start = _uint64s(bits), self.starts[g]
        run, size = max(1, KERNEL_FLOATS // 128), max(1, KERNEL_FLOATS // 4)
        for lo in range(0, len(words), KERNEL_FLOATS):
            nonzero = np.flatnonzero(words[lo:lo + KERNEL_FLOATS]) + lo
            for at in range(0, len(nonzero), run):
                where = nonzero[at:at + run]
                found = np.flatnonzero(np.unpackbits(words[where].view(np.uint8),
                                                     bitorder="little"))
                targets = where[found >> 6]
                targets *= 64
                targets += (found & 63) + start
                for first in range(0, len(targets), size):
                    yield targets[first:first + size]


def _bit_rows(words: np.ndarray, count: int) -> np.ndarray:
    """Bits 0 to ``count`` - 1 of the uint64 ``words`` as ``count`` rows
    of bytes: row c holds bit c of every word, eight words a byte, the
    first in bit 0, so a row's bytes read little-endian are the bitset
    of the words that have bit c."""
    bits = np.unpackbits(words.astype("<u8").view(np.uint8),
                         bitorder="little").reshape(-1, 64)
    return np.packbits(bits.T[:count].copy(), axis=1, bitorder="little")


def _uint64s(bits: int) -> np.ndarray:
    """The bitset ``bits`` as little-endian 64-bit words, bit i of the
    set at bit i % 64 of word i // 64."""
    return np.frombuffer(bits.to_bytes((bits.bit_length() + 63) // 64 * 8,
                                       "little"), "<u8")


def _grouped(pair: np.ndarray, output: np.ndarray, n: int) -> tuple:
    """``pair`` sorted by ``output`` (0 to n - 1), each output's pairs in
    their given order, and the group starts: n + 1 indices, group q the
    range ``starts[q]:starts[q + 1]``.  Each output's pairs are copied
    into place a piece of ``KERNEL_FLOATS`` pairs at a time, so ``output``
    is read once per output qubit."""
    grouped, starts = np.empty_like(pair), [0]
    for q in range(n):
        at = starts[-1]
        for lo in range(0, len(output), KERNEL_FLOATS):
            mine = np.compress(output[lo:lo + KERNEL_FLOATS] == q,
                               pair[lo:lo + KERNEL_FLOATS], axis=0)
            grouped[at:at + len(mine)] = mine
            at += len(mine)
        starts.append(at)
    return grouped, tuple(starts)


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
    alive ones, narrowed by every measured and lost qubit, the output
    qubit being completed or -1); Pauli targets have output -1, so their
    decoder never picks one.

    Only the targets toward the current output can be fully read out:
    one toward another output needs that qubit in the A letter, and an
    output is measured in A only when it becomes the current one, which
    it stays while any target toward it is alive.  So the decoder picks
    an output when none of those is alive, and otherwise finishes or
    attempts within that group."""
    ts, alive, current = state
    if not any(alive):
        return Leaf("failure", pattern)
    g = ts.toward(current)
    mine = 0 if g is None else alive[g]
    if not mine:
        # pick (or re-pick) the output and try the rotated measurement
        o = ts.busiest_output(alive)
        return (o, "A", (ts, ts.narrow(alive, o, BASES.index("A")), o),
                (ts, ts.narrow(alive, o, LOST), -1))
    done = ts.finished(g, mine, pattern.unmeasured)
    if done:
        return Leaf("success", pattern,
                    *ts[ts.starts[g] + (done & -done).bit_length() - 1])
    q, k = ts.attempt(g, mine, pattern.unmeasured)
    return (q, BASES[k], (ts, ts.narrow(alive, q, k), current),
            (ts, ts.narrow(alive, q, LOST), current))


def _tree(code: GraphCode, kind: str, ts: TargetSet) -> DecisionTree:
    """Grow a loss decoder over the targets ``ts``, all alive at first."""
    root = grow(MeasurementPattern(code.n), (ts, ts.full(), -1), _tree_step)
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
    of the double loop over the operator set.  They are grouped by output
    (``_grouped``), each output's in that order, as index arrays into the
    sorted ``AllLogical`` operators, with no object per pair, and each
    group's tables are built from its own pairs (``TargetSet._tables``).
    """
    ops = enumerate_nontrivial(code, "AllLogical")
    x, z = _xz(ops)
    # the pairs in finding order are dropped once grouped, before the
    # tables are built
    return TargetSet(code.n, x, z, _grouped(*_anticommuting_pairs(x, z), code.n),
                     ops)


def _anticommuting_pairs(x: np.ndarray, z: np.ndarray) -> tuple:
    """``(pair, output)`` of the pairs i < j of the operators ``(x, z)``
    that differ on exactly one shared qubit, the output, in the (i, j)
    order of the double loop over the operators: ``TargetSet``'s int32
    (pairs, 2) index array and int8 output qubits.

    Rows i of the upper triangle are taken in blocks, each block against
    the columns j > i of its first row; entries of its later rows with
    j <= i are masked out, in the pieces of columns that reach them.  One
    ``frexp`` of d finds the one-bit entries (mantissa 0.5) and their bit
    (the exponent less one).  ``np.nonzero`` reads each block in
    row-major order, the loop's order.  A block takes as many rows as
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
            # frexp writes a power of two 2^q as 0.5 * 2^(q+1), and 0 as
            # 0 * 2^0, so one bit is a mantissa of 0.5
            mantissa, exponent = np.frexp(d)
            keep = mantissa == 0.5
            if start < hi:
                # entry (r, c) is the pair (lo + r, start + c): keep j > i
                keep &= np.arange(start, stop)[None, :] > np.arange(lo, hi)[:, None]
            r, c = np.nonzero(keep)
            end = found + len(r)
            if end > len(output):
                # twice the room: the copies add up to fewer than the
                # pairs, and the pages past ``found`` stay untouched
                pair, output = (_grown(a, found, 2 * end) for a in (pair, output))
            pair[found:end, 0], pair[found:end, 1] = r + lo, c + start
            output[found:end] = exponent[r, c] - 1
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
