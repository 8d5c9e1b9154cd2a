"""Maximum-likelihood error decoding layered on the loss decoder.

Once the loss decoder secures its target, the unspent qubits are used for
stabilizer checks, attempted by the loss decoders' shared recursion,
``losstree.grow``, stepped by ``_check_step``.  The checks are chosen
greedily at the success leaf and kept while their qubits are detected;
only a lost check qubit makes a fresh choice, on the updated pattern.
Each choice filters and ranks the code's stabilizers with a few numpy
array operations over their packed letter masks.
The loss tree and each leaf's check extension are read with the same
walk as the success polynomial, ``losstree.paths``, whose attempt key
gives every extended leaf its probability, eta^sum(a) (1-eta)^sum(b).
Each decoded leaf gets an exact syndrome table over all outcome-flip
strings (``SyndromeTable``), built once with the extension: syndrome and
target parities are linear in the flips, so the table doubles the flip
strings one qubit at a time.  ``fault_probability``, the engine for any
transmission, evaluates each table at one error model, counts a decoder
failure as a fault (1.0), and sums the leaves over a block of
transmissions in one ``polynomials.monomial_sums`` call.

An error model is the triple (rX, rY, rZ) of the rates at which outcomes
measured in X, Y and Z flip; an arbitrary-basis outcome flips at half
their sum.  ``depolarizing(lam)`` gives the triple of depolarizing noise.

At unit transmission every leaf but the loss-free one has probability
zero, so ``logical_flip_rates`` decodes that leaf alone: it reads the
leaf from the Pauli tree with every qubit detected, measures the first
greedy choice of checks there (no loss re-chooses them on that path)
and keeps the leaf's syndrome table per code and basis.  Iterating the
per-basis logical flip map yields concatenation error thresholds,
bisected with ``polynomials.bisect``.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .codes import GraphCode, per_code
from .losstree import (
    DecisionTree,
    Leaf,
    build_pauli_tree,
    decode,
    grow,
    load_or_build,
    paths,
)
from .opsets import ResourceLimitError, stabilizer_pool
from .pauli import (
    MeasurementPattern,
    PauliOperator,
    PauliSpan,
    fits,
    iter_bits,
    spread,
)
from .polynomials import (
    KERNEL_FLOATS,
    bisect,
    block,
    columns,
    monomial_sums,
    unblock,
)

ML_ENUMERATION_LIMIT = 20


def depolarizing(lam):
    """The (rX, rY, rZ) outcome-flip rates of i.i.d. depolarizing noise.

    A rate-lambda depolarizing channel flips a Pauli measurement outcome
    with probability 2*lambda: two of its three errors anticommute with
    the measured basis.  ``lam`` is a float, or a 1-D array of them (a
    list or tuple is read as one) whose triple of arrays
    ``np.stack(..., axis=1)`` makes a rate block.
    """
    lam = lam if np.ndim(lam) == 0 else np.asarray(lam)
    lam3 = 3.0 * np.asarray(lam)
    if not ((lam3 >= 0.0) & (lam3 <= 1.0)).all():
        raise ValueError("lambda must satisfy 0 <= 3*lambda <= 1")
    return (2 * lam,) * 3


# Target operator(s) plus the stabilizer checks measured alongside.
CheckSet = namedtuple("CheckSet", "targets checks")


def _masked_targets(leaf: Leaf) -> tuple[PauliOperator, ...]:
    """Leaf targets with the arbitrary-basis output qubit stripped off."""
    if leaf.output is None:
        return leaf.targets
    keep = ~(1 << leaf.output)
    return tuple(PauliOperator(t.n, t.x & keep, t.z & keep) for t in leaf.targets)


def _greedy_checks(code: GraphCode, pattern: MeasurementPattern,
                   targets) -> tuple:
    """Independent qubit-wise-commuting stabilizer checks, greedily ranked
    by overlap with the target supports; deterministic.

    The masks of ``opsets.stabilizer_pool`` (the non-identity stabilizers
    in (weight, x, z) order) are ANDed with the letters ``pattern`` denies
    in one array operation, which keeps the measurable checks in pool
    order.  A stable argsort on minus the target overlap (counted one
    target qubit at a time) then ranks them by (-overlap, weight, x, z),
    the order of sorting the measurable stabilizers on that key.  A
    candidate is measurable alongside the chosen checks when it ``fits``
    the packed mask ``allowed``: the chosen checks' letters on the qubits
    they cover, every letter elsewhere.  Checks whose parity is a product
    of already chosen ones are skipped: their outcome bit is the XOR of
    the others' and adds no syndrome information.
    """
    ops, masks, supports = stabilizer_pool(code)
    target_support = 0
    for t in targets:
        target_support |= t.support
    # checks have Pauli letters only, so the A letters of ``pattern.allowed``
    # play no part
    n = pattern.n
    pauli = spread((1 << n) - 1, n, "XYZ")
    deny = ~pattern.allowed() & pauli
    keep = np.flatnonzero((masks & np.uint64(deny)) == 0)
    kept = supports[keep]
    overlap = np.zeros(len(keep), dtype=np.int64)
    for q in iter_bits(target_support):
        overlap += (kept >> q) & 1
    chosen: list[PauliOperator] = []
    allowed = pauli
    span = PauliSpan(n)
    for i in keep[np.argsort(-overlap, kind="stable")].tolist():
        cand = ops[i]
        if not fits(cand.masks, allowed) or not span.add(cand):
            continue
        chosen.append(cand)
        # on the candidate's support, keep only its own letters
        cover = cand.support
        allowed &= cand.masks | ~spread(cover, n, "XYZ")
    return tuple(chosen)


class SyndromeTable:
    """What ML decoding reads of a leaf and its checks, none of it rates:
    the letter each relevant qubit is measured in (lowest qubit first),
    the (syndrome, target parity) bin of every outcome-flip string on
    those qubits, the number of target parities and whether an
    arbitrary-basis output qubit is folded in.  ``ErrorAnalysis`` builds
    one per decoded leaf, once, with the extension, and
    ``error(rates)`` evaluates it at one error model.

    Flip string i flips qubit ``qubits[k]`` when bit k of i is set.  Its
    bin holds one parity bit per operator, the checks' bits above the
    targets', the first operator of each in the highest bit."""

    __slots__ = ("letters", "bins", "n_t", "size", "output")

    def __init__(self, leaf: Leaf, checks: CheckSet):
        targets = checks.targets
        ops = tuple(targets) + tuple(checks.checks)
        relevant = 0
        for op in ops:
            relevant |= op.support
        qubits = list(iter_bits(relevant))
        if len(qubits) > ML_ENUMERATION_LIMIT:
            raise ResourceLimitError(
                f"{len(qubits)} qubits exceed the {ML_ENUMERATION_LIMIT}-qubit "
                "flip-string enumeration limit")
        self.letters = [next(op.letter_at(q) for op in ops
                             if op.letter_at(q) != "I") for q in qubits]
        # parities are linear in the flips, so each qubit doubles the
        # strings: the new half is the old one xor the qubit's column
        order = tuple(checks.checks) + tuple(targets)
        bins = np.zeros(1, dtype=np.uint32)
        for q in qubits:
            column = sum(1 << i for i, op in enumerate(reversed(order))
                         if op.support >> q & 1)
            bins = np.concatenate([bins, bins ^ np.uint32(column)])
        self.bins = bins
        self.n_t = 1 << len(targets)
        self.size = (1 << len(checks.checks)) * self.n_t
        self.output = leaf.output is not None

    def error(self, rates):
        """The residual logical error at flip rates ``rates`` = (rX, rY,
        rZ), each in [0, 1] (exactly one is what a failed leaf feeds
        back); an arbitrary-basis outcome flips at half their sum, capped
        at one.

        ``rates`` is one triple, giving a float, or a (points, 3) block of
        them, giving an array of one error per point.  A block is binned
        by one ``np.bincount`` over the bins offset by point * ``size``,
        which adds each bin's flip strings in index order, so a point's
        error is the same float alone and in any block.  Points go
        through in chunks whose temporaries hold at most
        ``KERNEL_FLOATS`` floats, with at least one point a chunk.
        """
        points = np.asarray(rates, dtype=float).reshape(-1, 3)
        # factors[c, p] = (1 - r, r) of rate c ("XYZ") at point p; both
        # are >= 0 iff r lies in [0, 1], and NaN fails the test
        factors = np.empty((3, len(points), 2, 1))
        factors[:, :, 0, 0] = 1.0 - points.T
        factors[:, :, 1, 0] = points.T
        if not factors.min(initial=0.0) >= 0.0:
            raise ValueError("flip rates must lie in [0, 1]")
        step = max(1, KERNEL_FLOATS // max(len(self.bins), self.size))
        err = np.empty(len(points))
        for lo in range(0, len(points), step):
            count = min(step, len(points) - lo)
            # the flip strings doubled one qubit at a time: the old half
            # keeps the qubit, the new half flips it
            probs = np.ones((count, 1, 1))
            for letter in self.letters:
                factor = factors["XYZ".index(letter), lo:lo + count]
                probs = (probs * factor).reshape(count, 1, -1)
            probs = probs.reshape(count, -1)
            offsets = np.arange(0, count * self.size, self.size)[:, None]
            table = np.bincount((self.bins + offsets).ravel(),
                                weights=probs.ravel(),
                                minlength=count * self.size)
            table = table.reshape(count, -1, self.n_t)
            err[lo:lo + count] = 1.0 - table.max(axis=2).sum(axis=1)
        if self.output:
            rx, ry, rz = points.T
            arbitrary = np.minimum(1.0, 0.5 * (rx + ry + rz))
            err = 1.0 - (1.0 - arbitrary) * (1.0 - err)
        err = np.minimum(1.0, np.maximum(0.0, err))
        return float(err[0]) if np.ndim(rates) == 1 else err


def ml_logical_error(leaf: Leaf, checks: CheckSet,
                     rates: tuple[float, float, float]) -> float:
    """Exact residual logical error after syndrome-table decoding.

    Enumerates every outcome-flip string on the qubits in the target and
    check supports (each qubit's flip rate set by the basis its letter
    dictates), groups strings by check syndrome, and grants the decoder
    the most likely target parity per syndrome.  For arbitrary-basis
    leaves the two teleported signs are decoded jointly and the
    unprotected output-qubit flip is folded in afterwards.  Builds the
    ``SyndromeTable`` and evaluates it once at ``rates`` = (rX, rY, rZ).
    """
    return SyndromeTable(leaf, checks).error(rates)


# -- fault probability over a whole tree -----------------------------------------


def _check_step(code: GraphCode, targets: tuple, pattern: MeasurementPattern,
                chosen: tuple | None):
    """One node of the check extension (a ``losstree.grow`` step):
    attempt the lowest unmeasured qubit of the ``chosen`` checks' support
    in its check letter, or end with the checks as the leaf's targets
    once all of them are measured.

    ``chosen`` is None at the root and after a lost check qubit, and the
    checks are then chosen greedily on ``pattern``; a detected attempt
    passes them on unchanged.  That is the choice ``_greedy_checks``
    would make again: the chosen checks are qubit-wise compatible, so
    measuring qubit q in their letter denies only letters none of them
    has on q, and the ranked pool keeps every chosen check, in order.
    """
    if chosen is None:
        chosen = _greedy_checks(code, pattern, targets)
    pending = 0
    for c in chosen:
        pending |= c.support & pattern.unmeasured
    if not pending:
        return Leaf("success", pattern, chosen)
    q = next(iter_bits(pending))
    letter = next(c.letter_at(q) for c in chosen if c.letter_at(q) != "I")
    return q, letter, chosen, None


class ErrorAnalysis:
    """A loss tree extended with adaptive check measurements, and the
    syndrome table of each of its decoded leaves.

    Past each success leaf the greedy check set is attempted qubit by
    qubit.  It is kept while its qubits are detected, and a lost check
    qubit triggers a fresh greedy choice on the updated pattern, so the
    loss-free path of an extension measures the first choice.  Extension
    and the tables are built once; evaluation at any (eta, flip rates)
    is one ``monomial_sums`` call over the extended leaves.

    ``entries`` holds one ``(key, leaf, checks, pattern)`` per extended
    leaf: the attempt key of its path (``losstree.paths``) through the
    loss tree and the extension, the loss-tree success leaf, the
    ``CheckSet`` measured there and the final pattern.  A decoder
    failure is ``(key, None, None, None)``.  ``tables`` holds each
    entry's ``SyndromeTable``, None for a failure, and ``exps`` the
    entries' (sum a, sum b) exponents in ``polynomials.columns`` form.
    """

    __slots__ = ("entries", "tables", "exps")

    def __init__(self, code: GraphCode, tree: DecisionTree):
        entries = []
        for leaf, key in paths(tree.root):
            if not leaf.success:
                entries.append((key, None, None, None))
                continue
            targets = _masked_targets(leaf)
            step = functools.partial(_check_step, code, targets)
            for end, ext_key in paths(grow(leaf.pattern, None, step), key):
                entries.append((ext_key, leaf, CheckSet(targets, end.targets),
                                end.pattern))
        self.entries = entries
        self.tables = [None if leaf is None else SyndromeTable(leaf, checks)
                       for _, leaf, checks, _ in entries]
        _, self.exps = columns((((sum(a), sum(b)), 1)
                                for (a, b), *_ in entries), 2)

    def fault_probability(self, eta, rates: tuple[float, float, float]):
        """Sum over extended leaves of eta^sum(a) (1-eta)^sum(b) times the
        leaf's ML error at ``rates``, or 1.0 for a decoder failure.
        ``eta`` is a float or a 1-D array of them in [0, 1], and the
        result a float or an array to match."""
        etas = block(eta)
        if not ((etas >= 0.0) & (etas <= 1.0)).all():
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        coef = np.array([1.0 if table is None else table.error(rates)
                         for table in self.tables])
        bases = np.stack([etas, 1.0 - etas], axis=1)
        return unblock(monomial_sums(coef, self.exps, bases,
                                     (len(coef),))[:, 0], eta)


@per_code
def _error_analysis(code: GraphCode, kind: str) -> ErrorAnalysis:
    return ErrorAnalysis(code, load_or_build(code, kind))


def fault_probability(code: GraphCode, kind: str, eta,
                      rates: tuple[float, float, float]):
    """P(logical fault): decoder failure, or a wrongly decoded outcome.

    ``kind`` names the loss tree, as in ``load_or_build``: "arbitrary" or
    one of "X", "Y", "Z"; ``eta`` is a transmission in [0, 1] or a 1-D
    array of them, and the result a float or an array to match;
    ``rates`` are the (rX, rY, rZ) outcome-flip rates,
    ``depolarizing(lam)`` for depolarizing noise.
    """
    return _error_analysis(code, kind).fault_probability(eta, rates)


# -- concatenation error threshold ------------------------------------------------


@per_code
def _loss_free_table(code: GraphCode, basis: str) -> SyndromeTable | None:
    """The syndrome table of the one extended leaf of ``ErrorAnalysis``
    (Pauli tree of ``basis``) that no loss reaches, or None when the
    decoder fails there.  Its checks are the first greedy choice at the
    loss-free leaf, which the extension keeps while nothing is lost."""
    leaf = decode(build_pauli_tree(code, basis), (1 << code.n) - 1)
    if not leaf.success:
        return None
    targets = _masked_targets(leaf)
    return SyndromeTable(leaf, CheckSet(
        targets, _greedy_checks(code, leaf.pattern, targets)))


def logical_flip_rates(code: GraphCode, rates):
    """Per-basis logical flip rates at unit transmission.

    Physical qubits measured in X/Y/Z flip with the given per-basis rates;
    the result is the flip rate of each decoded logical Pauli basis, the
    quantity a concatenation layer feeds into the one above it.
    ``rates`` is one (rX, rY, rZ) triple, giving a triple of floats, or a
    (points, 3) block of them, giving a (points, 3) array; a point's
    rates are the same floats alone and in any block.

    Each rate equals ``fault_probability(code, basis, 1.0, rates)``, float
    for float, without building the ``ErrorAnalysis``.  At eta = 1 every
    extended leaf whose path loses a qubit has a term of exactly 0.0 (a
    power of 1 - eta = 0), and the loss-free leaf's term is its ML error
    (or 1.0 for a decoder failure) times powers of 1.0, so the sum is
    that error exactly.  Only that leaf is decoded: it is read from the
    memoised Pauli tree with every qubit detected, its checks are the
    first greedy choice there, and its syndrome table is kept per code
    and basis, so a block of rate vectors costs one table evaluation per
    basis.  ``fault_probability`` remains the engine for eta < 1.
    """
    points = np.asarray(rates, dtype=float).reshape(-1, 3)
    out = np.ones((len(points), 3))
    for i, basis in enumerate("XYZ"):
        table = _loss_free_table(code, basis)
        if table is not None:
            out[:, i] = table.error(points)
    return tuple(out[0].tolist()) if np.ndim(rates) == 1 else out


def error_threshold(code: GraphCode) -> float:
    """Largest depolarizing rate whose per-basis flip map iterates to zero.

    Bisection on lambda over [0, 1/3] to 1e-4; each probe starts from the
    physical flip vector ``depolarizing(lam)`` and applies
    ``logical_flip_rates`` 24 times.  Returns 1/3 when even that rate
    converges.
    """
    hi = 1.0 / 3.0

    def converges(lam: float) -> bool:
        r = physical = depolarizing(lam)
        for _ in range(24):
            r = logical_flip_rates(code, r)
            m = max(r)
            if m < 1e-9:
                return True
            if m > 0.499999:
                return False
        return max(r) < max(physical)

    if converges(hi):
        return hi
    return bisect(lambda lams: [converges(lam) for lam in lams], 0.0, hi,
                  1e-4)[0]
