"""Logical fusion of two identically encoded qubits.

A physical fusion is a destructive two-qubit measurement: on success it
returns both the XX and the ZZ parity of the pair, on gate failure a
single parity, and nothing when a photon is lost.  Encoding both fusion
partners in the same graph code makes the logical parities X̄X̄' and
Z̄Z̄' recoverable from incomplete outcome sets.

Two engines analyse this exactly.  The transversal engine fuses every
code qubit with its twin.  An outcome assignment is one pair of qubit
masks (ox, oz): the qubits whose XX parity was obtained and those whose
ZZ parity was.  It recovers X̄X̄' iff some representative X̄·s, with s in
the code's stabilizer group S, has its x-support inside ox and its
z-support inside oz; likewise Z̄Z̄'.  Proof: the known parities are the
span of S⊗I, I⊗S and the obtained pair parities.  Every product of pair
parities is symmetric, p⊗p with p's x-support in ox and z-support in oz,
so X̄X̄' = (s⊗s')(p⊗p) up to phase forces X̄ = s·p = s'·p, hence s = s'
and p = X̄·s; conversely such a p gives X̄X̄' = (s⊗s)(p⊗p).  One table per
code answers this for every (ox, oz), and each choice of failure bases
only changes which assignments are tallied.

The adaptive engine attempts fusions on candidate output qubits one at a
time; after the first success each code runs a teleportation decoder
toward the fused qubit, and when every attempt fails the codes fall back
on single-qubit measurements to salvage one parity.  Each code's decoder
is grown by the loss decoders' shared recursion (``losstree.grow``) and
then folded with its twin; the fusion attempts themselves have three
outcomes and keep their own walk.  One walk per code compiles both gate
models, failures in a fixed basis and randomized ones, into one tally of
plain integer path counts that keeps X and Z failures apart: the fixed
(Z) model is the tally's part with no X failure, and the randomized
model adds the two (``_model``).  A term's exact weight, 2^-b for b
randomized gate failures, is applied once when a model's columns are
assembled, the first time it is evaluated.  Both engines report
(success, fail, loss) probabilities, each a sum of monomials in the gate
outcomes evaluated by ``polynomials.monomial_sums`` within 1e-12 of its
exact value, at one transmission or at a block of them.
``logical_fusion`` is the one entry point to both: it takes the gate's
failure probability and transmission as two floats (or a block of
transmissions) and picks the engine and failure mode by keyword.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .codes import GraphCode, per_code
from .losstree import (LOST, Leaf, TargetSet, _rank, _strategies, _xz, grow,
                       paths)
from .opsets import ResourceLimitError, stabilizer_group
from .pauli import BASES, MeasurementPattern, iter_bits, packed, spread
from .polynomials import block, columns, monomial_sums

__all__ = [
    "LogicalFusionResult", "logical_fusion", "compile_failure_bases",
    "AdaptiveFusionAnalysis",
]

TRANSVERSAL_LIMIT = 12


def _gate_outcomes(p_fail: float, eta) -> tuple:
    """Arrays (s, f, l) of one physical gate's success, failure and loss
    probabilities at each transmission of ``eta`` (a float or a 1-D
    array); they sum to one.

    A gate with failure probability ``p_fail`` = 2^-m consumes 1/p_fail
    photons per side, so the arrival factor is eta^(1/p_fail): s is the
    arrival times 1 - p_fail, f (one parity survives) the arrival times
    p_fail, and l (no outcome) the rest.

    ``p_fail`` = 0 is admitted as the limit of a deterministic gate:
    eta^(1/p_fail) tends to 0 for eta < 1 and is 1 at eta = 1.  The
    network figures of merit (``apps``, and ``search`` objectives) need
    a finite photon count per gate and refuse it.
    """
    etas = block(eta)
    if not 0.0 <= p_fail <= 1.0:
        raise ValueError(f"p_fail must lie in [0, 1], got {p_fail}")
    if not ((etas >= 0.0) & (etas <= 1.0)).all():
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if p_fail == 0.0:
        arrival = (etas == 1.0).astype(float)
    else:
        arrival = etas ** (1.0 / p_fail)
    return arrival * (1.0 - p_fail), arrival * p_fail, 1.0 - arrival


class LogicalFusionResult(NamedTuple):
    """Outcome probabilities of one logical fusion: floats, or arrays over
    a block of transmissions (``logical_fusion``)."""

    p_success: float
    p_fail_logical: float
    p_loss_logical: float

    @property
    def erasure_xx(self) -> float:
        """Erasure of the XX parity under the 50/50 failure-basis
        randomization used in fusion networks, under which a logical
        failure erases either parity with equal probability: erasure =
        p_loss + p_fail / 2.  The ZZ parity is erased with the same
        probability, so it has no field of its own."""
        return self.p_loss_logical + 0.5 * self.p_fail_logical


# the outcome classes of a logical fusion, in LogicalFusionResult's order
_CLASSES = ("success", "fail", "loss")


def _classify(xx_in: bool, zz_in: bool) -> str:
    if xx_in and zz_in:
        return "success"
    if xx_in or zz_in:
        return "fail"
    return "loss"


# -- transversal engine ------------------------------------------------------------


# the outcome digits open to a qubit, by failure basis (None: both); a
# digit has bit 0 set when the XX parity was obtained and bit 1 for ZZ, so
# 0 is a loss, 1 and 2 failures in X and Z, 3 a success
_DIGITS = {None: (0, 1, 2, 3), "X": (0, 1, 3), "Z": (0, 2, 3)}
# qubits enumerated together per numpy pass; the rest are looped over
_LOW_QUBITS = 8


def _spread(mask: int) -> int:
    """Qubit q of ``mask`` moved to bit 2q."""
    return sum(1 << 2 * q for q in iter_bits(mask))


@per_code
def _recovery_table(code: GraphCode) -> np.ndarray:
    """The logical parities each transversal outcome recovers.

    Entry ``sum(d_q << 2q)``, for per-qubit outcome digits d_q (bit 0:
    XX obtained on q, bit 1: ZZ obtained), has bit 0 set when X̄X̄' is
    recovered and bit 1 when Z̄Z̄' is.  Every representative X̄·s and Z̄·s
    marks its own entry (x-support on bit 0 digits, z-support on bit 1),
    and 2n in-place passes then OR each entry into all its supersets.
    The table takes 4^n bytes: 16.7 MB at the default limit n = 12 and
    67-268 MB at n = 13-14.
    """
    n = code.n
    table = np.zeros(1 << 2 * n, dtype=np.uint8)
    group = stabilizer_group(code)
    for flag, logical in ((1, code.logical_x), (2, code.logical_z)):
        for s in group:
            rep = logical * s
            table[_spread(rep.x) | _spread(rep.z) << 1] |= flag
    for b in range(2 * n):
        view = table.reshape(-1, 2, 1 << b)
        view[:, 1] |= view[:, 0]
    return table


def _assignments(options, qubits, weight):
    """(table offset, tally key) of every outcome combination on
    ``qubits``, each qubit taking one digit of ``options[q]``."""
    index = np.zeros(1, dtype=np.int64)
    key = np.zeros(1, dtype=np.int64)
    for q in qubits:
        digits = np.array(options[q], dtype=np.int64)
        index = (index[:, None] | (digits << 2 * q)[None, :]).ravel()
        key = (key[:, None] + weight[digits][None, :]).ravel()
    return index, key


@per_code
def _transversal_counts(code: GraphCode, failure_bases: tuple | None) -> dict:
    """Integer multiplicities of outcome assignments by class.

    Keys are (n_success, n_fail_x, n_fail_z, class); the per-assignment
    probability depends only on those counts, so one enumeration serves
    every gate (p_fail, eta).  ``failure_bases=None`` enumerates both failure
    bases per qubit (the per-shot randomized mode), 4^n assignments;
    fixed bases give 3^n.

    Each assignment is exactly one (ox, oz) pair, as the module docstring
    defines it: success sets both of a qubit's bits, failure its basis
    bit, loss neither.  So the class of every assignment is one lookup in
    the code's recovery table (``_recovery_table``, built once per code
    and shared by every basis tuple), and the counts are a numpy tally
    of (n_success, n_fail_x, n_fail_z, table entry).  Codes past
    ``TRANSVERSAL_LIMIT`` qubits are refused.
    """
    n = code.n
    if n > TRANSVERSAL_LIMIT:
        raise ResourceLimitError(
            f"transversal enumeration needs 3^{n} assignments; "
            f"limit is n <= {TRANSVERSAL_LIMIT}")
    if failure_bases is not None and not set(failure_bases) <= {"X", "Z"}:
        raise ValueError(f"fusion parities are XX or ZZ, got {failure_bases}")
    options = [_DIGITS[b] for b in failure_bases or (None,) * n]
    side = n + 1
    # tally index ((n_success * side + n_fail_x) * side + n_fail_z) * 4 +
    # table entry; the weights are each digit's share of it
    weight = np.array([0, 4 * side, 4, 4 * side * side])
    low = range(min(n, _LOW_QUBITS))
    low_index, low_key = _assignments(options, low, weight)
    high_index, high_key = _assignments(options, range(len(low), n), weight)
    table = _recovery_table(code)
    tally = np.zeros(4 * side ** 3, dtype=np.int64)
    for offset, base in zip(high_index.tolist(), high_key.tolist()):
        keys = low_key + base + table[low_index | offset]
        tally += np.bincount(keys, minlength=tally.size)
    found = np.flatnonzero(tally)
    fields = np.unravel_index(found, (side, side, side, 4))
    counts: dict = {}
    for ns, nfx, nfz, entry, mult in zip(*(f.tolist() for f in fields),
                                         tally[found].tolist()):
        key = (ns, nfx, nfz, _classify(bool(entry & 1), bool(entry & 2)))
        counts[key] = counts.get(key, 0) + mult
    return counts


@per_code
def _transversal_columns(code: GraphCode, failure_bases: tuple | None) -> tuple:
    """``monomial_sums`` columns and class ends of the transversal counts.

    A term is an exponent triple of (s, f, l), (n_success, n_fail,
    n_loss), per class in ``_CLASSES`` order; the counts of every
    (n_fail_x, n_fail_z) split of one n_fail are added (``_model``), then
    weighed as the adaptive engine's (``_columns``): 2^-n_fail under
    randomized failure bases, 1 under fixed ones.
    """
    n = code.n
    split = {klass: {} for klass in _CLASSES}
    for (ns, nfx, nfz, klass), mult in _transversal_counts(
            code, failure_bases).items():
        split[klass][ns, nfx, nfz, n - ns - nfx - nfz] = mult
    return _columns(_model(split, True), 1 if failure_bases is None else 0, 3)


def _transversal_result(code: GraphCode, p_fail: float, eta,
                        failure_bases: tuple | None) -> np.ndarray:
    """(success, fail, loss) per transmission of ``eta``, shape (points, 3)."""
    coef, exps, ends = _transversal_columns(code, failure_bases)
    return monomial_sums(coef, exps, np.array(_gate_outcomes(p_fail, eta)).T,
                         ends)


@per_code
def compile_failure_bases(code: GraphCode, p_fail: float,
                          eta: float) -> tuple[str, ...]:
    """Per-qubit failure basis maximizing transversal fusion success.

    Coordinate ascent over {X, Z} per qubit, each candidate evaluated by
    full enumeration at the gate parameters ``p_fail`` and ``eta``, one
    transmission; ties keep Z.  Equal floats are one memo key.
    """
    def success(bases: list) -> float:
        return _transversal_result(code, p_fail, eta, tuple(bases))[0, 0]

    bases = ["Z"] * code.n
    best = success(bases)
    for _ in range(code.n + 1):
        changed = False
        for i in range(code.n):
            flipped = bases.copy()
            flipped[i] = "X" if bases[i] == "Z" else "Z"
            trial = success(flipped)
            if trial > best + 1e-15:
                bases, best = flipped, trial
                changed = True
        if not changed:
            break
    return tuple(bases)


# -- adaptive engine ---------------------------------------------------------------


# the letters a fused interface admits, by gate outcome: any Pauli letter
# after a successful gate, and only the surviving parity's letter after a
# failed one (the partner code must match there, which the fold checks by
# intersecting letter vectors)
_INTERFACE_LETTERS = {"s": "XYZ", "fx": "X", "fz": "Z"}


def _cosets(code: GraphCode) -> tuple[TargetSet, np.ndarray]:
    """The X and Z logical cosets as one set of single-operator targets,
    sorted by (weight, x, z) across both, and a mask of its X members."""
    gx, gz = _xz(stabilizer_group(code))
    # logical * s has the masks logical.x ^ s.x and logical.z ^ s.z
    logicals = (code.logical_x, code.logical_z)
    x = np.concatenate([logical.x ^ gx for logical in logicals])
    z = np.concatenate([logical.z ^ gz for logical in logicals])
    order = np.argsort(_rank(x, z, code.n))
    return TargetSet(code.n, x[order], z[order]), order < len(gx)


def _model(split: dict, x_failures: bool) -> dict:
    """One gate model's integer term counts by class, from counts whose
    keys split the failures, (successes, X failures, Z failures, ...):
    each key becomes (successes, failures, ...).  With ``x_failures`` the
    two failure counts are added, as under randomized failure bases;
    without, only the terms with no X failure are kept, as under failures
    in a fixed Z basis.  A merged key takes the place of the first split
    key that merges into it, so each class keeps the order of ``split``."""
    merged = {}
    for klass in _CLASSES:
        into = merged[klass] = {}
        for (a, bx, bz, *rest), count in split[klass].items():
            if x_failures or not bx:
                key = (a, bx + bz, *rest)
                into[key] = into.get(key, 0) + count
    return merged


def _columns(counts: dict, half: int, rows: int) -> tuple:
    """``monomial_sums`` columns of integer term counts by class, the
    success, fail and loss terms one after another, and the class ends.
    A term's key is its exponents of ``rows`` bases, failures second.
    A term with b failures weighs 2^-(half * b): each coefficient is the
    count divided by that power of two, the correctly rounded float of
    the exact term."""
    coef, exps = columns(((key, count / (1 << half * key[1]))
                          for klass in _CLASSES
                          for key, count in counts[klass].items()), rows)
    return coef, exps, tuple(accumulate(len(counts[klass]) for klass in _CLASSES))


class AdaptiveFusionAnalysis:
    """Compiled adaptive logical-fusion process for one code, under both
    gate models: failures in a fixed basis (Z), and randomized failures.

    Fusions are attempted on candidate output qubits while teleportation
    strategies survive; the first success pins the output and each side
    independently completes a strategy toward it.  Exhausted attempts
    fall back to single-operator salvage.  Terminal states carry exact
    probability monomials in (s, f, l, eta), so one compilation serves
    every gate (p_fail, eta).  Only those terms are kept: the logical cosets
    and the per-side decoders are freed once compiled.

    One walk compiles both models into one tally, ``_tally``: integer path
    counts per outcome class, keyed (fusion successes, X failures, Z
    failures, fusion losses, single-qubit detections, single-qubit
    losses).  Under randomized failures each failed gate keeps the XX or
    the ZZ parity, so the walk branches it into an fx and an fz child;
    with a fixed basis every failure is fz.  The fixed model's walk is
    therefore exactly the fz-only sub-walk of the randomized one: the
    same nodes, the same side decoders and the same terms, the tally's
    keys with no X failure.  A node's children are walked in the order
    fx, fz, loss, so leaving out every fx subtree leaves the fixed walk's
    own order, and each model's term keys, read off the tally by
    ``_model``, come out in the order its own walk would insert them.
    That order is the order of the columns ``result`` sums, so it is
    kept, and each model's floats are those of walking it alone.

    The walk and the side decoders keep their live strategies and coset
    members as bitset states (``losstree.TargetSet``) of two per-code
    target sets, the strategies (``losstree._strategies``), one group per
    output qubit, and the X and Z logical cosets (``_cosets``), one
    group.  Each move narrows them with one AND a group: a fused qubit
    admits its surviving parity's letter (and is no longer an output), a
    lost one none, and a side decoder's attempt its measured letter.  So
    the walk hands its states down, a success starts its side decoder
    from the strategy group toward the fused qubit and the walk's coset
    members, and a side decoder's leaf carries the members its pattern
    reads out (``TargetSet.finished``), as a bitset.  The side decoder's
    tree is read back with ``losstree.paths``, whose key gives each
    leaf's detected and lost attempt counts.  A leaf's interface letter
    vectors are packed ints, each member's packed letter mask on the
    interface qubits; one vector is one int, so the sets intersect
    exactly as the letter vectors do.

    Under randomized failures each failed gate keeps either parity with
    probability 1/2, so a term with b failures weighs exactly 2^-b; with
    a fixed failure basis every weight is 1.  A model's terms are put in
    column form (``_columns``) the first time ``result`` asks for that
    model: one float64 coefficient per term, exact since every weight is
    an integer count over a power of two, and the term's exponents of (s,
    f, l, eta, 1 - eta) as a 5 x T array, the success, fail and loss
    terms one after another.  ``result`` evaluates them at a block of
    transmissions with ``polynomials.monomial_sums``, each class within
    1e-12 of the exact sum of its terms.
    """

    __slots__ = ("_tally", "_built")

    def __init__(self, code: GraphCode):
        n = code.n
        strategies = _strategies(code)
        cosets, is_x = _cosets(code)
        # each coset member's packed letter mask, read on the interfaces
        masks = packed(cosets.x.astype(np.uint64), cosets.z.astype(np.uint64),
                       n).tolist()
        is_x = is_x.tolist()
        # the coset members' tables (their one group), and where a lost
        # qubit's table starts in them
        admits, lost = cosets.admits[0], LOST * n
        # the strategy operators ranked as if each output qubit were removed
        ranks = [_rank(strategies.x, strategies.z, n, ~(1 << q)) for q in range(n)]
        tally = {klass: {} for klass in _CLASSES}

        def side(pattern: MeasurementPattern, face: int, output: int | None,
                 pairs: int, members: int) -> dict:
            """Leaf groups of one code's decoder: {(lambda_x, lambda_z):
            {(detected, lost): count}} over single-qubit attempt outcomes.

            ``face`` is every letter on the fused interface qubits.  The
            decoder completes a strategy toward ``output`` while one
            survives, then falls back to any X or Z logical.  Members may
            route through failed interfaces: the partner code shares the
            surviving parity there, and the final letter-vector
            intersection decides whether the routes actually match.
            Members are ranked as if the output qubit were removed.

            ``pairs`` (a bitset of strategy group ``output``, 0 for none)
            and ``members`` (of the coset members) are the ones that fit
            ``pattern`` and the interfaces' letters; each move narrows
            them with one AND each.
            """
            g = None if output is None else strategies.toward(output)
            rank = None if output is None else ranks[output]
            tables = None if output is None else strategies.admits[g]

            def step(pat: MeasurementPattern, state):
                """A move, or a ``Leaf`` whose targets are the bitset of
                the coset members the leaf's pattern reads out."""
                alive, salvage = state
                free = pat.unmeasured
                if alive:
                    if strategies.finished(g, alive, free):
                        return Leaf("success", pat,
                                    cosets.finished(0, salvage, free))
                    q, k = strategies.attempt(g, alive, free, rank)
                else:
                    done = cosets.finished(0, salvage, free)
                    move = None if done else cosets.attempt(0, salvage, free)
                    if move is None:
                        return Leaf("success" if done else "failure", pat, done)
                    q, k = move
                p, gone = q + k * n, q + lost
                return (q, BASES[k],
                        (alive and alive & tables[p], salvage & admits[p]),
                        (alive and alive & tables[gone], salvage & admits[gone]))

            groups: dict = {}
            for leaf, (a, b) in paths(grow(pattern, (pairs, members), step)):
                de = (sum(a), sum(b))
                lx, lz = set(), set()
                bits = leaf.targets
                while bits:
                    low = bits & -bits
                    bits ^= low
                    t = low.bit_length() - 1
                    (lx if is_x[t] else lz).add(masks[t] & face)
                poly = groups.setdefault((frozenset(lx), frozenset(lz)), {})
                poly[de] = poly.get(de, 0) + 1
            return groups

        def fold(groups: dict, fusions: tuple[int, int, int, int]):
            """Two independent copies of one side, classified by
            intersecting interface letter vectors: a parity is recovered
            when both sides realize a common vector.  Path counts are
            added to the tally as integers per class under the fusion
            counts ``fusions`` and the summed (detected, lost) pair.  The
            copies are alike, so the pair of groups (j, i) adds what
            (i, j) adds: each unordered pair is taken once, its products
            doubled when i != j.  Every key is first reached at a pair
            with i <= j, so the keys keep the order of taking every
            ordered pair."""
            sides = [(lx, lz, list(poly.items()))
                     for (lx, lz), poly in groups.items()]
            for i, (lx1, lz1, poly1) in enumerate(sides):
                for j in range(i, len(sides)):
                    lx2, lz2, poly2 = sides[j]
                    into = tally[_classify(not lx1.isdisjoint(lx2),
                                           not lz1.isdisjoint(lz2))]
                    times = 1 if i == j else 2
                    for (d1, e1), c1 in poly1:
                        c1 *= times
                        for (d2, e2), c2 in poly2:
                            key = fusions + (d1 + d2, e1 + e2)
                            into[key] = into.get(key, 0) + c1 * c2

        def walk(pattern: MeasurementPattern, face: int, candidates: list,
                 members: int, a: int, bx: int, bz: int, c: int):
            """Attempt fusions while strategies survive.  ``candidates``
            (a strategy state) and ``members`` (a coset bitset) hold the
            targets that fit every fused and lost qubit: a fused qubit
            admits its surviving parity's letter, and is no longer an
            output, a lost one admits none, so each child narrows its
            parent's with one AND a group.  They start each side decoder.
            ``face`` is every letter on the fused interface qubits.  The
            path so far had ``a`` fusion successes, ``bx`` and ``bz``
            failures in X and Z, and ``c`` losses."""
            if not any(candidates):
                fold(side(pattern, face, None, 0, members), (a, bx, bz, c))
                return
            q = strategies.busiest_output(candidates)
            fused = pattern.measure(q, "A")
            fused_face = face | spread(1 << q, n, "XYZ")
            # after a successful gate the interface admits every letter,
            # and the strategies toward q fit the side decoder's masks,
            # since q is their only A letter
            fold(side(fused, fused_face, q, candidates[strategies.toward(q)],
                      members), (a + 1, bx, bz, c))
            for kind, x, z in (("fx", 1, 0), ("fz", 0, 1)):
                k = BASES.index(_INTERFACE_LETTERS[kind])
                walk(fused, fused_face, strategies.narrow(candidates, q, k),
                     members & admits[q + k * n], a, bx + x, bz + z, c)
            walk(pattern.lose(q), face, strategies.narrow(candidates, q, LOST),
                 members & admits[q + lost], a, bx, bz, c + 1)

        walk(MeasurementPattern(n), 0, strategies.full(), cosets.full()[0],
             0, 0, 0, 0)
        # walk refers to itself, so the compile state it reaches would
        # otherwise wait for the cycle collector
        del walk
        self._tally = tally
        self._built = [None, None]

    def _model_columns(self, randomize_failures: bool) -> tuple:
        """One gate model's ``monomial_sums`` columns (``_columns``),
        built the first time they are asked for: a randomized failure
        keeps either parity with probability 1/2, so a term with b
        failures weighs 2^-b; a fixed basis weighs 1."""
        built = self._built[randomize_failures]
        if built is None:
            built = self._built[randomize_failures] = _columns(
                _model(self._tally, randomize_failures),
                int(randomize_failures), 5)
        return built

    def result(self, p_fail: float, eta,
               randomize_failures: bool = False) -> np.ndarray:
        """(success, fail, loss) at each transmission of ``eta``, a float or
        a 1-D array, for gates failing with ``p_fail`` in a fixed basis or,
        with ``randomize_failures``, in either: shape (points, 3)."""
        coef, exps, ends = self._model_columns(randomize_failures)
        etas = block(eta)
        bases = np.array(_gate_outcomes(p_fail, etas) + (etas, 1.0 - etas)).T
        return monomial_sums(coef, exps, bases, ends)


@per_code
def _adaptive_analysis(code: GraphCode) -> AdaptiveFusionAnalysis:
    return AdaptiveFusionAnalysis(code)


def logical_fusion(code: GraphCode, p_fail: float, eta, *,
                   adaptive: bool = True,
                   randomize_failures: bool = False) -> LogicalFusionResult:
    """Outcome probabilities of one logical fusion of ``code`` with itself.

    Every physical gate fails with ``p_fail`` and arrives with
    eta^(1/p_fail) (``_gate_outcomes``; ``p_fail`` = 0 is the
    deterministic-gate limit, which the network figures refuse).  ``eta``
    is one transmission or a 1-D array of them (a block of points): the
    result's fields are floats or arrays to match, and a point's value is
    the same either way.

    ``adaptive`` picks the engine: sequential output-qubit fusions plus
    per-code single-qubit decoding, or physical fusions on every code
    qubit pair.  With ``randomize_failures`` each failed gate keeps XX or
    ZZ with probability 1/2 per shot.  Otherwise the adaptive engine fails
    in Z and the transversal engine compiles each qubit's failure basis by
    maximum likelihood (``compile_failure_bases``), each point on its own;
    the points sharing a compilation are evaluated as one block.
    """
    etas = block(eta)
    if adaptive:
        sums = _adaptive_analysis(code).result(p_fail, etas,
                                             randomize_failures)
    elif randomize_failures:
        sums = _transversal_result(code, p_fail, etas, None)
    else:
        _gate_outcomes(p_fail, etas)  # a bad gate is refused before compiling
        compiled = [compile_failure_bases(code, p_fail, e)
                    for e in etas.tolist()]
        sums = np.empty((len(etas), 3))
        for bases in dict.fromkeys(compiled):
            pick = [i for i, b in enumerate(compiled) if b == bases]
            sums[pick] = _transversal_result(code, p_fail, etas[pick], bases)
    if np.ndim(eta) == 0:
        return LogicalFusionResult(*sums[0].tolist())
    return LogicalFusionResult(*sums.T)
