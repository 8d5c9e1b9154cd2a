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
outcomes and keep their own walk.  The walk and the fold tally plain
integer path counts; a term's exact weight, 2^-b for b randomized gate
failures, is applied once when the terms are assembled.  Both engines
report (success, fail, loss) probabilities, each a sum of monomials in
the gate outcomes evaluated by ``polynomials.monomial_sums`` within
1e-12 of its exact value, at one transmission or at a block of them.
``logical_fusion`` is the one entry point to both: it takes the gate's
failure probability and transmission as two floats (or a block of
transmissions) and picks the engine and failure mode by keyword.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .codes import GraphCode, per_code
from .losstree import Leaf, TargetSet, _rank, _strategies, _xz, grow, paths
from .opsets import ResourceLimitError, stabilizer_group
from .pauli import MeasurementPattern, iter_bits, spread
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
    (n_fail_x, n_fail_z) split of one n_fail are added.  Under randomized
    failure bases a term weighs 2^-n_fail, exact in a float.
    """
    n = code.n
    half = 1 if failure_bases is None else 0
    merged = {klass: {} for klass in _CLASSES}
    for (ns, nfx, nfz, klass), mult in _transversal_counts(
            code, failure_bases).items():
        key = (ns, nfx + nfz, n - ns - nfx - nfz)
        merged[klass][key] = merged[klass].get(key, 0) + mult
    coef, exps = columns(((key, Fraction(mult, 1 << half * key[1]))
                          for klass in _CLASSES
                          for key, mult in merged[klass].items()), 3)
    ends = tuple(accumulate(len(merged[klass]) for klass in _CLASSES))
    return coef, exps, ends


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


# the letters a fused interface admits, by gate outcome
_INTERFACE_LETTERS = {"s": "XYZ", "fx": "X", "fz": "Z"}


def _interface_letters(interfaces: tuple, n: int) -> int:
    """Packed letter mask (``MeasurementPattern.allowed``) of the letters
    the fused interfaces make recoverable, to be joined to the pattern's
    own: any Pauli letter after a successful gate, and only the surviving
    parity's letter after a failed one (the partner code must match
    there, which the caller checks by intersecting letter vectors).
    """
    letters = 0
    for q, kind in interfaces:
        letters |= spread(1 << q, n, _INTERFACE_LETTERS[kind])
    return letters


def _cosets(code: GraphCode) -> tuple[TargetSet, np.ndarray]:
    """The X and Z logical cosets as one set of single-operator targets,
    sorted by (weight, x, z) across both, and a mask of its X members."""
    group = stabilizer_group(code)
    x, z = _xz([logical * s for logical in (code.logical_x, code.logical_z)
                for s in group])
    order = np.argsort(_rank(x, z, code.n))
    return TargetSet(code.n, x[order], z[order]), order < len(group)


class AdaptiveFusionAnalysis:
    """Compiled adaptive logical-fusion process for one code.

    Fusions are attempted on candidate output qubits while teleportation
    strategies survive; the first success pins the output and each side
    independently completes a strategy toward it.  Exhausted attempts
    fall back to single-operator salvage.  Terminal states carry exact
    probability monomials in (s, f, l, eta), so one compilation serves
    every gate (p_fail, eta).  Only those terms are kept: the logical cosets
    and the per-side decoders are freed once compiled.

    The walk and the side decoders keep their live strategies and coset
    members as index arrays into two per-code ``TargetSet``s, the
    strategies (``losstree._strategies``) and the X and Z logical cosets
    (``_cosets``), and narrow, count and rank them with its kernels.
    Each side decoder's leaf carries the coset members that fit its final
    masks, as the decoder's last step narrowed them; the masks only shrink
    below the root, so no member dropped on the way could fit there.  The
    side decoder's tree is read back with ``losstree.paths``, whose key
    gives each leaf's detected and lost attempt counts.  A
    leaf's interface letter vectors are packed ints, each member's packed
    letter mask on the interface qubits; one vector is one int, so the
    sets intersect exactly as the letter vectors do.

    The walk and the fold count paths as integers per outcome class and
    term (fusion successes, failures and losses, then single-qubit
    detections and losses).  Under ``randomize_failures`` each failed
    gate keeps either parity with probability 1/2, so a term with b
    failures weighs exactly 2^-b, applied once per term as
    ``Fraction(count, 2**b)``; with a fixed failure basis every weight
    is 1.

    The terms are also kept in column form for ``result``: one float64
    coefficient per term, exact since every weight is an integer count
    over a power of two, and the term's exponents of (s, f, l, eta,
    1 - eta) as a 5 x T array, the success, fail and loss terms one after
    another.  ``result`` evaluates them at a block of transmissions with
    ``polynomials.monomial_sums``, each class within 1e-12 of the exact
    sum of its terms.
    """

    __slots__ = ("_terms", "_coef", "_exps", "_ends")

    def __init__(self, code: GraphCode, randomize_failures: bool = False):
        n = code.n
        strategies = _strategies(code)
        cosets, is_x = _cosets(code)
        every = np.arange(len(cosets))
        needs, is_x = cosets.needs, is_x.tolist()
        # the strategy operators ranked as if each output qubit were removed
        ranks = [_rank(strategies.x, strategies.z, n, ~(1 << q)) for q in range(n)]
        # integer path counts per class; each term's weight is applied once,
        # when the walk is done
        counts = {klass: {} for klass in _CLASSES}

        def side(pattern: MeasurementPattern, interfaces: tuple,
                 output: int | None, pairs: np.ndarray) -> dict:
            """Leaf groups of one code's decoder: {(lambda_x, lambda_z):
            {(detected, lost): count}} over single-qubit attempt outcomes.

            The decoder completes a strategy toward ``output`` while one
            survives, then falls back to any X or Z logical.  Members may
            route through failed interfaces: the partner code shares the
            surviving parity there, and the final letter-vector
            intersection decides whether the routes actually match.
            Members are ranked as if the output qubit were removed.

            ``pairs`` (strategy indices) must hold every strategy toward
            ``output`` that fits the decoder's starting masks (extra ones
            are narrowed away).
            """
            rank = None if output is None else ranks[output]
            letters = _interface_letters(interfaces, n)

            def step(pat: MeasurementPattern, state):
                """A move, or a ``Leaf`` whose targets are the coset
                members that fit the leaf's final masks.  The masks only
                shrink below the root, so a member dropped on the path
                fails them too, and narrowing ``salvage`` finds them all."""
                alive, salvage = state
                allowed = pat.allowed(True) | letters
                done = pat.allowed(False) | letters
                alive = strategies.narrow(alive, allowed)
                if alive.size:
                    if strategies.narrow(alive, done).size:
                        return Leaf("success", pat, cosets.narrow(salvage, done))
                    # each strategy's operators, in order; attempt ranks
                    # a repeated operator as its first occurrence
                    q, b = strategies.attempt(strategies.pair[alive].ravel(),
                                              pat, rank)
                    return q, b, (alive, salvage), (alive, salvage)
                salvage = cosets.narrow(salvage, allowed)
                members = cosets.narrow(salvage, done)
                move = None if members.size else cosets.attempt(salvage, pat)
                if move is None:
                    return Leaf("success" if members.size else "failure", pat,
                                members)
                return move + ((alive, salvage), (alive, salvage))

            # each member keeps its packed letters on the interface qubits
            face = spread(sum(1 << q for q, _ in interfaces), n, "XYZ")
            groups: dict = {}
            start = cosets.narrow(every, pattern.allowed(True) | letters)
            for leaf, (a, b) in paths(grow(pattern, (pairs, start), step)):
                lx, lz = set(), set()
                for t in leaf.targets.tolist():
                    (lx if is_x[t] else lz).add(needs[t] & face)
                de = (sum(a), sum(b))
                poly = groups.setdefault((frozenset(lx), frozenset(lz)), {})
                poly[de] = poly.get(de, 0) + 1
            return groups

        def fold(groups: dict, fusions: tuple[int, int, int]):
            """Two independent copies of one side, classified by
            intersecting interface letter vectors: a parity is recovered
            when both sides realize a common vector.  Path counts are
            summed as integers per class and term."""
            for (lx1, lz1), poly1 in groups.items():
                for (lx2, lz2), poly2 in groups.items():
                    tally = counts[_classify(bool(lx1 & lx2), bool(lz1 & lz2))]
                    for (d1, e1), c1 in poly1.items():
                        for (d2, e2), c2 in poly2.items():
                            key = fusions + (d1 + d2, e1 + e2)
                            tally[key] = tally.get(key, 0) + c1 * c2

        def walk(pattern: MeasurementPattern, interfaces: tuple, candidates,
                 a: int, b: int, c: int):
            """Attempt fusions while strategies survive.  ``candidates``
            are the parent node's survivors: along a walk the allowed
            letters only shrink (a fused qubit leaves the A letters and
            keeps at most its parity's letter; a lost one keeps none), so
            narrowing them gives the same list, in the same order, as
            narrowing every strategy."""
            # a candidate output must still be unmeasured, so only
            # unmeasured qubits admit the A letter here
            settled = ((1 << n) - 1) ^ pattern.unmeasured
            allowed = ((pattern.allowed(True) | _interface_letters(interfaces, n))
                       & ~spread(settled, n, "A"))
            candidates = strategies.narrow(candidates, allowed)
            if not candidates.size:
                fold(side(pattern, interfaces, None, candidates), (a, b, c))
                return
            q = strategies.busiest_output(candidates)
            fused = pattern.measure(q, "A")
            # a strategy toward q that fits the side decoder's masks fits
            # the walk's too, since q is its only A letter
            fold(side(fused, interfaces + ((q, "s"),), q,
                      candidates[strategies.output[candidates] == q]),
                 (a + 1, b, c))
            for kind in ("fx", "fz") if randomize_failures else ("fz",):
                walk(fused, interfaces + ((q, kind),), candidates, a, b + 1, c)
            walk(pattern.lose(q), interfaces, candidates, a, b, c + 1)

        walk(MeasurementPattern(n), (), np.arange(len(strategies)), 0, 0, 0)
        # walk refers to itself, so the compile state it reaches would
        # otherwise wait for the cycle collector
        del walk
        # a randomized failure keeps either parity with probability 1/2, so
        # a term with b failures weighs 2^-b; a fixed basis weighs 1
        half = 1 if randomize_failures else 0
        terms = {klass: {key: Fraction(count, 1 << half * key[1])
                         for key, count in tally.items()}
                 for klass, tally in counts.items()}
        self._terms = terms
        self._coef, self._exps = columns(
            (item for klass in _CLASSES for item in terms[klass].items()), 5)
        self._ends = tuple(accumulate(len(terms[klass]) for klass in _CLASSES))

    def result(self, p_fail: float, eta) -> np.ndarray:
        """(success, fail, loss) at each transmission of ``eta``, a float or
        a 1-D array, for gates failing with ``p_fail``: shape (points, 3)."""
        etas = block(eta)
        bases = np.array(_gate_outcomes(p_fail, etas) + (etas, 1.0 - etas)).T
        return monomial_sums(self._coef, self._exps, bases, self._ends)


@per_code
def _adaptive_analysis(code: GraphCode,
                       randomize: bool) -> AdaptiveFusionAnalysis:
    return AdaptiveFusionAnalysis(code, randomize)


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
        sums = _adaptive_analysis(code, randomize_failures).result(p_fail, etas)
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
