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
outcomes and keep their own walk.  Both engines report exact
(success, fail, loss) probabilities.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .codes import GraphCode, per_code
from .losstree import TargetSet, _rank, _strategies, _xz, grow, leaves
from .opsets import ResourceLimitError, stabilizer_group
from .pauli import BASIS_FUSION, MeasurementPattern, iter_bits

__all__ = [
    "FusionModel", "LogicalFusionResult",
    "transversal_fusion", "adaptive_fusion", "compile_failure_bases",
    "AdaptiveFusionAnalysis",
]

TRANSVERSAL_LIMIT = 12


class FusionModel:
    """Outcome probabilities of one physical fusion gate.

    A gate with failure probability ``p_fail`` = 2^-m consumes 1/p_fail
    photons per side, so the arrival factor is eta^(1/p_fail).  The
    derived outcome probabilities are s (success), f (failure, one
    parity survives) and l (loss, no outcome); they sum to one.

    ``p_fail`` = 0 is admitted as the limit of a deterministic gate:
    eta^(1/p_fail) tends to 0 for eta < 1 and is 1 at eta = 1.  The
    network figures of merit (``apps``, and ``search`` objectives) need
    a finite photon count per gate and refuse it.
    """

    __slots__ = ("p_fail", "eta", "s", "f", "l")

    def __init__(self, p_fail: float, eta: float):
        if not 0.0 <= p_fail <= 1.0:
            raise ValueError(f"p_fail must lie in [0, 1], got {p_fail}")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        if p_fail == 0.0:
            arrival = 1.0 if eta == 1.0 else 0.0
        else:
            arrival = eta ** (1.0 / p_fail)
        object.__setattr__(self, "p_fail", p_fail)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "s", arrival * (1.0 - p_fail))
        object.__setattr__(self, "f", arrival * p_fail)
        object.__setattr__(self, "l", 1.0 - arrival)

    def __setattr__(self, name, value):
        raise AttributeError("FusionModel is immutable")

    @classmethod
    def boosted(cls, m: int, eta: float) -> "FusionModel":
        """Boost level m: 2^m - 2 ancillary photons, p_fail = 2^-m."""
        if m < 1:
            raise ValueError(f"boost level must be >= 1, got {m}")
        return cls(2.0 ** -m, eta)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FusionModel)
                and (self.p_fail, self.eta) == (other.p_fail, other.eta))

    def __hash__(self) -> int:
        return hash((self.p_fail, self.eta))

    def __repr__(self) -> str:
        return f"FusionModel(p_fail={self.p_fail}, eta={self.eta})"


class LogicalFusionResult:
    """Exact outcome probabilities of one logical fusion.

    ``erasure_xx`` assumes the 50/50 failure-basis randomization used in
    fusion networks, under which a logical failure erases either parity
    with equal probability: erasure = p_loss + p_fail / 2.  The ZZ parity
    is erased with the same probability, so it has no field of its own.
    """

    __slots__ = ("p_success", "p_fail_logical", "p_loss_logical",
                 "erasure_xx")

    def __init__(self, p_success: float, p_fail_logical: float,
                 p_loss_logical: float):
        object.__setattr__(self, "p_success", p_success)
        object.__setattr__(self, "p_fail_logical", p_fail_logical)
        object.__setattr__(self, "p_loss_logical", p_loss_logical)
        object.__setattr__(self, "erasure_xx",
                           p_loss_logical + 0.5 * p_fail_logical)

    def __setattr__(self, name, value):
        raise AttributeError("LogicalFusionResult is immutable")

    def __repr__(self) -> str:
        return (f"LogicalFusionResult(success={self.p_success:.6f}, "
                f"fail={self.p_fail_logical:.6f}, "
                f"loss={self.p_loss_logical:.6f})")


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
def _transversal_counts(code: GraphCode, failure_bases: tuple | None,
                        limit: int = TRANSVERSAL_LIMIT) -> dict:
    """Integer multiplicities of outcome assignments by class.

    Keys are (n_success, n_fail_x, n_fail_z, class); the per-assignment
    probability depends only on those counts, so one enumeration serves
    every fusion model.  ``failure_bases=None`` enumerates both failure
    bases per qubit (the per-shot randomized mode), 4^n assignments;
    fixed bases give 3^n.

    Each assignment is exactly one (ox, oz) pair, as the module docstring
    defines it: success sets both of a qubit's bits, failure its basis
    bit, loss neither.  So the class of every assignment is one lookup in
    the code's recovery table (``_recovery_table``, built once per code
    and shared by every basis tuple), and the counts are a numpy tally
    of (n_success, n_fail_x, n_fail_z, table entry).  No caller in the
    package passes a ``limit`` other than ``TRANSVERSAL_LIMIT``.
    """
    n = code.n
    if n > limit:
        raise ResourceLimitError(
            f"transversal enumeration needs 3^{n} assignments; "
            f"limit is n <= {limit}")
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


def _transversal_result(code: GraphCode, fm: FusionModel,
                        failure_bases: tuple | None) -> LogicalFusionResult:
    counts = _transversal_counts(code, failure_bases)
    n = code.n
    split = failure_bases is None
    sums = {"success": [], "fail": [], "loss": []}
    for (ns, nfx, nfz, klass), mult in counts.items():
        nf = nfx + nfz
        p = fm.s ** ns * fm.f ** nf * fm.l ** (n - ns - nf)
        if split:
            p *= 0.5 ** nf
        sums[klass].append(mult * p)
    return LogicalFusionResult(math.fsum(sums["success"]),
                               math.fsum(sums["fail"]),
                               math.fsum(sums["loss"]))


@per_code
def compile_failure_bases(code: GraphCode, fm: FusionModel) -> tuple[str, ...]:
    """Per-qubit failure basis maximizing transversal fusion success.

    Coordinate ascent over {X, Z} per qubit, each candidate evaluated by
    full enumeration at the given fusion model; ties keep Z.
    """
    bases = ["Z"] * code.n
    for _ in range(code.n + 1):
        changed = False
        for i in range(code.n):
            best = _transversal_result(code, fm, tuple(bases)).p_success
            flipped = bases.copy()
            flipped[i] = "X" if bases[i] == "Z" else "Z"
            trial = _transversal_result(code, fm, tuple(flipped)).p_success
            if trial > best + 1e-15:
                bases = flipped
                changed = True
        if not changed:
            break
    return tuple(bases)


def transversal_fusion(code: GraphCode, fm: FusionModel, *,
                       failure_bases: tuple | None = None,
                       randomize_failures: bool = False) -> LogicalFusionResult:
    """Logical fusion via physical fusions on every code qubit pair.

    With ``randomize_failures`` each failed gate keeps XX or ZZ with
    probability 1/2 per shot; otherwise the failure basis is the given
    per-qubit choice, compiled by maximum likelihood when omitted.
    """
    if randomize_failures:
        return _transversal_result(code, fm, None)
    if failure_bases is None:
        failure_bases = compile_failure_bases(code, fm)
    if len(failure_bases) != code.n:
        raise ValueError("need one failure basis per code qubit")
    return _transversal_result(code, fm, tuple(failure_bases))


# -- adaptive engine ---------------------------------------------------------------


# the letters (0: X, 1: Y, 2: Z) a fused interface admits, by gate outcome
_INTERFACE_LETTERS = {"s": (0, 1, 2), "fx": (0,), "fz": (2,)}


def _interface_letters(interfaces: tuple, n: int) -> int:
    """Packed letter mask (``MeasurementPattern.allowed``) of the letters
    the fused interfaces make recoverable, to be joined to the pattern's
    own: any Pauli letter after a successful gate, and only the surviving
    parity's letter after a failed one (the partner code must match
    there, which the caller checks by intersecting letter vectors).
    """
    letters = 0
    for q, kind in interfaces:
        for letter in _INTERFACE_LETTERS[kind]:
            letters |= 1 << q + letter * n
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
    every fusion model.  Only those terms are kept: the logical cosets
    and the per-side decoders are freed once compiled.

    The walk and the side decoders keep their live strategies and coset
    members as index arrays into two per-code ``TargetSet``s, the
    strategies (``losstree._strategies``) and the X and Z logical cosets
    (``_cosets``), and narrow, count and rank them with its numpy
    kernels.  A leaf's interface letter vectors are packed ints, each
    member's x | z << n bits on the interface qubits, gathered from one
    array per side decoder; one vector is one int, so the sets intersect
    exactly as the letter vectors do.

    The terms are also kept in column form, so ``result`` evaluates them
    as numpy gathers instead of a Python loop: one float64 coefficient
    per term and the term's exponents of (s, f, l, eta, 1 - eta) as a
    5 x T index into one table of powers.  The table is built per call
    with Python's ``x ** k`` (C ``pow``), as the term-by-term product
    did; numpy's float ``power`` is not the same function and differs in
    the last bit on some inputs (``0.8783044878038287 ** 15``).  Each
    term is multiplied in the same left-to-right order and each class
    summed with ``math.fsum``, so every result is bit for bit that of
    the term-by-term product.
    """

    __slots__ = ("code", "randomize", "_terms", "_coef", "_index", "_width",
                 "_ends")

    def __init__(self, code: GraphCode, randomize_failures: bool = False):
        self.code = code
        self.randomize = randomize_failures
        n = code.n
        strategies = _strategies(code)
        cosets, is_x = _cosets(code)
        every = np.arange(len(cosets))
        # the strategy operators ranked as if each output qubit were removed
        ranks = [_rank(strategies.x, strategies.z, n, ~(1 << q)) for q in range(n)]
        terms = {klass: {} for klass in _CLASSES}
        side_memo: dict = {}

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
            key = (pattern, interfaces, output)
            if key in side_memo:
                return side_memo[key]
            rank = None if output is None else ranks[output]
            letters = _interface_letters(interfaces, n)

            def step(pat: MeasurementPattern, state):
                alive, salvage = state
                allowed = pat.allowed(True) | letters
                done = pat.allowed(False) | letters
                alive = strategies.narrow(alive, allowed)
                if alive.size:
                    if strategies.narrow(alive, done).size:
                        return pat
                    # each strategy's operators, in order; attempt ranks
                    # a repeated operator as its first occurrence
                    q, b = strategies.attempt(strategies.pair[alive].ravel(),
                                              pat, rank)
                    return q, b, (alive, salvage), (alive, salvage)
                salvage = cosets.narrow(salvage, allowed)
                if cosets.narrow(salvage, done).size:
                    return pat
                move = cosets.attempt(salvage, pat)
                return (pat if move is None
                        else move + ((alive, salvage), (alive, salvage)))

            # the masks only shrink below the root, so every leaf's logicals
            # are among those that fit there; each keeps its letters on the
            # interface qubits packed as one int, x | z << n
            start = cosets.narrow(every, pattern.allowed(True) | letters)
            parts = (start[is_x[start]], start[~is_x[start]])
            face = sum(1 << q for q, _ in interfaces)
            vec = cosets.x & face | (cosets.z & face) << n
            groups: dict = {}
            tree = grow(pattern, (pairs, start), step)
            for pat in leaves(tree):
                masks = pat.allowed(False) | letters
                sig = tuple(frozenset(vec[cosets.narrow(part, masks)].tolist())
                            for part in parts)
                attempted = pattern.unmeasured & ~pat.unmeasured
                lost = (attempted & pat.lost).bit_count()
                de = (attempted.bit_count() - lost, lost)
                poly = groups.setdefault(sig, {})
                poly[de] = poly.get(de, 0) + 1
            side_memo[key] = groups
            return groups

        def fold(groups: dict, fusions: tuple[int, int, int], mult: Fraction):
            """Two independent copies of one side, classified by
            intersecting interface letter vectors: a parity is recovered
            when both sides realize a common vector.  Counts are summed as
            integers per class and (detected, lost) pair, then weighted by
            ``mult`` once per term."""
            tallies = {klass: {} for klass in terms}
            for (lx1, lz1), poly1 in groups.items():
                for (lx2, lz2), poly2 in groups.items():
                    tally = tallies[_classify(bool(lx1 & lx2),
                                              bool(lz1 & lz2))]
                    for (d1, e1), c1 in poly1.items():
                        for (d2, e2), c2 in poly2.items():
                            de = (d1 + d2, e1 + e2)
                            tally[de] = tally.get(de, 0) + c1 * c2
            for klass, tally in tallies.items():
                out = terms[klass]
                for de, count in tally.items():
                    key = fusions + de
                    out[key] = out.get(key, 0) + mult * count

        def walk(pattern: MeasurementPattern, interfaces: tuple, candidates,
                 a: int, b: int, c: int, mult: Fraction):
            """Attempt fusions while strategies survive.  ``candidates``
            are the parent node's survivors: along a walk the allowed
            letters only shrink (a fused qubit leaves the A letters and
            keeps at most its parity's letter; a lost one keeps none), so
            narrowing them gives the same list, in the same order, as
            narrowing every strategy."""
            # a candidate output must still be unmeasured, so only
            # unmeasured qubits admit the A letter here
            allowed = ((pattern.allowed(True) | _interface_letters(interfaces, n))
                       & ~(pattern.mother << 3 * n))
            candidates = strategies.narrow(candidates, allowed)
            if not candidates.size:
                fold(side(pattern, interfaces, None, candidates), (a, b, c), mult)
                return
            q = strategies.busiest_output(candidates)
            fused = pattern.measure(q, BASIS_FUSION)
            # a strategy toward q that fits the side decoder's masks fits
            # the walk's too, since q is its only A letter
            fold(side(fused, interfaces + ((q, "s"),), q,
                      candidates[strategies.output[candidates] == q]),
                 (a + 1, b, c), mult)
            kinds = ("fx", "fz") if randomize_failures else ("fz",)
            for kind in kinds:
                walk(fused, interfaces + ((q, kind),), candidates,
                     a, b + 1, c, mult / len(kinds))
            walk(pattern.lose(q), interfaces, candidates, a, b, c + 1, mult)

        walk(MeasurementPattern(n), (), np.arange(len(strategies)),
             0, 0, 0, Fraction(1))
        # walk refers to itself, so the compile state it reaches would
        # otherwise wait for the cycle collector
        del walk
        self._terms = terms
        # the column form result() evaluates: success, fail and loss terms
        # one after another, the classes ending at _ends; float(mult) is
        # exact, since every mult is an integer count over a power of two
        self._coef = np.array([float(m) for klass in _CLASSES
                               for m in terms[klass].values()])
        keys = [k for klass in _CLASSES for k in terms[klass]]
        # row i indexes the powers of base i within one flat table
        self._width = max(map(max, keys), default=0) + 1
        self._index = np.array([[self._width * i + k[i] for k in keys]
                                for i in range(5)], dtype=np.intp)
        self._ends = (len(terms["success"]),
                      len(terms["success"]) + len(terms["fail"]))

    def result(self, fm: FusionModel) -> LogicalFusionResult:
        eta = fm.eta
        powers = np.array([x ** k for x in (fm.s, fm.f, fm.l, eta, 1.0 - eta)
                           for k in range(self._width)])
        s, f, l, d, e = powers[self._index]
        parts = (self._coef * s * f * l * d * e).tolist()
        i, j = self._ends
        return LogicalFusionResult(math.fsum(parts[:i]), math.fsum(parts[i:j]),
                                   math.fsum(parts[j:]))


@per_code
def _adaptive_analysis(code: GraphCode,
                       randomize: bool) -> AdaptiveFusionAnalysis:
    return AdaptiveFusionAnalysis(code, randomize)


def adaptive_fusion(code: GraphCode, fm: FusionModel, *,
                    randomize_failures: bool = False) -> LogicalFusionResult:
    """Logical fusion via sequential output-qubit fusions plus per-code
    single-qubit decoding."""
    return _adaptive_analysis(code, randomize_failures).result(fm)
