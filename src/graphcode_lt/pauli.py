"""Exact symplectic Pauli algebra over n qubits.

Operators are stored as ``i^phase * X^x Z^z`` with ``x``/``z`` packed into
Python ints (one bit per qubit), so commutation and multiplication are a
handful of bitwise ops regardless of n.  Phases are tracked exactly mod 4.

This module alone knows the packed letter layout.  A measurement basis is
one letter of ``BASES``; a packed letter mask has one bit per letter and
qubit, letter k of ``BASES`` on qubit q at bit q + k*n, so whether an
operator's letters are recoverable from a pattern is one AND (``fits``).
``packed`` turns x and z masks into such a mask and ``spread`` sets given
letters on given qubits; both take Python ints or numpy uint64 arrays.
"""

from __future__ import annotations

from collections import namedtuple

# the measurement bases, in the order of their letters in a packed mask:
# the three Pauli bases and A, an arbitrary (rotated) basis
BASES = ("X", "Y", "Z", "A")
_INDEX = {basis: k for k, basis in enumerate(BASES)}

# single-qubit letters in (x, z) form
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}

_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_STR_PHASE = {v: k for k, v in _PHASE_STR.items()}


class DimensionError(ValueError):
    """Raised when operators or patterns of different lengths are combined."""


class PauliOperator(namedtuple("PauliOperator", "n x z phase")):
    """An n-qubit Pauli operator i^phase * X^x Z^z.

    Immutable.  ``x`` and ``z`` are bit masks; bit i of ``x`` (``z``) is the
    X (Z) component on qubit i.  A qubit with both bits set carries the
    letter Y, which in this normal form contributes i^1 (Y = i X Z).
    """

    __slots__ = ()

    def __new__(cls, n: int, x: int = 0, z: int = 0, phase: int = 0):
        mask = (1 << n) - 1
        return tuple.__new__(cls, (n, x & mask, z & mask, phase & 3))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_letters(cls, letters: str, sign: str = "+") -> "PauliOperator":
        """Build from a letter string such as ``"XIZY"`` (qubit 0 first)."""
        x = z = phase = 0
        for i, ch in enumerate(letters):
            xb, zb = _LETTER_BITS[ch]
            x |= xb << i
            z |= zb << i
            if ch == "Y":
                phase += 1
        return cls(len(letters), x, z, phase + _STR_PHASE[sign])

    # -- algebra --------------------------------------------------------

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise DimensionError(f"operator lengths differ: {self.n} vs {other.n}")
        # X^x1 Z^z1 X^x2 Z^z2 = (-1)^{|z1 & x2|} X^(x1^x2) Z^(z1^z2)
        sign = 2 * ((self.z & other.x).bit_count() & 1)
        return PauliOperator(
            self.n,
            self.x ^ other.x,
            self.z ^ other.z,
            self.phase + other.phase + sign,
        )

    def commutes(self, other: "PauliOperator") -> bool:
        if self.n != other.n:
            raise DimensionError(f"operator lengths differ: {self.n} vs {other.n}")
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    # -- inspection ------------------------------------------------------

    @property
    def support(self) -> int:
        return self.x | self.z

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def masks(self) -> int:
        """Packed letter mask (``packed``); a Pauli operator has no A
        letter, so the top n bits are clear."""
        return packed(self.x, self.z, self.n)

    def letter_at(self, qubit: int) -> str:
        return _BITS_LETTER[((self.x >> qubit) & 1, (self.z >> qubit) & 1)]

    def letters(self) -> str:
        return "".join(self.letter_at(i) for i in range(self.n))

    @property
    def sign(self) -> str:
        """Displayed phase once Y letters absorb their i factors."""
        n_y = (self.x & self.z).bit_count()
        return _PHASE_STR[(self.phase - n_y) & 3]

    def to_string(self) -> str:
        return self.sign + self.letters()

    def __repr__(self) -> str:
        return f"PauliOperator({self.to_string()!r})"


class MeasurementPattern(namedtuple("MeasurementPattern",
                                    "n letters unmeasured")):
    """Per-qubit status: unmeasured, measured in some basis, or lost.

    A basis is one letter of ``BASES``: ``"X"``, ``"Y"``, ``"Z"`` or
    ``"A"``, an arbitrary basis A(theta) = X cos(theta) + Y sin(theta)
    recorded without its angle, which never enters loss analysis.  A
    fusion is recorded as A.  Losses follow the convention that a Pauli
    letter commutes qubit-wise with a lost qubit only if it is the
    identity there.  Qubits measured in basis A likewise admit no Pauli
    letter.

    Stored as two masks: ``letters``, the packed letter mask of each
    measured qubit's basis, and ``unmeasured``, one bit per qubit.  A
    qubit in neither is lost.
    """

    __slots__ = ()

    def __new__(cls, n: int, letters: int = 0, unmeasured: int | None = None):
        return tuple.__new__(cls, (n, letters,
                                   (1 << n) - 1 if unmeasured is None else unmeasured))

    def allowed(self) -> int:
        """Packed mask of the letters still recoverable per qubit: a
        measured qubit admits the letter of its basis, a lost one admits
        none, and an unmeasured one admits every letter.  The letters
        already recovered are the field ``letters``."""
        return self.letters | spread(self.unmeasured, self.n, BASES)

    def _unmeasured_bit(self, qubit: int) -> int:
        bit = 1 << qubit
        if not self.unmeasured & bit:
            raise ValueError(f"qubit {qubit} is not unmeasured")
        return bit

    def measure(self, qubit: int, basis: str) -> "MeasurementPattern":
        k = _INDEX.get(basis)
        if k is None:
            raise ValueError(f"unknown basis: {basis!r}")
        bit = self._unmeasured_bit(qubit)
        # every field is given, so __new__ and its default are skipped
        return tuple.__new__(MeasurementPattern, (
            self.n, self.letters | bit << k * self.n, self.unmeasured ^ bit))

    def lose(self, qubit: int) -> "MeasurementPattern":
        return tuple.__new__(MeasurementPattern, (
            self.n, self.letters, self.unmeasured ^ self._unmeasured_bit(qubit)))

    def status(self, qubit: int) -> str:
        """The basis letter a qubit was measured in, "lost" or "unmeasured"."""
        if self.unmeasured >> qubit & 1:
            return "unmeasured"
        # the qubit's one letter, at bit qubit + k*n for basis k
        hit = self.letters & spread(1 << qubit, self.n, BASES)
        return BASES[(hit.bit_length() - 1) // self.n] if hit else "lost"

    def chars(self) -> str:
        """One status letter per qubit: basis letter, '.' unmeasured, '_' lost."""
        marks = {"unmeasured": ".", "lost": "_"}
        return "".join(marks.get(st, st) for st in map(self.status, range(self.n)))

    def __repr__(self) -> str:
        return f"MeasurementPattern({self.chars()!r})"


def packed(x, z, n: int):
    """The packed letter mask of the Pauli letters that x and z masks
    write: X where only x is set, Y where both are, Z where only z is.
    ``x`` and ``z`` are both Python ints or both numpy uint64 arrays (one
    mask per element, 3n <= 64)."""
    return x & ~z | (x & z) << n | (z & ~x) << 2 * n


def spread(qubits, n: int, letters):
    """The packed letter mask with each of ``letters`` (letters of
    ``BASES``) set on every qubit of the mask ``qubits``: a Python int,
    or a numpy uint64 array of masks when 4n <= 64.

    The mask's copies, one per letter k at shift k*n, never overlap, as
    ``qubits`` < 2^n, so their union is one multiplication by the sum of
    the shifts: ``spread(qubits, n, letters) == qubits * spread(1, n,
    letters)``, and a caller that spreads many masks over one n and one
    set of letters may keep that sum."""
    weight = 0
    for letter in letters:
        weight |= 1 << _INDEX[letter] * n
    return qubits * weight


def fits(need: int, allowed: int) -> bool:
    """True when every letter in ``need`` sits on a qubit that ``allowed``
    admits for that letter.  Both are packed letter masks of one length n,
    as from ``PauliOperator.masks`` and ``MeasurementPattern.allowed``, so
    one AND tests every letter at once."""
    return not need & ~allowed


def commutes_qubitwise(op: PauliOperator, m: MeasurementPattern,
                       completed: bool = True) -> bool:
    """Qubit-wise commutation of a Pauli operator with a pattern.

    Every non-identity letter must sit on a qubit measured in exactly that
    Pauli basis.  Lost qubits admit only identity.  With ``completed=False``
    (prospective mode, for strategies still being assembled) unmeasured
    qubits are wildcards; with ``completed=True`` they also require identity.
    """
    if op.n != m.n:
        raise DimensionError(f"lengths differ: {op.n} vs {m.n}")
    return fits(op.masks, m.letters if completed else m.allowed())


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PauliSpan:
    """Incremental GF(2) span of Pauli operators, phases ignored.

    Each operator maps to the 2n-bit vector x | z << n; rows are kept in
    echelon form so an insertion, which reports whether the operator was
    independent of the span, is a linear scan.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, ops=()):
        self.n = n
        self.rows: list[int] = []
        for op in ops:
            self.add(op)

    def _reduce(self, vec: int) -> int:
        for row in self.rows:
            high = 1 << (row.bit_length() - 1)
            if vec & high:
                vec ^= row
        return vec

    def _add_vec(self, vec: int) -> bool:
        vec = self._reduce(vec)
        if vec == 0:
            return False
        self.rows.append(vec)
        self.rows.sort(key=int.bit_length, reverse=True)
        return True

    def add(self, op: PauliOperator) -> bool:
        """Insert; True if the operator was independent of the span."""
        if op.n != self.n:
            raise DimensionError(f"lengths differ: {op.n} vs {self.n}")
        return self._add_vec(op.x | op.z << self.n)

    def copy(self) -> "PauliSpan":
        dup = PauliSpan(self.n)
        dup.rows = list(self.rows)
        return dup

