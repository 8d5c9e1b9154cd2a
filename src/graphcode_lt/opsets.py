"""Stabilizer groups and logical operators, the operators decoding works from.

For a code on n qubits the stabilizer group has 2^(n-1) elements and each
logical class is a coset of it.  Decoding works with the non-trivial coset
members: those that cannot be written as a smaller-weight operator times a
stabilizer of disjoint support, tested for a whole chunk of a class at a
time against every stabilizer's packed letter mask.  Both come back as
plain tuples of ``PauliOperator``s.
"""

from __future__ import annotations

import numpy as np

from .codes import GraphCode, per_code
from .pauli import PauliOperator

KINDS = ("LogicalX", "LogicalY", "LogicalZ", "AllLogical")

EXHAUSTIVE_LIMIT = 14
# bytes of one chunk's temporary in the non-triviality test
CHUNK_BYTES = 1 << 20


class ResourceLimitError(RuntimeError):
    """Raised when an exact enumeration would exceed its configured limit."""


def check_exhaustive(n: int) -> None:
    """Refuse an n-qubit code past ``EXHAUSTIVE_LIMIT``, before anything
    of size 2^(n-1) is built."""
    if n > EXHAUSTIVE_LIMIT:
        raise ResourceLimitError(
            f"exhaustive enumeration needs 2^{n - 1} products; "
            f"limit is n <= {EXHAUSTIVE_LIMIT}")


@per_code
def stabilizer_group(code: GraphCode) -> tuple[PauliOperator, ...]:
    """All 2^(n-1) stabilizer elements, exact phases included."""
    members = [PauliOperator(code.n)]
    for gen in code.stabilizer_generators:
        members += [s * gen for s in members]
    return tuple(members)


@per_code
def stabilizer_pool(code: GraphCode) -> tuple:
    """The non-identity stabilizers sorted by (weight, x, z), with their
    packed letter masks (``PauliOperator.masks``) as a uint64 array and
    their supports as an int64 array, both in that order."""
    ops = sorted((s for s in stabilizer_group(code) if s.x | s.z),
                 key=lambda s: (s.weight, s.x, s.z))
    return (tuple(ops), np.array([s.masks for s in ops], dtype=np.uint64),
            np.array([s.support for s in ops], dtype=np.int64))


def _nontrivial(ops: list, stabilizer_masks: np.ndarray) -> list:
    """The members of ``ops`` no non-identity stabilizer fits inside, in
    their given order.

    A stabilizer fits inside ``op`` when every one of its letters is one
    of ``op``'s (``pauli.fits`` on packed masks); then ``op`` is a
    smaller-weight operator times that stabilizer, of disjoint support.
    The test runs on chunks of ``ops`` against every stabilizer at once,
    each chunk's AND-and-compare temporary held to ``CHUNK_BYTES``; the
    survivors keep their order because the chunks are joined in order and
    ``flatnonzero`` returns indices in increasing order.
    """
    deny = ~np.array([op.masks for op in ops], dtype=np.uint64)[:, None]
    rows = max(1, CHUNK_BYTES // (8 * max(1, len(stabilizer_masks))))
    trivial = [((stabilizer_masks & deny[lo:lo + rows]) == 0).any(axis=1)
               for lo in range(0, len(ops), rows)]
    return [ops[i] for i in np.flatnonzero(~np.concatenate(trivial)).tolist()]


@per_code
def enumerate_nontrivial(code: GraphCode, kind: str) -> tuple[PauliOperator, ...]:
    """The non-trivial members of a logical class, sorted by (weight, x,
    z) so that heuristics taking "the first" member are reproducible.

    ``kind`` is LogicalX, LogicalY or LogicalZ; AllLogical is the union of
    the three.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind: {kind}")
    check_exhaustive(code.n)
    if kind == "AllLogical":
        ops = [op for sub in ("LogicalX", "LogicalY", "LogicalZ")
               for op in enumerate_nontrivial(code, sub)]
    else:
        rep = code.logical(kind[-1])
        ops = _nontrivial([rep * s for s in stabilizer_group(code)],
                          stabilizer_pool(code)[1])
    return tuple(sorted(set(ops), key=lambda o: (o.weight, o.x, o.z)))
