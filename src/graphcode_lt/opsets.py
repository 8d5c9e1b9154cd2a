"""Stabilizer and logical operator sets, the operators decoding works from.

For a code on n qubits the stabilizer group has 2^(n-1) elements and each
logical class is a coset of it.  Decoding works with the non-trivial coset
members: those that cannot be written as a smaller-weight operator times a
stabilizer of disjoint support.
"""

from __future__ import annotations

import json

from .codes import GraphCode, per_code
from .pauli import PauliOperator, fits

KINDS = ("Stabilizers", "LogicalX", "LogicalY", "LogicalZ", "AllLogical")

EXHAUSTIVE_LIMIT = 14


class ResourceLimitError(RuntimeError):
    """Raised when an exact enumeration would exceed its configured limit."""


class OperatorSet:
    """An immutable, deterministically ordered set of Pauli operators.

    Operators are sorted by (weight, x bits, z bits) so downstream
    heuristics that take "the first" member are reproducible.
    """

    __slots__ = ("kind", "operators", "code")

    def __init__(self, kind: str, operators, code: GraphCode):
        if kind not in KINDS:
            raise ValueError(f"unknown kind: {kind}")
        ops = tuple(sorted(set(operators), key=lambda o: (o.weight, o.x, o.z)))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "code", code)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorSet is immutable")

    def __iter__(self):
        return iter(self.operators)

    def __len__(self) -> int:
        return len(self.operators)

    def __contains__(self, op) -> bool:
        return op in self.operators

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OperatorSet)
            and self.kind == other.kind
            and self.operators == other.operators
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.operators))

    def __repr__(self) -> str:
        return f"OperatorSet({self.kind}, {len(self.operators)} ops)"

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "operators": [op.to_string() for op in self.operators],
        })


@per_code
def stabilizer_group(code: GraphCode) -> tuple[PauliOperator, ...]:
    """All 2^(n-1) stabilizer elements, exact phases included."""
    members = [PauliOperator.identity(code.n)]
    for gen in code.stabilizer_generators:
        members += [s * gen for s in members]
    return tuple(members)


def _nontrivial(masks: tuple, stabilizer_masks: list) -> bool:
    for s in stabilizer_masks:
        if fits(s, masks):
            return False
    return True


def _logical_class(code: GraphCode, which: str) -> list[PauliOperator]:
    rep = code.logical(which)
    return [rep * s for s in stabilizer_group(code)]


@per_code
def enumerate_nontrivial(code: GraphCode, kind: str,
                         limit: int = EXHAUSTIVE_LIMIT) -> OperatorSet:
    """Exhaustive operator set of the given kind.

    Stabilizers come back whole (the group); logical kinds are reduced to
    their non-trivial members.  AllLogical is the union over X, Y, Z.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind: {kind}")
    if code.n > limit:
        raise ResourceLimitError(
            f"exhaustive enumeration needs 2^{code.n - 1} products; "
            f"limit is n <= {limit}")
    if kind == "Stabilizers":
        return OperatorSet(kind, stabilizer_group(code), code)
    if kind == "AllLogical":
        ops = []
        for sub in ("LogicalX", "LogicalY", "LogicalZ"):
            ops.extend(enumerate_nontrivial(code, sub, limit).operators)
        return OperatorSet(kind, ops, code)
    which = kind[-1]
    stabilizer_masks = [s.masks for s in stabilizer_group(code) if s.x | s.z]
    ops = [op for op in _logical_class(code, which)
           if _nontrivial(op.masks, stabilizer_masks)]
    return OperatorSet(kind, ops, code)
