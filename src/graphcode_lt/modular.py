"""Cascaded and concatenated evaluation of layered graph codes.

Large codes built from small units admit a recursive analysis: once a
unit's logical measurement success is known as a function of its code
qubits' per-basis transmissions, layers compose by evaluating that
function instead of by decoding the composite graph.  Two compositions
are covered.  A cascade keeps every layer physical and hangs a fresh
unit below each code qubit, whose input that qubit becomes; the qubit
can then be measured directly or recovered through its subtree.  A
concatenation replaces each code qubit by an encoded block; the
replaced qubits are virtual and only the deepest layer is physical.

The recursion works on per-basis transmissions, a dict keyed by
``pauli.BASES`` (X, Y, Z and A, the arbitrary basis) of 1-D arrays, one
entry per point of a block of physical transmissions: the argument
``LossPolynomial.evaluate_heterogeneous`` takes.  A stack's ``eta`` may
be such a block, so a whole grid of stacks folds through one
``polynomials.monomial_sums`` call per unit polynomial and layer.  For a
physical qubit with a cascade block underneath, a Z demand succeeds
directly or through the block's indirect Z, while X, Y and
arbitrary-basis demands need the direct measurement and the block's
logical X (or Y) simultaneously; the two variants are incompatible, so
the better one is chosen in advance.  In a concatenation every demand is
served entirely by the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .codes import GraphCode, per_code
from .errordecode import depolarizing, logical_flip_rates
from .losstree import load_or_build, success_polynomial
from .pauli import BASES
from .polynomials import LossPolynomial, _rise_point, block, unblock

__all__ = [
    "LayerStack",
    "StackResult",
    "fixed_point_threshold",
    "logical_transmission",
    "optimize_stack",
    "stack_flip_rates",
    "top_transmission",
    "unit_F",
]

MODES = ("cascaded", "concatenated")


@dataclass(frozen=True, eq=False)
class LayerStack:
    """An ordered choice of unit codes, outermost first, plus the noise.

    ``layers[0]`` carries the logical qubit; each deeper entry is the
    unit hung below (cascade) or substituted into (concatenation) every
    code qubit of the layer above.  ``eta`` is the physical transmission
    seen by whichever qubits are physical under the chosen mode: a
    float, or a 1-D array of them for one stack per point, evaluated
    together.
    """

    layers: tuple
    mode: str
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("a stack needs at least one layer")
        if any(not isinstance(c, GraphCode) for c in self.layers):
            raise TypeError("layers must be GraphCode instances")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        etas = block(self.eta)
        if not ((etas >= 0.0) & (etas <= 1.0)).all():
            raise ValueError(f"eta={self.eta} outside [0, 1]")

    @property
    def qubit_count(self) -> int:
        """Physical qubits: every layer of a cascade, only the deepest
        layer of a concatenation."""
        sizes = [c.n for c in self.layers]
        block = 1
        total = 0
        for s in sizes:
            block *= s
            total += block
        return total if self.mode == "cascaded" else block

    def __repr__(self) -> str:
        sizes = "x".join(str(c.n) for c in self.layers)
        return f"LayerStack({sizes}, {self.mode}, eta={self.eta})"


# -- unit recursion functions ------------------------------------------------------


@per_code
def unit_F(code: GraphCode, basis: str) -> LossPolynomial:
    """Logical measurement success of one unit as a multivariate polynomial.

    The returned polynomial tracks transmission and loss exponents per
    measurement basis, so evaluating it at a heterogeneous vector gives
    the probability of a logical ``basis`` measurement when the unit's
    code qubits succeed with per-basis probabilities of their own.
    """
    if basis not in BASES:
        raise ValueError(f"basis must be X, Y, Z or A, got {basis!r}")
    tree = load_or_build(code, "arbitrary" if basis == "A" else basis)
    return success_polynomial(tree)


def _apply(code: GraphCode, basis: str, r: dict) -> np.ndarray:
    """Success probability of a logical ``basis`` measurement on one unit
    whose code qubits see the per-basis transmissions ``r``, per point.

    The float sum of the polynomial's terms can leave [0, 1] only by
    round-off (1.0000000000000002 on a depth-3 concatenated cube at eta
    0.92), so it is clamped back into range.
    """
    return np.clip(unit_F(code, basis).evaluate_heterogeneous(r), 0.0, 1.0)


def _step(code: GraphCode, r: dict, mode: str, eta: np.ndarray) -> dict:
    """Per-basis transmissions, keyed by ``BASES``, of a code qubit whose
    block of ``code`` sees ``r``, per point.

    In a concatenation the qubit is virtual and every demand is served by
    the block's logical measurement.  In a cascade the qubit is physical
    (transmission ``eta``): non-Z demands pair the direct measurement with
    the block's logical X or logical Y, the stronger option fixed in
    advance, and Z demands accept either the direct or the block's
    indirect route.
    """
    if mode == "concatenated":
        return {b: _apply(code, b, r) for b in BASES}
    best = eta * np.maximum(_apply(code, "X", r), _apply(code, "Y", r))
    fz = _apply(code, "Z", r)
    return {"X": best, "Y": best, "Z": eta + (1.0 - eta) * fz, "A": best}


def _top(stack: LayerStack) -> dict:
    """``top_transmission`` as 1-D arrays over the points of ``stack.eta``."""
    eta = block(stack.eta)
    r = dict.fromkeys(BASES, eta)
    for code in reversed(stack.layers[1:]):
        r = _step(code, r, stack.mode, eta)
    return r


def top_transmission(stack: LayerStack) -> dict:
    """Effective transmissions of the outermost unit's code qubits, keyed
    by basis (``BASES``): floats, or arrays when ``stack.eta`` is one.

    Folds the layers below the outermost unit bottom-up, starting from
    bare physical qubits.  Apply ``unit_F`` of ``stack.layers[0]`` to the
    result for the stack's logical measurement probabilities.
    """
    return {b: unblock(v, stack.eta) for b, v in _top(stack).items()}


def logical_transmission(stack: LayerStack) -> dict:
    """Logical measurement success of the whole stack, keyed by basis
    (``BASES``): floats, or arrays when ``stack.eta`` is one.

    The encoded qubit is the (virtual) input of the outermost unit, so
    the logical level applies that unit's polynomials with no direct
    measurement term in either mode.
    """
    r = _top(stack)
    return {b: unblock(_apply(stack.layers[0], b, r), stack.eta)
            for b in BASES}


# -- thresholds --------------------------------------------------------------------


def fixed_point_threshold(code: GraphCode,
                          bases=("X", "Y", "Z")) -> float | None:
    """Loss threshold of self-concatenation, exactly, or None when there
    is none.

    Self-concatenation iterates the scalar map eta -> m(eta), the min
    over ``bases`` of F(eta, ..., eta).  The scalar map is the exact depth
    recursion when the unit's F coincides on every basis the target
    pattern uses; otherwise the min tracks the pattern-limiting
    component.  eta* is the least v with m(w) > w on all of (v, 1), from
    which the iteration climbs to 1; where m only touches the identity it
    is not above it.  Returns the loss fraction 1 - eta*: 1.0 when
    m(w) > w on all of (0, 1), 0.0 when some basis map lies at or below
    the identity arbitrarily close to 1 (an identity basis map among
    moving ones included), and None when every basis map is the
    identity.
    """
    if not bases:
        raise ValueError("fixed_point_threshold needs at least one basis")
    points = [_rise_point(unit_F(code, b)) for b in bases]
    if all(v is None for v in points):
        return None
    return 1.0 - max(1.0 if v is None else v for v in points)


def stack_flip_rates(stack: LayerStack, lam: float) -> tuple:
    """Logical per-basis flip rates of a concatenated stack.

    Composition choice: each unit's decoder is analyzed at unit
    transmission with the per-basis flip rates produced by the layer
    below, starting from the physical rates ``depolarizing(lam)``.
    """
    if stack.mode != "concatenated":
        raise ValueError("flip-rate recursion is defined for concatenation")
    rates = depolarizing(lam)
    for code in reversed(stack.layers):
        rates = logical_flip_rates(code, rates)
    return rates


# -- stack search ------------------------------------------------------------------


class StackResult(NamedTuple):
    """One ranked entry from a stack search."""

    stack: LayerStack
    logical_loss: float
    qubit_count: int


def optimize_stack(library, max_depth: int, eta: float, basis: str = "A",
                   mode: str = "concatenated") -> list:
    """Exhaustive stack search, best logical loss first.

    Tries every ordered combination of library units up to ``max_depth``
    layers and ranks by the logical loss of the objective basis.  Each
    entry reports its physical qubit count for resource-scaling plots.
    """
    library = list(library)
    if not library:
        raise ValueError("library is empty")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")

    results = []
    for depth in range(1, max_depth + 1):
        for combo in product(library, repeat=depth):
            stack = LayerStack(combo, mode, eta)
            value = unblock(_apply(combo[0], basis, _top(stack)), eta)
            results.append(StackResult(stack, 1.0 - value,
                                       stack.qubit_count))
    results.sort(key=lambda res: (res.logical_loss, res.qubit_count))
    return results
