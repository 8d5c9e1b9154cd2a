"""Repeater links and fusion-network loss thresholds from logical fusions.

Two consumers of the logical-fusion analysis.  A repeater chain carries
an encoded qubit through stations that swap entanglement by logically
fusing the right-ward code of one station with the left-ward code of
the next; the per-link probability is just the logical fusion success
of the shared code.  A fusion-based fault-tolerant network instead
feeds parity outcomes into syndrome graphs that tolerate a fixed
erasure budget per measurement, so the figure of merit is the largest
per-photon loss at which both parity erasures stay below that budget.
"""

from __future__ import annotations

from .codes import GraphCode
from .fusion import FusionModel, LogicalFusionResult, adaptive_fusion, transversal_fusion
from .polynomials import bisect

__all__ = [
    "ERASURE_BUDGET",
    "FbqcSpec",
    "RepeaterSpec",
    "fbqc_loss_threshold",
    "rgs_link_probability",
]

# Highest measurement-erasure tolerance among the hexagonal-resource
# fusion networks; the network internals are reduced to this constant.
ERASURE_BUDGET = 0.12


def _validated_p_fail(p_fail: float) -> float:
    if not 0.0 < p_fail <= 1.0:
        raise ValueError(f"p_fail must lie in (0, 1], got {p_fail}")
    return p_fail


class RepeaterSpec:
    """One repeater design: the code used for both halves of a station.

    The total repeater graph is two copies of the progenitor joined at
    their inputs, both X-measured, so the link between neighboring
    stations is exactly one logical fusion of ``code`` with itself.
    """

    __slots__ = ("code", "p_fail", "adaptive")

    def __init__(self, code: GraphCode, p_fail: float = 0.5,
                 adaptive: bool = True):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "p_fail", _validated_p_fail(p_fail))
        object.__setattr__(self, "adaptive", bool(adaptive))

    def __setattr__(self, name, value):
        raise AttributeError("RepeaterSpec is immutable")

    def __repr__(self) -> str:
        return (f"RepeaterSpec(n={self.code.n}, p_fail={self.p_fail}, "
                f"adaptive={self.adaptive})")


class FbqcSpec:
    """One fusion-network design point: code, gate quality, strategy."""

    __slots__ = ("code", "p_fail", "adaptive", "erasure_budget")

    def __init__(self, code: GraphCode, p_fail: float = 0.5,
                 adaptive: bool = True, erasure_budget: float = ERASURE_BUDGET):
        if not 0.0 < erasure_budget < 1.0:
            raise ValueError(
                f"erasure budget must lie in (0, 1), got {erasure_budget}")
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "p_fail", _validated_p_fail(p_fail))
        object.__setattr__(self, "adaptive", bool(adaptive))
        object.__setattr__(self, "erasure_budget", erasure_budget)

    def __setattr__(self, name, value):
        raise AttributeError("FbqcSpec is immutable")

    def __repr__(self) -> str:
        return (f"FbqcSpec(n={self.code.n}, p_fail={self.p_fail}, "
                f"adaptive={self.adaptive})")


def _fuse(code: GraphCode, fm: FusionModel, adaptive: bool,
          randomize: bool) -> LogicalFusionResult:
    if adaptive:
        return adaptive_fusion(code, fm, randomize_failures=randomize)
    return transversal_fusion(code, fm, randomize_failures=randomize)


def rgs_link_probability(spec: RepeaterSpec, eta: float) -> float:
    """Success probability of one entanglement swap between stations."""
    result = _fuse(spec.code, FusionModel(spec.p_fail, eta), spec.adaptive,
                   randomize=False)
    return result.p_success


def fbqc_loss_threshold(spec: FbqcSpec, tol: float = 1e-4) -> float:
    """Largest per-photon loss with both parity erasures inside budget.

    Failed fusions have their erased parity randomized (achievable with
    local Cliffords), so a logical failure still feeds one syndrome
    graph half the time; losses erase both.  Both parities are erased
    alike, so the criterion erasure_xx < budget is monotone in loss, and
    the returned threshold is located by bisection to ``tol``.  A code
    outside budget even at zero loss returns 0.
    """

    def inside(ell: float) -> bool:
        fm = FusionModel(spec.p_fail, 1.0 - ell)
        result = _fuse(spec.code, fm, spec.adaptive, randomize=True)
        return result.erasure_xx < spec.erasure_budget

    if not inside(0.0):
        return 0.0
    lo, hi = bisect(inside, 0.0, 1.0, tol)
    return 0.5 * (lo + hi)
