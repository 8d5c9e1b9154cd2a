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

import numpy as np

from .codes import GraphCode
from .fusion import logical_fusion
from .polynomials import bisect

__all__ = [
    "ERASURE_BUDGET",
    "fbqc_loss_threshold",
    "rgs_link_probability",
]

# The halvings ``fbqc_loss_threshold`` takes per block of transmissions:
# up to 15 midpoints, one ``logical_fusion`` call.  On 7-vertex codes one
# point costs about 45 us and 15 points about 77 us.
BISECT_DEPTH = 4

# Highest measurement-erasure tolerance among the hexagonal-resource
# fusion networks; the network internals are reduced to this constant.
ERASURE_BUDGET = 0.12


def _validated_p_fail(p_fail: float) -> float:
    if not 0.0 < p_fail <= 1.0:
        raise ValueError(f"p_fail must lie in (0, 1], got {p_fail}")
    return p_fail


def rgs_link_probability(code: GraphCode, eta, p_fail: float = 0.5,
                         adaptive: bool = True):
    """Success probability of one entanglement swap between stations.

    The total repeater graph is two copies of the progenitor joined at
    their inputs, both X-measured, so the link between neighboring
    stations is exactly one logical fusion of ``code`` with itself.
    ``eta`` is a float or a 1-D array of them, and the result a float or
    an array to match (``fusion.logical_fusion``).
    """
    return logical_fusion(code, _validated_p_fail(p_fail), eta,
                          adaptive=adaptive).p_success


def fbqc_loss_threshold(code: GraphCode, p_fail: float = 0.5,
                        adaptive: bool = True) -> float:
    """Largest per-photon loss with both parity erasures inside
    ``ERASURE_BUDGET``.

    Failed fusions have their erased parity randomized (achievable with
    local Cliffords), so a logical failure still feeds one syndrome
    graph half the time; losses erase both.  Both parities are erased
    alike, so the criterion erasure_xx < budget is monotone in loss, and
    the returned threshold is located by bisection to 1e-4, the
    midpoints of ``BISECT_DEPTH`` halvings evaluated as one block of
    transmissions (``polynomials.bisect``).  A code outside budget even
    at zero loss returns 0.
    """
    _validated_p_fail(p_fail)

    def inside(ells: list) -> list:
        result = logical_fusion(code, p_fail, 1.0 - np.array(ells),
                                adaptive=adaptive, randomize_failures=True)
        return (result.erasure_xx < ERASURE_BUDGET).tolist()

    if not inside([0.0])[0]:
        return 0.0
    lo, hi = bisect(inside, 0.0, 1.0, 1e-4, BISECT_DEPTH)
    return 0.5 * (lo + hi)
