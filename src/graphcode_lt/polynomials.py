"""Exact success/loss polynomials with integer multiplicities.

A term counts detected and lost measurement attempts per basis, so the
same object evaluates both the homogeneous eta_bar(eta) curve and the
heterogeneous form needed when different bases see different effective
transmissions.  The terms are read off a decoder tree path by path
(``losstree.paths``) and counted into one dict; a polynomial is then
only evaluated and expanded, never added to or multiplied by another.
``LossPolynomial`` is a frozen dataclass of that dict and of the rows
``evaluate`` reads, built with it; equality and hash read the dict.
Expansion to plain power-series coefficients is exact (integer
arithmetic), which is what makes break-even points and leading
subthreshold coefficients trustworthy.  ``break_even`` works on that
integer polynomial alone: it isolates the largest crossing of the loss
curve with the diagonal by a Sturm sequence and refines it by exact sign
bisection, so only roots where the curve changes side count, and no
float evaluation can hide or invent one.  The self-concatenation
threshold (``modular.fixed_point_threshold``) is a root of such a
polynomial too and shares that root finder, ``_largest_root``.  The two
thresholds that are not roots of one integer polynomial, the FBQC loss
threshold (``apps``) and the error threshold (``errordecode``), share
one float bisection, ``bisect``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import comb, gcd

from .pauli import BASES


@dataclass(frozen=True)
class LossPolynomial:
    """Sum of mult * prod_M eta_M^a_M (1-eta_M)^b_M with integer mults.

    ``terms`` maps ((aX, aY, aZ, aA), (bX, bY, bZ, bA)) to the integer
    multiplicity of that monomial; the exponents follow ``pauli.BASES``.
    Terms of multiplicity zero are dropped.  ``rows`` holds one
    (mult, sum(a), sum(b)) row per term, in the order of ``terms``, built
    with the polynomial for ``evaluate``.  Equality and hash read
    ``terms`` alone.
    """

    terms: dict = field(default_factory=dict)
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = {key: mult for key, mult in self.terms.items() if mult}
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "rows", tuple(
            (mult, sum(a), sum(b)) for (a, b), mult in terms.items()))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, eta: float) -> float:
        """Homogeneous evaluation: every basis sees the same transmission.

        Sums ``rows`` in their order with the same float operations as a
        loop over ``terms``, so the value is that loop's bit for bit."""
        total = 0.0
        loss = 1.0 - eta
        for mult, a, b in self.rows:
            total += mult * eta ** a * loss ** b
        return total

    def evaluate_heterogeneous(self, etas: dict) -> float:
        """Evaluation with per-basis transmissions, one for each of
        ``pauli.BASES``, e.g. {"X": .9, "Y": .9, "Z": 1., "A": .8}; a
        missing basis raises KeyError."""
        total = 0.0
        for (a, b), mult in self.terms.items():
            val = float(mult)
            for i, m in enumerate(BASES):
                em = etas[m]
                if a[i]:
                    val *= em ** a[i]
                if b[i]:
                    val *= (1.0 - em) ** b[i]
            total += val
        return total

    # -- exact expansion -------------------------------------------------------

    def eta_coefficients(self) -> dict[int, int]:
        """Exact coefficients of eta^k when all bases share one eta."""
        coeffs: dict[int, int] = {}
        for (a, b), mult in self.terms.items():
            ta, tb = sum(a), sum(b)
            # eta^ta (1-eta)^tb = sum_j C(tb, j) (-1)^j eta^(ta+j)
            for j in range(tb + 1):
                k = ta + j
                coeffs[k] = coeffs.get(k, 0) + mult * comb(tb, j) * (-1) ** j
        return {k: c for k, c in sorted(coeffs.items()) if c}

    def to_string(self) -> str:
        """Canonical text form of the homogeneous expansion, e.g.
        ``2*eta^2 - eta^4``."""
        coeffs = self.eta_coefficients()
        if not coeffs:
            return "0"
        parts = []
        for k, c in coeffs.items():
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = f"{mag}*eta" if mag != 1 else "eta"
            else:
                body = f"{mag}*eta^{k}" if mag != 1 else f"eta^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    # -- inspection ---------------------------------------------------------

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"LossPolynomial({self.to_string()})"


def _primitive(p: list[int]) -> list[int]:
    """``p`` (highest degree first) without leading zeros, divided by the
    gcd of its coefficients: a positive scalar, so every sign is kept."""
    while p and not p[0]:
        p = p[1:]
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of ``a`` divided by ``b``,
    primitive: each step scales ``a`` by |lead(b)| before it subtracts."""
    lead, scale = b[0], abs(b[0])
    while len(a) >= len(b):
        f = a[0] if lead > 0 else -a[0]
        a = [scale * x - f * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
    return _primitive(a)


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """``a / b`` for a primitive ``b`` that divides ``a``: by Gauss's lemma
    the quotient has integer coefficients, so each step divides exactly."""
    q = []
    while len(a) >= len(b):
        q.append(a[0] // b[0])
        a = [x - q[-1] * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
    return q


def _derivative(p: list[int]) -> list[int]:
    d = len(p) - 1
    return [c * (d - i) for i, c in enumerate(p[:-1])]


def _common(p: list[int]) -> list[int]:
    """gcd(p, p'), primitive: it has each root of ``p`` of multiplicity r
    with multiplicity r - 1, so p / gcd(p, p') has every root once."""
    common, other = p, _derivative(p)
    while other:  # Euclid
        common, other = other, _remainder(common, other)
    return _primitive(common)


def _odd_part(p: list[int]) -> list[int]:
    """The square-free polynomial whose roots are the roots of odd
    multiplicity of ``p``: the roots of gcd(p, p') of odd multiplicity
    are those of ``p`` of even."""
    if len(p) < 2:
        return [1]
    common = _common(p)
    return _quotient(_quotient(p, common), _odd_part(common))


def _sign_at(p: list[int], k: int, m: int) -> int:
    """Sign of p(k / 2^m), read off the integer 2^(m deg p) p(k / 2^m)."""
    v = 0
    for j, c in enumerate(p):
        v = v * k + (c << m * j)
    return (v > 0) - (v < 0)


def _strip_ends(p: list[int]) -> tuple[list[int], int]:
    """``p`` (nonzero, highest degree first) with its roots at 0 and 1
    divided out, and the multiplicity of its root at 1."""
    while not p[-1]:
        p = p[:-1]
    ones = 0
    while not sum(p):
        p, ones = list(accumulate(p[:-1])), ones + 1  # divide by x - 1
    return p, ones


def _largest_root(p: list[int]) -> float | None:
    """Largest root in (0, 1] of a square-free integer polynomial ``p``
    (highest degree first), or None when it has none there.

    A Sturm sequence of ``p`` isolates that root in a dyadic bracket
    (k / 2^m, (k + 1) / 2^m], and bisection on the exact sign of ``p`` at
    dyadic points narrows the bracket to 1e-15, all in integer
    arithmetic; a square-free ``p`` changes sign at each of its roots.
    Returns the bracket's midpoint, or the root itself when a dyadic
    point hits it.
    """
    if len(p) < 2:
        return None
    sturm = [p, _derivative(p)]
    while len(sturm[-1]) > 1:
        sturm.append([-c for c in _remainder(sturm[-2], sturm[-1])])

    def changes(k: int, m: int) -> int:
        signs = [s for q in sturm if (s := _sign_at(q, k, m))]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    # the number of roots in (a, b] is changes(a) - changes(b); keep the
    # upper half of the bracket while it holds one
    k, m, below, above = 0, 0, changes(0, 0), changes(1, 0)
    if below == above:
        return None
    while below - above > 1:
        k, m = 2 * k, m + 1
        mid = changes(k + 1, m)
        if mid > above:
            k, below = k + 1, mid
        else:
            above = mid
    top = _sign_at(p, k + 1, m)
    if not top:
        return (k + 1) / 2 ** m
    while 2.0 ** -m > 1e-15:
        k, m = 2 * k, m + 1
        s = _sign_at(p, k + 1, m)
        if not s:
            return (k + 1) / 2 ** m
        if s != top:
            k += 1
    return (2 * k + 1) / 2 ** (m + 1)


def break_even(poly: LossPolynomial) -> float | None:
    """Largest interior fixed point of the induced loss map, exactly.

    The loss curve is ell_bar(ell) = 1 - poly(1 - ell); the break-even
    point is the largest ell* in (0, 1) where ell_bar crosses the
    diagonal, a root of odd multiplicity of the integer polynomial
    g(ell) = 1 - poly(1 - ell) - ell.  A tangent point, a root of even
    multiplicity, is not a crossing: g keeps its sign there.  The roots
    at 0 and 1 are divided out and the crossings kept as one square-free
    polynomial (``_odd_part``), whose largest root in (0, 1) is isolated
    and refined to 1e-15 in integer arithmetic (``_largest_root``).
    Returns None when the curve does not cross the diagonal inside
    (0, 1).
    """
    eta = poly.eta_coefficients()
    # g's coefficients, lowest degree first: 1 - ell, less each c_k eta^k
    # written as c_k (1 - ell)^k
    low = [1, -1] + [0] * max(eta, default=0)
    for k, c in eta.items():
        for j in range(k + 1):
            low[j] -= c * comb(k, j) * (-1) ** j
    gap = _primitive(low[::-1])
    if not gap:
        return None  # the curve IS the diagonal; no isolated crossing
    return _largest_root(_odd_part(_strip_ends(gap)[0]))


def _rise_point(poly: LossPolynomial) -> float | None:
    """Least v in [0, 1] with poly(w) > w on all of (v, 1), exactly, for
    the homogeneous map w -> poly(w); None when the map is the identity.

    From any start above v the iterated map climbs to 1.  The gap
    g(w) = poly(w) - w is an integer polynomial (w - 1)^r q(w) with
    q(1) != 0, so just below 1 it has the sign of (-1)^r q(1), the
    lowest-order nonzero coefficient of g(1 - ell); where that is
    negative, v = 1.  Otherwise v is the largest root of g in (0, 1), of
    any multiplicity: where g only touches zero the map is not above the
    identity, so the search runs on g's square-free part.  v = 0 when
    g > 0 on all of (0, 1).
    """
    eta = poly.eta_coefficients()
    eta[1] = eta.get(1, 0) - 1
    gap = _primitive([eta.get(k, 0) for k in range(max(eta), -1, -1)])
    if not gap:
        return None
    gap, ones = _strip_ends(gap)
    if (-1) ** ones * sum(gap) < 0:
        return 1.0
    root = _largest_root(_quotient(gap, _common(gap)))
    return 0.0 if root is None else root


def bisect(inside, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi] until it is at most ``tol`` wide.

    ``inside`` is a predicate that holds up to a threshold and fails past
    it: a midpoint where it holds becomes ``lo``, any other ``hi``.
    Returns the final (lo, hi).
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
