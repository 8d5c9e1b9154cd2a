"""Exact success/loss polynomials with integer multiplicities, and the one
kernel that evaluates every sum of monomials in the package.

A term counts detected and lost measurement attempts per basis, so the
same object evaluates both the homogeneous eta_bar(eta) curve and the
heterogeneous form needed when different bases see different effective
transmissions.  The terms are read off a decoder tree path by path
(``losstree.paths``) and counted into one dict; a polynomial is then
only evaluated and expanded, never added to or multiplied by another.
``LossPolynomial`` is a frozen dataclass of that dict and of the column
forms its two evaluations read, built with it; equality and hash read
the dict.

Every float evaluation of a sum of monomials -- a loss polynomial, the
adaptive and transversal fusion terms (``fusion``), the layer recursion
of a stack (``modular``), the fault probability summed over the leaves
of an error analysis (``errordecode``) -- is one call to
``monomial_sums``.  It takes a block of points at once: per point, a
table of each base's powers made by repeated multiplication, one gather
per base and a left-to-right sum per term class, all in numpy, in pieces
of at most ``KERNEL_FLOATS`` floats.  A scalar entry point is a
one-point block, and a point's value is the same float alone and
anywhere in any block.  The contract is accuracy, not
one summation order: each value lies within 1e-12 of the exact
(``Fraction``) sum of the same terms at the same float bases.

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
from itertools import accumulate, chain
from math import comb, gcd

import numpy as np

from .pauli import BASES

# The most 8-byte entries one temporary of a numpy kernel holds, 64 KB:
# ``monomial_sums``, the strategy pairing in ``losstree``, the blocks of
# flip rates ``errordecode.SyndromeTable.error`` evaluates (at least one
# point a block) and the canonical-labelling and orbit kernels in
# ``graphs`` all read it.  It is not the only budget:
# ``opsets.CHUNK_BYTES`` (1 MB) and ``fusion._LOW_QUBITS`` set their own
# on purpose; at 14 qubits this one would cut ``opsets._nontrivial`` to
# one operator a chunk, against 16.
KERNEL_FLOATS = 1 << 13


def monomial_sums(coef: np.ndarray, exps: np.ndarray, bases: np.ndarray,
                  ends: tuple) -> np.ndarray:
    """Sums of monomials at each point of a block.

    Term t is ``coef[t] * prod_i bases[p, i] ** exps[i, t]`` at point p;
    the terms are split into classes at ``ends`` (increasing, the last
    one the term count), and the result's column c is the sum of the
    terms ``ends[c - 1]:ends[c]`` (from 0 for c = 0), shape (points,
    classes).  An empty class sums to 0.0.

    Each base's powers are made by repeated multiplication, so b^k
    carries at most k roundings, and 0^0 = 1.  Each term is multiplied
    in base order, and each class is summed left to right (an
    accumulate, not numpy's ``sum``, whose order depends on the array's
    shape) over fixed pieces of the term list, so a point's value does
    not depend on the points beside it.  No temporary holds more than
    ``KERNEL_FLOATS`` floats.
    """
    bases = np.asarray(bases, dtype=float)
    count, (rows, terms) = len(bases), exps.shape
    width = int(np.maximum.reduce(exps, axis=None, initial=0)) + 1
    piece = min(max(terms, 1), KERNEL_FLOATS)
    step = max(1, KERNEL_FLOATS // max(piece, rows * width))
    starts = (0,) + tuple(ends[:-1])
    out = np.zeros((count, len(ends)))
    for lo in range(0, count, step):
        block = bases[lo:lo + step].T
        # row i * width + k of the table is base i to the power k, one
        # column per point
        table = np.empty((rows, width, block.shape[1]))
        table[:, 0] = 1.0
        block[:, None, :].repeat(width - 1, axis=1).cumprod(
            axis=1, out=table[:, 1:])
        table = table.reshape(rows * width, -1)
        for first in range(0, terms, piece):
            last = min(first + piece, terms)
            values = coef[first:last, None] * table[exps[0, first:last]]
            for i in range(1, rows):
                values *= table[exps[i, first:last] + i * width]
            for c, (a, b) in enumerate(zip(starts, ends)):
                a, b = max(a, first) - first, min(b, last) - first
                if a < b:
                    out[lo:lo + step, c] += values[a:b].cumsum(axis=0)[-1]
    return out


def block(x) -> np.ndarray:
    """``x``, a float or a 1-D sequence of floats, as a 1-D float array."""
    return np.asarray(x, dtype=float).reshape(-1)


def unblock(values: np.ndarray, x):
    """``values``, computed at the points ``block(x)``: a Python float
    when ``x`` is a scalar, else the array itself."""
    return float(values[0]) if np.ndim(x) == 0 else values


def columns(items, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``coef`` and ``exps`` of ``monomial_sums`` for ``items``, an
    iterable of (exponent tuple of ``rows`` bases, coefficient) pairs."""
    items = list(items)
    coef = np.array([float(c) for _, c in items])
    exps = np.fromiter(chain.from_iterable(k for k, _ in items), np.intp,
                       rows * len(items))
    return coef, exps.reshape(len(items), rows).T


@dataclass(frozen=True)
class LossPolynomial:
    """Sum of mult * prod_M eta_M^a_M (1-eta_M)^b_M with integer mults.

    ``terms`` maps ((aX, aY, aZ, aA), (bX, bY, bZ, bA)) to the integer
    multiplicity of that monomial; the exponents follow ``pauli.BASES``.
    Terms of multiplicity zero are dropped.  Equality and hash read
    ``terms`` alone.

    ``bernstein`` holds the integer count c_k of each eta^k (1-eta)^(d-k),
    k = 0..d, at the polynomial's degree d: the homogeneous polynomial
    is sum_k c_k eta^k (1-eta)^(d-k).  Those counts are fixed by the
    polynomial, not by how its terms were grouped, so ``evaluate`` gives
    two polynomials with one ``to_string`` the same floats.  Both column
    forms ``monomial_sums`` reads are built with the polynomial.
    """

    terms: dict = field(default_factory=dict)
    bernstein: tuple = field(init=False, repr=False, compare=False)
    _homogeneous: tuple = field(init=False, repr=False, compare=False)
    _heterogeneous: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = {key: mult for key, mult in self.terms.items() if mult}
        object.__setattr__(self, "terms", terms)
        power = self.eta_coefficients()
        d = max(power, default=0)
        # eta^j = eta^j (eta + 1 - eta)^(d - j), spread over the counts
        counts = tuple(sum(c * comb(d - j, k - j) for j, c in power.items()
                           if j <= k) for k in range(d + 1))
        object.__setattr__(self, "bernstein", counts)
        object.__setattr__(self, "_homogeneous", columns(
            (((k, d - k), c) for k, c in enumerate(counts)), 2))
        object.__setattr__(self, "_heterogeneous", columns(
            ((a + b, mult) for (a, b), mult in terms.items()), 2 * len(BASES)))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, eta):
        """Homogeneous evaluation: every basis sees the same transmission.

        ``eta`` is a float or a 1-D array of them; the result is a float
        or an array to match.  Reads the ``bernstein`` counts, so the
        value is within 1e-12 of the exact one at that ``eta``."""
        etas = block(eta)
        coef, exps = self._homogeneous
        bases = np.stack([etas, 1.0 - etas], axis=1)
        return unblock(monomial_sums(coef, exps, bases, (len(coef),))[:, 0],
                       eta)

    def evaluate_heterogeneous(self, etas: dict):
        """Evaluation with per-basis transmissions, one for each of
        ``pauli.BASES``, e.g. {"X": .9, "Y": .9, "Z": 1., "A": .8}; a
        missing basis raises KeyError.  The values are floats, or 1-D
        arrays of one length (a block of points), and so is the result."""
        per_basis = [block(etas[b]) for b in BASES]
        present = np.stack(np.broadcast_arrays(*per_basis), axis=1)
        coef, exps = self._heterogeneous
        sums = monomial_sums(coef, exps, np.hstack([present, 1.0 - present]),
                             (len(coef),))
        return unblock(sums[:, 0], etas[BASES[0]])

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


def bisect(inside, lo: float, hi: float, tol: float,
           depth: int = 1) -> tuple[float, float]:
    """Halve [lo, hi] until it is at most ``tol`` wide.

    ``inside`` is a predicate that holds up to a threshold and fails past
    it, asked of a list of points at once and answering with one bool
    each: a midpoint where it holds becomes ``lo``, any other ``hi``.
    Each call asks for the midpoints of the next ``depth`` halvings, every
    one the path may reach (up to 2^depth - 1), and the path then takes
    ``depth`` halvings.  A midpoint is the float 0.5 * (lo + hi) of the
    interval it halves, as one halving at a time makes it, so every
    decision, and the result, is the same at any depth.  Returns the
    final (lo, hi).
    """
    while hi - lo > tol:
        mids, level = [], [(lo, hi)]
        for _ in range(depth):
            halves = []
            for a, b in level:
                if b - a > tol:
                    mid = 0.5 * (a + b)
                    mids.append(mid)
                    halves += [(a, mid), (mid, b)]
            level = halves
        verdict = dict(zip(mids, inside(mids)))
        for _ in range(depth):
            if not hi - lo > tol:
                break
            mid = 0.5 * (lo + hi)
            if verdict[mid]:
                lo = mid
            else:
                hi = mid
    return lo, hi
