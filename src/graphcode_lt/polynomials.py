"""Exact success/loss polynomials with integer multiplicities.

A term counts detected and lost measurement attempts per basis, so the
same object evaluates both the homogeneous eta_bar(eta) curve and the
heterogeneous form needed when different bases see different effective
transmissions.  The terms are read off a decoder tree path by path
(``losstree.paths``) and counted into one dict; a polynomial is then
only evaluated and expanded, never added to or multiplied by another.
Expansion to plain power-series coefficients is exact (integer
arithmetic), which is what makes break-even points and leading
subthreshold coefficients trustworthy.
The thresholds built on these curves share one bisection, ``bisect``.
"""

from __future__ import annotations

from math import comb

BASES = ("X", "Y", "Z", "A")


class LossPolynomial:
    """Sum of mult * prod_M eta_M^a_M (1-eta_M)^b_M with integer mults.

    ``terms`` maps ((aX, aY, aZ, aA), (bX, bY, bZ, bA)) to the integer
    multiplicity of that monomial.
    """

    __slots__ = ("terms", "_sums")

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for key, mult in terms.items():
                if mult:
                    clean[key] = clean.get(key, 0) + mult
        object.__setattr__(self, "terms", dict(clean))
        object.__setattr__(self, "_sums", None)

    def __setattr__(self, name, value):
        raise AttributeError("LossPolynomial is immutable")

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, eta: float) -> float:
        """Homogeneous evaluation: every basis sees the same transmission.

        Reads one (mult, sum(a), sum(b)) row per term, built on the first
        call; the terms are summed in their order with the same float
        operations as a loop over ``terms``, so the value is that loop's
        bit for bit."""
        if self._sums is None:
            object.__setattr__(self, "_sums", tuple(
                (mult, sum(a), sum(b)) for (a, b), mult in self.terms.items()))
        total = 0.0
        loss = 1.0 - eta
        for mult, a, b in self._sums:
            total += mult * eta ** a * loss ** b
        return total

    def evaluate_heterogeneous(self, etas: dict) -> float:
        """Evaluation with per-basis transmissions, one for each of BASES,
        e.g. {"X": .9, "Y": .9, "Z": 1., "A": .8}; a missing basis raises
        KeyError."""
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

    def to_string(self, var: str = "eta") -> str:
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
                body = f"{mag}*{var}" if mag != 1 else var
            else:
                body = f"{mag}*{var}^{k}" if mag != 1 else f"{var}^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    # -- inspection ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LossPolynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"LossPolynomial({self.to_string()})"


def break_even(poly: LossPolynomial, tol: float = 1e-6) -> float | None:
    """Largest interior fixed point of the induced loss map.

    The loss curve is ell_bar(ell) = 1 - poly(1 - ell); the break-even
    point is the largest ell* in (0, 1) with ell_bar(ell*) = ell*, located
    by a downward grid scan for a sign change and bisection to ``tol``.
    Returns None when the curve never crosses the diagonal inside (0, 1).
    """

    def g(ell: float) -> float:
        return (1.0 - poly.evaluate(1.0 - ell)) - ell

    steps = 2000
    grid = [i / steps for i in range(steps - 1, 0, -1)]
    values = [g(ell) for ell in grid]
    if max(abs(v) for v in values) < 1e-14:
        return None  # the curve IS the diagonal; no isolated crossing
    for (ell, val), (prev_ell, prev_val) in zip(
            list(zip(grid, values))[1:], zip(grid, values)):
        if val == 0.0:
            return ell
        if prev_val * val < 0:
            lo, hi = ell, prev_ell
            flo = val
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fmid = g(mid)
                if fmid == 0.0:
                    return mid
                if (fmid < 0) == (flo < 0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    return None


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
