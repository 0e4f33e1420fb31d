"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are vectors over the power basis 1, z, ..., z^(phi(m)-1) of
Q[x]/Phi_m(x), with Fraction coefficients.  The conductor m is fixed per
field; mixing conductors raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

F0 = Fraction(0)

_POLY_CACHE: dict[int, list[int]] = {}
_FIELD_CACHE: dict[int, "CycloField"] = {}


def _poly_divmod_exact(num, den):
    """Quotient of integer polynomials known to divide exactly (monic den)."""
    num = num[:]
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, d in enumerate(den):
                num[i - dd + j] -= c * d
    if any(num):
        raise ValueError("polynomial division was not exact")
    return out


def cyclotomic_polynomial(m: int) -> list[int]:
    """Coefficients of Phi_m, ascending degree."""
    if m < 1:
        raise ValueError("conductor must be positive")
    if m in _POLY_CACHE:
        return _POLY_CACHE[m]
    # x^m - 1 divided by the product of Phi_d over proper divisors d
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divmod_exact(num, cyclotomic_polynomial(d))
    _POLY_CACHE[m] = num
    return num


class CycloField:
    """Shared tables for one conductor: reduction rows and root powers.

    Phi_m is monic with integer coefficients, so x^k reduced mod Phi_m,
    and with it every power of zeta_m, has integer coordinates: both
    tables hold ints.
    """

    def __init__(self, m: int):
        self.m = m
        self.poly = cyclotomic_polynomial(m)
        self.degree = len(self.poly) - 1
        deg = self.degree
        # x^k for k in [deg, 2deg-2], reduced mod Phi_m
        red = []
        cur = [-c for c in self.poly[:deg]]
        red.append(cur)
        for _ in range(deg - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                base = red[0]
                nxt = [a + top * b for a, b in zip(nxt, base)]
            red.append(nxt)
            cur = nxt
        self.reduction = red
        powers = []
        vec = [0] * deg
        vec[0] = 1
        for _ in range(m):
            powers.append(tuple(vec))
            if deg == 1:
                vec = [vec[0] * -self.poly[0]]
            else:
                shifted = [0] + vec[:-1]
                top = vec[-1]
                if top:
                    shifted = [a + top * b for a, b in zip(shifted, red[0])]
                vec = shifted
        self.powers = powers

    def reduce(self, coeffs):
        deg = self.degree
        if len(coeffs) <= deg:
            return list(coeffs) + [F0] * (deg - len(coeffs))
        out = list(coeffs[:deg])
        for k in range(deg, len(coeffs)):
            c = coeffs[k]
            if c:
                row = self.reduction[k - deg]
                for j in range(deg):
                    if row[j]:
                        out[j] += c * row[j]
        return out


def _field(m: int) -> CycloField:
    f = _FIELD_CACHE.get(m)
    if f is None:
        f = CycloField(m)
        _FIELD_CACHE[m] = f
    return f


class Cyclotomic:
    """An element of Q(zeta_m) in reduced power-basis coordinates."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        self.m = m
        field = _field(m)
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        self.coeffs = tuple(field.reduce(cs))

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.m != self.m:
                raise ValueError("mixed conductors %d and %d" % (self.m, other.m))
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.m, [Fraction(other)])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.m, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        n = len(a)
        prod = [F0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return Cyclotomic(self.m, prod)

    __rmul__ = __mul__

    def is_rational(self):
        """The element as a Fraction when it lies in Q, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.is_rational()
            return r is not None and r == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def key(self):
        """Canonical sort key."""
        return tuple((c.numerator, c.denominator) for c in self.coeffs)

    def __repr__(self):
        return "Cyclotomic(%d, %r)" % (self.m, list(self.coeffs))

    def __str__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                mono = "z%d" % self.m if j == 1 else "z%d^%d" % (self.m, j)
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append("-" + mono)
                else:
                    terms.append("%s*%s" % (c, mono))
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def cyclo(m: int, k: int = 1) -> Cyclotomic:
    """zeta_m^k as an exact field element."""
    field = _field(m)
    return Cyclotomic(m, field.powers[k % m])


def root_powers(m: int):
    """The integer coordinates of zeta_m^k for k = 0..m-1, shared per
    conductor."""
    return _field(m).powers


def cyclo_rational(m: int, value) -> Cyclotomic:
    return Cyclotomic(m, [Fraction(value)])


def root_order(m: int, k: int) -> int:
    """Multiplicative order of zeta_m^k."""
    return m // gcd(m, k % m)


def root_log(value: Cyclotomic):
    """The exponent k with value == zeta_m^k, or None if value is not a
    root of unity of the field."""
    field = _field(value.m)
    lookup = getattr(field, "_root_lookup", None)
    if lookup is None:
        lookup = {pw: k for k, pw in enumerate(field.powers)}
        field._root_lookup = lookup
    return lookup.get(value.coeffs)
