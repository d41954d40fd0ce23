"""The twisted polynomial ring K{tau} with tau*c = c^q*tau.

Right division (`right_divmod`, Ore 1933) carries two right Euclids: a
fraction-free one for the right gcd and the dimension of a common kernel
(`right_gcd`, `kernel_dimension`), and one with field division for the
least common left multiple (`lclm`).  Coefficients of one skew polynomial
always live in one declared field; mixed-field operations raise rather
than coerce.
"""
from __future__ import annotations

from functools import reduce

from .errors import BothZero, DivisionByZero, FieldMismatch
from .extfield import ExtField
from .fields import power, primitive_numerators

__all__ = [
    "SkewPoly",
    "skew_mul",
    "right_divmod",
    "right_gcd",
    "kernel_dimension",
    "lclm",
    "scalar_ratio",
    "skew_eval",
    "differential",
    "conjugate",
]


class SkewPoly:
    """Element of K{tau}: little-endian coefficients, no trailing zero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        n = len(coeffs)
        while n and coeffs[n - 1].is_zero():
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])

    @classmethod
    def from_scalar(cls, c):
        return cls(c.field, (c,))

    @classmethod
    def tau(cls, field, k=1):
        return cls(field, (field.zero,) * k + (field.one,))

    @property
    def deg(self):
        # tau-degree; -1 for the zero element
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def lead(self):
        if self.is_zero():
            raise DivisionByZero("leading coefficient of zero")
        return self.coeffs[-1]

    def constant(self):
        if self.is_zero():
            return self.field.zero
        return self.coeffs[0]

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.field),) + self.coeffs)

    def __add__(self, other):
        self._same(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(
            self.field, [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other):
        self._same(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(
            self.field, [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __neg__(self):
        return SkewPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        self._same(other)
        return skew_mul(self, other)

    def scale_left(self, c):
        """c * self for a scalar c in K."""
        if c.is_zero():
            return SkewPoly(self.field, ())
        return SkewPoly(self.field, [c * a for a in self.coeffs])

    def monic(self):
        if self.is_zero() or self.lead().is_one():
            return self
        inv = self.lead().inverse()
        return self.scale_left(inv)

    def tau_valuation(self):
        if self.is_zero():
            return -1
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        return -1

    def __pow__(self, e):
        return power(self, e, SkewPoly.from_scalar(self.field.one))

    def _same(self, other):
        if other.field is not self.field:
            raise FieldMismatch("skew polynomials over different fields")

    def __repr__(self):
        """The `c0 + c1*t + c2*t^2` grammar that textform.parse_skew reads."""
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = _scalar_inline(c)
            if i == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append("t" if i == 1 else f"t^{i}")
            else:
                parts.append(f"{cs}*t" if i == 1 else f"{cs}*t^{i}")
        return " + ".join(parts)


def _scalar_inline(a):
    """Scalar coefficient rendered for use inside a skew term."""
    def coord(c):
        return repr(c) if c.is_constant() else f"({c!r})"
    if a.field.e == 1:
        return coord(a.coords[0])
    return "[" + ", ".join(coord(c) for c in a.coords) + "]"


def skew_mul(a, b):
    """(c tau^i)(d tau^j) = c d^(q^i) tau^(i+j), extended bilinearly."""
    if a.is_zero() or b.is_zero():
        return SkewPoly(a.field, ())
    field = a.field
    out = [field.zero] * (a.deg + b.deg + 1)
    # Frobenius powers of b's coefficients, step by step up to deg a
    frobs = [list(b.coeffs)]
    for _ in range(a.deg):
        frobs.append([c.frob() for c in frobs[-1]])
    for i, ca in enumerate(a.coeffs):
        if ca.is_zero():
            continue
        row = frobs[i]
        for j, cb in enumerate(row):
            if cb.is_zero():
                continue
            out[i + j] = out[i + j] + ca * cb
    return SkewPoly(field, out)


def right_divmod(a, b):
    """a = quot*b + rem with deg_tau rem < deg_tau b; unique."""
    if b.is_zero():
        raise DivisionByZero("right division by the zero skew polynomial")
    if a.field is not b.field:
        raise FieldMismatch("skew polynomials over different fields")
    field = a.field
    m = b.deg
    if a.deg < m:
        return SkewPoly(field, ()), a
    rem = list(a.coeffs)
    quo = [field.zero] * (a.deg - m + 1)
    # step k needs b's coefficients below the lead and 1/lead raised to
    # q^k; Frobenius is a ring map, so (1/lead)^(q^k) = 1/lead^(q^k) and
    # one inversion serves every step; the top step always runs (a's lead
    # is nonzero), so every rung of the ladder would be built anyway
    frobs = [(b.coeffs[:m], b.lead().inverse())]
    for _ in range(a.deg - m):
        row, inv = frobs[-1]
        frobs.append(([c.frob() for c in row], inv.frob()))
    for k in range(a.deg - m, -1, -1):
        top = rem[k + m]
        if top.is_zero():
            continue
        row, inv = frobs[k]
        qc = top * inv
        quo[k] = qc
        for j, c in enumerate(row):
            if not c.is_zero():
                rem[k + j] = rem[k + j] - qc * c
    return SkewPoly(field, quo), SkewPoly(field, rem[:m])


def _strip_content(a):
    """a times the element of Q that makes its coordinates coprime
    polynomials; left scaling by Q^x keeps the kernel and the left ideal."""
    if a.is_zero():
        return a
    field = a.field
    e = field.e
    nums = primitive_numerators(field.fq,
                                [r for c in a.coeffs for r in c.coords])
    return SkewPoly(field, [field.elem(nums[i: i + e])
                            for i in range(0, len(nums), e)])


def _pseudo_right_mod(a, b):
    """c*a mod b for some nonzero c in K: each step scales the remainder by
    the lead of tau^k*b instead of dividing by it, so no inverse is taken
    and polynomial coordinates stay polynomial."""
    m = b.deg
    # tau^k*b = sum_j b_j^(q^k) tau^(j+k): one Frobenius ladder for all steps
    rows = [b.coeffs]
    for _ in range(a.deg - m):
        rows.append([c.frob() for c in rows[-1]])
    rem = list(a.coeffs)
    for k in range(a.deg - m, -1, -1):
        top = rem.pop()
        if top.is_zero():
            continue
        row = rows[k]
        rem = [row[m] * c for c in rem]
        for j in range(m):
            if not row[j].is_zero():
                rem[k + j] = rem[k + j] - top * row[j]
    return SkewPoly(a.field, rem)


def _pseudo_right_gcd(a, b):
    """A right gcd of a and b up to a left scalar, by a fraction-free right
    Euclid (Li & Nemes, ISSAC 1997).

    Pseudo-division multiplies by leads instead of dividing by them.  Over K
    each remainder is then made primitive, so its coordinates stay
    polynomials of bounded degree; over A/P (`fields.ResidueField`)
    coefficients cannot grow and no content is removed.
    """
    if a.is_zero() and b.is_zero():
        raise BothZero("right gcd of two zero skew polynomials")
    a._same(b)
    over_k = isinstance(a.field, ExtField)
    if over_k:
        a, b = _strip_content(a), _strip_content(b)
    if a.deg < b.deg:
        a, b = b, a
    while not b.is_zero():
        a, b = b, _pseudo_right_mod(a, b)
        if over_k:
            b = _strip_content(b)
    return a


def right_gcd(a, b):
    """Monic generator of the left ideal K{tau}a + K{tau}b, the greatest
    common right divisor of a and b.

    Its kernel is the intersection of the kernels (`kernel_dimension`).
    """
    return _pseudo_right_gcd(a, b).monic()


def kernel_dimension(polys):
    """F_q-dimension of the common kernel of `polys` in an algebraic
    closure: deg g - val g for g their right gcd, as ker g = cap ker a and
    g = g' tau^val with g' separable."""
    g = reduce(_pseudo_right_gcd, polys)
    return g.deg - g.tau_valuation()


def lclm(a, b):
    """Least common left multiple; its kernel is the sum of the kernels.

    Each remainder of the right Euclid with field division is u*a + v*b; at
    the first zero remainder u*a = -v*b is the least common left multiple
    (Ore 1933), so only the cofactor u of a is tracked.
    """
    if a.is_zero() or b.is_zero():
        raise BothZero("lclm needs two nonzero skew polynomials")
    field = a.field
    r0, r1 = a, b
    u0, u1 = SkewPoly.from_scalar(field.one), SkewPoly(field, ())
    while not r1.is_zero():
        q, r = right_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    return (u1 * a).monic()


def scalar_ratio(a, b):
    """The c in K with a = c*b for a nonzero b, or None when there is none."""
    if a.deg != b.deg:
        return None
    c = a.lead() / b.lead()
    return c if b.scale_left(c) == a else None


def skew_eval(a, lam):
    """a(lam) = sum c_i lam^(q^i); additive and composition-compatible."""
    out = lam.field.zero
    cur = lam
    for i, c in enumerate(a.coeffs):
        if i > 0:
            cur = cur.frob()
        if not c.is_zero():
            out = out + c * cur
    return out


def differential(a):
    """The constant term; a ring homomorphism K{tau} -> K."""
    return a.constant()


def conjugate(datum, element, a):
    """Coefficientwise Galois action; a ring automorphism of K{tau}."""
    return SkewPoly(a.field, [datum.apply(element, c) for c in a.coeffs])
