"""Ideals of A = F_q[T], polynomial factorization, and the one walk over
candidates in A: the monic divisors in degree order, whose coprime pairs
are the candidates of the rational root theorem for the roots in Q of
polynomials over Q.

A is a principal ideal domain: an ideal is stored by its monic generator
and "divides" is polynomial divisibility.  Distinct- and equal-degree
factorization of a squarefree f compute in A/(f) (`fields.ResidueField`);
equal-degree splitting draws from a caller-suppliable random source so
factorizations are reproducible; the factor list is sorted canonically.
"""
from __future__ import annotations

import random

from .errors import BudgetExceeded, ZeroIdeal, ZeroPolynomial
from .fields import (RatFunc, ResidueField, is_irreducible, poly_to_text,
                     power, primitive_numerators)

_DEFAULT_SEED = 0xD4
# monic divisor sets larger than this are refused with BudgetExceeded
_DIVISOR_CAP = 200_000


class IdealA:
    """Nonzero ideal of A by monic generator, with lazily computed factors
    and primality."""

    __slots__ = ("gen", "_factors", "_prime")

    def __init__(self, gen):
        if gen.is_zero():
            raise ZeroIdeal("the zero ideal is not allowed here")
        self.gen = gen.monic()
        self._factors = None
        self._prime = None

    @property
    def field(self):
        return self.gen.field

    @property
    def degree(self):
        return self.gen.degree

    def is_unit(self):
        return self.gen.is_one()

    def __eq__(self, other):
        return isinstance(other, IdealA) and other.gen == self.gen

    def __hash__(self):
        return hash(("IdealA", self.gen))

    def __mul__(self, other):
        return IdealA(self.gen * other.gen)

    def gcd(self, other):
        return IdealA(self.gen.gcd(other.gen))

    def divides(self, other):
        """self | other, i.e. other ⊆ self as sets."""
        return (other.gen % self.gen).is_zero()

    def quotient(self, other):
        q, r = divmod(self.gen, other.gen)
        if not r.is_zero():
            raise ZeroIdeal("inexact ideal quotient")
        return IdealA(q)

    def factors(self):
        if self._factors is None:
            self._factors = factor_ideal(self)
        return self._factors

    def is_prime(self):
        """True when the generator is irreducible; Rabin's test runs once
        per ideal."""
        if self._prime is None:
            self._prime = is_irreducible(self.gen)
        return self._prime

    def valuation(self, p):
        """v_p of this ideal for a prime p, by repeated exact division.

        The unit ideal divides everything, so it has no valuation: the loop
        would never end, and it is refused with ValueError."""
        if p.is_unit():
            raise ValueError("valuation at the unit ideal")
        k, rest = 0, self.gen
        while True:
            quo, rem = divmod(rest, p.gen)
            if not rem.is_zero():
                return k
            k, rest = k + 1, quo

    def is_square_free(self):
        return all(m == 1 for _, m in self.factors())

    def __repr__(self):
        return f"({poly_to_text(self.gen)})"


def unit_ideal(field):
    return IdealA(field.poly_one)


def squarefree_decomposition(f):
    """Yield (squarefree part g_i, exponent i) with f = prod g_i^i, g_i monic."""
    field = f.field
    p = field.p
    f = f.monic()
    out = {}

    def accumulate(g, scale):
        if g.degree < 1:
            return
        for part, e in _sqf_char_p(g):
            out[e * scale] = out.get(e * scale, field.poly_one) * part

    def _sqf_char_p(g):
        res = []
        d = g.derivative()
        if d.is_zero():
            root = g.pth_root()
            for part, e in _sqf_char_p(root):
                res.append((part, e * p))
            return res
        c = g.gcd(d)
        w = g // c
        i = 1
        while not w.is_one():
            y = w.gcd(c)
            fac = w // y
            if fac.degree >= 1:
                res.append((fac.monic(), i))
            w, c = y, c // y
            i += 1
        if not c.is_one():
            for part, e in _sqf_char_p(c.pth_root()):
                res.append((part, e * p))
        return res

    accumulate(f, 1)
    return [(part, e) for e, part in sorted(out.items(), key=lambda kv: kv[0])]


def _distinct_degree(f):
    """Split a squarefree monic f into (product of degree-d primes, d) parts
    by the Frobenius ladder x = T^(q^d) in A/(f): rest divides f, so
    gcd(x - T, rest) is the product of the degree-d primes of rest."""
    out = []
    rest, d = f, 0
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            out.append((rest, rest.degree))
            break
        if d == 1:
            T = x = ResidueField(f.field, f).reduce([f.field.poly_T()])[0]
        x = x.frob()
        g = (x - T).lift().gcd(rest)
        if not g.is_one():
            out.append((g, d))
            rest = rest // g
    return out


def _equal_degree(f, d, rng):
    """Cantor-Zassenhaus split of a product of degree-d primes in A/(f): by
    h^((q^d - 1)/2) - 1 for odd q, by the trace sum h^(2^i), i < kd, for
    q = 2^k."""
    field = f.field
    if f.degree == d:
        return [f]
    q = field.q
    n = f.degree
    ring = ResidueField(field, f)
    while True:
        h = field.poly([field.elem_packed(rng.randrange(q)) for _ in range(n)])
        if h.degree < 1:
            continue
        g = h.gcd(f)
        if not g.is_one():
            break
        t = ring.reduce([h])[0]
        if q % 2 == 1:
            w = power(t, (q ** d - 1) // 2, ring.one) - ring.one
        else:
            w = ring.zero
            for _ in range(d * field.d):
                w, t = w + t, t * t
        g = w.lift().gcd(f)
        if not g.is_one() and g.degree < f.degree:
            break
    return _equal_degree(g.monic(), d, rng) + _equal_degree((f // g).monic(), d, rng)


def factor_ideal(n, rng=None):
    """Factor a nonzero ideal into primes with multiplicity.

    Returns [(IdealA prime, mult)] sorted by (degree, text); the product of
    gen^mult equals the generator exactly.
    """
    if rng is None:
        rng = random.Random(_DEFAULT_SEED)
    gen = n.gen
    if gen.is_one():
        return []
    result = {}
    for part, e in squarefree_decomposition(gen):
        for block, d in _distinct_degree(part):
            for prime in _equal_degree(block.monic(), d, rng):
                key = IdealA(prime)
                result[key] = result.get(key, 0) + e
    out = sorted(result.items(), key=lambda kv: (kv[0].degree, poly_to_text(kv[0].gen)))
    # consistency: re-multiplied factors must reproduce the generator
    check = gen.field.poly_one
    for prime, mult in out:
        for _ in range(mult):
            check = check * prime.gen
    if check != gen:
        raise RuntimeError("factorization does not re-multiply")
    return out


def divisors_in_degree_order(f, cap=None):
    """The monic divisors of f in nondecreasing degree, ties in the order
    of their exponent vectors over the factorization (`factor_ideal`).
    With a cap, a divisor set larger than cap raises BudgetExceeded before
    any divisor is formed.
    """
    if f.is_zero():
        raise ZeroPolynomial("divisors of zero requested")
    facs = factor_ideal(IdealA(f))
    total = 1
    for _, mult in facs:
        total *= mult + 1
    if cap is not None and total > cap:
        raise BudgetExceeded("monic divisors", cap)
    divisors = [f.field.poly_one]
    for prime, mult in facs:
        powers = [prime.gen ** k for k in range(mult + 1)]
        divisors = [d * pk for d in divisors for pk in powers]
    return sorted(divisors, key=lambda d: d.degree)


def rational_roots(coeffs):
    """All roots in Q of a nonzero polynomial with coefficients in Q.

    Clears denominators to a primitive polynomial over A and tests each
    candidate xi*u/v exactly, xi in F_q^x and u, v coprime monic divisors of
    the trailing and leading coefficients.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if not coeffs:
        raise ZeroPolynomial("root search on the zero polynomial")
    field = coeffs[0].field
    if len(coeffs) == 1:
        return []
    cleared = primitive_numerators(field, coeffs)
    roots = []
    # strip powers of x; x | g means 0 is a root
    low = 0
    while cleared[low].is_zero():
        low += 1
    if low > 0:
        roots.append(field.rat_zero)
        cleared = cleared[low:]
        if len(cleared) == 1:
            return roots

    def horner(x):
        acc = field.rat_zero
        for c in reversed(cleared):
            acc = acc * x + RatFunc.from_poly(c)
        return acc

    units = [field.elem_packed(xi) for xi in range(1, field.q)]
    trailing = divisors_in_degree_order(cleared[0], _DIVISOR_CAP)
    leads = divisors_in_degree_order(cleared[-1], _DIVISOR_CAP)
    for u in trailing:
        for v in leads:
            if not u.gcd(v).is_one():
                continue
            for xi in units:
                cand = RatFunc(field, u.scale(xi), v)
                if horner(cand).is_zero():
                    roots.append(cand)
    roots.sort(key=lambda r: (r.den.degree, r.num.degree, repr(r)))
    return roots
