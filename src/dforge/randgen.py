"""Seeded random instance generators for property suites and demos.

The rotation construction factors phi_T = f1 f2 (+ shift) through linear
skew factors and rotates the word, producing genuine degree-(T - c)
isogenies between distinct modules.  The planted two-line construction
solves for a module carrying a rational cyclic isogeny whose degree is a
product of two distinct monic linear primes.
"""
from __future__ import annotations

import random

from .drinfeld import make_module
from .fields import RatFunc
from .ideals import IdealA
from .skew import SkewPoly, right_divmod

# draws two_prime_point makes before it gives up
_TWO_PRIME_TRIES = 200


def random_fq_poly(rng, fq, max_deg, nonzero=False, monic=False):
    while True:
        coeffs = [fq.elem_packed(rng.randrange(fq.q))
                  for _ in range(rng.randrange(0, max_deg + 1) + 1)]
        if monic and coeffs:
            coeffs[-1] = fq.one
        p = fq.poly(coeffs)
        if not nonzero or not p.is_zero():
            return p


def random_ratfunc(rng, fq, max_deg, poly_only=False):
    num = random_fq_poly(rng, fq, max_deg)
    if poly_only:
        return RatFunc.from_poly(num)
    den = random_fq_poly(rng, fq, max_deg, nonzero=True)
    return RatFunc.make(num, den)


def random_ext_elem(rng, field, max_deg, poly_only=True, nonzero=False):
    while True:
        coords = [random_ratfunc(rng, field.fq, max_deg, poly_only=poly_only)
                  for _ in range(field.e)]
        out = field.elem(coords)
        if not nonzero or not out.is_zero():
            return out


def random_skew(rng, field, max_tau_deg, coeff_deg, poly_only=True,
                unit_lead=False):
    n = rng.randrange(0, max_tau_deg + 1)
    coeffs = [random_ext_elem(rng, field, coeff_deg, poly_only=poly_only)
              for _ in range(n + 1)]
    if unit_lead:
        coeffs[-1] = field.from_poly(
            field.fq.poly([field.fq.elem_packed(rng.randrange(1, field.fq.q))])
        )
    return SkewPoly(field, coeffs)


def random_module(rng, field):
    """Random rank-2 module with g, Delta != 0, whose coordinates are
    polynomials of degree <= 1."""
    while True:
        g = random_ext_elem(rng, field, 1)
        d = random_ext_elem(rng, field, 1)
        if not g.is_zero() and not d.is_zero():
            return make_module(SkewPoly(field, (field.T(), g, d)))


def rotation_pair(rng, field, shift=0):
    """(phi, psi, fwd, back): phi_T = f1 f2 + c and psi_T = f2 f1 + c.

    fwd = f2: phi -> psi and back = f1: psi -> phi, both of degree
    (T - c); the differential condition holds by taking the constant of f1
    in F_q^x and the constant of f2 equal to (T - c) over it.
    """
    fq = field.fq
    c = fq.elem_packed(shift)
    cK = field.from_poly(fq.poly([c]))
    while True:
        a1 = field.from_poly(fq.poly([fq.elem_packed(rng.randrange(1, fq.q))]))
        b1 = random_ext_elem(rng, field, 1)
        b2 = random_ext_elem(rng, field, 1)
        if b1.is_zero() or b2.is_zero():
            continue
        tmc = field.T() - cK
        a2 = tmc * a1.inverse()
        f1 = SkewPoly(field, (a1, b1))
        f2 = SkewPoly(field, (a2, b2))
        phiT = f1 * f2 + SkewPoly.from_scalar(cK)
        psiT = f2 * f1 + SkewPoly.from_scalar(cK)
        if phiT.deg != 2 or psiT.deg != 2:
            continue
        phi = make_module(phiT)
        psi = make_module(psiT)
        return phi, psi, f2, f1


def two_prime_point(rng, field):
    """A module with a planted cyclic isogeny of square-free 2-prime degree.

    Returns (phi, mid, target, h, g1, chi, p1, p2) with h: phi -> mid of
    degree (T - c1), g1: mid -> target of degree (T - c2), chi = g1 h cyclic
    of degree (T - c1)(T - c2).
    """
    fq = field.fq
    T = field.T()
    for _ in range(_TWO_PRIME_TRIES):
        cs = rng.sample(range(fq.q), 2)
        c1 = fq.elem_packed(cs[0])
        c2 = fq.elem_packed(cs[1])
        c1K = field.from_poly(fq.poly([c1]))
        c2K = field.from_poly(fq.poly([c2]))
        a = random_ext_elem(rng, field, 1, nonzero=True)
        b = random_ext_elem(rng, field, 1, nonzero=True)
        u = random_ext_elem(rng, field, 1, nonzero=True)
        e = c1K - c2K
        u_h = (T - c1K) * a.inverse()
        denom = b.frob() * (u ** (fq.q + 1)) - a.frob() * u
        if denom.is_zero():
            continue
        v = (u_h * b * u - u_h * a - e) * denom.inverse()
        if v.is_zero():
            continue
        f1 = SkewPoly(field, (a, b))
        h = SkewPoly(field, (u_h, v))
        phiT = f1 * h + SkewPoly.from_scalar(c1K)
        if phiT.deg != 2:
            continue
        phi = make_module(phiT)
        midT = h * f1 + SkewPoly.from_scalar(c1K)
        mid = make_module(midT)
        # planted second line: P = mid_{T-c2} has the right factor u + tau
        P = h * f1 + SkewPoly.from_scalar(e)
        g1 = SkewPoly(field, (u, field.one))
        g2, rem = right_divmod(P, g1)
        if not rem.is_zero():
            continue
        tgtT = g1 * g2 + SkewPoly.from_scalar(c2K)
        if tgtT.deg != 2:
            continue
        target = make_module(tgtT)
        chi = g1 * h
        if chi.constant().is_zero():
            continue
        p1 = IdealA(fq.poly([-c1, fq.one]))
        p2 = IdealA(fq.poly([-c2, fq.one]))
        return phi, mid, target, h, g1, chi, p1, p2
    raise RuntimeError("no two-prime instance found in the try budget")
