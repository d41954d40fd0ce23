"""Isogenies as skew polynomials: verification, annihilator linear algebra,
degree ideals, duals, p-parts, prime-power factorization, bounded search,
and normalization over K(lambda^(1/n)).

Kernels are never materialized; every kernel statement is a right
divisibility or right gcd in K{tau}.  The kernel of mu is A/n1 + A/n2 with
n2 | n1, n1 the annihilator ideal, and deg(n1 n2) = deg_tau mu.  Kernel
structure goes through two helpers: `split_at` cuts Ker mu at phi[a] (a
right gcd and the module it lands on), and `primitive_part` divides mu by
phi_{n2}; every cofactor is an `exact_quotient`.

Every Isogeny is certified: both constructors check that a non-CM
certificate covers the source at deg_tau mu, and every derived isogeny gets
its certificate from a `certificate_factory`.  `verify_isogeny`, for a mu
from outside the program, also checks mu phi_T = psi_T mu; `_certified`
builds the derived ones, which intertwine by the exact division that built
them.  CM modules are reached through `intertwiner_space` and
`endo_search`, which return skew polynomials, not isogenies.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import (
    ChainMismatch,
    DivisionInexact,
    FieldMismatch,
    Inseparable,
    InternalInconsistency,
    MissingCertificate,
    NotCyclic,
    NotIntertwining,
    NotPrimePower,
    NotPrimitive,
    NotScalarConjugate,
    StructureError,
)
from .fields import FqElem, cleared_numerators, row_relations
from .ideals import IdealA, unit_ideal
from .drinfeld import intertwiner_space, make_module, phi_a
from .skew import (SkewPoly, conjugate, kernel_dimension, right_divmod,
                   right_gcd, scalar_ratio)

__all__ = [
    "Isogeny",
    "verify_isogeny",
    "annihilator",
    "degree",
    "is_cyclic",
    "is_primitive",
    "primitive_part",
    "dual",
    "compose",
    "delta_p",
    "project_p",
    "factor_prime_power",
    "find_isogenies",
    "normalize_isogeny",
    "target_of",
    "split_at",
    "exact_quotient",
]


class Isogeny:
    """A validated triple (source, target, mu) with cached kernel data; the
    certificate covers the source at deg_tau mu (see verify_isogeny)."""

    def __init__(self, source, target, mu, certificate):
        self.source = source
        self.target = target
        self.mu = mu
        self.certificate = certificate

    @property
    def field(self):
        return self.mu.field

    @cached_property
    def annihilator_ideal(self):
        return _annihilator(self)

    def degree_parts(self):
        return self._degree_parts

    @cached_property
    def _degree_parts(self):
        return _degree_parts(self)

    def degree_ideal(self):
        return self.degree_parts()[0]

    def is_cyclic(self):
        return self.degree_parts()[2].is_unit()

    def is_primitive(self):
        # cyclic and primitive agree for rank-two non-CM isogenies
        return self.is_cyclic()

    def __eq__(self, other):
        return (
            isinstance(other, Isogeny)
            and other.source == self.source
            and other.target == self.target
            and other.mu == self.mu
        )

    def __hash__(self):
        return hash(("Isogeny", self.source, self.target, self.mu))

    def __repr__(self):
        return f"Isogeny({self.mu} : {self.source.phiT} -> {self.target.phiT})"


def verify_isogeny(phi, psi, mu, certificate):
    """The Isogeny mu: phi -> psi for a mu from outside the program: the
    checks of `_certified`, then mu phi_T = psi_T mu."""
    iso = _certified(phi, psi, mu, certificate)
    if mu * phi.phiT != psi.phiT * mu:
        raise NotIntertwining("mu phi_T != psi_T mu")
    return iso


def _certified(phi, psi, mu, certificate):
    """The Isogeny mu: phi -> psi for a derived mu: nonzero, over one field,
    separable and covered by the certificate at deg_tau mu.  An exact
    quotient intertwines, since K{tau} has no zero divisors (Ore 1933;
    Goss 1996, section 1): q b = a for isogenies b: phi -> psi and
    a: phi -> chi gives (q psi_T - chi_T q) b = 0."""
    if mu.is_zero():
        raise NotIntertwining("the zero map is not an isogeny")
    if mu.field is not phi.field or psi.field is not phi.field:
        raise FieldMismatch("isogeny data over different fields")
    if mu.constant().is_zero():
        raise Inseparable("constant term of mu vanishes; impossible in "
                          "generic characteristic")
    if not certificate.covers(phi, mu.deg):
        raise MissingCertificate("isogeny needs its source certified non-CM "
                                 f"to bound {mu.deg}")
    return Isogeny(phi, psi, mu, certificate)


def exact_quotient(a, b, message, error=DivisionInexact):
    """The q with a = q b in K{tau}; a nonzero remainder raises error."""
    quo, rem = right_divmod(a, b)
    if not rem.is_zero():
        raise error(message)
    return quo


def target_of(phi, mu):
    """The module psi with mu: phi -> psi, i.e. psi_T = mu phi_T mu^(-1).

    Exists exactly when Ker mu is an A-submodule; otherwise the right
    division is inexact.
    """
    return make_module(exact_quotient(mu * phi.phiT, mu,
                                      "kernel of mu is not T-stable"))


def split_at(phi, mu, phi_a_value):
    """(part, mid): part = rgcd(mu, phi_a) for phi_a_value = phi_a(phi, a),
    whose kernel is Ker mu cap phi[a], and mid = target_of(phi, part), so
    mu = cofactor * part with the cofactor mid -> target.  A trivial part
    (the monic gcd 1) leaves mid = phi."""
    part = right_gcd(mu, phi_a_value)
    return part, phi if part.deg == 0 else target_of(phi, part)


# -- annihilator linear algebra ------------------------------------------------

def _min_monic_dependence(rows, fq):
    """First index n with rows[n] in the span of rows[:n], plus coefficients.

    Returns (n, combo) with rows[n] + sum combo[i] rows[i] = 0, the monic
    relation (`fields.row_relations`), or (None, None).
    """
    for n, combo in row_relations(fq, rows):
        return n, [int(c) for c in combo[:n]]
    return None, None


def _annihilator(iso):
    """Minimal monic a with mu right-dividing phi_a; the ideal n1.

    Remainders of phi_{T^i} mod mu are flattened over the monomial basis of
    T and the power basis of K, and the minimal monic F_q-dependence is read
    off by incremental elimination.
    """
    phi = iso.source
    field = iso.field
    fq = field.fq
    mu = iso.mu
    m = mu.deg
    if m == 0:
        return unit_ideal(fq)
    rems = []
    cur = SkewPoly.from_scalar(field.one)  # phi_{T^0}
    rems.append(right_divmod(cur, mu)[1])
    for _ in range(m):
        cur = cur * phi.phiT
        rems.append(right_divmod(cur, mu)[1])
    # F_q rows over (tau-slot, coordinate, T-degree), cleared of the common
    # denominator of all remainders
    nums, _ = cleared_numerators(
        fq, [rat for r in rems for j in range(m) for rat in r.coeff(j).coords])
    width = max(len(a.array) for a in nums)
    rows = np.zeros((len(nums), width), dtype=np.int64)
    for i, a in enumerate(nums):
        rows[i, : len(a.array)] = a.array
    rows = rows.reshape(len(rems), m * field.e * width)
    n, combo = _min_monic_dependence(rows, fq)
    if n is None:
        raise InternalInconsistency(
            "no annihilator of degree <= deg_tau mu; not a rank-2 isogeny kernel"
        )
    # x -> x mod mu is F_q-linear and the relation exact: phi_gen mod mu = 0
    return IdealA(fq.poly([FqElem(fq, c) for c in combo] + [fq.one]))


def annihilator(iso):
    return iso.annihilator_ideal


def _degree_parts(iso):
    """(deg, n1, n2): n1 the annihilator, n2 | n1 of the complementary
    degree, read off split degrees.

    Lemma: for p^e exactly dividing n1, Ker mu cap phi[p^e] is the
    p-primary part of Ker mu = A/n1 + A/n2 (n2 | n1, so p^e kills it), of
    F_q-dimension (e + v_p(n2)) deg p (`kernel_dimension`).  A degree of any
    other form, an n2 whose degree does not complete n1 to deg_tau mu, or a
    phi_{n2} that does not right-divide mu raises StructureError (CM input
    or rank != 2).
    """
    n1 = iso.annihilator_ideal
    k = iso.mu.deg - n1.degree
    if k < 0:
        raise InternalInconsistency("annihilator degree exceeds deg_tau mu")
    n2 = unit_ideal(iso.field.fq)
    if k == 0:
        return n1 * n2, n1, n2
    for p, e in n1.factors():
        d = kernel_dimension([iso.mu, phi_a(iso.source, p.gen ** e)])
        v = d // p.degree - e
        if d % p.degree or not 0 <= v <= e:
            raise StructureError(f"kernel of mu at {p} has tau-degree {d}; "
                                 "CM input or rank != 2")
        n2 = n2 * IdealA(p.gen ** v)
    if n2.degree != k:
        raise StructureError("no complementary kernel ideal; CM input or "
                             "rank != 2")
    exact_quotient(iso.mu, phi_a(iso.source, n2.gen),
                   "phi_{n2} does not right-divide mu", StructureError)
    return n1 * n2, n1, n2


def degree(iso):
    """(deg, n1, n2) with Ker mu = A/n1 + A/n2 and #(A/deg) = q^(deg_tau mu)."""
    return iso.degree_parts()


def is_cyclic(iso):
    return iso.is_cyclic()


def is_primitive(iso):
    return iso.is_primitive()


def primitive_part(iso, certificate_factory):
    """The primitive isogeny mu / phi_{n2}, or iso itself when n2 = (1).

    phi_b right-divides mu exactly when phi[b] lies in Ker mu, that is
    when b | n2, so stripping primes of n2 one at a time ends at this same
    quotient, whose kernel A/(n1/n2) is cyclic.  The quotient keeps source
    and target and is certified by the factory at its tau-degree.
    """
    n2 = iso.degree_parts()[2]
    if n2.is_unit():
        return iso
    quo = exact_quotient(iso.mu, phi_a(iso.source, n2.gen),
                         "phi_{n2} does not right-divide mu")
    return _certified(iso.source, iso.target, quo,
                      certificate_factory(iso.source, quo.deg))


def dual(iso, certificate_factory):
    """The unique eta with eta mu = phi_{a_n} and mu eta = psi_{a_n}.

    deg_tau eta = deg_tau mu, so the factory certifies the target to that
    bound.
    """
    cert = certificate_factory(iso.target, iso.mu.deg)
    a_n = iso.degree_ideal().gen
    # eta mu = phi_{a_n}, so mu eta = psi_{a_n} and eta: psi -> phi (cancel mu)
    eta = exact_quotient(phi_a(iso.source, a_n), iso.mu,
                         "phi_{a_n} is not right-divisible by mu")
    return _certified(iso.target, iso.source, eta, cert)


def compose(g, f, certificate_factory):
    """The composite isogeny g o f, with degree multiplicativity checked;
    the factory certifies f's source to deg f + deg g."""
    if f.target != g.source:
        raise ChainMismatch("target of the first leg differs from the source "
                            "of the second")
    out = _certified(f.source, g.target, g.mu * f.mu,
                     certificate_factory(f.source, f.mu.deg + g.mu.deg))
    if out.degree_ideal() != f.degree_ideal() * g.degree_ideal():
        raise InternalInconsistency("degree multiplicativity failed")
    return out


def delta_p(iso, p):
    """v_p of the degree of a primitive isogeny (eq. delta); the local
    distance between the modules in the p-isogeny tree."""
    if not iso.is_primitive():
        raise NotPrimitive("delta_p needs a primitive isogeny")
    deg = iso.degree_ideal()
    return deg.valuation(p)


def project_p(iso, p, certificate_factory):
    """Split a primitive cyclic isogeny as (prime-to-p) o (p-part).

    Returns (pi_p_target, p_part, coprime_part).  Ker mu is cyclic, A/(n),
    so its p-primary part is killed by p^k with k = v_p(n): the p-part is
    the right gcd of mu with phi_{a_p^k}.  k = 0 is the trivial split,
    (phi, 1, iso).  p must be a prime ideal: at a composite p the p-power
    check below passes on any power of p, so it is refused with ValueError.
    """
    if not p.is_prime():
        raise ValueError(f"project_p needs a prime ideal, not {p!r}")
    deg, _, n2 = iso.degree_parts()
    if not n2.is_unit():
        raise NotCyclic("project_p needs a primitive cyclic isogeny")
    phi = iso.source
    k = deg.valuation(p)
    if k == 0:
        one = SkewPoly.from_scalar(phi.field.one)
        return phi, _certified(phi, phi, one, iso.certificate), iso
    mu_p, mid = split_at(phi, iso.mu, phi_a(phi, p.gen ** k))
    quo = exact_quotient(iso.mu, mu_p, "p-part does not right-divide mu",
                         InternalInconsistency)
    p_part = _certified(phi, mid, mu_p, iso.certificate)
    coprime = _certified(mid, iso.target, quo,
                         certificate_factory(mid, quo.deg))
    dp = p_part.degree_ideal()
    if dp.valuation(p) * p.degree != dp.degree:
        raise InternalInconsistency("p-part degree is not a p-power")
    return mid, p_part, coprime


def factor_prime_power(iso, certificate_factory):
    """Factor a cyclic p^n-isogeny into n p-isogenies, unique up to units.

    Each step cuts the unique cyclic p-kernel by a right gcd with phi_{a_p}
    and divides it off mu exactly, so the links recompose to mu.
    """
    deg, _, n2 = iso.degree_parts()
    if not n2.is_unit():
        raise NotPrimePower("isogeny is not cyclic")
    facs = deg.factors()
    if len(facs) > 1:
        raise NotPrimePower("degree has more than one prime factor")
    if not facs:
        return []
    p, n = facs[0]
    out = []
    cur_mu = iso.mu
    cur_src = iso.source
    for step in range(n):
        if step == n - 1:
            link = cur_mu
            tgt = iso.target
        else:
            link, tgt = split_at(cur_src, cur_mu, phi_a(cur_src, p.gen))
            cur_mu = exact_quotient(cur_mu, link, "p-kernel does not divide mu",
                                    InternalInconsistency)
        cert = (iso.certificate if step == 0
                else certificate_factory(cur_src, link.deg))
        out.append(_certified(cur_src, tgt, link, cert))
        cur_src = tgt
    return out


def find_isogenies(phi, psi, bound, candidates=None, *, certificate_factory):
    """All intertwiners of tau-degree <= bound as validated isogenies.

    Complete over K = Q; candidate-restricted over proper extensions (the
    caller supplies constant terms).  `intertwiner_space` checks each root,
    and the factory certifies phi to the bound.
    """
    cert = certificate_factory(phi, bound)
    space = intertwiner_space(phi, psi, bound, candidates)
    return [_certified(phi, psi, u, cert) for u in space]


def normalize_isogeny(iso, galois):
    """(n, lambda, mu_normalized) from the scalar-conjugacy character.

    For an isogeny between models with Galois-fixed coefficients, each
    generator s satisfies s(mu) = xi_s mu with xi_s in F_q^x; n is the
    order of the character, lambda = c_0^n is fixed, and mu = c_0 *
    mu_normalized with mu_normalized fixed and of constant term 1.
    """
    if not iso.is_primitive():
        raise NotPrimitive("normalization needs a primitive isogeny")
    field = iso.field
    fq = field.fq
    for mod in (iso.source, iso.target):
        for c in mod.phiT.coeffs:
            if not galois.is_fixed(c):
                raise NotScalarConjugate(
                    "source and target must have Galois-fixed coefficients"
                )
    mu = iso.mu
    c0 = mu.constant()
    xi = {}
    for name in galois.names:
        elem = galois.generator_element(name)
        ratio = scalar_ratio(conjugate(galois, elem, mu), mu)
        if ratio is None or not ratio.is_fq_constant():
            raise NotScalarConjugate("conjugate is not an F_q^x multiple")
        xi[name] = ratio.as_fq()
    # order of the character; generator relations must hold
    n = 1
    for name, order in zip(galois.names, galois.orders):
        val = xi[name]
        if val ** order != fq.one:
            raise InternalInconsistency(
                f"character value at {name} violates the generator order"
            )
        k = 1
        acc = val
        while acc != fq.one:
            acc = acc * val
            k += 1
        n = math.lcm(n, k)
    lam = c0 ** n
    if not galois.is_fixed(lam):
        raise InternalInconsistency("lambda = c0^n is not Galois-fixed")
    mu_norm = mu.scale_left(c0.inverse())
    for c in mu_norm.coeffs:
        if not galois.is_fixed(c):
            raise InternalInconsistency("normalized coefficients not fixed")
    return n, lam, mu_norm
