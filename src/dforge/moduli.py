"""Moduli-level bookkeeping for cyclic n-isogeny classes: the Atkin-Lehner
group W(n), its action through the m-part/dual diagram, the forgetful pair
Theta, W(n)-orbits, and polyquadratic descent data.

Points are never curve points: a point is an equivalence class of cyclic
n-isogenies fingerprinted by its Theta pair (j of source, j of target).
Equality of points is decided by Theta pairs plus degree, which is faithful
on the non-CM locus.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    AmbientMismatch,
    DegreeMismatch,
    EvenCharacteristic,
    InternalInconsistency,
    NotCyclic,
    NotGStable,
    NotAHomomorphism,
)
from .drinfeld import conjugate_module, j_invariant, phi_a
from .ideals import IdealA, unit_ideal
from .isogeny import (
    Isogeny,
    _certified,
    dual as iso_dual,
    exact_quotient,
    split_at,
    target_of,
)
from .skew import lclm, right_gcd, scalar_ratio

__all__ = [
    "ALElement",
    "ModuliPoint",
    "StarOrbit",
    "al_compose",
    "al_apply",
    "star_orbit",
    "descent_data",
    "is_central",
]


@dataclass(frozen=True)
class ALElement:
    """w_m for m | n with gcd(m, n/m) = 1; identity is m = (1)."""

    m: IdealA
    n: IdealA

    def __post_init__(self):
        if not self.m.divides(self.n):
            raise DegreeMismatch("m must divide the ambient level n")
        comp = self.n.quotient(self.m)
        if not self.m.gcd(comp).is_unit():
            raise DegreeMismatch("m must be coprime to n/m")

    def is_identity(self):
        return self.m.is_unit()

    def __repr__(self):
        return f"w_{self.m}"


def al_group(n):
    """All of W(n); order 2^(number of prime factors).

    An element takes the full p-power of n for each prime in its support,
    keeping m coprime to n/m.
    """
    blocks = [IdealA(p.gen ** e) for p, e in n.factors()]
    out = []
    for r in range(len(blocks) + 1):
        for sub in combinations(blocks, r):
            m = unit_ideal(n.field)
            for b in sub:
                m = m * b
            out.append(ALElement(m, n))
    return out


def al_compose(w1, w2):
    """w_{m1} w_{m2} = w_{m3} with m3 = m1 m2 / (m1, m2)^2."""
    if w1.n != w2.n:
        raise AmbientMismatch("Atkin-Lehner elements over different levels")
    g = w1.m.gcd(w2.m)
    m3 = (w1.m * w2.m).quotient(g * g)
    return ALElement(m3, w1.n)


@dataclass(frozen=True)
class ModuliPoint:
    """A K-bar equivalence class [mu: phi -> psi] of cyclic n-isogenies."""

    iso: Isogeny

    @property
    def level(self):
        return self.iso.degree_ideal()

    def theta_pair(self):
        """(j(source), j(target)); the target class is theta of w_n x."""
        return j_invariant(self.iso.source), j_invariant(self.iso.target)

    def validate(self):
        if not self.iso.is_cyclic():
            raise NotCyclic("a moduli point needs a cyclic representative")
        return self


def al_apply(w, x, certificate_factory):
    """The involution action on a point, through the m-part diagram.

    mu splits as mu_{n'} mu_m with mu_m = rgcd(mu, phi_{a_m}); the image
    point starts at the m-part target and is represented by the isogeny
    whose kernel is mu_m(phi[m] + Lambda_{n'}), realized as the exact
    quotient of lclm(phi_{a_m}, mu) by mu_m.  The full involution lands on
    the dual representative.
    """
    iso = x.iso
    n = iso.degree_ideal()
    if w.n != n:
        raise DegreeMismatch("involution level differs from the point level")
    if not iso.is_cyclic():
        raise NotCyclic("Atkin-Lehner action needs a cyclic representative")
    if w.is_identity():
        return x
    phi = iso.source
    a_m = w.m.gen
    phi_am = phi_a(phi, a_m)
    mu_m, phi_m = split_at(phi, iso.mu, phi_am)
    big = lclm(phi_am, iso.mu)
    eta = exact_quotient(big, mu_m, "kernel union is not divisible by the "
                         "m-part", InternalInconsistency)
    psi_m = target_of(phi_m, eta)
    out = _certified(phi_m, psi_m, eta, certificate_factory(phi_m, eta.deg))
    if out.degree_ideal() != n:
        raise InternalInconsistency("Atkin-Lehner image has the wrong degree")
    if not out.is_cyclic():
        raise InternalInconsistency("Atkin-Lehner image is not cyclic")
    return ModuliPoint(out)


def diagram_closure_check(w, x, certificate_factory):
    """lambda eta_m = dual(mu_m) from diagram (4.1), checked literally."""
    iso = x.iso
    phi = iso.source
    a_m = w.m.gen
    mu_m, phi_m = split_at(phi, iso.mu, phi_a(phi, a_m))
    if mu_m.deg == 0:
        return True
    y = al_apply(w, x, certificate_factory)
    eta_m = right_gcd(y.iso.mu, phi_a(phi_m, a_m))
    # dual of mu_m: phi_m -> phi; mu_m: phi -> phi_m by split_at
    mu_m_iso = _certified(phi, phi_m, mu_m,
                          certificate_factory(phi, mu_m.deg))
    hat = iso_dual(mu_m_iso, certificate_factory)
    # hat.mu = lambda * eta_m for a scalar lambda in K^x
    return scalar_ratio(hat.mu, eta_m) is not None


@dataclass
class StarOrbit:
    """The full W(n)-translate list of a point, with optional Galois data."""

    base: ModuliPoint
    translates: list          # (ALElement, ModuliPoint)
    m_map: dict               # generator name -> IdealA (when galois given)
    decomposition: list       # ALElement fixing the base through Theta
    cm_suspected: bool

    @property
    def size(self):
        seen = []
        for _, pt in self.translates:
            key = (pt.level, pt.theta_pair())
            if key not in seen:
                seen.append(key)
        return len(seen)


def star_orbit(x, certificate_factory, galois=None):
    """All W(n)-translates; with Galois data, also the w_{m_s} matching
    each generator conjugate through Theta pairs."""
    iso = x.iso
    fq = iso.field.fq
    if fq.q % 2 == 0:
        raise EvenCharacteristic(
            "decomposition groups can exceed order 2 for even q"
        )
    n = iso.degree_ideal()
    group = al_group(n)
    translates = [(w, al_apply(w, x, certificate_factory)) for w in group]
    base_key = (x.level, x.theta_pair())
    decomposition = [
        w for w, pt in translates
        if not w.is_identity() and (pt.level, pt.theta_pair()) == base_key
    ]
    cm_suspected = bool(decomposition)
    m_map = {}
    if galois is not None:
        for name in galois.names:
            elem = galois.generator_element(name)
            s_source = conjugate_module(galois, elem, iso.source)
            s_target = conjugate_module(galois, elem, iso.target)
            s_pair = (j_invariant(s_source), j_invariant(s_target))
            match = None
            for w, pt in translates:
                if pt.theta_pair() == s_pair:
                    match = w
                    break
            if match is None:
                raise NotGStable(
                    f"conjugate by {name} is not a W(n)-translate of the point"
                )
            m_map[name] = match.m
    return StarOrbit(
        base=x,
        translates=translates,
        m_map=m_map,
        decomposition=decomposition,
        cm_suspected=cm_suspected,
    )


def descent_data(orbit, galois):
    """The homomorphism G -> W(n)/D_x and the polyquadratic degree bound.

    The bound is 2^rank of the image; relations of the presented group are
    checked against the Atkin-Lehner composition law modulo D_x.
    """
    if not orbit.m_map:
        raise NotGStable("orbit carries no Galois matching data")
    n = orbit.base.level
    d_x = {w.m for w in orbit.decomposition}
    # homomorphism check: each generator's order holds in W(n)/D_x
    for n1, o1 in zip(galois.names, galois.orders):
        w = ALElement(orbit.m_map[n1], n)
        acc = ALElement(unit_ideal(n.field), n)
        for _ in range(o1):
            acc = al_compose(acc, w)
        if not (acc.is_identity() or acc.m in d_x):
            raise NotAHomomorphism(
                f"generator {n1} violates its order in W(n)/D_x"
            )
    # rank of the image in the F_2 vector space of prime supports
    primes = [p for p, _ in n.factors()]
    basis = []
    for name in galois.names:
        vec = [1 if p.divides(orbit.m_map[name]) else 0 for p in primes]
        # reduce against the collected basis over F_2
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x)
            if vec[lead]:
                vec = [(a + c) % 2 for a, c in zip(vec, b)]
        if any(vec):
            basis.append(vec)
    rank = len(basis)
    return dict(orbit.m_map), 2 ** rank


def is_central(conjugate_isogenies, n):
    """True when every conjugate's primitive isogeny degree divides n."""
    for iso in conjugate_isogenies:
        if not iso.degree_ideal().divides(n):
            return False
    return True
