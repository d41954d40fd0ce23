"""Drinfeld A-modules: construction, phi_a, j-invariants, conjugates,
bounded endomorphism search, and constructive Weil descent.

A rank-2 module is phi_T = T + g tau + Delta tau^2.  Intertwiners of
bounded tau-degree are parametrized by their constant term through the
coefficient recurrence

    c_i (T^(q^i) - T) = g' c_{i-1}^q - g^(q^(i-1)) c_{i-1}
                        + Delta' c_{i-2}^(q^2) - Delta^(q^(i-2)) c_{i-2}

whose solutions are kernels of two tail linearized polynomials in c_0.
"""
from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConstantTerm,
    BudgetExceeded,
    CMSuspected,
    CocycleViolation,
    DivisionByZero,
    FieldMismatch,
    InternalInconsistency,
    NonCyclicGroup,
    NotRankTwo,
    RankZero,
    UnsupportedField,
)
from .fields import (RatFunc, ResidueElem, ResidueField, cleared_numerators,
                     monic_polys, primitive_numerators, row_relations,
                     shifted_sum)
from .skew import (SkewPoly, conjugate, kernel_dimension, right_divmod,
                   skew_eval)

# lines of kernels mod P that linearized_roots_in_Q may reconstruct before
# it gives up, and the degree of its first prime.  At degree 4 and below, a
# kernel mod P often has a spurious dimension (23 of the 72 searches of the
# `isogeny` workload's seeds 1-3 at degree 4), and each costs a second
# prime; at 5, 6 and 7 none had one, and 6 keeps a degree of margin.
ROOT_CANDIDATE_BUDGET = 20_000
_ROOT_PRIME_DEGREE = 6

__all__ = [
    "DrinfeldModule",
    "JInvariant",
    "NonCMCertificate",
    "DescentCocycle",
    "make_module",
    "phi_a",
    "j_invariant",
    "conjugate_module",
    "endo_search",
    "certify_non_cm",
    "descend_k_model",
]


class DrinfeldModule:
    """Rank-r module given by the image of T; immutable."""

    __slots__ = ("phiT",)

    def __init__(self, phiT):
        self.phiT = phiT

    @property
    def field(self):
        return self.phiT.field

    @property
    def rank(self):
        return self.phiT.deg

    @property
    def g(self):
        self._rank2()
        return self.phiT.coeff(1)

    @property
    def delta(self):
        self._rank2()
        return self.phiT.coeff(2)

    def _rank2(self):
        if self.rank != 2:
            raise NotRankTwo(f"rank {self.rank} module where rank 2 is required")

    def __eq__(self, other):
        return isinstance(other, DrinfeldModule) and other.phiT == self.phiT

    def __hash__(self):
        return hash(("DrinfeldModule", self.phiT))

    def __repr__(self):
        return f"DrinfeldModule({self.phiT})"


def make_module(phiT):
    """Validate phi_T: constant term T, tau-degree >= 1, nonzero lead."""
    field = phiT.field
    if phiT.deg < 1:
        raise RankZero("phi_T must have tau-degree at least 1")
    if phiT.constant() != field.T():
        raise BadConstantTerm("the differential of phi_T must equal T")
    return DrinfeldModule(phiT)


def phi_a(module, a):
    """The image of a in A under the module map (Horner over phi_T)."""
    field = module.field
    if a.field is not field.fq:
        raise FieldMismatch("polynomial over a different coefficient field")
    out = SkewPoly(field, ())
    for c in reversed(a.coeffs):
        out = out * module.phiT
        if c.val:
            out = out + SkewPoly.from_scalar(field.from_poly(a.field.poly([c])))
    return out


@dataclass(frozen=True)
class JInvariant:
    value: object  # ExtFieldElem

    def __repr__(self):
        return f"j({self.value!r})"


def j_invariant(module):
    """j = g^(q+1)/Delta for rank 2; classifies modules up to K-bar isomorphism."""
    g, delta = module.g, module.delta
    q = module.field.fq.q
    return JInvariant((g ** (q + 1)) / delta)


def conjugate_module(datum, element, module):
    """The conjugate module with phi_T replaced coefficientwise."""
    return DrinfeldModule(conjugate(datum, element, module.phiT))


# -- intertwiner closure ------------------------------------------------------

def intertwiner_closure(phi, psi, bound):
    """Linearized data for {u : u phi_T = psi_T u, deg_tau u <= bound}.

    Returns (slevels, dens, tails): c_i = slevels[i](c_0)/dens[i], with the
    scaled levels kept denominator-free so the tail constraints come out
    with polynomial coefficients.  The tails' common kernel is the set of
    admissible constant terms; left scaling does not change kernels.

    Lemma (no division).  x -> x^q is a ring endomorphism of A = F_q[T]
    that fixes F_q, so D(T^(q^k)) = D^(q^k) for every D in A; hence the
    quotients D^(q^k) / D the recurrence needs are exactly
    D^(q^k - 1) = prod_{j<k} (D^(q-1))^(q^j): one power D^(q-1), Frobenius
    spreads and products (`frobenius_quotients`).  The closure makes no
    polynomial division.
    """
    phi._rank2()
    psi._rank2()
    field = phi.field
    if psi.field is not field:
        raise FieldMismatch("modules over different fields")
    fq = field.fq
    g, dl = phi.g, phi.delta
    g2, dl2 = psi.g, psi.delta
    Tq = fq.poly_T()
    one = SkewPoly.from_scalar(field.one)
    tau = SkewPoly.tau(field)
    tau2 = SkewPoly.tau(field, 2)

    # Frobenius ladders g^(q^j), Delta^(q^j) and denominators
    # D_i = (T^(q^i) - T) D_{i-1}^q over A
    gpow = [g]
    dlpow = [dl]
    for _ in range(bound):
        gpow.append(gpow[-1].frob())
        dlpow.append(dlpow[-1].frob())
    binom = [None]  # T^(q^i) - T
    dens = [fq.poly_one]
    for i in range(1, bound + 1):
        binom.append(Tq.frob_power(i) - Tq)
        dens.append(binom[i] * dens[i - 1].frob_power(1))
    quo = [frobenius_quotients(d, 2) for d in dens]  # D^q / D, D^(q^2) / D

    def embed(p):
        return field.from_poly(p)

    slevels = [one]
    for i in range(1, bound + 1):
        sm1 = slevels[i - 1]
        acc = (tau * sm1).scale_left(g2) \
            - sm1.scale_left(gpow[i - 1] * embed(quo[i - 1][0]))
        if i >= 2:
            sm2 = slevels[i - 2]
            e_i = embed(binom[i - 1].frob_power(1))  # D_{i-1}^q / D_{i-2}^(q^2)
            acc = acc + (tau2 * sm2).scale_left(dl2 * e_i) \
                - sm2.scale_left(dlpow[i - 2] * e_i * embed(quo[i - 2][1]))
        slevels.append(acc)

    sN = slevels[bound]
    tail1 = (tau * sN).scale_left(g2) \
        - sN.scale_left(gpow[bound] * embed(quo[bound][0]))
    if bound >= 1:
        sN1 = slevels[bound - 1]
        e_t = embed(binom[bound].frob_power(1))
        tail1 = tail1 + (tau2 * sN1).scale_left(dl2 * e_t) \
            - sN1.scale_left(dlpow[bound - 1] * e_t * embed(quo[bound - 1][1]))
    tail2 = (tau2 * sN).scale_left(dl2) \
        - sN.scale_left(dlpow[bound] * embed(quo[bound][1]))
    tails = [t for t in (tail1, tail2) if not t.is_zero()]
    if not tails:
        raise InternalInconsistency("both closure constraints vanished")
    return slevels, dens, tails


def frobenius_quotients(d, kmax):
    """[D^(q^k) / D for k = 1 .. kmax] for nonzero D in A, without division:
    D^(q^k - 1) = prod_{j<k} (D^(q-1))^(q^j) (see intertwiner_closure)."""
    r = d ** (d.field.q - 1)
    out = [r]
    for j in range(1, kmax):
        out.append(out[-1] * r.frob_power(j))
    return out


def a_part_kernel_poly(field, t):
    """Subspace polynomial of {a(T) : a in A, deg a <= t} inside K.

    Built by the standard tower W <- tau W - W(v)^(q-1) W over the basis
    1, T, ..., T^t; monic of tau-degree t+1 with polynomial coefficients.
    """
    fq = field.fq
    tau = SkewPoly.tau(field)
    W = SkewPoly.from_scalar(field.one)
    v = field.one
    Tval = field.T()
    for _ in range(t + 1):
        wv = skew_eval(W, v)
        if wv.is_zero():
            raise InternalInconsistency("dependent basis in subspace polynomial")
        W = tau * W - W.scale_left(wv ** (fq.q - 1))
        v = v * Tval
    return W


def build_intertwiner(slevels, dens, c0):
    """Assemble the skew polynomial with constant term c0 via the recurrence."""
    field = c0.field
    coeffs = []
    for S, D in zip(slevels, dens):
        val = skew_eval(S, c0)
        if not D.is_one():
            val = val.scale(RatFunc.from_poly(D).inverse())
        coeffs.append(val)
    return SkewPoly(field, coeffs)


class CertificateCache:
    """Memoized certify_non_cm; certificates at a higher bound cover lower ones."""

    def __init__(self):
        self._by_module = {}

    def __call__(self, module, bound):
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        cached = self._by_module.get(module)
        if cached is not None and cached.covers(module, bound):
            return cached
        cert = certify_non_cm(module, bound)
        if cached is None or cached.bound < cert.bound:
            self._by_module[module] = cert
        return cert


@dataclass(frozen=True)
class NonCMCertificate:
    """Witness that a module has no endomorphisms beyond A up to a tau-degree.

    `dimension` is the F_q-dimension of the bounded intertwiner space; the
    certificate asserts it equals the count of phi_a with deg_tau <= bound.
    `method` says how the dimension was obtained ("j-invariant",
    "degrees", "modular" or "exact", see certify_non_cm) and `primes` lists
    the primes P tried, in order, as (P, "lucky" | "unlucky" | "skipped");
    neither takes part in equality.
    """

    module: DrinfeldModule
    bound: int
    dimension: int
    method: str = dataclasses.field(default="exact", compare=False)
    primes: tuple = dataclasses.field(default=(), compare=False)

    def covers(self, module, bound):
        return self.module == module and self.bound >= bound


# Candidates s the prime search may try, and good primes a proof may use.
# Sparse candidates come first and can all be reducible: over F_9 every
# T^6 + a T + b is, and the first prime of degree 6 is candidate 86.
_PRIME_CANDIDATE_BUDGET = 256
_MAX_GOOD_PRIMES = 2


def certify_non_cm(module, bound):
    """Bounded non-CM certificate, from the j-invariant or from the kernel
    dimension of the closure.

    The intertwiner space {u : u phi_T = phi_T u, deg_tau u <= bound} is
    parametrized by the common kernel, in an algebraic closure, of the tail
    constraints (intertwiner_closure).  It always contains the constant
    terms of the phi_a with 2 deg a <= bound, the F_q-span V of
    1, T, ..., T^m, m = bound // 2; the certificate holds exactly when the
    common kernel is V, of dimension m + 1.  The dimension is obtained in
    one of four ways (`NonCMCertificate.method`):

    - "j-invariant", when j is not integral over A: no closure is built,
      and the certificate holds at every bound (lemma below);
    - "degrees", one tail t: after checking exactly that t vanishes on V,
      the dimension is deg t - val t;
    - "modular", two tails: the same check, then the kernel dimension of
      the tails reduced modulo one prime P (`_modular_dimension`);
    - "exact", two tails the modular search did not prove (a refusal, two
      unlucky primes, or no good prime within the candidate budget): right
      division by the subspace polynomial W of V and the kernel dimension
      of the quotients.  Refusals always come from this path or
      from the degree count.

    Lemma (the j-invariant).  If an endomorphism over K-bar lies outside
    A, then End is an order in an imaginary quadratic extension of
    F_q(T), and a rank-2 module with CM has potentially good reduction at
    every finite place, so j is integral over A (Drinfeld 1974; Hayes,
    Explicit class field theory in global function fields, 1979).  So
    when j is not integral, End over K-bar is A, and the common kernel is
    V at every bound.  g = 0 gives j = 0, which is integral.
    Lemma (the A-part check).  W = prod_{v in V} (X - v) is separable and
    its kernel is exactly V, so W right-divides t if and only if t vanishes
    on V, and by F_q-linearity if and only if t(T^k) = 0 for k <= m.
    Lemma (the degree count).  If t = Q W then deg t = deg Q + m + 1 and,
    since W(0) != 0, val t = val Q; so deg t - val t, the dimension of the
    kernel of t, is (m + 1) plus the dimension of the kernel of Q.
    """
    module._rank2()
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    expected = bound // 2 + 1
    if not j_invariant(module).value.is_integral():
        return NonCMCertificate(module, bound, expected, "j-invariant", ())
    _, _, tails = intertwiner_closure(module, module, bound)
    dimension, method, primes = _kernel_dimension(module.field, tails, bound)
    if dimension > expected:
        raise CMSuspected(
            f"extra endomorphisms of tau-degree <= {bound}: "
            f"dimension {dimension} > {expected}"
        )
    return NonCMCertificate(module, bound, expected, method, primes)


def _kernel_dimension(field, tails, bound):
    """(dimension of the common kernel of the tails, method, primes tried).

    A modular prime has [A/P : F_q] >= 2 bound + 2 (see `_modular_dimension`).
    """
    for t in tails:
        if not _vanishes_on_a_part(t, bound // 2):
            raise InternalInconsistency(
                "A-part constants do not satisfy the closure constraints"
            )
    if len(tails) == 1:
        return kernel_dimension(tails), "degrees", ()
    dimension, primes = _modular_dimension(field, tails, bound, 2 * bound + 2)
    if dimension is not None:
        return dimension, "modular", primes
    return _exact_dimension(field, tails, bound), "exact", primes


def _vanishes_on_a_part(t, m):
    """t(T^k) == 0 for k = 0 .. m, exactly.

    Coordinate j of t(T^k) = sum_i c_ij T^(k q^i) vanishes exactly when it
    does times the common denominator of the c_ij: a sum of shifted
    numerators (`fields.shifted_sum`), with no polynomial products.
    """
    fq = t.field.fq
    for j in range(t.field.e):
        nums, _ = cleared_numerators(fq, [c.coords[j] for c in t.coeffs])
        for k in range(m + 1):
            shifts = [k * fq.q ** i for i in range(len(nums))]
            if not shifted_sum(nums, shifts).is_zero():
                return False
    return True


def _exact_dimension(field, tails, bound):
    """The exact path: each tail right-divided by the subspace polynomial W
    of the A-part, then the kernel dimension of the quotients.  Every tail
    vanishes on the A-part (`_kernel_dimension`), so W right-divides it by
    the A-part lemma of `certify_non_cm`."""
    W = a_part_kernel_poly(field, bound // 2)
    quotients = [right_divmod(t, W)[0] for t in tails]
    return bound // 2 + 1 + kernel_dimension(quotients)


def _residue_primes(field, degree):
    """Candidates (P, s) in a fixed order: s runs over the monic polynomials
    of A in packed order (`monic_polys`) from degree ceil(degree / e); P is
    the monic part of L f(s), L the common denominator of f's coefficients,
    kept when deg P >= degree and P is prime to L.  Then s mod P is a root
    of f mod P, so x -> s is a ring map from the P-integral elements of K
    onto A/P (for e = 1, f = x and P = s).  P may still be reducible."""
    fq = field.fq
    cleared, den = cleared_numerators(fq, field.f)
    for s in monic_polys(fq, max(1, -(-degree // field.e))):
        val = fq.poly_zero
        for c in reversed(cleared):
            val = val * s + c
        P = val.monic()
        if P.degree >= degree and P.gcd(den).is_one():
            yield P, s


def _has_root(P):
    """True when P has degree >= 2 and a root in F_q, so is reducible:
    Horner's rule at each element of F_q on the scalar kernels, which costs
    less than building A/P for its Rabin test."""
    if P.degree < 2:
        return False
    fq = P.field
    coeffs = [int(c) for c in P.array[::-1]]
    for x in range(fq.q):
        acc = 0
        for c in coeffs:
            acc = fq.sadd(fq.smul(acc, x), c)
        if acc == 0:
            return True
    return False


def _prime_residues(P):
    """A/P when the monic P is irreducible, else None: the one screen of
    candidate primes.  A candidate with a root in F_q (`_has_root`) or a
    repeated factor is dropped before Rabin's test."""
    if _has_root(P) or not P.gcd(P.derivative()).is_one():
        return None
    F = ResidueField(P.field, P)
    return F if F.is_field() else None


def _reduce_tails(F, tails, s):
    """The tails' coefficients mapped to A/P by x -> s, or None when a
    coefficient's denominator vanishes mod P.

    A coefficient sum_j (n_j / d_j) x^j with common denominator L maps to
    N / L mod P, N = sum_j n_j (L / d_j) s^j (`ResidueField.reduce`).
    """
    cleared = [cleared_numerators(F.fq, c.coords)
               for t in tails for c in t.coeffs]
    values = F.reduce([nums for nums, _ in cleared], s)
    dens = [(i, L) for i, (_, L) in enumerate(cleared) if not L.is_one()]
    if dens:
        for (i, _), dv in zip(dens, F.reduce([L for _, L in dens])):
            if dv.is_zero():
                return None
            values[i] = values[i] / dv
    values = iter(values)
    return [[next(values) for _ in t.coeffs] for t in tails]


def _modular_dimension(field, tails, bound, residue_degree):
    """(dimension, primes tried): the dimension of the common kernel of the
    two tails when one prime proves it equals bound // 2 + 1, else None.

    Lemma (one good prime; Brown, JACM 18 (1971), and Li & Nemes, ISSAC
    1997, for Ore polynomials).  Let x -> s be a ring map from the
    P-integral elements of K onto F = A/P (`_residue_primes`); reduction
    mod P commutes with the q-power map, so it is a ring map on P-integral
    skew polynomials.  Let t1 = tails[0] = t1' tau^v, and suppose the lead
    of t1 and its coefficient at tau^v are P-units and every coefficient of
    both tails is P-integral.  Take a valuation ring above P in an algebraic
    closure.  The roots of t1' are integral (t1' / lead is monic and
    integral), their product is +-(coefficient at tau^v) / lead, a unit, so
    each is a unit, and t1' mod P is separable (its derivative is the unit
    coefficient at tau^v): reduction maps the roots of t1' injectively, and
    with them the roots of t1, their q^v-th roots.  A common root of the
    tails maps to a common root of the reduced pair, so the reduced right
    gcd g has deg g - val g >= the exact dimension, which is >= bound // 2
    + 1 once the tails vanish on the A-part (certify_non_cm).  A reduced
    dimension of bound // 2 + 1 therefore proves the certificate.

    A larger reduced dimension means CM or an unlucky prime: after
    `_MAX_GOOD_PRIMES` good primes, or `_PRIME_CANDIDATE_BUDGET`
    candidates, the caller falls back to the exact path.  Over the finite
    field F the reduced module has the Frobenius endomorphism, of tau-degree
    [F : F_q], so residue degrees below 2 bound + 2 give too large a
    dimension far more often.  Primes of degree <= bound divide some
    T^(q^i) - T, i <= bound, a factor of the closure's denominators, and
    usually of the tails' leads: those are skipped.  A reducible candidate
    is dropped unrecorded (`_prime_residues`).
    """
    expected = bound // 2 + 1
    t1 = tails[0]
    v1 = t1.tau_valuation()
    primes = []
    good = 0
    candidates = _residue_primes(field, residue_degree)
    for _ in range(_PRIME_CANDIDATE_BUDGET):
        P, s = next(candidates)
        F = _prime_residues(P)
        if F is None:
            continue
        reduced = _reduce_tails(F, tails, s)
        if reduced is None or reduced[0][v1].is_zero() \
                or reduced[0][-1].is_zero():
            primes.append((P, "skipped"))
            continue
        dimension = kernel_dimension([SkewPoly(F, t) for t in reduced])
        if dimension < expected:
            raise InternalInconsistency(
                "reduced constraints lost the A-part constants"
            )
        good += 1
        if dimension == expected:
            primes.append((P, "lucky"))
            return dimension, tuple(primes)
        primes.append((P, "unlucky"))
        if good == _MAX_GOOD_PRIMES:
            break
    return None, tuple(primes)


def _lin_eval_is_zero(cleared, u, v):
    """sum_i C_i u^(q^i) v^(q^m - q^i) == 0, evaluated in A, m = len(cleared)
    - 1: the cleared constraint at u/v, times v^(q^m)."""
    vq = [v]
    for _ in range(len(cleared) - 1):
        vq.append(vq[-1].frob_power(1))
    acc = u.field.poly_zero
    for i, c in enumerate(cleared):
        if not c.is_zero():
            acc = acc + c * u.frob_power(i) * (vq[-1] // vq[i])
    return acc.is_zero()


def _root_prime(fq, n, avoid):
    """A/P for the first monic irreducible P of degree >= n in packed order
    (`monic_polys`, `_prime_residues`) that divides no polynomial in
    `avoid`."""
    for P in monic_polys(fq, n):
        F = _prime_residues(P)
        if F is not None and not any(a.is_zero() for a in F.reduce(avoid)):
            return F


def _reconstruct(P, r, k):
    """The fraction u/v, deg u <= k, deg v < deg P - k, with u = r v mod P
    and gcd(u, v) = 1, or None: the extended Euclid on (P, r), stopped at
    the first remainder of degree <= k (von zur Gathen & Gerhard, Modern
    Computer Algebra, Theorem 5.26: the one candidate)."""
    fq = P.field
    r0, r1 = P, r
    t0, t1 = fq.poly_zero, fq.poly_one
    while r1.degree > k:
        quo, rem = divmod(r0, r1)
        r0, r1, t0, t1 = r1, rem, t1, t0 - quo * t1
    if r1.is_zero() or t1.degree >= P.degree - k \
            or not r1.gcd(t1).is_one():
        return None
    return RatFunc.make(r1, t1)


def linearized_roots_in_Q(gpoly, extra=(), known=()):
    """All c in Q with sum g_i c^(q^i) = 0 that also kill every constraint
    in `extra`, for coefficients in Q (e = 1), found modulo one prime.

    `gpoly` is cleared to a primitive vector C_0, .., C_m over A
    (`primitive_numerators`), each other constraint to a vector over A
    (`cleared_numerators`).  The common kernel K_P of the cleared
    constraints on A/P, of F_q-dimension d, comes from one elimination over
    F_q (`ResidueField.linearized_matrices`, `fields.row_relations`).  Each
    F_q-line of K_P is lifted by rational reconstruction (`_reconstruct`)
    and checked exactly, once, on every cleared constraint in A
    (`_lin_eval_is_zero`): a cleared constraint vanishes at u/v exactly
    when the constraint does.

    Lemma.  Let s be the tau-valuation of `gpoly`.  A root u/v in lowest
    terms has u | C_s and v | C_m: times v^(q^m), the equation gives
    C_m u^(q^m) = 0 mod v, and C_s u^(q^s) v^(q^m - q^s) = 0 mod
    u^(q^(s + 1)).  P is the first monic irreducible of degree n prime to
    C_s C_m (`_root_prime`), so every root is P-integral, its residue lies
    in K_P, and reduction is injective on the F_q-space of roots (a root
    with P | u would need P | C_s).  So there are at most q^d - 1 nonzero
    roots, and the search is complete when the verified lines fill K_P,
    (q - 1) lines = q^d - 1.  Otherwise the next prime has degree 2n + 1.
    Once n > deg C_s + deg C_m, reconstruction with deg u <= deg C_s and
    deg v < n - deg C_s finds every root, so the verified lines are all of
    them.  A tail with s > 0 needs no q-th roots: the lemma holds for it
    as it is.  The degrees after the first are odd, so A/P no longer
    contains F_(q^2): a kernel that comes from a constant-field extension
    (a twist by a non-square of F_q, or CM by F_(q^2)) does not reduce into
    it again.

    `known` lists F_q-independent roots in A.  When the roots are their
    span, it is returned in packed order (digit i of the index is the
    coefficient of known[i]), with no reconstruction when they fill K_P;
    any other result is sorted by (deg den, deg num, text).
    Reconstructing more than ROOT_CANDIDATE_BUDGET lines raises
    BudgetExceeded.
    """
    field = gpoly.field
    if field.e != 1:
        raise UnsupportedField("automatic root search requires K = Q")
    fq = field.fq
    if gpoly.is_zero():
        raise DivisionByZero("root search on the zero constraint")
    cleared = primitive_numerators(fq, [c.as_rat() for c in gpoly.coeffs])
    tails = [cleared] + [cleared_numerators(fq, [c.as_rat() for c in t.coeffs])[0]
                         for t in extra]
    low, high = cleared[gpoly.tau_valuation()], cleared[-1]
    n, tried = _ROOT_PRIME_DEGREE, 0
    q = fq.q
    lines = []
    while True:
        F = _root_prime(fq, n, (low, high))
        basis = [ResidueElem(F, vec).lift() for _, vec in row_relations(
            fq, np.hstack(F.linearized_matrices(tails)))]
        if len(basis) == len(known):
            break
        count = (q ** len(basis) - 1) // (q - 1)
        tried += count
        if tried > ROOT_CANDIDATE_BUDGET:
            raise BudgetExceeded("reconstructed lines", ROOT_CANDIDATE_BUDGET)
        deg_u = min(low.degree, F.n - 1 - min(high.degree, (F.n - 1) // 2))
        lines = []
        # one residue per line: its last nonzero digit, k, is 1
        for k in range(len(basis)):
            for index in range(q ** k, 2 * q ** k):
                root = _reconstruct(F.P, _combination(fq, basis, index), deg_u)
                if root is not None and all(
                        _lin_eval_is_zero(C, root.num, root.den)
                        for C in tails):
                    lines.append(root)
        if len(lines) == count or F.n > low.degree + high.degree:
            break
        n = 2 * F.n + 1
    if len(basis) == len(known) or (q - 1) * len(lines) + 1 == q ** len(known):
        return [field.from_poly(_combination(fq, known, index))
                for index in range(1, q ** len(known))]
    roots = []
    for r in lines:
        for xi in range(1, q):
            roots.append(RatFunc(fq, r.num.scale(fq.elem_packed(xi)), r.den))
    roots.sort(key=lambda r: (r.den.degree, r.num.degree, repr(r)))
    return [field.from_rat(r) for r in roots]


def _combination(fq, basis, index):
    """sum_i digit_i basis[i] in A, digit_i the i-th base-q digit of index."""
    acc = fq.poly_zero
    for i, b in enumerate(basis):
        digit = index // fq.q ** i % fq.q
        if digit:
            acc = acc + b.scale(fq.elem_packed(digit))
    return acc


def intertwiner_space(phi, psi, bound, candidates=None):
    """All nonzero u with u phi_T = psi_T u and deg_tau u <= bound.

    Complete over K = Q: the constant terms are the common roots in Q of
    the closure's tails (`intertwiner_closure`), which
    `linearized_roots_in_Q` finds modulo one prime and proves complete by
    the dimension of the tails' kernel there.  When phi = psi, the A-part
    constants 1, T, .., T^(bound // 2) are roots; if they fill that kernel,
    they are all the roots.  Over a proper extension the caller must supply
    constant-term candidates, and only those are tested.

    The search returns whole F_q-lines of roots, xi c0 for xi in F_q^x,
    and one intertwiner is checked per line, the one whose constant term
    has leading scalar 1: xi is fixed by Frobenius, so the intertwiner of
    xi c0, xi u, intertwines exactly when u does.  Candidates need not come
    in whole lines, and each is checked.
    """
    slevels, dens, tails = intertwiner_closure(phi, psi, bound)
    field = phi.field
    if candidates is None:
        if field.e != 1:
            raise UnsupportedField(
                "constant-term candidates are required over a proper extension"
            )
        one = field.fq.poly_one
        known = ([one.shift(k) for k in range(bound // 2 + 1)]
                 if phi == psi else ())
        roots = linearized_roots_in_Q(tails[0], extra=tails[1:], known=known)
    else:
        roots = [c for c in candidates
                 if all(skew_eval(t, c).is_zero() for t in tails)]
    out = []
    for c0 in roots:
        if c0.is_zero():
            continue
        u = build_intertwiner(slevels, dens, c0)
        if (candidates is not None or _lead_scalar(c0) == field.fq.one) \
                and (u * phi.phiT) != (psi.phiT * u):
            raise InternalInconsistency("closure produced a non-intertwiner")
        out.append(u)
    return out


def _lead_scalar(c):
    """The leading coefficient of the first nonzero numerator of c."""
    return next(r for r in c.coords if not r.is_zero()).num.lc()


def endo_search(module, bound):
    """Spanning set of the endomorphisms of tau-degree <= bound.

    Always contains the phi_a with 2 deg a <= bound; anything further is
    CM evidence.
    """
    space = intertwiner_space(module, module, bound)
    if bound >= 2:
        if module.phiT not in space:
            raise InternalInconsistency("endomorphism search missed phi_T")
    return space


# -- Weil descent -------------------------------------------------------------

@dataclass(frozen=True)
class DescentCocycle:
    """A family nu_s of isomorphisms s(phi) -> phi with s(nu_t) nu_s = nu_st."""

    datum: object  # GaloisDatum
    values: tuple  # ((element, ExtFieldElem), ...) over all group elements

    @classmethod
    def from_map(cls, datum, mapping):
        elems = datum.elements()
        vals = []
        for e in elems:
            if tuple(e) not in mapping and e != datum.identity():
                raise CocycleViolation(f"missing cocycle value for {e}")
            vals.append((tuple(e), mapping.get(tuple(e), datum.field.one)))
        return cls(datum, tuple(vals))

    def value(self, element):
        for e, v in self.values:
            if e == tuple(element):
                return v
        raise KeyError(element)

    def validate(self, module):
        datum = self.datum
        field = datum.field
        ident = datum.identity()
        if self.value(ident) != field.one:
            raise CocycleViolation("nu_id must be 1")
        for e, nu in self.values:
            if nu.is_zero():
                raise CocycleViolation("cocycle value is zero")
            conj = conjugate_module(datum, e, module)
            lhs = SkewPoly.from_scalar(nu) * conj.phiT
            rhs = module.phiT * SkewPoly.from_scalar(nu)
            if lhs != rhs:
                raise CocycleViolation(f"nu_{e} is not an isomorphism onto phi")
        for s, nu_s in self.values:
            for t, nu_t in self.values:
                st = datum.compose(s, t)
                lhs = datum.apply(s, nu_t) * nu_s
                if lhs != self.value(st):
                    raise CocycleViolation(f"cocycle relation fails at {s}, {t}")


# random thetas descend_k_model tries while the Poincare series vanishes
_DESCENT_TRIES = 64


def descend_k_model(module, cocycle, rng=None):
    """Produce a model with Galois-fixed coefficients (Hilbert 90, cyclic case).

    nu is built as the Poincare series sum_i nu_{s^i} s^i(theta) over the
    cyclic group with randomized theta, retrying while the sum vanishes.
    """
    datum = cocycle.datum
    if not datum.is_cyclic():
        raise NonCyclicGroup("constructive descent implemented for cyclic actions")
    cocycle.validate(module)
    field = datum.field
    if rng is None:
        rng = random.Random(0x90)
    order = datum.orders[0] if datum.generators else 1
    gen = datum.generator_element(datum.names[0]) if datum.generators else datum.identity()

    def poincare(theta):
        total = field.zero
        elem = datum.identity()
        for _ in range(order):
            total = total + cocycle.value(elem) * datum.apply(elem, theta)
            elem = datum.compose(elem, gen)
        return total

    b = poincare(field.one)
    tries = 0
    while b.is_zero():
        tries += 1
        if tries > _DESCENT_TRIES:
            raise InternalInconsistency("no nonzero Poincare series element found")
        fq = field.fq
        coords = [
            fq.rat(fq.poly([fq.elem_packed(rng.randrange(fq.q)) for _ in range(2)]))
            for _ in range(field.e)
        ]
        b = poincare(field.elem(coords))
    nu = b.inverse()
    # check the constructive Hilbert-90 identity nu_s = nu^(-1) s(nu)
    elem = datum.identity()
    for _ in range(order):
        if cocycle.value(elem) != b * datum.apply(elem, nu):
            raise InternalInconsistency("Poincare element does not split the cocycle")
        elem = datum.compose(elem, gen)
    nu_sk = SkewPoly.from_scalar(nu)
    nu_inv_sk = SkewPoly.from_scalar(nu.inverse())
    psiT = nu_sk * module.phiT * nu_inv_sk
    model = make_module(psiT)
    for c in psiT.coeffs:
        if not datum.is_fixed(c):
            raise InternalInconsistency("descended coefficients are not Galois-fixed")
    return model
