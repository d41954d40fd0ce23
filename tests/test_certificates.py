"""Non-CM certificates: how each is obtained, the planted faults each path
must catch, and the modular proof against the exact path."""
import random

import pytest

from dforge import drinfeld
from dforge.drinfeld import (
    _exact_dimension,
    _kernel_dimension,
    _modular_dimension,
    _residue_primes,
    certify_non_cm,
    conjugate_module,
    intertwiner_closure,
    j_invariant,
    make_module,
)
from dforge.errors import CMSuspected, InternalInconsistency
from dforge.extfield import ExtField, GaloisDatum
from dforge.fields import Fq, RatFunc, ResidueField, is_irreducible
from dforge.randgen import (
    random_ext_elem,
    random_fq_poly,
    rotation_pair,
    two_prime_point,
)
from dforge.skew import SkewPoly

import roots_reference
from helpers import brute_force_linear_factors, quadratic_field, rational_field


def field_of_order(q):
    """(p, modulus) of F_q as `dforge example35` builds it, for the field
    caches of `helpers`."""
    fq = Fq.of_order(q)
    return fq.p, fq.modulus if fq.d > 1 else None


def example35_modules(q):
    """(phi, s(phi)) of the worked example: phi_T = mu eta over
    F_q(T)(sqrt(T + 1)), as `dforge example35` builds them."""
    K = quadratic_field(*field_of_order(q))
    alpha, one = K.gen(), K.one
    mu = SkewPoly(K, (alpha + one, -one))
    eta = SkewPoly(K, (alpha - one, one))
    phi = make_module(mu * eta)
    galois = GaloisDatum(K, [("s", 2, -alpha)])
    return phi, conjugate_module(galois, galois.generator_element("s"), phi)


def cm_module(K, a):
    """phi_T = u^2 - 1 for u = x + a tau, x = sqrt(T + 1): u commutes with
    phi_T and has odd tau-degree, so phi has CM by A[x]."""
    u = SkewPoly(K, (K.gen(), a))
    return make_module(u * u - SkewPoly.from_scalar(K.one))


def g_zero_module(rng, K):
    """g = 0: every zeta in F_(q^2) commutes with phi_T, so phi has CM."""
    delta = random_ext_elem(rng, K, 1, nonzero=True)
    return make_module(SkewPoly(K, (K.T(), K.zero, delta)))


def integral_by_trace_and_norm(c):
    """c integral over A: in A for K = Q; for K = Q(sqrt(D)), trace 2a
    and norm a^2 - D b^2 of c = a + b x in A."""
    if c.field.e == 1:
        return c.coords[0].den.is_one()
    a, b = c.coords
    D = -c.field.f[0]
    return a.den.is_one() and (a * a - D * b * b).den.is_one()


def j_integral(module):
    """j = g^(q+1) / Delta integral over A, by trace and norm."""
    return integral_by_trace_and_norm(
        (module.g ** (module.field.fq.q + 1)) / module.delta)


def non_integral_j_module(rng, K):
    while True:
        g = random_ext_elem(rng, K, 1, nonzero=True)
        delta = random_ext_elem(rng, K, 1, nonzero=True)
        phi = make_module(SkewPoly(K, (K.T(), g, delta)))
        if not j_integral(phi):
            return phi


def first_prime(field, bound):
    """The first candidate P of the modular search that is prime."""
    for P, s in _residue_primes(field, 2 * bound + 2):
        if ResidueField(field.fq, P).is_field():
            return P


def tails_of(module, bound):
    return intertwiner_closure(module, module, bound)[2]


# -- provenance -----------------------------------------------------------------

@pytest.mark.parametrize("q", [5, 7])
def test_example35_certificates_are_modular(q):
    for module in example35_modules(q):
        cert = certify_non_cm(module, 2)
        assert cert.dimension == 2
        assert cert.method == "modular"
        assert cert.primes[-1][1] == "lucky"
        assert all(v == "skipped" for _, v in cert.primes[:-1])


def test_isogeny_sized_certificate_is_modular():
    # short tails take the modular route as well; the exact path agrees.
    # certify_non_cm itself needs no tails: j(phi) is not integral
    rng = random.Random(5)
    Q3 = rational_field(3)
    phi = rotation_pair(rng, Q3)[0]
    tails = tails_of(phi, 1)
    assert len(tails) == 2
    dimension, method, primes = _kernel_dimension(Q3, tails, 1)
    assert (method, dimension) == ("modular", 1)
    assert primes[-1][1] == "lucky"
    assert _exact_dimension(Q3, tails, 1) == dimension
    assert certify_non_cm(phi, 1).method == "j-invariant"


def test_provenance_takes_no_part_in_equality():
    phi = example35_modules(5)[0]
    cert = certify_non_cm(phi, 2)
    plain = drinfeld.NonCMCertificate(phi, 2, 2)
    assert plain.method == "exact" and plain.primes == ()
    assert cert == plain and hash(cert) == hash(plain)


# -- the j-invariant route ---------------------------------------------------------

def scalar_twist(phi):
    """c phi_T c^-1 for c = T + 1: coefficients with denominators."""
    K = phi.field
    c = K.from_poly(K.fq.poly([1, 1]))
    return make_module(SkewPoly.from_scalar(c) * phi.phiT
                       * SkewPoly.from_scalar(c.inverse()))


def j_route_families():
    Q3 = rational_field(3)
    rng = random.Random(31)
    for i in range(3):
        for module in rotation_pair(rng, Q3, shift=i)[:2]:
            yield "rotation", module
    for _ in range(2):
        phi = two_prime_point(rng, Q3)[0]
        yield "two-prime", phi
        yield "twist", scalar_twist(phi)
    for make_field, _ in WORKLOAD_FIELDS:
        K = make_field()
        yield "non-integral j", non_integral_j_module(
            random.Random(K.fq.q * 10 + K.e), K)


def test_j_route_agrees_with_the_closure():
    # the route fires exactly when j is not integral, by the trace/norm
    # oracle; the closure proves the same dimension at bounds 1-3
    fired = {}
    for family, module in j_route_families():
        K = module.field
        for bound in (1, 2, 3):
            cert = certify_non_cm(module, bound)
            assert (cert.method == "j-invariant") == (not j_integral(module))
            assert cert.dimension == bound // 2 + 1 and cert.bound == bound
            dimension, _, _ = _kernel_dimension(K, tails_of(module, bound), bound)
            assert dimension == bound // 2 + 1
        fired[family] = fired.get(family, 0) + (cert.method == "j-invariant")
    assert fired == {"rotation": 2, "two-prime": 2, "twist": 2,
                     "non-integral j": 4}


def test_cm_modules_have_integral_j():
    rng = random.Random(17)
    for make_field, _ in WORKLOAD_FIELDS:
        K = make_field()
        assert j_invariant(g_zero_module(rng, K)).is_integral()
    for K in (quadratic_field(5), quadratic_field(7)):
        for _ in range(3):
            cm = cm_module(K, random_ext_elem(rng, K, 1, nonzero=True))
            assert j_invariant(cm).is_integral()


def test_is_integral_against_trace_and_norm():
    K5 = quadratic_field(5)
    T, x = K5.T(), K5.gen()
    # norm 2 + T lies in A, trace 2 / T does not
    a = (K5.one + K5.from_poly(K5.fq.poly([1, 2])) * x) / T
    assert not a.is_integral() and not integral_by_trace_and_norm(a)
    seen = set()
    for K in (rational_field(3), K5, quadratic_field(7)):
        rng = random.Random(K.fq.q)
        cases = [x / T, x * x / T] if K is K5 else []
        for _ in range(40):
            num = random_ext_elem(rng, K, 3, nonzero=True)
            den = random_fq_poly(rng, K.fq, rng.randrange(3), nonzero=True)
            cases.append(num.scale(RatFunc.from_poly(den).inverse()))
        for c in cases:
            assert c.is_integral() == integral_by_trace_and_norm(c), c
            seen.add(c.is_integral())
    assert seen == {True, False}


def test_minimal_polynomial_of_a_cube_root():
    # K = Q(x), x^3 = T: Eisenstein at T, so A[x] is the ring of integers
    # and c is integral exactly when its coordinates lie in A
    fq = rational_field(7).fq
    K = ExtField(fq, [-fq.rat(fq.poly_T()), fq.rat_zero, fq.rat_zero,
                      fq.rat_one])
    rng = random.Random(3)
    for _ in range(20):
        den = random_fq_poly(rng, fq, rng.randrange(2), nonzero=True)
        c = random_ext_elem(rng, K, 2).scale(RatFunc.from_poly(den).inverse())
        coeffs = c.minimal_polynomial()
        assert len(coeffs) == (2 if c.in_base() else 4)
        value = K.zero
        for r in reversed(coeffs):
            value = value * c + K.from_rat(r)
        assert value.is_zero()
        assert c.is_integral() == all(r.den.is_one() for r in c.coords)


# -- planted faults ---------------------------------------------------------------

def off_the_a_part(t):
    """t + (tau - 1): the same value at 1, but t(T) changes by T^q - T."""
    K = t.field
    return t + SkewPoly(K, (-K.one, K.one))


def test_one_tail_off_the_a_part_is_inconsistent():
    K5 = quadratic_field(5)
    phi = g_zero_module(random.Random(7), K5)
    (t,) = tails_of(phi, 2)
    assert _kernel_dimension(K5, [t], 2)[1] == "degrees"
    with pytest.raises(InternalInconsistency):
        _kernel_dimension(K5, [off_the_a_part(t)], 2)


def test_two_tails_off_the_a_part_are_inconsistent():
    phi = example35_modules(5)[0]
    K = phi.field
    t1, t2 = tails_of(phi, 2)
    assert _kernel_dimension(K, [t1, t2], 2)[1] == "modular"
    for pair in ([off_the_a_part(t1), t2], [t1, off_the_a_part(t2)]):
        with pytest.raises(InternalInconsistency):
            _kernel_dimension(K, pair, 2)


def test_prime_dividing_the_lead_is_skipped():
    phi = example35_modules(5)[0]
    K = phi.field
    t1, t2 = tails_of(phi, 2)
    P = first_prime(K, 2)
    assert certify_non_cm(phi, 2).primes[0] == (P, "lucky")
    # left scaling by P keeps the kernel but makes t1's lead a multiple of P
    scaled = t1.scale_left(K.from_poly(P))
    dimension, primes = _modular_dimension(K, [scaled, t2], 2, 6)
    assert primes[0] == (P, "skipped")
    assert primes[-1][1] == "lucky" and dimension == 2


@pytest.mark.parametrize("q", [3, 5, 9])
def test_root_screen_drops_only_reducible_candidates(q):
    fq = rational_field(*field_of_order(q)).fq
    rng = random.Random(q)
    polys = [random_fq_poly(rng, fq, 4, monic=True) for _ in range(150)]
    for P in polys + [fq.poly_T(), fq.poly([1, 1])]:
        roots = P.degree >= 1 and brute_force_linear_factors(P)
        assert drinfeld._has_root(P) == (P.degree >= 2 and bool(roots)), P
        if drinfeld._has_root(P):
            assert not is_irreducible(P)


def test_root_screen_keeps_the_recorded_primes(monkeypatch):
    # reducible candidates are dropped unrecorded, whichever test finds them
    Q3 = rational_field(3)
    rng = random.Random(1)
    cases = [(phi.field, tails_of(phi, 2), 6)
             for q in (5, 9) for phi in example35_modules(q)]
    cases += [(Q3, tails_of(rotation_pair(rng, Q3, shift=i)[0], 2), 3)
              for i in range(3)]
    for K, tails, degree in cases:
        screened = _modular_dimension(K, tails, 2, degree)
        with monkeypatch.context() as m:
            m.setattr(drinfeld, "_has_root", lambda P: False)
            assert _modular_dimension(K, tails, 2, degree) == screened


def _at_residue_degree(degree):
    """`_modular_dimension` taking primes of residue degree `degree`."""
    return lambda field, tails, bound, _: _modular_dimension(
        field, tails, bound, degree)


def test_forced_unlucky_primes_fall_back_to_the_exact_path(monkeypatch):
    # at bound 2, residue degree 3 instead of 6: primes of degree <= 2
    # divide the closure's leads and are skipped, and many of degree 3 give
    # too large a dimension; the exact path then decides, and refuses what
    # it would refuse anyway
    Q3 = rational_field(3)
    rng = random.Random(1)
    fallbacks = refusals = 0
    monkeypatch.setattr(drinfeld, "_modular_dimension", _at_residue_degree(3))
    for i in range(24):
        phi = rotation_pair(rng, Q3, shift=i % 3)[0]
        tails = tails_of(phi, 2)
        exact = _exact_dimension(Q3, tails, 2)
        dimension, method, primes = _kernel_dimension(Q3, tails, 2)
        assert dimension == exact
        marks = [v for _, v in primes]
        if marks.count("unlucky") == 2:
            assert method == "exact"
            fallbacks += exact == 2
            refusals += exact > 2
        else:
            assert method == "modular" and exact == 2
    assert fallbacks >= 2 and refusals >= 1
    # a CM module is refused at any residue degree
    K5 = quadratic_field(5)
    rng = random.Random(11)
    for _ in range(3):
        cm = cm_module(K5, random_ext_elem(rng, K5, 1, nonzero=True))
        tails = tails_of(cm, 2)
        exact = _exact_dimension(K5, tails, 2)
        assert exact > 2
        for degree in (1, 2, 6):
            monkeypatch.setattr(drinfeld, "_modular_dimension",
                                _at_residue_degree(degree))
            assert _kernel_dimension(K5, tails, 2)[:2] == (exact, "exact")


def test_certificates_avoid_the_skew_division(monkeypatch):
    # the division-free paths never build W nor divide by it
    def forbidden(*args):
        raise AssertionError("exact path taken")

    monkeypatch.setattr(drinfeld, "a_part_kernel_poly", forbidden)
    monkeypatch.setattr(drinfeld, "right_divmod", forbidden)
    phi = g_zero_module(random.Random(3), rational_field(3))
    with pytest.raises(CMSuspected):
        certify_non_cm(phi, 4)
    for module in example35_modules(5):
        assert certify_non_cm(module, 2).method == "modular"


# -- the one walk over primes ----------------------------------------------------

def old_kernel_dimension(field, tails, bound):
    """(dimension, method, primes) of two tails by the old walk, which
    cleared each coefficient at every prime (roots_reference)."""
    dimension, primes = roots_reference._modular_dimension(
        field, tails, bound, 2 * bound + 2)
    if dimension is not None:
        return dimension, "modular", primes
    return _exact_dimension(field, tails, bound), "exact", primes


def test_certificates_against_the_old_walk():
    # the example35 certificates at q = 3..11 and the K5cm refusals of the
    # `cm` workload keep their dimension, method and primes
    K5 = quadratic_field(5)
    rng = random.Random(13)
    modules = [module for q in (3, 5, 7, 9, 11)
               for module in example35_modules(q)]
    modules += [cm_module(K5, random_ext_elem(rng, K5, 1, nonzero=True))
                for _ in range(4)]
    methods = set()
    for module in modules:
        K = module.field
        tails = tails_of(module, 2)
        got = _kernel_dimension(K, tails, 2)
        assert got == old_kernel_dimension(K, tails, 2)
        methods.add(got[1])
    assert methods == {"modular", "exact"}


def test_module_with_denominators_is_certified():
    # c phi_T c^-1 for c = T + 1 and for c = P, the first prime the
    # modular search tries: g and Delta have denominators, j is integral,
    # so the two tails decide.  The old walk skipped P, a denominator of
    # some coefficient; the walk clears each tail once, and P is good for
    # the cleared tails
    phi = example35_modules(3)[0]
    K = phi.field
    P = first_prime(K, 2)
    for c, old_first in ((K.fq.poly([1, 1]), "lucky"), (P, "skipped")):
        c = K.from_poly(c)
        twist = make_module(SkewPoly.from_scalar(c) * phi.phiT
                            * SkewPoly.from_scalar(c.inverse()))
        assert any(not r.den.is_one() for r in twist.g.coords)
        assert j_integral(twist)
        tails = tails_of(twist, 2)
        cert = certify_non_cm(twist, 2)
        assert cert.dimension == _exact_dimension(K, tails, 2) == 2
        assert (cert.method, cert.primes) == ("modular", ((P, "lucky"),))
        old = old_kernel_dimension(K, tails, 2)
        assert old[:2] == (2, "modular") and old[2][0] == (P, old_first)


# -- modular against exact -------------------------------------------------------

def agree_with_exact(module, bound):
    """certify_non_cm and the modular path against the exact dimension.

    The modular path runs whatever the tail length.  Returns whether it
    granted a certificate."""
    K = module.field
    tails = tails_of(module, bound)
    expected = bound // 2 + 1
    exact = _exact_dimension(K, tails, bound)
    granted = False
    if len(tails) == 2:
        dimension, _ = _modular_dimension(K, tails, bound, 2 * bound + 2)
        granted = dimension is not None
        assert dimension in (None, exact)
    else:
        assert tails[0].deg - tails[0].tau_valuation() == exact
    if exact > expected:
        with pytest.raises(CMSuspected) as refusal:
            certify_non_cm(module, bound)
        assert str(refusal.value) == (
            f"extra endomorphisms of tau-degree <= {bound}: "
            f"dimension {exact} > {expected}")
    else:
        assert certify_non_cm(module, bound).dimension == exact
    return granted


def test_modular_agrees_on_acceptance_families():
    Q3 = rational_field(3)
    rng = random.Random(31)
    granted = 0
    for i in range(6):
        phi, psi = rotation_pair(rng, Q3, shift=i % 3)[:2]
        granted += agree_with_exact(phi, 2 + i % 2)
        granted += agree_with_exact(psi, 2)
    for _ in range(2):
        phi = two_prime_point(rng, Q3)[0]
        granted += agree_with_exact(phi, 2)
        twist = scalar_twist(phi)
        assert any(not r.den.is_one() for coeff in twist.phiT.coeffs
                   for r in coeff.coords)
        granted += agree_with_exact(twist, 2)
    assert granted >= 12


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_modular_agrees_on_example35(q):
    # bound 2 is the bound `dforge example35` certifies; its exact path
    # takes seconds at q = 7 and q = 9, so there s(phi), the Galois
    # conjugate of phi with the same dimension, is left out, and q = 9 is
    # compared at bound 1
    phi, sphi = example35_modules(q)
    for module in (phi, sphi):
        assert agree_with_exact(module, 1)
    for module in {3: (phi, sphi), 5: (phi, sphi), 7: (phi,), 9: ()}[q]:
        assert agree_with_exact(module, 2)


WORKLOAD_FIELDS = [
    (lambda: quadratic_field(5), 2),
    (lambda: quadratic_field(7), 2),
    (lambda: rational_field(3, (1, 0, 1)), 2),
    (lambda: rational_field(3), 4),
]


@pytest.mark.parametrize("make_field,bound", WORKLOAD_FIELDS,
                         ids=["K5", "K7", "F9", "F3"])
def test_modular_agrees_on_workload_shapes(make_field, bound):
    K = make_field()
    rng = random.Random(K.fq.q * 10 + K.e)
    # g = 0: refused with one tail
    for _ in range(2):
        assert not agree_with_exact(g_zero_module(rng, K), bound)
    # non-integral j: certified, by one prime
    assert agree_with_exact(non_integral_j_module(rng, K), bound)


def test_modular_agrees_on_cm_by_sqrt_d():
    K5 = quadratic_field(5)
    rng = random.Random(13)
    for _ in range(3):
        cm = cm_module(K5, random_ext_elem(rng, K5, 1, nonzero=True))
        assert len(tails_of(cm, 2)) == 2
        assert not agree_with_exact(cm, 2)
