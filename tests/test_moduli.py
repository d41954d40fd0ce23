"""Atkin-Lehner algebra and the moduli bookkeeping of cyclic isogenies."""
import random

import pytest

from dforge.drinfeld import (
    CertificateCache,
    conjugate_module,
    j_invariant,
    make_module,
)
from dforge.errors import (
    AmbientMismatch,
    DegreeMismatch,
    EvenCharacteristicUnsupported,
    NotGStable,
)
from dforge.extfield import GaloisDatum
from dforge.ideals import IdealA, unit_ideal
from dforge.isogeny import compose, degree, dual, verify_isogeny
from dforge.moduli import (
    ALElement,
    ModuliPoint,
    al_apply,
    al_compose,
    al_group,
    descent_data,
    diagram_closure_check,
    is_central,
    points_equal,
    star_orbit,
    theta,
)
from dforge.randgen import random_ext_elem, rotation_pair, two_prime_point
from dforge.skew import SkewPoly

from helpers import get_fq, quadratic_field, rational_field

F3 = get_fq(3)
Q3 = rational_field(3)
K3 = quadratic_field(3)
P_T = IdealA(F3.poly([0, 1]))
P_T1 = IdealA(F3.poly([1, 1]))
P_T2 = IdealA(F3.poly([2, 1]))
CERTS = CertificateCache()


def test_al_element_validation():
    n = P_T * P_T1
    ALElement(P_T, n)
    with pytest.raises(DegreeMismatch):
        ALElement(P_T2, n)
    nn = P_T * P_T
    with pytest.raises(DegreeMismatch):
        ALElement(P_T, nn)  # not coprime to the complement


def test_al_compose_examples():
    n = P_T * P_T1
    w_t = ALElement(P_T, n)
    w_t1 = ALElement(P_T1, n)
    assert al_compose(w_t, w_t).is_identity()
    assert al_compose(w_t, w_t1).m == P_T * P_T1
    with pytest.raises(AmbientMismatch):
        al_compose(w_t, ALElement(P_T, P_T))


@pytest.mark.parametrize("nprimes", [1, 2, 3])
def test_al_group_table(nprimes):
    primes = [P_T, P_T1, P_T2][:nprimes]
    n = unit_ideal(F3)
    for p in primes:
        n = n * p
    group = al_group(n)
    assert len(group) == 2 ** nprimes
    for w1 in group:
        assert al_compose(w1, w1).is_identity()
        for w2 in group:
            w3 = al_compose(w1, w2)
            assert w3 in group
            assert al_compose(w2, w1).m == w3.m


def _one_prime_point(rng):
    from dforge.errors import CMSuspected

    while True:
        phi, psi, fwd, back = rotation_pair(rng, Q3, shift=rng.randrange(3))
        try:
            cert = CERTS(phi, 2)
            CERTS(psi, 2)
        except CMSuspected:
            continue
        return ModuliPoint(verify_isogeny(phi, psi, fwd, cert)).validate()


def _two_prime_point(rng):
    from dforge.errors import CMSuspected

    while True:
        try:
            phi, mid, tgt, h, g1, chi, p1, p2 = two_prime_point(rng, Q3)
            cert = CERTS(phi, 2)
        except CMSuspected:
            continue
        return ModuliPoint(verify_isogeny(phi, tgt, chi, cert)).validate()


def test_theta_pair_is_source_target_classes():
    rng = random.Random(3)
    x = _one_prime_point(rng)
    js, jt = theta(x)
    assert js == j_invariant(x.iso.source).value
    assert jt == j_invariant(x.iso.target).value


def test_al_identity_and_full_involution():
    rng = random.Random(5)
    x = _one_prime_point(rng)
    n = x.level
    ident = ALElement(unit_ideal(F3), n)
    assert al_apply(ident, x, CERTS) is x
    w_n = ALElement(n, n)
    y = al_apply(w_n, x, certificate_factory=CERTS)
    d = dual(x.iso, CERTS)
    assert points_equal(y, ModuliPoint(d))
    yy = al_apply(w_n, y, certificate_factory=CERTS)
    assert yy.theta_pair() == x.theta_pair()


def test_al_apply_partial_involution_two_primes():
    rng = random.Random(7)
    for _ in range(3):
        x = _two_prime_point(rng)
        n = x.level
        for w in al_group(n):
            y = al_apply(w, x, certificate_factory=CERTS)
            assert y.level == n
            yy = al_apply(w, y, certificate_factory=CERTS)
            assert yy.theta_pair() == x.theta_pair()
            assert diagram_closure_check(w, x, certificate_factory=CERTS)


def test_star_orbit_one_prime():
    rng = random.Random(11)
    x = _one_prime_point(rng)
    orbit = star_orbit(x, certificate_factory=CERTS)
    assert len(orbit.translates) == 2
    assert orbit.size in (1, 2)
    if orbit.size == 2:
        assert not orbit.cm_suspected


def test_star_orbit_rejects_even_q():
    f4 = get_fq(2, (1, 1, 1))
    from dforge.extfield import ExtField

    Q4 = ExtField(f4)
    T = Q4.T()
    phi = make_module(SkewPoly(Q4, (T, Q4.one, Q4.one)))
    iso = verify_isogeny(phi, phi, SkewPoly.from_scalar(Q4.one), CERTS(phi, 0))
    with pytest.raises(EvenCharacteristicUnsupported):
        star_orbit(ModuliPoint(iso), CERTS)


def _worked_example_point():
    K = quadratic_field(3)
    alpha = K.gen()
    one = K.one
    mu = SkewPoly(K, (alpha + one, -one))
    eta = SkewPoly(K, (alpha - one, one))
    phi = make_module(mu * eta)
    galois = GaloisDatum(K, [("s", 2, -alpha)])
    s = galois.generator_element("s")
    sphi = conjugate_module(galois, s, phi)
    iso = verify_isogeny(sphi, phi, mu, CERTS(sphi, 1))
    return galois, ModuliPoint(iso).validate()


def test_star_orbit_worked_example_g_stable():
    galois, x = _worked_example_point()
    orbit = star_orbit(x, galois=galois, certificate_factory=CERTS)
    assert orbit.m_map["s"] == P_T
    hom, bound = descent_data(orbit, galois)
    assert hom["s"] == P_T
    assert bound == 2


def test_descent_data_trivial_action():
    rng = random.Random(13)
    x = _one_prime_point(rng)
    # trivial Galois group on Q: the conjugate is the point itself
    galois = GaloisDatum(Q3, [("id", 1, Q3.zero)])
    orbit = star_orbit(x, galois=galois, certificate_factory=CERTS)
    hom, bound = descent_data(orbit, galois)
    assert bound == 1
    assert hom["id"].is_unit()


def test_descent_data_rejects_order_violation():
    from dforge.errors import NotAHomomorphism
    from dforge.moduli import StarOrbit

    rng = random.Random(37)
    x = _one_prime_point(rng)
    # identity automorphism presented with order 3: w_m of order 2 cannot
    # satisfy a cube relation unless m is trivial modulo D_x
    galois = GaloisDatum(rational_field(3), [("r", 3, rational_field(3).zero)])
    orbit = StarOrbit(base=x, translates=[], m_map={"r": x.level},
                      decomposition=[], cm_suspected=False)
    with pytest.raises(NotAHomomorphism):
        descent_data(orbit, galois)


def test_descent_data_needs_matching():
    rng = random.Random(17)
    x = _one_prime_point(rng)
    orbit = star_orbit(x, certificate_factory=CERTS)
    with pytest.raises(NotGStable):
        descent_data(orbit, GaloisDatum(Q3, []))


def _biquadratic_field_and_datum():
    """K = Q(sqrt(T+1), sqrt(T)) presented by the quartic minimal polynomial
    of alpha = sqrt(T+1) + sqrt(T); the conjugates are +-alpha, +-1/alpha."""
    fq = F3
    T = fq.poly_T()
    two_t_one = fq.poly([1, 2])  # 2T + 1
    # x^4 - 2(2T+1) x^2 + ((2T+1)^2 - 4(T^2+T))
    c2 = -(fq.rat(two_t_one) + fq.rat(two_t_one))
    c0 = fq.rat(two_t_one * two_t_one) - fq.rat(fq.poly([0, 1, 1])) \
        - fq.rat(fq.poly([0, 1, 1])) - fq.rat(fq.poly([0, 1, 1])) \
        - fq.rat(fq.poly([0, 1, 1]))
    from dforge.extfield import ExtField

    K4 = ExtField(fq, [c0, fq.rat_zero, c2, fq.rat_zero, fq.rat_one])
    alpha = K4.gen()
    inv = alpha.inverse()
    datum = GaloisDatum(K4, [("s", 2, -inv), ("t", 2, inv)])
    return K4, datum


def test_quartic_field_inverse_round_trip():
    K4, _ = _biquadratic_field_and_datum()
    rng = random.Random(41)
    for _ in range(12):
        a = random_ext_elem(rng, K4, 1, poly_only=False, nonzero=True)
        inv = a.inverse()
        assert a * inv == K4.one and inv * a == K4.one
        assert inv.inverse() == a


def test_biquadratic_conjugation_is_functorial():
    import random as _random

    from dforge.randgen import random_module

    K4, datum = _biquadratic_field_and_datum()
    s = datum.generator_element("s")
    t = datum.generator_element("t")
    st = datum.compose(s, t)
    rng = _random.Random(29)
    for _ in range(10):
        phi = random_module(rng, K4)
        a = conjugate_module(datum, s, conjugate_module(datum, t, phi))
        b = conjugate_module(datum, st, phi)
        assert a == b


def test_descent_data_two_independent_swaps_bound_four():
    from dforge.moduli import StarOrbit

    K4, datum = _biquadratic_field_and_datum()
    rng = random.Random(31)
    x = _two_prime_point(rng)
    n = x.level
    facs = [p for p, _ in n.factors()]
    assert len(facs) == 2
    orbit = StarOrbit(
        base=x, translates=[],
        m_map={"s": facs[0], "t": facs[1]},
        decomposition=[], cm_suspected=False,
    )
    hom, bound = descent_data(orbit, datum)
    assert bound == 4


def test_is_central_examples():
    galois, x = _worked_example_point()
    assert is_central([x.iso], P_T)
    assert not is_central([x.iso], P_T1)
    rng = random.Random(19)
    scalar_pt = _one_prime_point(rng)
    one_iso = verify_isogeny(
        scalar_pt.iso.source, scalar_pt.iso.source,
        SkewPoly.from_scalar(Q3.one), CERTS(scalar_pt.iso.source, 1),
    )
    assert is_central([one_iso], P_T)
    assert is_central([one_iso], P_T1)


def test_classification_to_orbit_end_to_end():
    # classify then materialize: the resulting moduli point has a G-stable
    # W(n)-orbit with the matching involution assignment
    from dforge.trees import classify, materialize_center, orbit_from_isogenies

    galois, x = _worked_example_point()
    phi = x.iso.target
    sphi = x.iso.source
    d = dual(x.iso, CERTS)
    datum = orbit_from_isogenies([phi, sphi], {(1, 0): x.iso, (0, 1): d},
                                 galois)
    result = classify(datum)
    psi, bridge = materialize_center(datum, result, certificate_factory=CERTS)
    point = ModuliPoint(bridge).validate()
    orbit = star_orbit(point, galois=galois, certificate_factory=CERTS)
    assert orbit.m_map["s"] == result.m_generators["s"] == P_T
    assert point.level == result.n


def test_theta_injectivity_on_isomorphic_transport():
    # equal Theta pairs and degree: the transported representative is a
    # scalar multiple of the original: degree equality forces a unit ratio
    rng = random.Random(23)
    from dforge.isogeny import find_isogenies
    from dforge.randgen import random_ext_elem

    for _ in range(5):
        x = _one_prime_point(rng)
        phi, psi = x.iso.source, x.iso.target
        c = random_ext_elem(rng, Q3, 1, nonzero=True)
        d = random_ext_elem(rng, Q3, 1, nonzero=True)
        phi2 = make_module(SkewPoly.from_scalar(c) * phi.phiT
                           * SkewPoly.from_scalar(c.inverse()))
        psi2 = make_module(SkewPoly.from_scalar(d) * psi.phiT
                           * SkewPoly.from_scalar(d.inverse()))
        mu2 = SkewPoly.from_scalar(d) * x.iso.mu * SkewPoly.from_scalar(c.inverse())
        y = ModuliPoint(verify_isogeny(phi2, psi2, mu2, CERTS(phi2, 2)))
        assert theta(y) == (
            j_invariant(phi).value, j_invariant(psi).value
        )
        found = find_isogenies(phi2, psi2, mu2.deg, certificate_factory=CERTS)
        monics = {u.mu.monic() for u in found}
        assert mu2.monic() in monics
        assert len(monics) * (F3.q - 1) == len(found)
