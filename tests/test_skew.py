"""The twisted ring K{tau}: products, right division, gcds, evaluation."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from dforge.errors import BothZero, DivisionByZero
from dforge.extfield import GaloisDatum
from dforge.fields import Fq, ResidueField
from dforge.randgen import random_ext_elem, random_fq_poly, random_skew
from dforge.skew import (
    SkewPoly,
    conjugate,
    differential,
    kernel_dimension,
    lclm,
    right_divmod,
    right_gcd,
    skew_eval,
)

from helpers import get_fq, quadratic_field, rational_field

F3 = get_fq(3)
Q3 = rational_field(3)
K3 = quadratic_field(3)


def test_defining_relation_tau_T():
    tau = SkewPoly.tau(Q3)
    T = SkewPoly.from_scalar(Q3.T())
    out = tau * T
    assert out == SkewPoly(Q3, (Q3.zero, Q3.from_poly(F3.poly([0, 0, 0, 1]))))


def test_tau_plus_one_times_tau_minus_one():
    tau = SkewPoly.tau(Q3)
    one = SkewPoly.from_scalar(Q3.one)
    prod = (tau + one) * (tau - one)
    assert prod == tau * tau - one


def test_worked_example_product():
    alpha = K3.gen()
    one = K3.one
    mu = SkewPoly(K3, (alpha + one, -one))
    eta = SkewPoly(K3, (alpha - one, one))
    prod = mu * eta
    two = K3.from_poly(F3.poly([2]))
    expected = SkewPoly(K3, (K3.T(), two + alpha - alpha.frob(), -one))
    assert prod == expected


def test_ring_axioms_random():
    rng = random.Random(41)
    for trial in range(1000):
        field = K3 if trial % 3 == 0 else Q3
        a = random_skew(rng, field, 2, 1)
        b = random_skew(rng, field, 2, 1)
        c = random_skew(rng, field, 2, 1)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        if not a.is_zero() and not b.is_zero():
            assert (a * b).deg == a.deg + b.deg


def test_right_divmod_examples():
    tau = SkewPoly.tau(Q3)
    quo, rem = right_divmod(tau * tau, tau)
    assert quo == tau and rem.is_zero()
    c = SkewPoly.from_scalar(Q3.from_poly(F3.poly([2])))
    quo, rem = right_divmod(tau + c, tau)
    assert quo == SkewPoly.from_scalar(Q3.one) and rem == c
    with pytest.raises(DivisionByZero):
        right_divmod(tau, SkewPoly(Q3, ()))


@pytest.mark.parametrize("field", [Q3, K3])
def test_right_divmod_roundtrip(field):
    rng = random.Random(43)
    done = 0
    while done < 150:
        a = random_skew(rng, field, 4, 1)
        b = random_skew(rng, field, 2, 1)
        if b.is_zero():
            continue
        quo, rem = right_divmod(a, b)
        assert quo * b + rem == a
        assert rem.deg < b.deg
        done += 1


@pytest.mark.parametrize("kind", ["residue", "quadratic"])
def test_right_divmod_with_a_non_base_non_monic_lead(kind):
    # each quotient coefficient uses a Frobenius power of 1/lead(b)
    rng = random.Random(53)
    fq = get_fq(5)
    if kind == "residue":
        F = ResidueField(fq, fq.poly([1, 1, 0, 1]))  # T^3 + T + 1
        assert F.is_field()

        def coeff():
            return F.reduce([fq.poly([rng.randrange(5) for _ in range(3)])])[0]

        lead = F.reduce([fq.poly([2, 1])])[0]  # T + 2
    else:
        F = quadratic_field(5)

        def coeff():
            return random_ext_elem(rng, F, 1, poly_only=False)

        lead = F.gen() + F.T()
    for _ in range(6):
        a = SkewPoly(F, [coeff() for _ in range(6)])
        b = SkewPoly(F, [coeff(), coeff(), lead])
        quo, rem = right_divmod(a, b)
        assert quo * b + rem == a
        assert rem.deg < b.deg


def test_right_gcd_of_zero_and_a():
    rng = random.Random(47)
    a = random_skew(rng, K3, 3, 1)
    while a.is_zero():
        a = random_skew(rng, K3, 3, 1)
    assert right_gcd(a, SkewPoly(K3, ())) == a.monic()
    with pytest.raises(BothZero):
        right_gcd(SkewPoly(K3, ()), SkewPoly(K3, ()))


def test_right_gcd_of_tau_minus_one_tau_plus_one():
    tau = SkewPoly.tau(Q3)
    one = SkewPoly.from_scalar(Q3.one)
    g = right_gcd(tau - one, tau + one)
    assert g.is_one()


def test_right_gcd_planted_common_factor():
    rng = random.Random(53)
    done = 0
    while done < 500:
        field = K3 if done % 5 == 0 else Q3
        c = random_skew(rng, field, 1, 1)
        a = random_skew(rng, field, 2, 1)
        b = random_skew(rng, field, 2, 1)
        if c.is_zero() or a.is_zero() or b.is_zero():
            continue
        g = right_gcd(a * c, b * c)
        _, rem = right_divmod(g, c.monic())
        assert rem.is_zero()
        if done % 10 == 0:
            m = lclm(a * c, b * c)
            assert m.deg == (a * c).deg + (b * c).deg - g.deg
            for w in (a * c, b * c):
                _, r = right_divmod(m, w)
                assert r.is_zero()
        done += 1


def field_division_right_gcd(a, b):
    """Reference: the right Euclid with field division, made monic."""
    while not b.is_zero():
        a, b = b, right_divmod(a, b)[1]
    return a.monic()


def residue_field_5():
    fq = get_fq(5)
    F = ResidueField(fq, fq.poly([1, 1, 0, 1]))  # T^3 + T + 1
    assert F.is_field()
    return F


EUCLID_FIELDS = {
    "Q3": lambda: Q3,
    "K3": lambda: K3,
    "F9T": lambda: rational_field(3, Fq.of_order(9).modulus),
    "K5": lambda: quadratic_field(5),
    "A/P": residue_field_5,
}


def random_operand(rng, F, max_tau_deg):
    """A random skew polynomial over F; over K, coordinates with
    denominators half of the time."""
    if isinstance(F, ResidueField):
        n = rng.randrange(max_tau_deg + 1)
        return SkewPoly(F, F.reduce([random_fq_poly(rng, F.fq, F.n - 1)
                                     for _ in range(n + 1)]))
    return random_skew(rng, F, max_tau_deg, 1,
                       poly_only=rng.randrange(2) == 0)


@pytest.mark.parametrize("name", sorted(EUCLID_FIELDS))
def test_fraction_free_gcd_against_field_division(name):
    # a common right factor c tau^v, v up to 2, so that gcds of positive
    # degree and of positive tau-valuation both occur
    F = EUCLID_FIELDS[name]()
    rng = random.Random(name)
    tau = SkewPoly.tau(F)
    seen_degree = seen_valuation = 0
    for trial in range(30):
        c = random_operand(rng, F, 1) * tau ** (trial % 3)
        a = random_operand(rng, F, 2) * c
        b = random_operand(rng, F, 2) * c
        if a.is_zero() and b.is_zero():
            continue
        want = field_division_right_gcd(a, b)
        assert right_gcd(a, b) == want
        dimension = want.deg - want.tau_valuation()
        assert kernel_dimension([a, b]) == dimension
        assert kernel_dimension([b, a]) == dimension
        seen_degree += dimension > 0
        seen_valuation += want.tau_valuation() > 0
    assert seen_degree and seen_valuation


def test_lclm_over_a_residue_field():
    F = residue_field_5()
    rng = random.Random(71)
    done = 0
    while done < 30:
        c = random_operand(rng, F, 1)
        a = random_operand(rng, F, 2) * c
        b = random_operand(rng, F, 2) * c
        if a.is_zero() or b.is_zero():
            continue
        m = lclm(a, b)
        assert m.deg == a.deg + b.deg - right_gcd(a, b).deg
        for w in (a, b):
            assert right_divmod(m, w)[1].is_zero()
        done += 1


def test_eval_examples_and_composition():
    tau = SkewPoly.tau(K3)
    rng = random.Random(59)
    lam = random_ext_elem(rng, K3, 1)
    assert skew_eval(tau, lam) == lam.frob()
    c = random_ext_elem(rng, K3, 1)
    assert skew_eval(SkewPoly.from_scalar(c), lam) == c * lam
    for _ in range(100):
        a = random_skew(rng, K3, 2, 1)
        b = random_skew(rng, K3, 2, 1)
        x = random_ext_elem(rng, K3, 1)
        y = random_ext_elem(rng, K3, 1)
        assert skew_eval(a * b, x) == skew_eval(a, skew_eval(b, x))
        assert skew_eval(a, x + y) == skew_eval(a, x) + skew_eval(a, y)


def test_differential_is_ring_hom():
    rng = random.Random(61)
    T = K3.T()
    g = random_ext_elem(rng, K3, 1)
    d = random_ext_elem(rng, K3, 1)
    a = SkewPoly(K3, (T, g, d))
    assert differential(a) == T
    assert differential(SkewPoly(K3, ())).is_zero()
    for _ in range(200):
        x = random_skew(rng, K3, 2, 1)
        y = random_skew(rng, K3, 2, 1)
        assert differential(x * y) == differential(x) * differential(y)
        assert differential(x + y) == differential(x) + differential(y)


def test_conjugate_example_and_homomorphism():
    alpha = K3.gen()
    datum = GaloisDatum(K3, [("s", 2, -alpha)])
    s = datum.generator_element("s")
    mu = SkewPoly(K3, (alpha + K3.one, -K3.one))
    out = conjugate(datum, s, mu)
    assert out == SkewPoly(K3, (K3.one - alpha, -K3.one))
    assert conjugate(datum, datum.identity(), mu) == mu
    rng = random.Random(67)
    for _ in range(200):
        a = random_skew(rng, K3, 2, 1)
        b = random_skew(rng, K3, 2, 1)
        assert conjugate(datum, s, a * b) == \
            conjugate(datum, s, a) * conjugate(datum, s, b)
        assert conjugate(datum, s, a).deg == a.deg


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2))
def test_eval_additivity_hypothesis(x0, x1, y0, y1):
    a = SkewPoly(K3, (K3.from_poly(F3.poly([x0])),
                      K3.from_poly(F3.poly([x1])), K3.one))
    lam = K3.elem([F3.rat(F3.poly([y0])), F3.rat(F3.poly([y1]))])
    mu = K3.gen()
    assert skew_eval(a, lam + mu) == skew_eval(a, lam) + skew_eval(a, mu)
