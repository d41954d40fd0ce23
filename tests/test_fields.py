"""Base algebra: the tower F_p < F_q < A < Q, ideals, and Galois actions."""
import ast
import itertools
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dforge
from dforge import cli, ideals, trees
from dforge.errors import (
    BudgetExceeded,
    DivisionByZero,
    InvalidAutomorphism,
    ZeroPolynomial,
)
from dforge.extfield import ExtField, GaloisDatum
from dforge.fields import (
    _KRON_MIN_LEN,
    _KRON_MIN_SHORT,
    _NEWTON_MIN_LEN,
    Fq,
    PolyA,
    RatFunc,
    ResidueField,
    _kron_conv,
    _kron_pays,
    _prime_factors,
    _trim,
    cleared_numerators,
    is_irreducible,
    primitive_numerators,
    split_prime_power,
)
from dforge.ideals import (
    IdealA,
    divisors_in_degree_order,
    factor_ideal,
    rational_roots,
)
from dforge.randgen import random_ext_elem, random_fq_poly, random_ratfunc
from dforge.skew import SkewPoly

from helpers import (
    bounded,
    brute_force_linear_factors,
    deadline,
    get_fq,
    naive_poly_mul,
    quadratic_field,
    rational_field,
)

F3 = get_fq(3)
F9 = get_fq(3, (1, 0, 1))
F4 = get_fq(2, (1, 1, 1))


def test_fq_arith_mod3():
    two = F3.elem(2)
    assert (two + two).val == 1
    assert (two * two).val == 1
    assert F3.elem(1).inverse().val == 1


def test_fq_arith_division_by_zero():
    with pytest.raises(DivisionByZero):
        F3.elem(1) / F3.elem(0)


@pytest.mark.parametrize("fq", [F3, F9, F4, get_fq(5)])
def test_field_axioms_random_triples(fq):
    rng = random.Random(17)
    for _ in range(1000):
        a, b, c = (fq.elem_packed(rng.randrange(fq.q)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a.val:
            assert a * a.inverse() == fq.one


def test_poly_divmod_examples():
    T2p1 = F3.poly([1, 0, 1])
    T = F3.poly([0, 1])
    quo, rem = divmod(T2p1, T)
    assert quo == T and rem == F3.poly([1])
    quo, rem = divmod(T, F3.poly([0, 0, 1]))
    assert quo.is_zero() and rem == T


# F_512 has no addition table: its kernels take the digit loop
F512 = get_fq(2, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1))


@pytest.mark.parametrize("fq", [F3, F9, F4, F512])
def test_poly_divmod_roundtrip_random(fq):
    rng = random.Random(3)
    for _ in range(300):
        a = random_fq_poly(rng, fq, 6)
        b = random_fq_poly(rng, fq, 4, nonzero=True)
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.degree < b.degree


def test_divmod_by_constant():
    a = F9.poly([1, 2, 0, 7, 5])
    c = F9.poly([F9.elem_packed(4)])
    quo, rem = divmod(a, c)
    assert rem.is_zero() and quo * c == a
    quo, rem = divmod(F9.poly_zero, c)
    assert quo.is_zero() and rem.is_zero()


def _assert_powers(bases, one, exponents):
    for a in bases:
        products = [one]
        for _ in range(max(exponents)):
            products.append(products[-1] * a)
        for e in exponents:
            assert a ** e == products[e], (a, e)


@pytest.mark.parametrize("fq", [F3, F9, F4, get_fq(5)], ids=lambda f: f"q{f.q}")
def test_poly_pow_against_repeated_products(fq):
    # PolyA, RatFunc, K = Q(sqrt(T + 1)) and K{tau} share one square-and-multiply
    rng = random.Random(fq.q)
    bases = [fq.poly_zero, fq.poly_one]
    bases += [random_fq_poly(rng, fq, 6, nonzero=True) for _ in range(4)]
    _assert_powers(bases, fq.poly_one, (0, 1, 2, 37))
    with pytest.raises(ValueError):
        fq.poly_T() ** -1
    rats = [fq.rat_zero] + [random_ratfunc(rng, fq, 2) for _ in range(3)]
    _assert_powers(rats, fq.rat_one, (0, 1, 2, 13))
    D = fq.rat(fq.poly([1, 1]))
    K = ExtField(fq, [-D, fq.rat_zero, fq.rat_one])
    elems = [K.zero, K.gen()] + [random_ext_elem(rng, K, 1) for _ in range(2)]
    _assert_powers(elems, K.one, (0, 1, 2, 13))
    z = random_ext_elem(rng, K, 1, nonzero=True)
    assert z ** -3 == (z * z * z).inverse()
    skews = [SkewPoly(K, (random_ext_elem(rng, K, 1), K.one)) for _ in range(2)]
    _assert_powers(skews, SkewPoly.from_scalar(K.one), (0, 1, 2, 5))


def test_primitive_numerators_cases():
    T = F3.poly_T()
    def r(num, den):
        return RatFunc.make(F3.poly(num), F3.poly(den))

    # (T+2)/T, 0, (T+2)^2/(T+1): common denominator T(T+1), then content T+2
    rats = [r([2, 1], [0, 1]), F3.rat_zero, r([1, 1, 1], [1, 1])]
    nums = primitive_numerators(F3, rats)
    assert nums == [F3.poly([1, 1]), F3.poly_zero, F3.poly([0, 2, 1])]
    # already primitive: returned as given; all zero stays zero
    prim = [F3.poly([1, 1]), T]
    assert primitive_numerators(F3, [RatFunc.from_poly(x) for x in prim]) == prim
    assert primitive_numerators(F3, [F3.rat_zero] * 2) == [F3.poly_zero] * 2


def _reference_primitive(fq, rats):
    """The input-order gcd fold of the cleared numerators, then division."""
    nums, _ = cleared_numerators(fq, rats)
    content = None
    for n in nums:
        if n:
            content = n.monic() if content is None else content.gcd(n)
    if content is None or content.is_one():
        return nums
    return [n // content for n in nums]


@pytest.mark.parametrize("fq", [F3, F9, get_fq(65521)],
                         ids=lambda f: f"q{f.q}")
def test_primitive_numerators_against_the_reference_fold(fq, monkeypatch):
    rng = random.Random(fq.q)
    T = fq.poly_T()
    one = fq.poly_one

    def rand(n):
        """A polynomial of degree exactly n."""
        return fq.poly([fq.elem_packed(rng.randrange(fq.q)) for _ in range(n)]
                       + [fq.elem_packed(rng.randrange(1, fq.q))])

    # a content of degree 140, long enough for the Newton division
    content = (T + one) ** 50 * (T * T + one) ** 30 * (T - one) ** 30
    den = rand(3) * rand(2) + one
    cofactors = [rand(n) for n in (140, 10, 300, 60, 200)]
    planted = [RatFunc.make(content * u, den) for u in cofactors]
    # the two lowest-degree numerators share a factor the others lack
    extra = T ** 7 + T + one
    shared = [RatFunc.from_poly(content * extra * rand(n)) for n in (5, 8)]
    shared += [RatFunc.from_poly(content * u) for u in cofactors[2:]]
    cases = [
        planted,
        planted[:2] + [fq.rat_zero] + planted[2:] + [fq.rat_zero],
        [RatFunc.from_poly(u) for u in cofactors + [T, T + one]],  # content 1
        [fq.rat_zero, planted[3], fq.rat_zero],  # a single nonzero entry
        [fq.rat_zero] * 3,
        shared,
        [RatFunc.from_poly(content)] * 2,
    ]
    for rats in cases:
        want = _reference_primitive(fq, rats)
        gcds, gcd = [], PolyA.gcd
        with monkeypatch.context() as m:
            m.setattr(PolyA, "gcd", lambda a, b: gcds.append(b) or gcd(a, b))
            got = primitive_numerators(fq, rats)
        assert got == want
        if rats is shared:
            # the pass that divides by content * extra restarts
            assert len(gcds) >= 2


def test_poly_mul_against_naive():
    rng = random.Random(5)
    for fq in (F3, F9, F4):
        for _ in range(60):
            a = random_fq_poly(rng, fq, 5)
            b = random_fq_poly(rng, fq, 5)
            assert a * b == naive_poly_mul(a, b)


KRON_FIELDS = [
    get_fq(3), get_fq(5), get_fq(7), F9, F4,
    get_fq(2, (1, 1, 0, 1)),   # F_8
    get_fq(3, (1, 2, 0, 1)),   # F_27
]
# Both sides of the balanced switch, then of the unbalanced one: a shorter
# operand below _KRON_MIN_SHORT, and lengths whose product falls just short
# of, or reaches, _KRON_MIN_LEN^2.
_KRON_AREA_LEN = -(-_KRON_MIN_LEN ** 2 // _KRON_MIN_SHORT)
KRON_SHAPES = [
    (1, 1),
    (_KRON_MIN_LEN - 1, _KRON_MIN_LEN - 1),
    (_KRON_MIN_LEN, _KRON_MIN_LEN),
    (5000, 300),
    (20000, 5000),
    (2000, _KRON_MIN_SHORT - 1),
    (_KRON_AREA_LEN - 1, _KRON_MIN_SHORT),
    (_KRON_AREA_LEN, _KRON_MIN_SHORT),
    (2000, 200),
]


def _reference_ops(fq):
    """F_p digits and packing of numpy arrays of packed values, and the
    products x y_i of a packed scalar x, from the modulus alone."""
    p, d, mod = fq.p, fq.d, fq.modulus
    powers = p ** np.arange(d, dtype=np.int64)

    def reduced(k):
        # the digits of y^k mod the modulus, by top-down long division
        v = [0] * (2 * d - 1)
        v[k] = 1
        for top in range(2 * d - 2, d - 1, -1):
            c = v[top]
            for i, m in enumerate(mod):
                v[top - d + i] -= c * m
        return [c % p for c in v[:d]]

    # the digit product u_i v_j lands on y^(i + j)
    place = np.array([[reduced(i + j) for j in range(d)] for i in range(d)],
                     dtype=np.int64)

    def digits(v):
        return np.asarray(v, dtype=np.int64)[..., None] // powers % p

    def pack(ds):
        return ds % p @ powers

    def mul(x, y):
        # row j of the matrix of x holds the digits of x y^j
        return pack(digits(y) @ np.tensordot(digits(x), place, axes=1))

    return digits, pack, mul


def _reference_tables(fq):
    """Digit and multiplication tables of F_q from digit arithmetic."""
    digits, _, mul = _reference_ops(fq)
    values = np.arange(fq.q)
    return digits(values), np.array([mul(x, values) for x in values])


def _schoolbook_mul(fq, a, b, digtab, multab):
    """Row-by-row schoolbook product: add the F_p digits of every a_i b_j."""
    if len(a) < len(b):
        a, b = b, a
    rows = {c: digtab[multab[a, c]] for c in set(b.tolist()) if c}
    acc = np.zeros((len(a) + len(b) - 1, fq.d), dtype=np.int64)
    for j, c in enumerate(b.tolist()):
        if c:
            acc[j: j + len(a)] += rows[c]
    return (acc % fq.p) @ (fq.p ** np.arange(fq.d))


@pytest.mark.parametrize("fq", KRON_FIELDS, ids=lambda f: f"q{f.q}")
def test_arr_mul_against_schoolbook(fq):
    digtab, multab = _reference_tables(fq)
    rng = np.random.default_rng(fq.q)
    for na, nb in KRON_SHAPES:
        a = rng.integers(0, fq.q, na)
        b = rng.integers(0, fq.q, nb)
        a[-1] = b[-1] = 1
        top = np.full(na, fq.q - 1), np.full(nb, fq.q - 1)  # all digits p - 1
        pairs = [(a, b), top]
        if fq.d > 1:
            # coefficients in the prime field take the shorter paths
            ap, bp = a % fq.p, b % fq.p
            pairs += [(ap, b), (ap, bp)]
        for x, y in pairs:
            want = _schoolbook_mul(fq, x, y, digtab, multab)
            assert np.array_equal(fq.arr_mul(x, y), want), (fq, na, nb)
            assert np.array_equal(fq.arr_mul(y, x), want), (fq, nb, na)


def test_kron_switch_follows_both_lengths_and_the_slot_width():
    m, short, area = _KRON_MIN_LEN, _KRON_MIN_SHORT, _KRON_AREA_LEN
    for p in (2, 3, 5, 7):
        assert _kron_pays(m, m, p) and not _kron_pays(m - 1, m - 1, p)
        assert _kron_pays(short, area, p)
        assert not _kron_pays(short, area - 1, p)
        assert not _kron_pays(short - 1, 10 ** 6, p)
    # 6-byte slots over F_65521: both thresholds move up 16-fold
    assert not _kron_pays(16 * m - 1, 16 * m - 1, 65521)
    assert _kron_pays(16 * m, 16 * m, 65521)
    assert not _kron_pays(1000, 10 ** 5, 65521)


@pytest.mark.parametrize("p,ha,hb",
                         [(2, 3, 3), (3, 1, 1), (7, 1, 1), (5, 2, 2), (3, 1, 3)])
def test_kron_conv_reaches_slot_bound(p, ha, hb):
    # all digits p - 1: the middle slots sum exactly min(ha, hb) * min(na, nb)
    # terms of (p - 1)^2, the largest value the slot width must hold
    na, nb = 700, 400
    da = np.full((na, ha), p - 1)
    db = np.full((nb, hb), p - 1)
    conv = _kron_conv(da, db, p)
    assert conv.shape == (na + nb - 1, ha + hb - 1)
    assert conv.max() == min(ha, hb) * min(na, nb) * (p - 1) ** 2
    for k in range(ha + hb - 1):
        want = sum(np.convolve(da[:, i], db[:, k - i])
                   for i in range(ha) if 0 <= k - i < hb)
        assert np.array_equal(conv[:, k], want)


def test_trim_cases():
    empty = np.zeros(0, dtype=np.int64)
    assert len(_trim(empty)) == 0
    assert len(_trim(np.zeros(7, dtype=np.int64))) == 0
    long_run = np.zeros(5000, dtype=np.int64)
    long_run[:3] = (1, 0, 2)
    assert _trim(long_run).tolist() == [1, 0, 2]
    top = np.array([0, 0, 4], dtype=np.int64)
    assert _trim(top) is top


def test_ratfunc_canonical_form():
    rng = random.Random(11)
    for _ in range(1000):
        a = random_ratfunc(rng, F3, 3)
        b = random_ratfunc(rng, F3, 3)
        if b.is_zero():
            continue
        prod = a * b / b
        assert prod == a
        for v in (a + b, a - b, a * b):
            if not v.is_zero():
                assert v.den.is_monic()
                assert v.num.gcd(v.den).is_one()


@pytest.mark.parametrize("fq", [F3, F9, F512], ids=lambda f: f"q{f.q}")
def test_products_by_a_constant_match_the_kernel(fq):
    # F_512 has no add or mul tables: its scalar multiply is the digit path
    rng = random.Random(fq.q)
    unit = fq.poly([fq.elem_packed(rng.randrange(2, fq.q))])
    constants = [fq.poly_one, -fq.poly_one, unit]
    for _ in range(20):
        a = random_fq_poly(rng, fq, 8)
        for c in constants:
            want = PolyA(fq, fq.arr_mul(a.array, c.array))
            assert a * c == want and c * a == want, (a, c)
            assert (a * c).array.flags.writeable is False
        if a.degree >= 1:
            assert a * fq.poly_one is a and fq.poly_one * a is a
    for c in constants:
        assert c * c == PolyA(fq, fq.arr_mul(c.array, c.array))
        assert (c * fq.poly_zero).is_zero() and (fq.poly_zero * c).is_zero()


def _is_canonical(r):
    if r.is_zero():
        return r.den.is_one()
    return r.den.is_monic() and r.num.gcd(r.den).is_one()


@pytest.mark.parametrize("fq", [F3, F9], ids=lambda f: f"q{f.q}")
def test_ratfunc_short_cuts_match_cross_multiplication(fq):
    # zero operands, denominators of 1 and the general path all agree with
    # canonicalising the cross-multiplied fraction
    rng = random.Random(fq.q + 2)
    for _ in range(15):
        operands = [fq.rat_zero, fq.rat_one, -fq.rat_one,
                    random_ratfunc(rng, fq, 4, poly_only=True),
                    random_ratfunc(rng, fq, 3), random_ratfunc(rng, fq, 3)]
        for x, y in itertools.product(operands, repeat=2):
            den = x.den * y.den
            cases = [(x + y, RatFunc.make(x.num * y.den + y.num * x.den, den)),
                     (x - y, RatFunc.make(x.num * y.den - y.num * x.den, den)),
                     (x * y, RatFunc.make(x.num * y.num, den))]
            for got, want in cases:
                assert got == want, (x, y)
                assert _is_canonical(got), (x, y)


def test_ext_zero_divided_by_nonzero_is_zero():
    K5 = quadratic_field(5)
    rng = random.Random(55)
    for _ in range(10):
        x = random_ext_elem(rng, K5, 3, poly_only=False, nonzero=True)
        assert (K5.zero / x).is_zero()
        with pytest.raises(DivisionByZero):
            x / K5.zero
    with pytest.raises(DivisionByZero):
        K5.zero / K5.zero


def test_zero_ideal_rejected():
    from dforge.errors import ZeroIdeal

    with pytest.raises(ZeroIdeal):
        IdealA(F3.poly_zero)


def test_monic_divisors_budget():
    f = F3.poly([0, 1]) * F3.poly([1, 1])  # two primes: four divisors
    assert len(list(divisors_in_degree_order(f, cap=4))) == 4
    with pytest.raises(BudgetExceeded) as err:
        list(divisors_in_degree_order(f, cap=3))
    assert err.value.budget == "monic divisors" and err.value.value == 3


def test_factor_ideal_examples():
    assert factor_ideal(IdealA(F3.poly([0, 2, 1]))) == [
        (IdealA(F3.poly([2, 1])), 1),
        (IdealA(F3.poly([0, 1])), 1),
    ]
    assert factor_ideal(IdealA(F3.poly([0, 0, 1]))) == [(IdealA(F3.poly([0, 1])), 2)]
    # T^2 + 1 over F_3: no monic linear divides it (brute-force oracle)
    t2p1 = F3.poly([1, 0, 1])
    assert brute_force_linear_factors(t2p1) == []
    assert factor_ideal(IdealA(t2p1)) == [(IdealA(t2p1), 1)]


def test_valuation_against_the_factorization():
    # v_p by repeated division is the multiplicity of p in factor_ideal, at
    # the primes of the ideal and at the linear primes, which may miss it
    rng = random.Random(71)
    planted = (F3.poly([1, 1]) ** 3) * F3.poly([1, 0, 1]) ** 2
    gens = [planted] + [F3.poly([rng.randrange(3) for _ in range(d)] + [1])
                        for d in range(1, 8) for _ in range(4)]
    linear = [IdealA(F3.poly([c, 1])) for c in range(3)]
    for gen in gens:
        ideal = IdealA(gen)
        mults = dict(ideal.factors())
        for p in set(mults) | set(linear):
            assert ideal.valuation(p) == mults.get(p, 0)
    assert IdealA(planted).valuation(IdealA(F3.poly([1, 1]))) == 3
    # the unit ideal divides everything: refused, not an endless division
    with pytest.raises(ValueError):
        IdealA(planted).valuation(IdealA(F3.poly([2])))


@pytest.mark.parametrize("fq", [F3, F9, F4])
def test_factor_ideal_remultiplies_and_factors_irreducible(fq):
    rng = random.Random(23)
    T = fq.poly_T()
    for trial in range(40):
        f = random_fq_poly(rng, fq, 7, nonzero=True, monic=True)
        if f.degree < 1:
            continue
        prod = fq.poly_one
        for prime, mult in factor_ideal(IdealA(f), rng=random.Random(trial)):
            gen = prime.gen
            # irreducibility: no nontrivial gcd with T^(q^i) - T below the degree
            r = T % gen
            for i in range(1, gen.degree):
                r = r.frob_power(1) % gen
                assert (r - T % gen).gcd(gen).is_one()
            r = r.frob_power(1) % gen
            assert (r - T % gen).is_zero()
            for _ in range(mult):
                prod = prod * gen
        assert prod == f


def test_ext_frobenius_examples():
    K = quadratic_field(3)
    alpha = K.gen()
    Tp1 = K.from_poly(F3.poly([1, 1]))
    assert alpha.frob() == alpha.scale(Tp1.coords[0])
    assert K.T().frob() == K.from_poly(F3.poly([0, 0, 0, 1]))
    c = K.from_poly(F3.poly([2]))
    assert c.frob() == c


def test_ext_frobenius_is_additive_and_multiplicative():
    K = quadratic_field(3)
    rng = random.Random(29)
    for _ in range(200):
        a = random_ext_elem(rng, K, 2, poly_only=False)
        b = random_ext_elem(rng, K, 2, poly_only=False)
        assert (a + b).frob() == a.frob() + b.frob()
        assert (a * b).frob() == a.frob() * b.frob()
        assert a.frob_power(1) == a ** K.fq.q


def test_ext_field_axioms_random_triples():
    K = quadratic_field(3)
    rng = random.Random(30)
    for _ in range(1000):
        a = random_ext_elem(rng, K, 1)
        b = random_ext_elem(rng, K, 1)
        c = random_ext_elem(rng, K, 1)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == K.one


def test_zero_divisor_of_a_reducible_quartic_has_no_inverse():
    # (x^2 - T)(x^2 - T - 1) has no root in F_3(T), so ExtField accepts it;
    # x^2 - T is a zero divisor, and its Gauss-Jordan system has no pivot
    fq = get_fq(3)
    T, one, zero = fq.rat(fq.poly_T()), fq.rat_one, fq.rat_zero
    K = ExtField(fq, [T * (T + one), zero, -(T + T + one), zero, one])
    x = K.gen()
    with pytest.raises(DivisionByZero):
        (x * x - K.T()).inverse()
    assert x * x.inverse() == K.one


def test_apply_automorphism_worked_example_shape():
    K = quadratic_field(3)
    alpha = K.gen()
    datum = GaloisDatum(K, [("s", 2, -alpha)])
    s = datum.generator_element("s")
    out = datum.apply(s, alpha + K.one)
    assert out == K.one - alpha
    assert datum.apply(s, K.T()) == K.T()


def test_automorphism_is_ring_map_and_involution():
    K = quadratic_field(3)
    datum = GaloisDatum(K, [("s", 2, -K.gen())])
    s = datum.generator_element("s")
    rng = random.Random(31)
    for _ in range(1000):
        a = random_ext_elem(rng, K, 1, poly_only=False)
        b = random_ext_elem(rng, K, 1, poly_only=False)
        assert datum.apply(s, a * b) == datum.apply(s, a) * datum.apply(s, b)
        assert datum.apply(s, a + b) == datum.apply(s, a) + datum.apply(s, b)
        assert datum.apply(datum.compose(s, s), a) == a


def test_invalid_automorphism_rejected():
    K = quadratic_field(3)
    with pytest.raises(InvalidAutomorphism):
        GaloisDatum(K, [("s", 2, K.T())])  # T is not a root of x^2 - (T+1)


@pytest.mark.parametrize("case", ["duplicate names", "order < 1", "wrong order"])
def test_galois_presentation_checks(case):
    K = quadratic_field(3)
    alpha = K.gen()
    gens = {
        "duplicate names": [("s", 2, -alpha), ("s", 2, -alpha)],
        "order < 1": [("s", 0, -alpha)],
        "wrong order": [("s", 3, -alpha)],
    }[case]
    with pytest.raises(InvalidAutomorphism):
        GaloisDatum(K, gens)


@pytest.mark.parametrize("p,d,count", [(2, 4, 3), (3, 2, 3), (2, 6, 9), (5, 2, 10)])
def test_fq_accepts_exactly_the_irreducible_moduli(p, d, count):
    # Gauss: (1/d) sum_{k | d} moebius(k) p^(d/k) monic irreducibles of degree d
    accepted = 0
    for low in itertools.product(range(p), repeat=d):
        try:
            Fq(p, low + (1,))
        except ValueError as exc:
            assert "reducible" in str(exc)
        else:
            accepted += 1
    assert accepted == count


def test_prime_factors_against_divisor_scan():
    for n in range(-3, 2000):
        want = [f for f in range(2, n + 1)
                if n % f == 0 and all(f % g for g in range(2, f))]
        assert _prime_factors(n) == want, n


@pytest.mark.parametrize("q,want", [(2, (2, 1)), (9, (3, 2)), (59049, (3, 10)),
                                    (65521, (65521, 1)), (65536, (2, 16))])
def test_split_prime_power(q, want):
    assert split_prime_power(q) == want


@pytest.mark.parametrize("q,message", [
    (-9, "not a prime power"), (0, "not a prime power"),
    (1, "not a prime power"), (6, "not a prime power"),
    (65535, "not a prime power"), (65537, "exceeds the table limit"),
    (2 ** 17, "exceeds the table limit"),
    (4294967291, "exceeds the table limit"),
    (2 ** 61 - 1, "exceeds the table limit"),
])
def test_split_prime_power_refuses(q, message):
    with deadline(1.0), pytest.raises(ValueError, match=message) as info:
        split_prime_power(q)
    assert f"q = {q} " in str(info.value)


@pytest.mark.parametrize("p,modulus,message", [
    (2 ** 61 - 1, None, "too large"), (4294967291, None, "too large"),
    (65537, None, "too large"), (257, (3, 0, 1), "too large"),
    (2, (1,) * 17 + (1,), "too large"),
    (4, None, "not prime"), (1, None, "not prime"), (0, None, "not prime"),
    (-3, None, "not prime"), (3, (), "monic"), (3, (1, 2), "monic"),
])
def test_fq_refuses_before_any_primality_test(p, modulus, message):
    # the size limit comes first, so no trial division runs on a huge p
    with deadline(1.0), pytest.raises(ValueError, match=message):
        Fq(p, modulus)


def _scanned_modulus(p, d):
    # the first monic irreducible of degree d whose low coefficients, read
    # as base-p digits, count up from 0
    fp = get_fq(p)
    for packed in range(p ** d):
        low = [packed // p ** i % p for i in range(d)]
        if is_irreducible(fp.poly(low + [1])):
            return tuple(low) + (1,)


@pytest.mark.parametrize("q,p,d", [(4, 2, 2), (8, 2, 3), (9, 3, 2), (25, 5, 2),
                                   (27, 3, 3), (49, 7, 2), (121, 11, 2),
                                   (125, 5, 3)])
def test_of_order_takes_the_first_modulus_of_the_scan(q, p, d):
    fq = Fq.of_order(q)
    assert (fq.p, fq.d, fq.q) == (p, d, q)
    assert fq.modulus == _scanned_modulus(p, d)


def test_of_order_tests_each_modulus_once(monkeypatch):
    tested = []
    rabin = ResidueField.is_field

    def record(self):
        tested.append(tuple(int(c) for c in self.P.array))
        return rabin(self)

    monkeypatch.setattr(ResidueField, "is_field", record)
    for q in (9, 27, 125):
        del tested[:]
        fq = Fq.of_order(q)
        # one Rabin test per candidate of the scan, ending at the modulus
        assert len(tested) == len(set(tested)) and tested[-1] == fq.modulus
        ref = Fq(fq.p, fq.modulus)
        for name in ("_red", "_exp", "_log"):
            assert np.array_equal(getattr(fq, name), getattr(ref, name))


def test_of_order_of_a_prime_is_the_prime_field():
    for p in (2, 3, 65521):
        fq = Fq.of_order(p)
        assert (fq.p, fq.d, fq.modulus) == (p, 1, (0, 1))
    with pytest.raises(ValueError, match="q = 65537 exceeds"):
        Fq.of_order(65537)


@pytest.mark.parametrize("fq,n,count", [(F3, 1, 3), (F3, 4, 18), (F3, 6, 116),
                                        (F4, 3, 20), (F9, 2, 36),
                                        (get_fq(5), 3, 40)],
                         ids=lambda v: str(getattr(v, "q", v)))
def test_is_irreducible_counts_the_monic_irreducibles(fq, n, count):
    # Gauss's count over F_q, as above
    found = sum(is_irreducible(fq.poly([fq.elem_packed(c) for c in low]
                                       + [fq.one]))
                for low in itertools.product(range(fq.q), repeat=n))
    assert found == count


def test_rational_roots_examples():
    Q = rational_field(3)
    rT = F3.rat(F3.poly([0, 1]))
    minus = RatFunc.from_poly(F3.poly([2]))
    # x^2 - T^2
    g = [rT * rT * minus, F3.rat_zero, F3.rat(F3.poly([1]))]
    roots = rational_roots(g)
    assert {repr(r) for r in roots} == {"T", "2*T"}
    # x^2 - T has no roots in Q for odd q
    g2 = [rT * minus, F3.rat_zero, F3.rat(F3.poly([1]))]
    assert rational_roots(g2) == []
    with pytest.raises(ZeroPolynomial):
        rational_roots([F3.rat_zero])


@pytest.mark.parametrize("fq", [F3, F9], ids=lambda f: f"q{f.q}")
def test_rational_roots_planted(fq):
    rng = random.Random(37)
    for _ in range(20):
        r1 = random_ratfunc(rng, fq, 2)
        r2 = random_ratfunc(rng, fq, 2)
        irred = RatFunc.from_poly(fq.poly([1, 0, 1]))  # no rational roots
        one = fq.rat_one
        # (x - r1)(x - r2)(x^2 + T^2 + 1)
        lin1 = [-r1, one]
        lin2 = [-r2, one]
        quad = [irred, fq.rat_zero, one]

        def polymul(a, b):
            out = [fq.rat_zero] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
            return out

        g = polymul(polymul(lin1, lin2), quad)
        roots = [repr(r) for r in rational_roots(g)]
        assert sorted(roots) == sorted({repr(r1), repr(r2)})


def test_rational_roots_use_every_unit_of_f9():
    # F_9 = F_3[y]/(y^2 + 1): a root's unit need not lie in F_3
    T = F9.rat(F9.poly_T())
    yT = RatFunc.from_poly(F9.poly_T().scale(F9.elem_packed(3)))
    # x^2 + T^2 = (x - yT)(x + yT)
    g = [T * T, F9.rat_zero, F9.rat_one]
    assert sorted(map(repr, rational_roots(g))) == sorted([repr(yT), repr(-yT)])
    with pytest.raises(ValueError):
        ExtField(F9, g)
    # x^2 - T^2 = (x - T)(x - 2T): each root once
    g = [-(T * T), F9.rat_zero, F9.rat_one]
    assert [repr(r) for r in rational_roots(g)] == [repr(T), repr(-T)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_axioms_hypothesis(x, y, z):
    a, b, c = F9.elem_packed(x), F9.elem_packed(y), F9.elem_packed(z)
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a and a * b == b * a


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=5),
       st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_divmod_hypothesis(acoeffs, bcoeffs):
    a = F3.poly(acoeffs)
    b = F3.poly(bcoeffs)
    if b.is_zero():
        with pytest.raises(DivisionByZero):
            divmod(a, b)
        return
    quo, rem = divmod(a, b)
    assert quo * b + rem == a and rem.degree < b.degree


# One field per branch of the vector kernels: integers mod p (F_3, F_5, and
# F_257 and F_65521, prime fields with no tables; F_65521 is the largest
# prime `Fq` accepts, where lazy division comes closest to its int64
# bound), the add/mul tables (F_4, F_9, F_27), and the digit loop (F_512).
KERNEL_FIELDS = [get_fq(3), get_fq(5), get_fq(257), get_fq(65521), F4, F9,
                 get_fq(3, (1, 2, 0, 1)), F512]
KERNEL_LENGTHS = [1, 5, 40, 400]


class _ReferenceVectors:
    """Vector arithmetic over F_q on F_p digit vectors and the modulus."""

    def __init__(self, fq):
        self.q = fq.q
        self.minus_one = fq.p - 1  # packed -1: digit 0 is p - 1
        self.digits, self.pack, self.mul = _reference_ops(fq)

    def axpy(self, x, c, y):
        dx, dy = self.digits(x), self.digits(self.mul(c, y))
        out = np.zeros((max(len(dx), len(dy)), dx.shape[1]), dtype=np.int64)
        out[: len(dx)] += dx
        out[: len(dy)] += dy
        return self.pack(out)

    def inverse(self, x):
        """x^(q-2) by square-and-multiply on the reference product."""
        x = int(x)
        out, base, e = 1, x, self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        assert self.mul(out, x) == 1
        return out

    def divmod(self, a, b):
        inv = self.inverse(b[-1])
        r, quo = np.array(a, dtype=np.int64), [0] * max(len(a) - len(b) + 1, 0)
        for k in range(len(a) - len(b), -1, -1):
            quo[k] = self.mul(r[k + len(b) - 1], inv)
            r[k: k + len(b)] = self.axpy(r[k: k + len(b)], self.mul(self.minus_one, quo[k]), b)
        return _trimmed(quo), _trimmed(r[: len(b) - 1])


def _trimmed(values):
    values = [int(v) for v in values]
    while values and values[-1] == 0:
        values.pop()
    return values


def _random_vector(rng, fq, n):
    """Length-n packed vector whose top coefficient is nonzero."""
    out = rng.integers(0, fq.q, n)
    out[-1] = rng.integers(1, fq.q)
    return out


@pytest.mark.parametrize("fq", KERNEL_FIELDS, ids=lambda f: f"q{f.q}")
def test_vector_kernels_against_digit_reference(fq):
    ref = _ReferenceVectors(fq)
    rng = np.random.default_rng(fq.q)
    for n in KERNEL_LENGTHS:
        x, y = _random_vector(rng, fq, n), _random_vector(rng, fq, n)
        scalars = [0, 1, ref.minus_one, int(rng.integers(1, fq.q))]
        for c in scalars:
            assert fq.arr_axpy(x, c, y).tolist() == ref.axpy(x, c, y).tolist(), (n, c)
        # x - x cancels to zero everywhere, and arr_axpy does not trim it
        assert fq.arr_axpy(x, ref.minus_one, x).tolist() == [0] * n
        short = y[: (n + 1) // 2]
        for a, b in [(x, y), (x, short), (short, x), (x, x)]:
            assert fq.arr_add(a, b).tolist() == _trimmed(ref.axpy(a, 1, b))
            assert fq.arr_sub(a, b).tolist() == _trimmed(ref.axpy(a, ref.minus_one, b))
        assert len(fq.arr_sub(x, x)) == 0
        assert len(fq.arr_add(x, fq.arr_neg(x))) == 0
        assert fq.arr_neg(x).tolist() == [ref.mul(ref.minus_one, int(u)) for u in x]
        untrimmed = np.concatenate((x, np.zeros(3, dtype=np.int64)))
        for c in scalars:
            want = [ref.mul(c, int(u)) for u in untrimmed]
            assert fq.arr_scalar_mul(untrimmed, c).tolist() == want, (n, c)


@pytest.mark.parametrize("fq", KERNEL_FIELDS, ids=lambda f: f"q{f.q}")
def test_divmod_against_digit_reference(fq):
    ref = _ReferenceVectors(fq)
    rng = np.random.default_rng(fq.q + 1)
    for n in KERNEL_LENGTHS:
        for m in (1, 5, 40, 400):
            a, b = _random_vector(rng, fq, n), _random_vector(rng, fq, m)
            quo, rem = divmod(PolyA(fq, a), PolyA(fq, b))
            assert (quo.array.tolist(), rem.array.tolist()) == ref.divmod(a, b), (n, m)
            if m > n:
                continue
            # a multiple of b: the remainder cancels to zero
            cofactor = _random_vector(rng, fq, n - m + 1)
            multiple = [0] * n
            for i, c in enumerate(cofactor):
                multiple[i: i + m] = ref.axpy(multiple[i: i + m], int(c), b)
            quo, rem = divmod(PolyA(fq, np.array(multiple)), PolyA(fq, b))
            assert quo.array.tolist() == cofactor.tolist() and rem.is_zero(), (n, m)


# (divisor length, quotient length) on both sides of the Newton switch,
# which looks at the quotient alone, and a 400-coefficient divisor into an
# 800-coefficient dividend
NEWTON_SHAPES = [
    (_NEWTON_MIN_LEN, _NEWTON_MIN_LEN - 1),
    (2, _NEWTON_MIN_LEN),
    (_NEWTON_MIN_LEN, _NEWTON_MIN_LEN),
    (_NEWTON_MIN_LEN - 1, _NEWTON_MIN_LEN + 1),
    (400, 401),
]


@pytest.mark.parametrize("fq", KERNEL_FIELDS, ids=lambda f: f"q{f.q}")
def test_newton_divmod_against_digit_reference(fq):
    ref = _ReferenceVectors(fq)
    rng = np.random.default_rng(fq.q + 3)
    for nb, k in NEWTON_SHAPES:
        a, b = _random_vector(rng, fq, nb + k - 1), _random_vector(rng, fq, nb)
        b[-1] = rng.integers(2, fq.q)  # not monic
        if fq.d > 1 and fq.q > 256:
            # over F_512 the lower divisor coefficients take 16 values
            b[:-1] = rng.choice(rng.integers(0, fq.q, 16), nb - 1)
        want = ref.divmod(a, b)
        quo, rem = divmod(PolyA(fq, a), PolyA(fq, b))
        assert (quo.array.tolist(), rem.array.tolist()) == want, (nb, k)
        # an inverse to a higher precision, as primitive_numerators shares it
        inverse = fq.arr_rev_inverse(b, k + 7)
        quo, rem = fq.arr_divmod(a, b, inverse)
        assert (quo.tolist(), _trim(rem).tolist()) == want, (nb, k)
        # a multiple of b: the remainder cancels to zero
        cofactor = _random_vector(rng, fq, k)
        quo, rem = divmod(PolyA(fq, b) * PolyA(fq, cofactor), PolyA(fq, b))
        assert quo.array.tolist() == cofactor.tolist(), (nb, k)
        assert rem.is_zero(), (nb, k)


@pytest.mark.parametrize("fq", KERNEL_FIELDS, ids=lambda f: f"q{f.q}")
def test_gcd_of_multiples(fq):
    # gcd(a c, b c) = monic(c) gcd(a, b): the Euclid runs on arr_mod_inplace
    rng = np.random.default_rng(fq.q + 2)
    for na, nb, nc in [(1, 1, 1), (2, 6, 3), (12, 5, 4), (40, 40, 20),
                       (90, 31, 60)]:
        a, b, c = (PolyA(fq, _random_vector(rng, fq, n)) for n in (na, nb, nc))
        g = a.gcd(b)
        assert g.is_monic() and (a % g).is_zero() and (b % g).is_zero()
        assert (a * c).gcd(b * c) == c.monic() * g, (na, nb, nc)


@pytest.mark.parametrize("fq", [F4, F9, get_fq(257), F512], ids=lambda f: f"q{f.q}")
def test_pth_root_inverts_pth_power(fq):
    rng = random.Random(fq.q)
    for _ in range(10):
        a = random_fq_poly(rng, fq, 5)
        assert (a ** fq.p).pth_root() == a


@pytest.mark.parametrize("fq", [F4, F9], ids=lambda f: f"q{f.q}")
def test_factor_ideal_multiplicities_through_pth_roots(fq):
    # f^p g has a p-th power left after the separable part: squarefree
    # decomposition takes its p-th root
    rng = random.Random(43)
    primes = []
    while len(primes) < 2:
        f = random_fq_poly(rng, fq, 3, nonzero=True, monic=True)
        if f.degree >= 1 and is_irreducible(f) and f not in primes:
            primes.append(f)
    f, g = primes
    p = fq.p
    for ef, eg in [(p, 1), (p + 1, p), (2 * p, 0)]:
        want = {IdealA(f): ef}
        if eg:
            want[IdealA(g)] = eg
        assert dict(factor_ideal(IdealA(f ** ef * g ** eg))) == want, (ef, eg)


def _has_root(fq, f):
    """True when f has a root in F_q, by evaluating f at every element."""
    coeffs = f.array.tolist()[::-1]
    if fq.d == 1:
        x = np.arange(fq.q, dtype=np.int64)
        acc = np.zeros(fq.q, dtype=np.int64)
        for c in coeffs:
            acc = (acc * x + c) % fq.p
        return bool((acc == 0).any())
    for x in range(fq.q):
        acc = 0
        for c in coeffs:
            acc = fq.sadd(fq.smul(acc, x), c)
        if acc == 0:
            return True
    return False


@pytest.mark.parametrize("fq", [get_fq(2), F3, F4, F9, get_fq(257),
                                get_fq(65521)], ids=lambda f: f"q{f.q}")
def test_factor_ideal_against_planted_products(fq, monkeypatch):
    # planted primes of degree 1 to 3, irreducible when linear or without
    # a root in F_q: a pair of degree 1, a pair of degree 3 and one of degree
    # 2 (over F_2, all five).  A pair shares its multiplicity, so
    # equal-degree splitting gets a block of two; multiplicities up to
    # p + 1, where p is small, send squarefree decomposition through p-th
    # roots.
    splits = []
    split = ideals._equal_degree

    def spy(f, d, rng):
        splits.append(f.degree > d)
        return split(f, d, rng)

    monkeypatch.setattr(ideals, "_equal_degree", spy)
    rng = random.Random(fq.q)
    p = fq.p
    mults = (1, 2, p, p + 1) if p < 300 else (1, 2, 3)
    T = fq.poly_T()
    for trial in range(6):
        planted = {}
        for degree, count in ((1, 2), (3, 2), (2, 1)):
            m = rng.choice(mults)
            while count:
                P = random_fq_poly(rng, fq, degree - 1) + T ** degree
                if P not in planted and (degree == 1
                                         or not _has_root(fq, P)):
                    planted[P] = m
                    count -= 1
        f = fq.poly_one
        for P, m in planted.items():
            f = f * P ** m
        want = {IdealA(P): m for P, m in planted.items()}
        assert dict(factor_ideal(IdealA(f), rng=random.Random(trial))) == want
    assert any(splits)


def test_factorization_over_f65521_stays_small():
    # A/(f) takes its Frobenius rows from T^q by squaring, so a large q
    # costs neither a table of (n - 1) q + 1 rows nor its time
    fq = get_fq(65521)
    rng = random.Random(16)
    T = fq.poly_T()
    for degree in (16, 40):
        P = random_fq_poly(rng, fq, degree - 1) + T ** degree
        with bounded(0.5, 16):
            is_irreducible(P)
    f = random_fq_poly(rng, fq, 15) + T ** 16
    with bounded(0.5, 16):
        factors = factor_ideal(IdealA(f))
    assert sum(prime.degree * m for prime, m in factors) == 16


def test_candidate_walk_stays_in_ideals():
    # ideals.py is the one place that enumerates divisors and fraction
    # candidates in A: no other module walks a heap or a divisor stream
    walk = re.compile(r"\b(heapq|divisors_in_degree_order)\b")
    hits = []
    for path in sorted(Path(dforge.__file__).parent.glob("*.py")):
        if path.name == "ideals.py":
            continue
        for no, line in enumerate(path.read_text().splitlines(), 1):
            if walk.search(line):
                hits.append(f"{path.name}:{no}: {line.strip()}")
    assert hits == []


def _digit_polys(tree):
    """Calls of `poly` or `PolyA` whose arguments take base-q digits of an
    integer, x // b % b."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name not in ("poly", "PolyA"):
            continue
        for arg in node.args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod) \
                        and isinstance(sub.left, ast.BinOp) \
                        and isinstance(sub.left.op, ast.FloorDiv):
                    yield node.lineno
                    break


def test_one_scan_of_candidates_and_no_heap():
    # no module of src/ walks a heap, and only fields.py (`monic_polys`)
    # builds polynomials from the base-q digits of a loop index
    hits = []
    for path in sorted(Path(dforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "heapq" in names:
                hits.append(f"{path.name}:{node.lineno}: imports heapq")
        if path.name != "fields.py":
            hits += [f"{path.name}:{no}: polynomial from digits"
                     for no in _digit_polys(tree)]
    assert hits == []


def test_packed_layout_stays_in_fields():
    # only fields.py may read the packing of F_q values: its tables, its
    # digit helpers and its powers of p
    private = re.compile(r"\b(_?digit_add|_scalar_mul_nocheck|_addtab|_multab|"
                         r"_negtab|_proot|_exp|_log|_pp)\b")
    hits = []
    for path in sorted(Path(dforge.__file__).parent.glob("*.py")):
        if path.name == "fields.py":
            continue
        for no, line in enumerate(path.read_text().splitlines(), 1):
            if private.search(line):
                hits.append(f"{path.name}:{no}: {line.strip()}")
    assert hits == []


def test_relative_imports_are_used():
    # every name a module imports from a sibling module is used in it;
    # __init__.py imports to re-export and is exempt
    unused = []
    for path in sorted(Path(dforge.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def test_no_function_local_imports():
    # every import of the program sits at module level; none is needed to
    # break an import cycle
    hits = []
    for path in sorted(Path(dforge.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hits += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert hits == []


def test_no_defaulted_certificate_parameters():
    # every Isogeny is certified when it is built, so no function of the
    # program takes a certificate or a certificate factory that may be
    # left out
    names = ("certificate", "certificate_factory")
    hits = []
    for path in sorted(Path(dforge.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            hits += [f"{path.name}:{fn.lineno}: {a.arg}" for a in defaulted
                     if a.arg in names]
    assert hits == []


def _functions(tree, cls=None):
    """(function, enclosing class name or None) for every def in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, cls
            yield from _functions(node)
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, node.name)
        else:
            yield from _functions(node, cls)


def test_no_unset_defaulted_parameters():
    # every defaulted parameter of the program is set by some call in
    # src/, tests/ or scripts/, by keyword or by position: a default that
    # no call overrides is a constant.  Calls are matched by the called
    # name, and constructors by the class name
    root = Path(__file__).resolve().parent.parent
    calls = {}
    for path in sorted(root.glob("*/**/*.py")):
        if path.parts[len(root.parts)] not in ("src", "tests", "scripts"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args), keywords))
    unset = []
    for path in sorted(Path(dforge.__file__).parent.glob("*.py")):
        for fn, cls in _functions(ast.parse(path.read_text())):
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in fn.decorator_list)
            skip = 1 if cls and not static else 0
            names = [fn.name] + ([cls] if fn.name == "__init__" else [])
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(a.arg, i - skip)
                         for i, a in enumerate(positional) if i >= first]
            defaulted += [(a.arg, None) for a, d in
                          zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg, index in defaulted:
                if not any(None in kws or arg in kws
                           or (index is not None and count > index)
                           for name in names for count, kws in calls.get(name, [])):
                    unset.append(f"{path.name}:{fn.lineno}: {fn.name}({arg})")
    assert unset == []


def test_no_assert_statements():
    # `python -O` strips assert statements, so an invariant check in the
    # program raises an exception instead
    hits = []
    for path in sorted(Path(dforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_verify_isogeny_is_called_only_from_the_cli():
    # the product check mu phi_T = psi_T mu runs on a mu from outside the
    # program, the job documents; a derived mu intertwines by the exact
    # division that built it and goes through isogeny._certified
    hits = []
    for path in sorted(Path(dforge.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and "verify_isogeny" in (getattr(node.func, "id", None),
                                             getattr(node.func, "attr", None))):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_tree_metrics_are_realized_only_in_validation():
    # tree-ness has one test, the realization in validate_orbit; classify
    # and materialize_center read the stored trees and class distances and
    # walk no SubTree by BFS
    callers, bfs = [], []
    for path in sorted(Path(dforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn, _ in _functions(tree):
            callers += [f"{path.name}: {fn.name}" for node in _own_scope(fn)
                        if isinstance(node, ast.Call)
                        and "reconstruct_subtree" in (
                            getattr(node.func, "id", None),
                            getattr(node.func, "attr", None))]
        bfs += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "bfs"]
    assert callers == ["trees.py: validate_orbit"]
    assert bfs == [] and not hasattr(trees.SubTree, "bfs")


def test_each_support_prime_is_realized_once(monkeypatch):
    # one orbit: two swapped labels, two support primes and a prime with a
    # zero metric
    doc = {
        "field": {"p": 3, "fq_modulus": None, "ext_minpoly": None,
                  "galois": []},
        "orbits": {"orb": {
            "labels": [0, 1],
            "generators": [{"name": "s", "order": 2, "permutation": [1, 0]}],
            "metrics": {"(T)": [[0, 1], [1, 0]],
                        "(1 + T)": [[0, 2], [2, 0]],
                        "(2 + T)": [[0, 0], [0, 0]]},
        }},
        "params": {"orbit": "orb"},
    }
    realized = []
    realize = trees.reconstruct_subtree

    def spy(datum, p):
        realized.append(p)
        return realize(datum, p)

    monkeypatch.setattr(trees, "reconstruct_subtree", spy)
    ctx = cli.JobContext(doc)
    out = cli.cmd_classify(ctx)
    datum = ctx.param("orbit")
    assert out["n"] == "(T)" and len(datum.support) == 2
    assert realized == list(datum.support)
    realized.clear()
    fresh = trees.OrbitDatum(labels=datum.labels, group=datum.group,
                             metrics=datum.metrics)
    trees.validate_orbit(fresh)
    assert realized == list(fresh.support)
    result = trees.classify(fresh)
    trees.minimality_check(fresh, result)
    assert realized == list(fresh.support)


def test_factor_ideal_checks_the_product(monkeypatch):
    # a wrong factor from the equal-degree split is caught by re-multiplying
    gen = F3.poly([1, 0, 1])  # T^2 + 1, irreducible over F_3
    assert factor_ideal(IdealA(gen)) == [(IdealA(gen), 1)]
    monkeypatch.setattr(ideals, "_equal_degree",
                        lambda f, d, rng: [f + F3.poly_T()])
    with pytest.raises(RuntimeError, match="does not re-multiply"):
        factor_ideal(IdealA(gen))


def test_kron_conv_rejects_slots_wider_than_int64():
    # (p - 1)^2 >= 2^56 needs 8-byte slots, which no int64 result holds
    p = 2 ** 31 - 1
    one = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(RuntimeError, match="slot too wide"):
        _kron_conv(one, one, p)


def _own_scope(func):
    """The nodes of a function body, not descending into nested scopes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _assigned_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _assigned_names(target.value)


def test_assigned_locals_are_read():
    # every name a function binds by assignment or tuple unpacking is read
    # in it, nested functions included; for-loop targets and names that
    # start with _ are exempt
    dead = []
    for path in sorted(Path(dforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {n.id for n in ast.walk(func)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for node in _own_scope(func):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    read.update(node.names)
            for node in _own_scope(func):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for name in _assigned_names(target):
                        if not name.startswith("_") and name not in read:
                            dead.append(f"{path.name}:{node.lineno}: "
                                        f"{name} in {func.name}")
    assert dead == []


class _ScalarField:
    """F_q by scalar products of F_p digit lists, reduced by the modulus one
    coefficient at a time; the reference for the tables of `Fq`."""

    def __init__(self, fq):
        self.p, self.d, self.modulus = fq.p, fq.d, fq.modulus

    def digits(self, a):
        return [a // self.p ** i % self.p for i in range(self.d)]

    def pack(self, digits):
        return sum(c % self.p * self.p ** i for i, c in enumerate(digits))

    def add(self, a, b):
        return self.pack([x + y for x, y in zip(self.digits(a),
                                                self.digits(b))])

    def mul(self, a, b):
        p, d = self.p, self.d
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for k in range(2 * d - 2, d - 1, -1):
            top = prod[k] % p
            for i in range(d):
                prod[k - d + i] -= top * self.modulus[i]
        return self.pack(prod[:d])

    def power(self, a, e):
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a, e = self.mul(a, a), e >> 1
        return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27, 81, 256, 257, 625, 4096,
                               65521])
def test_tables_match_a_scalar_reference(q):
    # the generator is the first of 2, 3, ... whose (q - 1)/r-th powers are
    # not 1, found by trial powers; its powers come by repeated products
    fq = Fq.of_order(q)
    ref = _ScalarField(fq)
    order = q - 1
    primes = [r for r in range(2, order + 1)
              if order % r == 0 and all(r % s for s in range(2, r))]
    gen = next((c for c in range(2, q)
                if all(ref.power(c, order // r) != 1 for r in primes)), 1)
    exp = [1]
    while len(exp) < order:
        exp.append(ref.mul(exp[-1], gen))
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    assert sorted(exp) == list(range(1, q))
    assert fq._exp.tolist() == exp + exp
    assert fq._log.tolist() == log
    if q > 256:
        assert fq._addtab is None and fq._multab is None
        return
    # a b = g^(log a + log b), so the reference products come from exp
    products = [[exp[(log[a] + log[b]) % order] if a and b else 0
                 for b in range(q)] for a in range(q)]
    assert fq._addtab.tolist() == [[ref.add(a, b) for b in range(q)]
                                   for a in range(q)]
    assert fq._multab.tolist() == products


@pytest.mark.parametrize("q", [2 ** 16, 3 ** 10])
def test_largest_extension_fields_build_quickly(q):
    with deadline(0.5):
        fq = Fq.of_order(q)
    assert np.array_equal(np.sort(fq._exp[: q - 1]), np.arange(1, q))


MATMUL_FIELDS = [F3, get_fq(5), F4, F9, get_fq(257), F512]


@pytest.mark.parametrize("fq", MATMUL_FIELDS, ids=lambda f: f"q{f.q}")
def test_arr_matmul_against_scalar_ops(fq):
    rng = np.random.default_rng(fq.q)
    for k, m, n in [(1, 1, 1), (3, 5, 4), (2, 40, 3), (4, 7, 9)]:
        a = rng.integers(0, fq.q, (k, m))
        b = rng.integers(0, fq.q, (m, n))
        b[0] = fq.q - 1
        want = np.zeros((k, n), dtype=np.int64)
        for i in range(k):
            for j in range(n):
                acc = 0
                for t in range(m):
                    acc = fq.sadd(acc, fq.smul(int(a[i, t]), int(b[t, j])))
                want[i, j] = acc
        assert np.array_equal(fq.arr_matmul(a, b), want), (k, m, n)


def _irreducible(rng, fq, degree):
    while True:
        P = random_fq_poly(rng, fq, degree - 1) + fq.poly_T() ** degree
        if is_irreducible(P):
            return P


@pytest.mark.parametrize("fq", [F3, get_fq(5), F4, F9, get_fq(257),
                                get_fq(65521)], ids=lambda f: f"q{f.q}")
def test_residue_field_against_polynomials_mod_p(fq):
    rng = random.Random(fq.q)
    for degree in (1, 2, 3, 6):
        P = _irreducible(rng, fq, degree)
        F = ResidueField(fq, P)
        assert F.is_field()
        root = random_fq_poly(rng, fq, 4)
        for _ in range(8):
            a = random_fq_poly(rng, fq, rng.randrange(60))
            b = random_fq_poly(rng, fq, rng.randrange(60))
            ra, rb = F.reduce([a, b])
            (a_mod,), (b_mod,) = F.reduce([a % P]), F.reduce([b % P])
            assert ra == a_mod and rb == b_mod
            assert ra * rb == F.reduce([a * b % P])[0]
            assert ra - rb == F.reduce([(a - b) % P])[0]
            assert ra + rb == F.reduce([(a + b) % P])[0]
            # a^q = (a mod P)^q mod P: a spread of at most (n - 1) q + 1
            # terms keeps the reference short over F_65521
            assert ra.frob() == F.reduce([(a % P).frob_power(1) % P])[0]
            assert F.reduce([(a, b)], root) == F.reduce([(a + b * root) % P])
            if not ra.is_zero():
                assert (ra * ra.inverse()).is_one()
                assert (rb / ra) * ra == rb


@pytest.mark.parametrize("fq", [F3, F4, F9], ids=lambda f: f"q{f.q}")
def test_residue_ring_builds_frobenius_rows_on_first_use(fq):
    # A/(f) at a product of two primes, as the equal-degree split takes it:
    # powers and trace sums build no Frobenius rows, and the first frob
    # builds rows that agree with the polynomial reference
    rng = random.Random(fq.q + 1)
    f = _irreducible(rng, fq, 2) * _irreducible(rng, fq, 3)
    ring = ResidueField(fq, f)
    a = random_fq_poly(rng, fq, 9)
    t = ring.reduce([a])[0]
    acc = ring.zero
    for _ in range(3):
        acc, t = acc + t, t * t
    assert acc == ring.reduce([(a + a ** 2 + a ** 4) % f])[0]
    assert "_frob" not in vars(ring)
    ra = ring.reduce([a])[0]
    assert ra.frob() == ring.reduce([a.frob_power(1) % f])[0]
    assert "_frob" in vars(ring)
