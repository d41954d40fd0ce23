"""The root search over Q by reduction modulo one prime, against the divisor
walk it replaced (kept in roots_reference.py): the same roots in the same
order on random, closure and planted tails, and one intertwiner checked per
line of roots."""
import random
import re
from pathlib import Path

import numpy as np
import pytest

import dforge
import roots_reference
from dforge import drinfeld
from dforge.drinfeld import (
    intertwiner_closure,
    intertwiner_space,
    linearized_roots_in_Q,
    make_module,
)
from dforge.fields import (Fq, RatFunc, cleared_numerators,
                           primitive_numerators, row_relations)
from dforge.randgen import (
    random_ratfunc,
    random_skew,
    rotation_pair,
    two_prime_point,
)
from dforge.skew import SkewPoly, kernel_dimension, lclm, skew_eval

from helpers import rational_field

Q3 = rational_field(3)
FIELDS = {
    "Q3": lambda: Q3,
    "F9T": lambda: rational_field(3, Fq.of_order(9).modulus),
    "F5T": lambda: rational_field(5),
}


def reference(tails):
    """The old search, stopped as intertwiner_space stopped it: at the
    dimension of the tails' common kernel over an algebraic closure."""
    return roots_reference.linearized_roots_in_Q(
        tails[0], extra=tails[1:], stop_dim=kernel_dimension(tails))


def subspace_poly(field, roots):
    """The monic W of tau-degree len(roots) whose kernel is the F_q-span
    of `roots` (F_q-independent elements of Q)."""
    tau = SkewPoly.tau(field)
    W = SkewPoly.from_scalar(field.one)
    for r in roots:
        W = tau * W - W.scale_left(skew_eval(W, r) ** (field.fq.q - 1))
    return W


def planted(field, *roots):
    return subspace_poly(field, [field.from_rat(r) for r in roots])


def rat(field, num, den=(1,)):
    fq = field.fq
    return RatFunc.make(fq.poly(list(num)), fq.poly(list(den)))


def cleared_tails(tails):
    """The tails cleared as the search clears them: the first to a primitive
    vector over A, the others by their common denominator."""
    fq = tails[0].field.fq
    return [primitive_numerators(fq, [c.as_rat() for c in tails[0].coeffs])] \
        + [cleared_numerators(fq, [c.as_rat() for c in t.coeffs])[0]
           for t in tails[1:]]


def first_good_prime(tails, n):
    """(F, reduced) at the first good prime of the walk from degree n."""
    cleared = [[(c,) for c in C] for C in cleared_tails(tails)]
    walk = drinfeld._prime_walk(tails[0].field, cleared, n)
    return next((F, reduced) for _, F, reduced in walk if reduced is not None)


def kernel_basis(F, matrices):
    """The basis of K_P that the search lifts, from its matrices."""
    return [vec.tolist()
            for _, vec in row_relations(F.fq, np.hstack(matrices))]


def first_prime_dimension(tails):
    """(deg P, dim K_P) at the search's first prime."""
    F, reduced = first_good_prime(tails, drinfeld._ROOT_PRIME_DEGREE)
    return F.n, len(kernel_basis(F, F.linearized_matrices(reduced)))


@pytest.fixture
def prime_degrees(monkeypatch):
    """The degrees of the primes the searches use, in order."""
    seen = []
    walk = drinfeld._prime_walk

    def record(field, tails, degree):
        for P, F, reduced in walk(field, tails, degree):
            if reduced is not None:
                seen.append(F.n)
            yield P, F, reduced

    monkeypatch.setattr(drinfeld, "_prime_walk", record)
    return seen


def random_tails(name):
    """Twelve lists of one or two tails over FIELDS[name]: random left
    factors times the subspace polynomial of 0, 1 or 2 planted roots."""
    field = FIELDS[name]()
    fq = field.fq
    rng = random.Random(name)
    # two planted roots over F_9 give cleared coefficients that the old
    # walk took more than a minute to factor and walk
    most = 2 if fq.q == 3 else 1
    for trial in range(12):
        roots = []
        while len(roots) < trial % (most + 1):
            r = random_ratfunc(rng, fq, 1)
            if not r.is_zero() and not any(
                    (r / s).is_constant() for s in roots):
                roots.append(r)
        W = planted(field, *roots)
        tails = []
        for _ in range(1 + trial % 2):
            left = SkewPoly(field, ())
            while left.deg < 2 - len(roots):
                left = random_skew(rng, field, 2 - len(roots), 1,
                                   poly_only=trial % 4 < 2)
            tails.append(left * W)
        yield tails


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_random_tails_against_the_divisor_walk(name):
    found = 0
    for tails in random_tails(name):
        got = linearized_roots_in_Q(tails[0], extra=tails[1:])
        assert got == reference(tails)
        found += len(got)
    assert found


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_the_walk_against_the_old_prime_and_matrices(name):
    # the first good prime of the walk is the old `_root_prime`, and the
    # matrices of the residues give the basis of K_P that the old matrices
    # of the cleared coefficients gave, at both degrees the search takes
    for tails in random_tails(name):
        cleared = cleared_tails(tails)
        low = cleared[0][tails[0].tau_valuation()]
        for n in (drinfeld._ROOT_PRIME_DEGREE,
                  2 * drinfeld._ROOT_PRIME_DEGREE + 1):
            old = roots_reference._root_prime(tails[0].field.fq, n,
                                              (low, cleared[0][-1]))
            F, reduced = first_good_prime(tails, n)
            assert F.P == old.P
            assert kernel_basis(F, F.linearized_matrices(reduced)) == \
                kernel_basis(old, roots_reference.linearized_matrices(
                    old, cleared))


@pytest.mark.parametrize("make", ["rotation", "two-prime"])
def test_closure_tails_against_the_divisor_walk(make):
    rng = random.Random(make)
    for _ in range(3):
        if make == "rotation":
            phi, psi, mu, _ = rotation_pair(rng, Q3, shift=rng.randrange(3))
        else:
            phi, _, psi, _, _, mu, _, _ = two_prime_point(rng, Q3)
        _, _, tails = intertwiner_closure(phi, psi, mu.deg)
        got = linearized_roots_in_Q(tails[0], extra=tails[1:])
        assert got == reference(tails)
        assert mu.constant() in got


def test_high_roots_double_the_prime(prime_degrees):
    # deg u + deg v = 7 does not fit A/P at degree 6: no line reconstructs
    # there, and the next prime, of degree 13, has room for it
    root = rat(Q3, (1, 0, 1, 1, 1), (2, 0, 1, 1))
    tails = [planted(Q3, root)]
    got = linearized_roots_in_Q(tails[0])
    assert prime_degrees == [6, 13]
    assert got == reference(tails)
    assert {r.as_rat() for r in got} == {root, -root}


def test_spurious_dimension_at_the_first_prime(prime_degrees):
    # T + T^2 is no square in Q but is one mod the first prime, so the
    # lclm of tau - T - T^2 and W, whose kernel is the F_q-line of 1 + T,
    # has one more dimension there than roots in Q
    root = rat(Q3, (1, 1))
    b = Q3.from_rat(rat(Q3, (0, 1, 1)))
    tails = [lclm(SkewPoly(Q3, (-b, Q3.one)), planted(Q3, root))]
    assert first_prime_dimension(tails) == (6, 2)
    del prime_degrees[:]
    got = linearized_roots_in_Q(tails[0])
    assert prime_degrees == [6, 13]
    assert got == reference(tails)
    assert {r.as_rat() for r in got} == {root, -root}


def test_tails_without_rational_roots(prime_degrees):
    # tau - b: b a square mod the first prime (a spurious line, which does
    # not reconstruct to a root; 6 > deg C_0 + deg C_1 = 2 makes that a
    # proof) and b not one (no kernel at all)
    for coeffs, dimension in (((0, 1, 1), 1), ((1, 0, 1), 0)):
        b = Q3.from_rat(rat(Q3, coeffs))
        tails = [SkewPoly(Q3, (-b, Q3.one))]
        assert first_prime_dimension(tails) == (6, dimension)
        del prime_degrees[:]
        assert linearized_roots_in_Q(tails[0]) == reference(tails) == []
        assert prime_degrees == [6]


def test_tails_of_positive_tau_valuation():
    # A tail W tau is zero at tau^0; its roots are those c with W(c^q) = 0,
    # and the lemma of linearized_roots_in_Q applies to it as it is: a root
    # u/v has u | C_s, v | C_m at the valuation s, so no q-th root is taken
    root = rat(Q3, (1, 1), (0, 0, 1))
    tail = planted(Q3, root ** 3) * SkewPoly.tau(Q3)
    assert tail.tau_valuation() == 1
    got = linearized_roots_in_Q(tail)
    assert got == reference([tail])
    assert {r.as_rat() for r in got} == {root, -root}
    # the closure makes such tails when g = 0 in the source and the bound is
    # even: here phi_T = f1 f2 + c with g = 0 and psi_T = f2 f1 + c
    fq = Q3.fq
    T, one = Q3.T(), Q3.one
    for c, b1 in ((0, (1,)), (1, (0, 1)), (2, (2, 0, 1))):
        cK = Q3.from_poly(fq.poly([c]))
        b1 = Q3.from_poly(fq.poly(list(b1)))
        f1 = SkewPoly(Q3, (one, b1))
        f2 = SkewPoly(Q3, (T - cK, -b1 * (T - cK).frob()))
        phi = make_module(f1 * f2 + SkewPoly.from_scalar(cK))
        psi = make_module(f2 * f1 + SkewPoly.from_scalar(cK))
        assert phi.g.is_zero()
        _, _, tails = intertwiner_closure(phi, psi, 2)
        assert tails[0].tau_valuation() == 1
        got = linearized_roots_in_Q(tails[0], extra=tails[1:])
        assert got == reference(tails)
        assert f2.constant() in got


def test_one_intertwiner_is_checked_per_line(monkeypatch):
    rng = random.Random(5)
    phi, psi, mu, _ = rotation_pair(rng, Q3)
    checked = []
    mul = SkewPoly.__mul__

    def count(self, other):
        if other is phi.phiT:
            checked.append(self)
        return mul(self, other)

    monkeypatch.setattr(SkewPoly, "__mul__", count)
    space = intertwiner_space(phi, psi, mu.deg)
    # one line, {mu, 2 mu}: both built, the one of constant lead 1 checked
    assert len(space) == 2 and len(checked) == 1
    assert drinfeld._lead_scalar(checked[0].constant()) == Q3.fq.one
    assert {u.monic() for u in space} == {mu.monic()}
    for u in space:
        assert mul(u, phi.phiT) == psi.phiT * u


def test_root_search_walks_no_divisors():
    source = Path(dforge.__file__).with_name("drinfeld.py").read_text()
    assert not re.search(r"\b(coprime_fractions|factor_ideal|divisors_in_"
                         r"degree_order|qth_root)\b", source)
