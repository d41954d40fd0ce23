"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line; stated wall-clock budgets are
asserted.  Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""
import random
import time
import zlib

import pytest

from dforge.cli import cmd_example35
from dforge.drinfeld import (
    CertificateCache,
    DescentCocycle,
    certify_non_cm,
    conjugate_module,
    descend_k_model,
    j_invariant,
    make_module,
)
from dforge.errors import CMSuspected
from dforge.extfield import ExtField, GaloisDatum
from dforge.fields import Fq
from dforge.ideals import IdealA, unit_ideal
from dforge.isogeny import (
    compose,
    dual,
    find_isogenies,
    verify_isogeny,
)
from dforge.moduli import ALElement, ModuliPoint, al_apply, al_compose, al_group
from dforge.randgen import (
    random_ext_elem,
    random_fq_poly,
    random_skew,
    rotation_pair,
    two_prime_point,
)
from dforge.skew import SkewPoly, right_divmod
from dforge.trees import (
    OrbitDatum,
    OrbitGroup,
    SubTree,
    classify,
    minimality_check,
    reconstruct_subtree,
    tree_center,
    validate_orbit,
)

from helpers import (
    ahu_hash,
    bfs_dist,
    get_fq,
    leaf_pruning_center,
    quadratic_field,
    random_tree,
    rational_field,
    spanned_subtree,
    synthetic_orbit,
)

F3 = get_fq(3)
F9 = get_fq(3, (1, 0, 1))
CERTS = CertificateCache()


def _report(num, name, ok, elapsed, budget=None):
    verdict = "PASS" if ok else "FAIL"
    budget_txt = f" (budget {budget}s)" if budget else ""
    print(f"ACCEPTANCE {num} [{name}]: {verdict} in {elapsed:.2f}s{budget_txt}")
    assert ok, f"criterion {num} failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_worked_example_end_to_end():
    start = time.time()
    ok = True
    for q in (3, 5):
        report = cmd_example35(q)
        ok = ok and report["all_pass"]
        ok = ok and report["n"] == "(T)" and report["m"]["s"] == "(T)"
    _report(1, "worked example end-to-end, q=3 and q=5", ok,
            time.time() - start, budget=5)


def test_criterion_2_skew_division_suite():
    start = time.time()
    configs = [
        (get_fq(3), None, "q3/Q"),
        (get_fq(3), (1, 1), "q3/quadratic"),
        (get_fq(3, (1, 0, 1)), None, "q9/Q"),
        (get_fq(3, (1, 0, 1)), (1, 1), "q9/quadratic"),
    ]
    ok = True
    for fq, dpoly, label in configs:
        field = rational_field(fq.p, fq.modulus if fq.d > 1 else None) \
            if dpoly is None else quadratic_field(
                fq.p, fq.modulus if fq.d > 1 else None, dpoly)
        rng = random.Random(zlib.crc32(label.encode()))
        done = 0
        while done < 1000:
            general = done % 10 == 9
            if general:
                a = random_skew(rng, field, 3, 1)
                b = random_skew(rng, field, 1, 1)
            else:
                a = random_skew(rng, field, 4, 1)
                b = random_skew(rng, field, 2, 1, unit_lead=True)
            if b.is_zero():
                continue
            quo, rem = right_divmod(a, b)
            if quo * b + rem != a or rem.deg >= b.deg:
                ok = False
                break
            done += 1
    _report(2, "1000 right-division round-trips x 4 configurations", ok,
            time.time() - start, budget=30)


def test_criterion_3_degree_multiplicativity_and_duals():
    start = time.time()
    Q3 = rational_field(3)
    rng = random.Random(33)
    chains = 0
    ok = True
    while chains < 200:
        try:
            phi, psi, fwd, back = rotation_pair(rng, Q3,
                                                shift=rng.randrange(3))
            cphi = CERTS(phi, 3 if chains % 8 == 0 else 2)
            cpsi = CERTS(psi, 2)
        except CMSuspected:
            continue
        f = verify_isogeny(phi, psi, fwd, cphi)
        b = verify_isogeny(psi, phi, back, cpsi)
        d_f, _, _ = f.degree_parts()
        d_b, _, _ = b.degree_parts()
        # dual relations: hat(mu) mu = phi_{a_n}, mu hat(mu) = psi_{a_n}
        hat = dual(f, CERTS)
        from dforge.drinfeld import phi_a

        a_n = d_f.gen
        ok = ok and hat.mu * f.mu == phi_a(phi, a_n)
        ok = ok and f.mu * hat.mu == phi_a(psi, a_n)
        ok = ok and hat.degree_parts()[0] == d_f
        # multiplicativity on the two-step chain
        two = compose(b, f, CERTS)
        ok = ok and two.degree_parts()[0] == d_f * d_b
        if chains % 8 == 0:
            three = compose(f, two, CERTS)
            ok = ok and three.degree_parts()[0] == d_f * d_f * d_b
        if not ok:
            break
        chains += 1
    _report(3, "200 rotation chains: degree multiplicativity + duals", ok,
            time.time() - start, budget=60)


def test_criterion_4_scalar_ratio_and_theta_injectivity():
    start = time.time()
    Q3 = rational_field(3)
    rng = random.Random(44)
    done = 0
    ok = True
    while done < 100:
        try:
            if done % 5 == 4:
                phi, mid, tgt, h, g1, chi, p1, p2 = two_prime_point(rng, Q3)
                mu = chi
                psi = tgt
                cert = CERTS(phi, 2)
            else:
                phi, psi, fwd, back = rotation_pair(rng, Q3,
                                                    shift=rng.randrange(3))
                mu = fwd
                cert = CERTS(phi, 2)
                CERTS(psi, 2)
        except CMSuspected:
            continue
        c = random_ext_elem(rng, Q3, 1, nonzero=True)
        d = random_ext_elem(rng, Q3, 1, nonzero=True)
        phi2 = make_module(SkewPoly.from_scalar(c) * phi.phiT
                           * SkewPoly.from_scalar(c.inverse()))
        psi2 = make_module(SkewPoly.from_scalar(d) * psi.phiT
                           * SkewPoly.from_scalar(d.inverse()))
        mu2 = SkewPoly.from_scalar(d) * mu * SkewPoly.from_scalar(c.inverse())
        try:
            CERTS(phi2, mu2.deg)
        except CMSuspected:
            continue
        # equal Theta pairs by construction
        ok = ok and j_invariant(phi2) == j_invariant(phi)
        ok = ok and j_invariant(psi2) == j_invariant(psi)
        found = find_isogenies(phi2, psi2, mu2.deg, certificate_factory=CERTS)
        monics = {u.mu.monic() for u in found}
        ok = ok and mu2.monic() in monics
        # all intertwiners of equal degree are F_q^x multiples: one line
        degs = {}
        for u in found:
            degs.setdefault(u.degree_parts()[0], set()).add(u.mu.monic())
        ok = ok and all(len(v) == 1 for v in degs.values())
        if not ok:
            break
        done += 1
    _report(4, "100 non-CM pairs: unit ratios via find_isogenies", ok,
            time.time() - start)


def test_criterion_5_tree_oracles():
    start = time.time()
    P_T = IdealA(F3.poly([0, 1]))
    rng = random.Random(55)
    ok = True
    for _ in range(10000):
        adj = random_tree(rng, 40)
        leaves = [v for v in range(len(adj)) if len(adj[v]) == 1]
        k = rng.randrange(2, min(6, len(leaves)) + 1)
        marked = rng.sample(leaves, k)
        dists = [bfs_dist(adj, v) for v in marked]
        mat = tuple(tuple(dists[i][b] for b in marked) for i in range(k))
        datum = OrbitDatum(labels=tuple(range(k)), group=OrbitGroup([]),
                           metrics={P_T: mat})
        validate_orbit(datum)
        t = reconstruct_subtree(datum, P_T)
        vertices, sub, index = spanned_subtree(adj, marked)
        got = ahu_hash(t.adj, {t.class_vertex[t.label_class[i]]: str(i)
                               for i in range(k)})
        want = ahu_hash(sub, {index[v]: str(i)
                              for i, v in enumerate(marked)})
        if got != want:
            ok = False
            break
    centers_ok = True
    for _ in range(10000):
        adj = random_tree(rng, 40)
        tree = SubTree(adj=adj, class_vertex=[], label_class=[],
                       classes=[])
        got = tree_center(tree)
        kind, verts = leaf_pruning_center(adj)
        if got.kind != kind or tuple(sorted(got.vertices)) != verts:
            centers_ok = False
            break
    _report(5, "10000 reconstructions + 10000 centers vs oracles",
            ok and centers_ok, time.time() - start, budget=60)


def test_criterion_6_classification_pipeline():
    start = time.time()
    pool = [
        IdealA(F3.poly([0, 1])),
        IdealA(F3.poly([1, 1])),
        IdealA(F3.poly([2, 1])),
        IdealA(F3.poly([1, 0, 1])),
    ]
    rng = random.Random(66)
    ok = True
    for trial in range(500):
        gens, metrics, metrics2, edge_primes, expected_m = \
            synthetic_orbit(rng, pool)
        k = len(metrics[next(iter(metrics))])
        datum = OrbitDatum(labels=tuple(range(k)), group=OrbitGroup(gens),
                           metrics=metrics)
        validate_orbit(datum)
        res = classify(datum)
        expected_n = unit_ideal(F3)
        for p in edge_primes:
            expected_n = expected_n * p
        ok = ok and res.n == expected_n
        ok = ok and res.n.is_square_free()
        rep = minimality_check(datum, res)
        ok = ok and all(v["ok"] for v in rep.values())
        # m-map: matches the construction characters and composes as one
        for g in datum.group.elements():
            want = unit_ideal(F3)
            for p in expected_m[g]:
                want = want * p
            ok = ok and res.m_of(g) == want
        for s in datum.group.elements():
            for t in datum.group.elements():
                st = datum.group.compose(s, t)
                ms, mt = res.m_of(s), res.m_of(t)
                gcd = ms.gcd(mt)
                ok = ok and res.m_of(st) == (ms * mt).quotient(gcd * gcd)
        # rebasing: a second label family in the same ambient trees
        datum2 = OrbitDatum(labels=tuple(range(k)), group=OrbitGroup(gens),
                            metrics=metrics2)
        validate_orbit(datum2)
        res2 = classify(datum2)
        ok = ok and res2.n == res.n
        ok = ok and all(res2.m_of(g) == res.m_of(g)
                        for g in datum.group.elements())
        if not ok:
            break
    _report(6, "500 synthetic orbits: pipeline + rebasing", ok,
            time.time() - start)


def test_criterion_7_atkin_lehner_algebra():
    start = time.time()
    ok = True
    primes = [
        IdealA(F3.poly([0, 1])),
        IdealA(F3.poly([1, 1])),
        IdealA(F3.poly([2, 1])),
    ]
    # group tables for 1, 2, 3 prime factors
    for count in (1, 2, 3):
        n = unit_ideal(F3)
        for p in primes[:count]:
            n = n * p
        group = al_group(n)
        ok = ok and len(group) == 2 ** count
        for w1 in group:
            ok = ok and al_compose(w1, w1).is_identity()
            for w2 in group:
                w3 = al_compose(w1, w2)
                g = w1.m.gcd(w2.m)
                ok = ok and w3.m == (w1.m * w2.m).quotient(g * g)
                ok = ok and al_compose(w2, w1).m == w3.m
    # w_n equals the dual representative on 50 generated points
    Q3 = rational_field(3)
    rng = random.Random(77)
    done = 0
    while done < 50:
        try:
            if done % 3 == 2:
                phi, mid, tgt, h, g1, chi, p1, p2 = two_prime_point(rng, Q3)
                iso = verify_isogeny(phi, tgt, chi, CERTS(phi, 2))
            else:
                phi, psi, fwd, back = rotation_pair(rng, Q3,
                                                    shift=rng.randrange(3))
                iso = verify_isogeny(phi, psi, fwd, CERTS(phi, 2))
                CERTS(psi, 2)
        except CMSuspected:
            continue
        x = ModuliPoint(iso).validate()
        n = x.level
        w_n = ALElement(n, n)
        y = al_apply(w_n, x, certificate_factory=CERTS)
        d = dual(iso, CERTS)
        ok = ok and y.theta_pair() == ModuliPoint(d).theta_pair()
        ok = ok and y.level == n
        if not ok:
            break
        done += 1
    _report(7, "W(n) tables (1-3 primes) + 50 w_n vs dual points", ok,
            time.time() - start)


def test_criterion_8_weil_descent():
    start = time.time()
    K = quadratic_field(3)
    datum = GaloisDatum(K, [("s", 2, -K.gen())])
    s = datum.generator_element("s")
    rng = random.Random(88)
    ok = True
    done = 0
    while done < 50:
        g = K.from_poly(random_fq_poly(rng, F3, 1))
        dl = K.from_poly(random_fq_poly(rng, F3, 1))
        if g.is_zero() or dl.is_zero():
            continue
        base = make_module(SkewPoly(K, (K.T(), g, dl)))
        c = random_ext_elem(rng, K, 1, nonzero=True)
        tw = SkewPoly.from_scalar(c) * base.phiT \
            * SkewPoly.from_scalar(c.inverse())
        phi = make_module(tw)
        nu = {(1,): c * datum.apply(s, c).inverse()}
        cocycle = DescentCocycle.from_map(datum, nu)
        model = descend_k_model(phi, cocycle, rng=random.Random(done))
        ok = ok and all(datum.is_fixed(x) for x in model.phiT.coeffs)
        ok = ok and j_invariant(model) == j_invariant(phi)
        if not ok:
            break
        done += 1
    _report(8, "50 quadratic scalar twists descend to fixed models", ok,
            time.time() - start)
