"""Orbit validation, metric tree realization, centers, classification."""
import random

import pytest

from dforge.drinfeld import CertificateCache, conjugate_module, make_module
from dforge.errors import (
    AsymmetricMatrix,
    InternalInconsistency,
    MissingIsogeny,
    NotGInvariant,
    NotRealizable,
    NotTreeMetric,
    OrbitNotClosed,
)
from dforge.extfield import GaloisDatum
from dforge.ideals import IdealA, unit_ideal
from dforge.isogeny import dual, verify_isogeny
from dforge.skew import SkewPoly
from dforge.trees import (
    Center,
    OrbitDatum,
    OrbitGroup,
    SubTree,
    classify,
    materialize_center,
    minimality_check,
    orbit_from_isogenies,
    reconstruct_subtree,
    tree_center,
    validate_orbit,
)

from helpers import (
    ahu_hash,
    bfs_dist,
    get_fq,
    leaf_pruning_center,
    mirror_orbit_metric,
    quadratic_field,
    random_tree,
    spanned_subtree,
)

F3 = get_fq(3)
P_T = IdealA(F3.poly([0, 1]))
P_T1 = IdealA(F3.poly([1, 1]))
P_T2 = IdealA(F3.poly([2, 1]))


def make_datum(mat, perms=None, primes=None):
    k = len(mat)
    gens = perms or []
    primes = primes or [P_T]
    metrics = {p: tuple(tuple(row) for row in mat) for p in primes}
    datum = OrbitDatum(labels=tuple(range(k)), group=OrbitGroup(gens),
                       metrics=metrics)
    return validate_orbit(datum)


def test_validate_single_label():
    d = make_datum([[0]])
    assert d.support == ()


def test_validate_pair_and_support():
    d = make_datum([[0, 1], [1, 0]], perms=[("s", 2, (1, 0))])
    assert d.support == (P_T,)


def test_validate_rejects_asymmetry_and_four_point():
    with pytest.raises(AsymmetricMatrix):
        make_datum([[0, 1], [2, 0]])
    cycle4 = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    with pytest.raises(NotTreeMetric):
        make_datum(cycle4)


def test_validate_rejects_non_invariant_action():
    mat = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    with pytest.raises(NotGInvariant):
        make_datum(mat, perms=[("s", 2, (1, 0, 2))])


def test_reconstruct_edge_and_star():
    d = make_datum([[0, 1], [1, 0]])
    t = reconstruct_subtree(d, P_T)
    assert t.n_vertices == 2
    d3 = make_datum([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    t3 = reconstruct_subtree(d3, P_T)
    assert t3.n_vertices == 4
    steiner = [v for v in range(4) if v not in t3.class_vertex]
    assert len(steiner) == 1 and len(t3.adj[steiner[0]]) == 3


def test_reconstruct_rejects_half_integer_split():
    # three points pairwise distance 1 cannot sit in a unit tree
    d = make_datum([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(NotTreeMetric):
        reconstruct_subtree(d, P_T)


def test_reconstruct_zero_distance_classes():
    mat = [[0, 0, 2], [0, 0, 2], [2, 2, 0]]
    d = make_datum(mat)
    t = reconstruct_subtree(d, P_T)
    assert len(t.classes) == 2
    assert t.label_class[0] == t.label_class[1]


def test_reconstruct_random_vs_spanned_oracle():
    rng = random.Random(301)
    for _ in range(300):
        adj = random_tree(rng, 40)
        leaves = [v for v in range(len(adj)) if len(adj[v]) == 1]
        k = rng.randrange(2, min(6, len(leaves)) + 1)
        marked = rng.sample(leaves, k)
        dists = {v: bfs_dist(adj, v) for v in marked}
        mat = [[dists[a][b] for b in marked] for a in marked]
        try:
            d = make_datum(mat)
        except NotTreeMetric:
            pytest.fail("genuine tree metric rejected")
        t = reconstruct_subtree(d, P_T)
        vertices, sub, index = spanned_subtree(adj, marked)
        labels_out = {t.class_vertex[t.label_class[i]]: str(i)
                      for i in range(k)}
        labels_or = {index[v]: str(i) for i, v in enumerate(marked)}
        assert ahu_hash(t.adj, labels_out) == ahu_hash(sub, labels_or)


def test_tree_center_paths():
    d = make_datum([[0, 2], [2, 0]])
    t = reconstruct_subtree(d, P_T)
    c = tree_center(t)
    assert c.kind == "vertex"
    assert len(t.adj[c.vertices[0]]) == 2
    d2 = make_datum([[0, 3], [3, 0]])
    t2 = reconstruct_subtree(d2, P_T)
    c2 = tree_center(t2)
    assert c2.kind == "edge"


def test_tree_center_matches_pruning_oracle():
    rng = random.Random(303)
    for _ in range(300):
        adj = random_tree(rng, 40)
        leaves = [v for v in range(len(adj)) if len(adj[v]) == 1]
        k = rng.randrange(2, min(6, len(leaves)) + 1)
        marked = rng.sample(leaves, k)
        dists = {v: bfs_dist(adj, v) for v in marked}
        mat = [[dists[a][b] for b in marked] for a in marked]
        d = make_datum(mat)
        t = reconstruct_subtree(d, P_T)
        got = tree_center(t)
        kind, verts = leaf_pruning_center(t.adj)
        assert got.kind == kind and tuple(sorted(got.vertices)) == verts


@pytest.mark.parametrize("adj", [
    [[1, 2], [0, 2], [0, 1]],          # a 3-cycle
    [[1], [0], [3], [2]],              # two disjoint edges
])
def test_tree_center_rejects_non_trees(adj):
    graph = SubTree(adj=adj, class_vertex=[0], label_class=[0], classes=[[0]],
                    actions={})
    with pytest.raises(InternalInconsistency):
        tree_center(graph)


@pytest.mark.parametrize("gens", [
    [("s", 2, (1, 0)), ("s", 2, (1, 0))],              # duplicate names
    [("s", 0, (1, 0))],                                # order < 1
    [("s", 3, (1, 0))],                                # wrong order
    [("s", 2, (1, 1))],                                # not a permutation
    [("s", 2, (1, 0)), ("t", 2, (1, 0, 2))],           # lengths differ
    [("s", 2, (1, 0, 2)), ("t", 2, (0, 2, 1))],        # do not commute
])
def test_orbit_group_presentation_checks(gens):
    with pytest.raises(NotGInvariant):
        OrbitGroup(gens)


def test_orbit_group_label_permutations_compose():
    r = (1, 2, 0, 4, 5, 3)
    s = (3, 4, 5, 0, 1, 2)
    group = OrbitGroup([("r", 3, r), ("s", 2, s)])
    assert group.label_permutation(group.generator_element("r")) == r
    assert group.label_permutation(group.generator_element("s")) == s
    elements = group.elements()
    assert len(elements) == 6
    for x in elements:
        for y in elements:
            px = group.label_permutation(x)
            py = group.label_permutation(y)
            composite = tuple(px[py[i]] for i in range(6))
            assert group.label_permutation(group.compose(x, y)) == composite


def test_classify_examples():
    # trivial orbit
    d = make_datum([[0]])
    res = classify(d, fq=F3)
    assert res.n == unit_ideal(F3)
    # two conjugates one step apart, swapped
    d2 = make_datum([[0, 1], [1, 0]], perms=[("s", 2, (1, 0))])
    res2 = classify(d2)
    assert res2.n == P_T
    assert res2.m_generators["s"] == P_T
    # two primes, one odd diameter one even
    datum = OrbitDatum(
        labels=(0, 1),
        group=OrbitGroup([("s", 2, (1, 0))]),
        metrics={P_T: ((0, 3), (3, 0)), P_T1: ((0, 2), (2, 0))},
    )
    validate_orbit(datum)
    res3 = classify(datum)
    assert res3.n == P_T
    assert res3.centers[P_T].kind == "edge"
    assert res3.centers[P_T1].kind == "vertex"
    assert res3.m_generators["s"] == P_T


def test_classify_determinism_under_label_permutation():
    rng = random.Random(307)
    for trial in range(30):
        mat, swap = mirror_orbit_metric(rng, odd=bool(trial % 2))
        datum = OrbitDatum(labels=tuple(range(len(mat))),
                           group=OrbitGroup([("s", 2, swap)]),
                           metrics={P_T: mat})
        validate_orbit(datum)
        res = classify(datum)
        k = len(mat)
        order = list(range(k))
        rng.shuffle(order)
        inv = [order.index(i) for i in range(k)]
        mat2 = tuple(tuple(mat[order[i]][order[j]] for j in range(k))
                     for i in range(k))
        swap2 = tuple(inv[swap[order[i]]] for i in range(k))
        datum2 = OrbitDatum(labels=tuple(range(k)),
                            group=OrbitGroup([("s", 2, swap2)]),
                            metrics={P_T: mat2})
        validate_orbit(datum2)
        res2 = classify(datum2)
        assert res.n == res2.n
        assert res.m_generators["s"] == res2.m_generators["s"]


def test_minimality_check_reports():
    d = make_datum([[0, 1], [1, 0]], perms=[("s", 2, (1, 0))])
    res = classify(d)
    rep = minimality_check(d, res)
    assert all(v["ok"] for v in rep.values())
    # even diameter: center vertex fixed, prime excluded from n
    d2 = make_datum([[0, 2], [2, 0]], perms=[("s", 2, (1, 0))])
    res2 = classify(d2)
    assert res2.n == unit_ideal(F3)
    assert minimality_check(d2, res2) == {}


def test_m_map_composes_like_characters():
    rng = random.Random(311)
    for trial in range(20):
        mat, swap = mirror_orbit_metric(rng, odd=True)
        datum = OrbitDatum(labels=tuple(range(len(mat))),
                           group=OrbitGroup([("s", 2, swap)]),
                           metrics={P_T: mat})
        validate_orbit(datum)
        res = classify(datum)
        for s in datum.group.elements():
            for t in datum.group.elements():
                st = datum.group.compose(s, t)
                ms, mt = res.m_of(s), res.m_of(t)
                g = ms.gcd(mt)
                assert res.m_of(st) == (ms * mt).quotient(g * g)


def _worked_example_orbit():
    K = quadratic_field(3)
    alpha = K.gen()
    one = K.one
    mu = SkewPoly(K, (alpha + one, -one))
    eta = SkewPoly(K, (alpha - one, one))
    phi = make_module(mu * eta)
    galois = GaloisDatum(K, [("s", 2, -alpha)])
    s = galois.generator_element("s")
    sphi = conjugate_module(galois, s, phi)
    certs = CertificateCache()
    iso_mu = verify_isogeny(sphi, phi, mu, certs(sphi, 1))
    iso_eta = verify_isogeny(phi, sphi, eta, certs(phi, 1))
    return K, galois, phi, sphi, iso_mu, iso_eta, certs


def test_orbit_from_isogenies_worked_example():
    K, galois, phi, sphi, iso_mu, iso_eta, certs = _worked_example_orbit()
    datum = orbit_from_isogenies([phi, sphi],
                                 {(1, 0): iso_mu, (0, 1): iso_eta}, galois)
    assert datum.support == (P_T,)
    assert datum.metrics[P_T] == ((0, 1), (1, 0))
    assert datum.group.label_permutation(
        datum.group.generator_element("s")) == (1, 0)
    res = classify(datum)
    assert res.n == P_T and res.m_generators["s"] == P_T


def test_orbit_from_isogenies_missing_pair():
    K, galois, phi, sphi, iso_mu, iso_eta, certs = _worked_example_orbit()
    with pytest.raises(MissingIsogeny):
        orbit_from_isogenies([phi, sphi], {}, galois)
    # one direction per unordered pair suffices: degrees are dual-symmetric
    datum = orbit_from_isogenies([phi, sphi], {(1, 0): iso_mu}, galois)
    assert datum.metrics[P_T] == ((0, 1), (1, 0))


def test_orbit_from_isogenies_not_closed():
    K, galois, phi, sphi, iso_mu, iso_eta, certs = _worked_example_orbit()
    rng = random.Random(313)
    from dforge.randgen import random_module

    other = random_module(rng, K)
    with pytest.raises(OrbitNotClosed):
        orbit_from_isogenies([phi, other],
                             {(1, 0): iso_mu, (0, 1): iso_eta}, galois)


def test_materialize_center_worked_example():
    K, galois, phi, sphi, iso_mu, iso_eta, certs = _worked_example_orbit()
    datum = orbit_from_isogenies([phi, sphi],
                                 {(1, 0): iso_mu, (0, 1): iso_eta}, galois)
    res = classify(datum)
    psi, bridge = materialize_center(datum, res, certificate_factory=certs)
    assert psi in (phi, sphi)
    assert bridge.degree_ideal() == P_T
    assert bridge.is_cyclic()


def test_materialize_center_trivial_orbit():
    K, galois, phi, sphi, iso_mu, iso_eta, certs = _worked_example_orbit()
    one = SkewPoly.from_scalar(K.one)
    trivial_iso = verify_isogeny(phi, phi, one, certs(phi, 0))
    trivial = GaloisDatum(K, [])
    datum = orbit_from_isogenies([phi], {}, trivial)
    res = classify(datum, fq=F3)
    psi, bridge = materialize_center(datum, res, certificate_factory=certs)
    assert psi == phi and bridge.mu.deg == 0


def test_materialize_center_without_modules():
    d = make_datum([[0, 1], [1, 0]], perms=[("s", 2, (1, 0))])
    res = classify(d)
    with pytest.raises(NotRealizable):
        materialize_center(d, res, CertificateCache())
