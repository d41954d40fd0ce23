"""Orbit validation, metric tree realization, centers, classification."""
import ast
import itertools
import random
from pathlib import Path

import pytest

import dforge

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
from dforge.isogeny import (
    _certified,
    compose as iso_compose,
    dual as iso_dual,
    factor_prime_power,
    primitive_part,
    project_p,
    verify_isogeny,
)
from dforge.randgen import two_prime_point
from dforge.skew import SkewPoly
from dforge.errors import CMSuspected
from dforge.trees import (
    Center,
    OrbitDatum,
    OrbitGroup,
    SubTree,
    _swapping,
    _walk_to_vertex,
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
    rational_field,
    spanned_subtree,
    synthetic_orbit,
)
from test_isogeny import _cyclic_square

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


@pytest.mark.parametrize("mat", [
    [[0, 1, 5], [1, 0, 1], [5, 1, 0]],     # D(0,2) > D(0,1) + D(1,2)
    [[0, 0, 0], [0, 0, 4], [0, 4, 0]],     # D(1,2) > D(1,0) + D(0,2)
])
def test_validate_rejects_every_triangle_violation(mat):
    with pytest.raises(NotTreeMetric):
        make_datum(mat)


def _is_tree_metric(mat, perms):
    """Brute force: a symmetric nonnegative G-invariant matrix with zero
    diagonal, every triangle inequality in every order, the four-point
    condition on every quadruple and an even perimeter on every triple."""
    k = len(mat)
    idx = range(k)
    if any(mat[i][i] or mat[i][j] != mat[j][i] or mat[i][j] < 0
           for i in idx for j in idx):
        return False
    if any(mat[p[i]][p[j]] != mat[i][j] for _, _, p in perms
           for i in idx for j in idx):
        return False
    for a, b, c in itertools.product(idx, repeat=3):
        if mat[a][b] > mat[a][c] + mat[c][b]:
            return False
        if (mat[a][b] + mat[a][c] + mat[b][c]) % 2:
            return False
    for a, b, c, d in itertools.combinations(idx, 4):
        sums = sorted((mat[a][b] + mat[c][d], mat[a][c] + mat[b][d],
                       mat[a][d] + mat[b][c]))
        if sums[1] != sums[2]:
            return False
    return True


def _differential_cases(rng):
    """Random symmetric matrices, tree metrics (some with an entry bumped
    by +-1) and metrics invariant under a planted involution."""
    for trial in range(3000):
        kind = trial % 3
        perms = []
        if kind == 0:
            k = rng.randrange(1, 6)
            mat = [[0] * k for _ in range(k)]
            for i, j in itertools.combinations(range(k), 2):
                mat[i][j] = mat[j][i] = rng.randrange(-1, 5)
            if k > 1 and rng.random() < 0.5:
                swap = list(range(k))
                i, j = rng.sample(range(k), 2)
                swap[i], swap[j] = j, i
                perms = [("s", 2, tuple(swap))]
        elif kind == 1:
            adj = random_tree(rng, 12)
            k = rng.randrange(1, 7)
            spots = [rng.randrange(len(adj)) for _ in range(k)]
            mat = [[bfs_dist(adj, a)[b] for b in spots] for a in spots]
            if k > 1 and rng.random() < 0.5:
                i, j = rng.sample(range(k), 2)
                mat[i][j] = mat[j][i] = mat[i][j] + rng.choice((-1, 1))
        else:
            mat, swap = mirror_orbit_metric(rng, odd=bool(trial % 2))
            mat = [list(row) for row in mat]
            perms = [("s", 2, swap)]
            if rng.random() < 0.5:
                i, j = rng.sample(range(len(mat)), 2)
                bump = rng.choice((-1, 1))
                for a, b in {(i, j), (swap[i], swap[j])}:
                    mat[a][b] = mat[b][a] = mat[a][b] + bump
        yield tuple(tuple(row) for row in mat), perms


def test_validate_agrees_with_the_brute_force_predicate():
    rng = random.Random(331)
    accepted = refused = 0
    for mat, perms in _differential_cases(rng):
        datum = OrbitDatum(labels=tuple(range(len(mat))),
                           group=OrbitGroup(perms), metrics={P_T: mat})
        try:
            validate_orbit(datum)
            ok = True
        except (AsymmetricMatrix, NotGInvariant, NotTreeMetric):
            ok = False
        assert ok == _is_tree_metric(mat, perms), (mat, perms)
        assert datum.validated == ok
        accepted += ok
        refused += not ok
    assert accepted > 500 and refused > 500


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
    # three points pairwise distance 1 cannot sit in a unit tree; validation
    # realizes the metric, so it refuses the orbit
    mat = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    with pytest.raises(NotTreeMetric):
        make_datum(mat)
    # and so does the realization itself, on a datum marked as validated
    d = OrbitDatum(labels=(0, 1, 2), group=OrbitGroup([]),
                   metrics={P_T: mat}, validated=True)
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


def test_closed_form_dists_match_bfs():
    # each realized class distance list is the BFS distance from its vertex,
    # also with zero-distance classes and labels sitting on paths
    rng = random.Random(302)
    for _ in range(300):
        adj = random_tree(rng, 30)
        marked = [rng.randrange(len(adj))
                  for _ in range(rng.randrange(1, 7))]
        dists = {v: bfs_dist(adj, v) for v in marked}
        mat = [[dists[a][b] for b in marked] for a in marked]
        d = make_datum(mat)
        if not d.support:
            continue
        t = reconstruct_subtree(d, P_T)
        assert isinstance(t.dists, tuple)
        for c, vertex in enumerate(t.class_vertex):
            assert isinstance(t.dists[c], tuple)
            assert list(t.dists[c]) == bfs_dist(t.adj, vertex)


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


def test_tree_center_is_the_minimum_eccentricity_set():
    # brute force over all BFS distances on class-free random trees, one
    # and two vertices included
    rng = random.Random(304)
    shapes = [[[]], [[1], [0]]] + [random_tree(rng, 30) for _ in range(300)]
    for adj in shapes:
        ecc = [max(bfs_dist(adj, v)) for v in range(len(adj))]
        want = tuple(v for v in range(len(adj)) if ecc[v] == min(ecc))
        got = tree_center(SubTree(adj=adj, class_vertex=(), label_class=(),
                                  classes=()))
        assert got.vertices == want
        assert got.kind == ("vertex" if len(want) == 1 else "edge")


@pytest.mark.parametrize("adj", [
    [[1, 2], [0, 2], [0, 1]],          # a 3-cycle
    [[1], [0], [3], [2]],              # two disjoint edges
])
def test_tree_center_rejects_non_trees(adj):
    graph = SubTree(adj=adj, class_vertex=[0], label_class=[0], classes=[[0]])
    with pytest.raises(InternalInconsistency):
        tree_center(graph)


@pytest.mark.parametrize("adj", [
    [[1, 2], [0, 2], [0, 1], []],      # a 3-cycle and an isolated vertex
    [[1, 1], [0, 0], [3], [2]],        # a double edge and an edge
    [[0, 0], []],                      # a loop and an isolated vertex
    [[1, 2, 3], [0, 2], [0, 1], [0], [5], [4]],  # 3-cycle, leaf, edge
])
def test_tree_center_rejects_cycles_with_a_tree_edge_count(adj):
    # n - 1 edges, but not a tree: the pruning must not name a center
    assert sum(map(len, adj)) == 2 * (len(adj) - 1)
    graph = SubTree(adj=adj, class_vertex=[0], label_class=[0], classes=[[0]])
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
    maps = [perm.__getitem__ for _, _, perm in group.generators]

    def label_permutation(element):
        return tuple(group.act(maps, element, i) for i in range(6))

    assert label_permutation(group.generator_element("r")) == r
    assert label_permutation(group.generator_element("s")) == s
    elements = group.elements()
    assert len(elements) == 6
    for x in elements:
        for y in elements:
            px = label_permutation(x)
            py = label_permutation(y)
            composite = tuple(px[py[i]] for i in range(6))
            assert label_permutation(group.compose(x, y)) == composite


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


def _rigidity_actions(datum, tree):
    """Reference action: each generator's vertex permutation, induced by
    distance-vector rigidity as `reconstruct_subtree` once built it for
    every tree.  The block below the first two lines is that code,
    verbatim; it returns what the tree's `actions` field held."""
    adj, dists, label_class = tree.adj, tree.dists, tree.label_class
    k, nc = len(datum.labels), len(tree.classes)
    # induced group action by distance-vector rigidity
    vec_index = {}
    for v in range(len(adj)):
        vec_index[tuple(dists[c][v] for c in range(nc))] = v
    actions = {}
    for name, _, perm in datum.group.generators:
        cls_perm = [None] * nc
        for i in range(k):
            src = label_class[i]
            dst = label_class[perm[i]]
            if cls_perm[src] is None:
                cls_perm[src] = dst
            elif cls_perm[src] != dst:
                raise NotGInvariant("action does not respect zero classes")
        vperm = []
        for v in range(len(adj)):
            image_vec = [0] * nc
            for cidx in range(nc):
                image_vec[cls_perm[cidx]] = dists[cidx][v]
            w = vec_index.get(tuple(image_vec))
            if w is None:
                raise InternalInconsistency(
                    "distance-preserving extension of the action failed"
                )
            vperm.append(w)
        if sorted(vperm) != list(range(len(adj))):
            raise InternalInconsistency("induced action is not a permutation")
        for v in range(len(adj)):
            im = set(vperm[w] for w in adj[v])
            if im != set(adj[vperm[v]]):
                raise InternalInconsistency("induced action breaks adjacency")
        actions[name] = tuple(vperm)
    return actions


def _m_by_element_walk(datum, result, fq):
    """Reference m-map: apply every group element to a center edge's first
    endpoint through the generators' vertex maps."""
    group = datum.group
    m_elements = {}
    for element in group.elements():
        m = unit_ideal(fq)
        for p in datum.support:
            center = result.centers[p]
            if center.kind != "edge":
                continue
            a, b = center.vertices
            actions = _rigidity_actions(datum, result.trees[p])
            maps = [actions[name].__getitem__ for name in group.names]
            image = group.act(maps, element, a)
            assert image in (a, b), "center edge not stabilized"
            if image == b:
                m = m * p
        m_elements[element] = m
    return m_elements


def test_m_map_of_a_z4_orbit_swapping_the_center_edge():
    # labels 0, 2 hang from one end of the central edge and 1, 3 from the
    # other; g = (0 1 2 3) swaps the ends, so g and g^3 swap the edge at T
    # and g^2 fixes it.  At T + 1 the four labels hang from one vertex.
    star = ((0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 0, 2), (2, 2, 2, 0))
    datum = OrbitDatum(
        labels=(0, 1, 2, 3),
        group=OrbitGroup([("g", 4, (1, 2, 3, 0))]),
        metrics={P_T: ((0, 3, 2, 3), (3, 0, 3, 2), (2, 3, 0, 3), (3, 2, 3, 0)),
                 P_T1: star},
    )
    validate_orbit(datum)
    res = classify(datum)
    assert res.n == P_T
    assert res.centers[P_T].kind == "edge"
    assert res.centers[P_T1].kind == "vertex"
    one = unit_ideal(F3)
    assert res.m_elements == {(0,): one, (1,): P_T, (2,): one, (3,): P_T}
    assert res.m_elements == _m_by_element_walk(datum, res, F3)
    assert minimality_check(datum, res)[P_T]["ok"]


def test_m_map_against_the_element_walk():
    rng = random.Random(313)
    pool = [P_T, P_T1, P_T2]
    for _ in range(40):
        gens, metrics, _, _, _ = synthetic_orbit(rng, pool)
        datum = OrbitDatum(labels=tuple(range(len(gens[0][2]))),
                           group=OrbitGroup(gens), metrics=metrics)
        validate_orbit(datum)
        res = classify(datum)
        assert res.m_elements == _m_by_element_walk(datum, res, F3)


# non-transitive orbits with an edge center and their minimality verdicts
NON_TRANSITIVE = [
    # the trivial group fixes the edge and both its ends
    ([[0, 1], [1, 0]], [], False),
    # labels 0 and 1 swap on one side of the center edge, label 2 is fixed
    ([[0, 2, 3], [2, 0, 3], [3, 3, 0]], [("s", 2, (1, 0, 2))], False),
    # two orbits {0, 1}, {2, 3} on a path 2-0-1-3, whose middle is swapped
    ([[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 3], [2, 1, 3, 0]],
     [("s", 2, (1, 0, 3, 2))], True),
]


@pytest.mark.parametrize("mat, perms, ok", NON_TRANSITIVE)
def test_minimality_of_non_transitive_orbits(mat, perms, ok):
    d = make_datum(mat, perms=perms)
    res = classify(d)
    assert res.n == P_T and res.centers[P_T].kind == "edge"
    rep = minimality_check(d, res)
    assert rep == {P_T: {"ok": ok,
                         "violation": None if ok else "InternalInconsistency"}}


def _swap_cases(rng):
    """(group, metrics) pairs: the planted non-transitive orbits, random
    tree metrics under the trivial group, mirrored metrics swapped at
    their center edge, and synthetic orbits of (Z/2)^r."""
    for mat, perms, _ in NON_TRANSITIVE:
        yield OrbitGroup(perms), {P_T: tuple(map(tuple, mat))}
    for _ in range(40):
        adj = random_tree(rng, 20)
        marked = [rng.randrange(len(adj)) for _ in range(rng.randrange(2, 6))]
        mat = tuple(tuple(bfs_dist(adj, a)[b] for b in marked)
                    for a in marked)
        yield OrbitGroup([]), {P_T: mat}
    for _ in range(40):
        mat, swap = mirror_orbit_metric(rng, odd=True)
        yield OrbitGroup([("s", 2, swap)]), {P_T: mat}
    pool = [P_T, P_T1, P_T2]
    for _ in range(80):
        gens, metrics, _, _, _ = synthetic_orbit(rng, pool)
        yield OrbitGroup(gens), metrics


def test_swapping_agrees_with_the_rigidity_action():
    # for every generator and center edge, the one-distance rule names the
    # swaps the full vertex permutation makes, and minimality holds exactly
    # when that permutation leaves no vertex fixed by every generator
    rng = random.Random(317)
    verdicts = []
    for group, metrics in _swap_cases(rng):
        k = len(next(iter(metrics.values())))
        datum = OrbitDatum(labels=tuple(range(k)), group=group,
                           metrics=metrics)
        validate_orbit(datum)
        res = classify(datum, fq=F3)
        report = minimality_check(datum, res)
        for p in datum.support:
            center = res.centers[p]
            if center.kind != "edge":
                continue
            tree = res.trees[p]
            actions = _rigidity_actions(datum, tree)
            a, b = center.vertices
            assert _swapping(tree, group, a) == [
                i for i, name in enumerate(group.names)
                if actions[name][a] == b]
            fixed = [v for v in range(tree.n_vertices)
                     if all(actions[name][v] == v for name in group.names)]
            assert report[p]["ok"] == (not fixed)
            verdicts.append(report[p]["ok"])
    assert verdicts.count(True) > 50 and verdicts.count(False) > 20


def test_trees_builds_no_vertex_permutation():
    # no generator acts on vertices in trees.py: `SubTree` has no `actions`
    # field and nothing reads one, `_center_fixed` is gone, and so is
    # `OrbitGroup.label_permutation`
    source = Path(dforge.__file__).with_name("trees.py").read_text()
    tree = ast.parse(source)
    subtree = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and node.name == "SubTree")
    fields = {node.target.id for node in subtree.body
              if isinstance(node, ast.AnnAssign)}
    assert "actions" not in fields
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "actions"]
    defined = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)}
    assert "_center_fixed" not in defined
    assert "label_permutation" not in source


def test_trees_searches_no_graph():
    # trees.py defines no BFS and imports no deque, and `classify` reads
    # m_s from swap parity rather than walking group elements
    tree = ast.parse(Path(dforge.__file__).with_name("trees.py").read_text())
    defined = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)}
    assert "_bfs" not in defined
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not {name for name in imported if name.split(".")[-1] == "deque"}
    classify_def = next(fn for fn in ast.walk(tree)
                        if isinstance(fn, ast.FunctionDef)
                        and fn.name == "classify")
    assert not [node for node in ast.walk(classify_def)
                if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "act"]


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
    assert datum.group.generators[0][2] == (1, 0)
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


# -- materialization: walks from the base against the walks between classes --

def _reference_closures(datum, factory):
    """`leg` and `vertex_module` of `materialize_center` as they were when
    a walk could start at any label class, verbatim: the reference for
    `_walk_to_vertex`."""
    base = datum.modules[0]

    def leg(i):
        """Concrete primitive isogeny base -> conjugate i."""
        if i == 0:
            one = SkewPoly.from_scalar(base.field.one)
            return _certified(base, base, one, factory(base, 0))
        iso = datum.isogenies.get((0, i))
        if iso is not None:
            return iso
        rev = datum.isogenies.get((i, 0))
        if rev is None:
            raise NotRealizable(f"no concrete leg between the base and {i}")
        return iso_dual(rev, factory)

    def vertex_module(p, tree, vertex):
        """Module whose pi_p sits at the given subtree vertex, and the
        primitive p-power isogeny from pi_p(base) reaching it."""
        # locate a label-class pair whose path contains the vertex
        nc = len(tree.classes)
        for cx in range(nc):
            dx = tree.dists[cx]
            for cy in range(nc):
                dy = tree.dists[cy]
                if dx[vertex] + dy[vertex] != dx[tree.class_vertex[cy]]:
                    continue
                x = tree.classes[cx][0]
                y = tree.classes[cy][0]
                try:
                    leg_x = leg(x)
                    leg_y = leg(y)
                except NotRealizable:
                    continue
                return _reference_walk_to_vertex(
                    p, leg_x, leg_y, dx[vertex], factory
                )
        raise NotRealizable("center vertex lies outside concrete paths")

    return leg, vertex_module


def _reference_walk_to_vertex(p, leg_x, leg_y, steps, factory):
    """Module at distance `steps` from pi_p(x) toward pi_p(y), with the
    primitive p-power isogeny from the base reaching it."""
    _, px, _ = project_p(leg_x, p, certificate_factory=factory)
    if steps == 0:
        return px.target, px
    _, py, _ = project_p(leg_y, p, certificate_factory=factory)
    # primitive p-power X -> Y through the base
    rho = iso_compose(py, iso_dual(px, factory), factory)
    rho = primitive_part(rho, factory)
    chain = factor_prime_power(rho, certificate_factory=factory)
    if steps > len(chain):
        raise InternalInconsistency("walk longer than the p-power chain")
    walked = chain[0]
    for link in chain[1:steps]:
        walked = iso_compose(link, walked, factory)
    reach = iso_compose(walked, px, factory)
    reach = primitive_part(reach, factory)
    return reach.target, reach


def _reference_materialize_center(datum, result, certificate_factory):
    """`materialize_center` with the reference walks, otherwise verbatim."""
    if not datum.modules:
        raise NotRealizable("orbit datum carries no concrete modules")
    factory = certificate_factory
    leg, vertex_module = _reference_closures(datum, factory)

    support = datum.support
    trees = result.trees

    def glue(descriptor):
        cur_iso = leg(0)  # scalar: base -> base
        for p in support:
            tree = trees[p]
            vertex = descriptor[p]
            _, to_vertex = vertex_module(p, tree, vertex)
            # transport to the current glued module
            omega = iso_compose(to_vertex, iso_dual(cur_iso, factory), factory)
            omega = primitive_part(omega, factory)
            _, p_part, _ = project_p(omega, p, certificate_factory=factory)
            cur_iso = iso_compose(p_part, cur_iso, factory)
            cur_iso = primitive_part(cur_iso, factory)
        return cur_iso

    iso_psi = glue(result.psi_descriptor)
    iso_psi_prime = glue(result.psi_prime_descriptor)
    psi = iso_psi.target
    bridge = iso_compose(iso_psi_prime, iso_dual(iso_psi, factory), factory)
    bridge = primitive_part(bridge, factory)
    if bridge.degree_ideal() != result.n:
        raise InternalInconsistency("materialized isogeny degree differs from n")
    if not bridge.is_cyclic():
        raise InternalInconsistency("materialized isogeny is not cyclic")
    return psi, bridge


def _materialization_cases():
    """(name, datum, certificate factory): the worked example with each leg
    configuration, and trivial-group orbits [phi, tgt] of a planted cyclic
    (T - c)^2 isogeny and [phi, mid, tgt] of a planted two-prime point."""
    K, galois, phi, sphi, iso_mu, iso_eta, certs = _worked_example_orbit()
    for legs in ({(1, 0): iso_mu, (0, 1): iso_eta}, {(1, 0): iso_mu},
                 {(0, 1): iso_eta}):
        yield (f"worked {sorted(legs)}",
               orbit_from_isogenies([phi, sphi], legs, galois), certs)
    Q3 = rational_field(3)
    trivial = GaloisDatum(Q3, [])
    certs = CertificateCache()
    rng = random.Random(31)
    squares = 0
    while squares < 2:
        c = F3.elem_packed(rng.randrange(3))
        src, tgt, chi = _cyclic_square(rng, Q3, c)
        try:
            iso = verify_isogeny(src, tgt, chi, certs(src, 2))
        except CMSuspected:
            continue
        squares += 1
        yield (f"square {squares}",
               orbit_from_isogenies([src, tgt], {(0, 1): iso}, trivial), certs)
    rng = random.Random(7)
    points = 0
    while points < 2:
        src, mid, tgt, h, g1, chi, _, _ = two_prime_point(rng, Q3)
        try:
            legs = {(0, 1): verify_isogeny(src, mid, h, certs(src, 1)),
                    (2, 1): iso_dual(
                        verify_isogeny(mid, tgt, g1, certs(mid, 1)), certs),
                    (0, 2): verify_isogeny(src, tgt, chi, certs(src, 2))}
        except CMSuspected:
            continue
        points += 1
        yield (f"two primes {points}",
               orbit_from_isogenies([src, mid, tgt], legs, trivial), certs)


def _walk_or_refusal(walk):
    try:
        iso = walk()
    except NotRealizable as exc:
        return str(exc)
    return iso.source, iso.target, iso.mu


def test_walks_from_the_base_match_the_walks_between_classes():
    # every vertex of every tree, with the legs of each case and with the
    # leg to the last label left out, where no concrete path may reach it
    longest = 0
    for name, datum, certs in _materialization_cases():
        res = classify(datum, fq=F3)
        cut = dict(datum.isogenies)
        last = len(datum.labels) - 1
        cut.pop((0, last), None)
        cut.pop((last, 0), None)
        for legs in (datum.isogenies, cut):
            part = OrbitDatum(labels=datum.labels, group=datum.group,
                              metrics=datum.metrics, isogenies=legs,
                              modules=datum.modules)
            _, vertex_module = _reference_closures(part, certs)
            for p in datum.support:
                tree = res.trees[p]
                for v in range(tree.n_vertices):
                    old = _walk_or_refusal(
                        lambda: vertex_module(p, tree, v)[1])
                    new = _walk_or_refusal(
                        lambda: _walk_to_vertex(part, tree, p, v, certs))
                    assert new == old, (name, p, v)
                    if not isinstance(new, str):
                        longest = max(longest, tree.dists[0][v])
        psi, bridge = materialize_center(datum, res, certificate_factory=certs)
        ref_psi, ref_bridge = _reference_materialize_center(datum, res, certs)
        assert (psi, bridge.source, bridge.target, bridge.mu) == \
            (ref_psi, ref_bridge.source, ref_bridge.target, ref_bridge.mu), name
    # the far end of each (T - c)^2 leg is two links from the base
    assert longest == 2
