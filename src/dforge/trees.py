"""Isogeny-tree combinatorics: reconstruct the finite subtree spanned by a
Galois orbit from its per-prime distance matrices, find the Galois-fixed
center, and run the classification pipeline producing the square-free ideal
n and the involution assignment s -> m_s.

Tree-ness is tested once, by realizing each metric in `validate_orbit`;
`classify` reuses the realized trees.

Trees are materialized with unit edges (every lattice point of the ambient
p-isogeny tree on a spanned path is a vertex), so centers of odd-diameter
subtrees are addressable edges.  Steiner vertices are the non-label
vertices; branch points have degree >= 3 while path subdivisions have
degree 2.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field

from .errors import (
    AsymmetricMatrix,
    InternalInconsistency,
    MissingIsogeny,
    NotGInvariant,
    NotPrimitive,
    NotRealizable,
    NotTreeMetric,
    OrbitNotClosed,
)
from .drinfeld import conjugate_module, j_invariant
from .groups import CyclicProduct
from .ideals import IdealA, unit_ideal
from .isogeny import (
    _certified,
    compose as iso_compose,
    dual as iso_dual,
    factor_prime_power,
    primitive_part,
    project_p,
)
from .skew import SkewPoly


class OrbitGroup(CyclicProduct):
    """Finite abelian group presented by generators acting on labels."""

    def __init__(self, generators):
        # generators: sequence of (name, order, permutation of label indices)
        self.generators = tuple(
            (name, int(order), tuple(perm)) for name, order, perm in generators
        )
        super().__init__((g[0] for g in self.generators),
                         (g[1] for g in self.generators))
        n = len(self.generators[0][2]) if self.generators else 0
        for name, _, perm in self.generators:
            if sorted(perm) != list(range(len(perm))):
                raise NotGInvariant(f"generator {name} is not a permutation")
            if len(perm) != n:
                raise NotGInvariant("permutation lengths differ")
        self._maps = [perm.__getitem__ for _, _, perm in self.generators]
        self.check_action(self._maps, range(n), NotGInvariant)
        self._n = n

    def label_permutation(self, element):
        return tuple(self.act(self._maps, element, i) for i in range(self._n))


@dataclass
class OrbitDatum:
    """A finite conjugate orbit with per-prime tree metrics.

    `metrics` maps each prime ideal to a symmetric integer matrix over the
    labels; `isogenies`, when present, maps ordered label-index pairs to
    concrete primitive isogenies and index 0 is the base conjugate.
    `validate_orbit` fills `support` and `trees` (prime -> SubTree).
    """

    labels: tuple
    group: OrbitGroup
    metrics: dict
    isogenies: dict = dc_field(default_factory=dict)
    modules: tuple = ()
    validated: bool = False
    support: tuple = ()
    trees: dict = dc_field(default_factory=dict)


def validate_orbit(datum):
    """Check the local conditions, then realize each support prime's metric.

    Shape, zero diagonal, symmetry, nonnegative entries and G-invariance are
    checked entry by entry, tree-ness only by `reconstruct_subtree`.  Sets
    `validated`, the support (primes with a nonzero matrix) and `trees`.
    """
    k = len(datum.labels)
    if datum.group.generators and len(datum.group.generators[0][2]) != k:
        raise NotGInvariant("permutation length differs from the label count")
    support = []
    for p, mat in datum.metrics.items():
        if len(mat) != k or any(len(row) != k for row in mat):
            raise AsymmetricMatrix("matrix shape does not match labels")
        for i in range(k):
            if mat[i][i] != 0:
                raise AsymmetricMatrix("nonzero diagonal")
            for j in range(k):
                if mat[i][j] != mat[j][i]:
                    raise AsymmetricMatrix("matrix is not symmetric")
                if mat[i][j] < 0:
                    raise NotTreeMetric("negative distance")
        for name, _, perm in datum.group.generators:
            for i in range(k):
                for j in range(k):
                    if mat[perm[i]][perm[j]] != mat[i][j]:
                        raise NotGInvariant(
                            f"metric at {p} is not invariant under {name}"
                        )
        if any(mat[i][j] for i in range(k) for j in range(k)):
            support.append(p)
    datum.support = tuple(sorted(support, key=lambda q: (q.degree, repr(q))))
    datum.validated = True
    try:
        datum.trees = {p: reconstruct_subtree(datum, p) for p in datum.support}
    except Exception:
        datum.validated = False
        raise
    return datum


def _bfs(adj, start):
    """Distances from start, -1 for unreachable vertices."""
    dist = [-1] * len(adj)
    dist[start] = 0
    dq = deque((start,))
    while dq:
        v = dq.popleft()
        dv = dist[v]
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv + 1
                dq.append(w)
    return dist


@dataclass
class SubTree:
    """Unit-edge realization of one per-prime metric.

    vertices 0..n-1; `class_vertex[c]` is where label class c sits;
    `label_class` maps label index -> class index; `actions` maps each
    generator name to the induced vertex permutation; `dists[c][v]` is the
    distance from class c to vertex v.
    """

    adj: tuple
    class_vertex: tuple
    label_class: tuple
    classes: tuple
    actions: dict
    dists: tuple = ()

    @property
    def n_vertices(self):
        return len(self.adj)


@dataclass(frozen=True)
class Center:
    kind: str          # "vertex" | "edge"
    vertices: tuple    # one vertex, or the unordered pair


def _zero_classes(mat, k):
    """Group labels into classes of pairwise distance zero."""
    cls = [-1] * k
    classes = []
    for i in range(k):
        if cls[i] >= 0:
            continue
        idx = len(classes)
        members = [i]
        cls[i] = idx
        for j in range(i + 1, k):
            if cls[j] < 0 and mat[i][j] == 0:
                cls[j] = idx
                members.append(j)
        classes.append(members)
    # distance-zero grouping must be consistent
    for members in classes:
        base = members[0]
        for m in members[1:]:
            if any(mat[base][x] != mat[m][x] for x in range(k)):
                raise NotTreeMetric("zero-distance labels with differing rows")
    return cls, classes


def reconstruct_subtree(datum, p):
    """Realize the metric at p as the minimal unit-edge subtree.

    Iterative leaf insertion: each new class attaches at the unique vertex
    consistent with all previously placed classes, growing a chain of unit
    edges, and must reproduce its distance to every placed class.  So the
    metric is realized exactly when it is a tree metric with integral
    Gromov products; otherwise NotTreeMetric is raised.
    """
    if not datum.validated:
        raise NotTreeMetric("orbit datum must be validated first")
    mat = datum.metrics[p]
    k = len(datum.labels)
    label_class, classes = _zero_classes(mat, k)
    reps = [members[0] for members in classes]
    D = [[mat[a][b] for b in reps] for a in reps]
    nc = len(reps)

    adj = [[]]
    class_vertex = [0]
    dists = [[0]]  # class index -> dist list over vertices

    for c in range(1, nc):
        placed = list(range(c))
        u0 = 0
        best_alpha, best_u = 0, u0
        for u in placed:
            num = D[c][u0] + D[u0][u] - D[c][u]
            if num < 0 or num % 2:
                raise NotTreeMetric("split point is not a lattice point")
            alpha = num // 2
            if alpha > best_alpha:
                best_alpha, best_u = alpha, u
        # w sits on the path(u0, best_u) at distance best_alpha from u0
        d0 = dists[u0]
        du = dists[best_u]
        w = -1
        span = D[u0][best_u]
        for v in range(len(adj)):
            if d0[v] == best_alpha and du[v] == span - best_alpha:
                w = v
                break
        if w < 0:
            raise NotTreeMetric("no attachment vertex for the split point")
        h = D[c][u0] - best_alpha
        if h < 0:
            raise NotTreeMetric("negative attachment height")
        for u in placed:
            if dists[u][w] + h != D[c][u]:
                raise NotTreeMetric("attachment violates a placed distance")
        cur = w
        for step in range(h):
            adj.append([])
            new = len(adj) - 1
            adj[cur].append(new)
            adj[new].append(cur)
            for u in placed:
                dists[u].append(dists[u][cur] + 1)
            cur = new
        class_vertex.append(cur)
        dists.append(_bfs(adj, cur))

    # minimality: every terminal vertex carries a class
    class_set = set(class_vertex)
    for v in range(len(adj)):
        if len(adj[v]) <= 1 and v not in class_set and len(adj) > 1:
            raise InternalInconsistency("terminal Steiner vertex produced")

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

    # stored as tuples: a classification keeps every tree and its distances
    return SubTree(
        adj=tuple(map(tuple, adj)),
        class_vertex=tuple(class_vertex),
        label_class=tuple(label_class),
        classes=tuple(map(tuple, classes)),
        actions=actions,
        dists=tuple(map(tuple, dists)),
    )


def tree_center(tree):
    """Midpoint of a diameter: a vertex for even diameter, else an edge.

    Double sweep: x is farthest from vertex 0 and y farthest from x, so the
    x-y path is a diameter.  Every diameter of a tree has the same midpoint
    (Jordan), so the input is first checked to be a tree: connected, with
    n - 1 edges.
    """
    adj = tree.adj
    n = len(adj)
    d0 = _bfs(adj, 0)
    if min(d0) < 0 or sum(len(nbrs) for nbrs in adj) != 2 * (n - 1):
        raise InternalInconsistency("subtree is not a tree")
    x = max(range(n), key=d0.__getitem__)
    dx = _bfs(adj, x)
    y = max(range(n), key=dx.__getitem__)
    dy = _bfs(adj, y)
    diameter, half = dx[y], dx[y] // 2
    # the x-y path is the set of v with dx[v] + dy[v] == diameter
    a = next(v for v in range(n) if dx[v] == half and dy[v] == diameter - half)
    if diameter % 2 == 0:
        return Center("vertex", (a,))
    b = next(v for v in range(n) if dx[v] == half + 1 and dy[v] == half)
    return Center("edge", tuple(sorted((a, b))))


@dataclass
class ClassificationResult:
    n: IdealA
    centers: dict            # prime -> Center
    trees: dict              # prime -> SubTree
    psi_descriptor: dict     # prime -> vertex
    psi_prime_descriptor: dict
    m_elements: dict         # group element tuple -> IdealA
    m_generators: dict       # generator name -> IdealA

    def m_of(self, element):
        return self.m_elements[tuple(element)]


def _center_fixed(tree, center, name):
    act = tree.actions[name]
    if center.kind == "vertex":
        return act[center.vertices[0]] == center.vertices[0]
    a, b = center.vertices
    return {act[a], act[b]} == {a, b}


def classify(datum, fq=None):
    """The main pipeline: n = product of primes whose center is an edge,
    the glued point descriptors, and the swap assignment m_s."""
    if not datum.validated:
        validate_orbit(datum)
    if fq is None:
        if datum.modules:
            fq = datum.modules[0].field.fq
        elif datum.metrics:
            fq = next(iter(datum.metrics)).field
        else:
            raise InternalInconsistency("empty metric family needs a field hint")
    n = unit_ideal(fq)
    centers = {}
    trees = datum.trees
    psi = {}
    psi_prime = {}
    for p in datum.support:
        tree = trees[p]
        center = tree_center(tree)
        for name in datum.group.names:
            if not _center_fixed(tree, center, name):
                raise InternalInconsistency(
                    "center is not fixed by the induced action"
                )
        centers[p] = center
        if center.kind == "edge":
            n = n * p
            a, b = center.vertices
            psi[p], psi_prime[p] = _orient_edge(tree, datum, a, b)
        else:
            psi[p] = center.vertices[0]
            psi_prime[p] = center.vertices[0]
    group = datum.group
    vertex_maps = {p: [trees[p].actions[name].__getitem__ for name in group.names]
                   for p in datum.support}
    m_elements = {}
    for element in group.elements():
        m = unit_ideal(fq)
        for p in datum.support:
            center = centers[p]
            if center.kind != "edge":
                continue
            a, b = center.vertices
            image = group.act(vertex_maps[p], element, a)
            if image == b:
                m = m * p
            elif image != a:
                raise InternalInconsistency("center edge not stabilized")
        m_elements[element] = m
    m_generators = {
        name: m_elements[datum.group.generator_element(name)]
        for name in datum.group.names
    }
    result = ClassificationResult(
        n=n,
        centers=centers,
        trees=trees,
        psi_descriptor=psi,
        psi_prime_descriptor=psi_prime,
        m_elements=m_elements,
        m_generators=m_generators,
    )
    if m_elements and m_elements[datum.group.identity()] != unit_ideal(fq):
        raise InternalInconsistency("m_id is not the unit ideal")
    return result


def _orient_edge(tree, datum, a, b):
    """Deterministic psi/psi' choice: order endpoints by their distance
    vectors to classes listed in sorted-label order."""
    order = sorted(range(len(tree.classes)),
                   key=lambda c: str(datum.labels[tree.classes[c][0]]))
    va = tuple(tree.dists[c][a] for c in order)
    vb = tuple(tree.dists[c][b] for c in order)
    return (a, b) if va <= vb else (b, a)


def minimality_check(datum, result):
    """For each p | n: no vertex of the subtree is fixed by the full group
    (so any ideal satisfying the parametrization is divisible by p).

    Violations are reported, not raised; a non-empty fixed set would mean
    an internal inconsistency between the center and the action.
    """
    report = {}
    for p in datum.support:
        if not p.divides(result.n):
            continue
        tree = result.trees[p]
        fixed = []
        for v in range(tree.n_vertices):
            if all(tree.actions[name][v] == v for name in datum.group.names):
                fixed.append(v)
        report[p] = {
            "fixed_vertices": fixed,
            "ok": not fixed,
            "violation": "InternalInconsistency" if fixed else None,
        }
    return report


def orbit_from_isogenies(conjugates, isogenies, galois):
    """Build an OrbitDatum from concrete modules and primitive isogenies.

    `isogenies` maps ordered index pairs (i, j) to isogenies conjugates[i]
    -> conjugates[j]; metric entries are v_p of the degrees.  The group
    permutation is derived by matching j-invariants of conjugated modules.
    """
    k = len(conjugates)
    jvals = [j_invariant(m).value for m in conjugates]
    if len(set(jvals)) != k:
        raise OrbitNotClosed("conjugates are not pairwise non-isomorphic")
    perms = []
    for name in galois.names:
        elem = galois.generator_element(name)
        perm = []
        for i, m in enumerate(conjugates):
            jv = j_invariant(conjugate_module(galois, elem, m)).value
            try:
                perm.append(jvals.index(jv))
            except ValueError:
                raise OrbitNotClosed(
                    f"conjugate of label {i} under {name} is not in the orbit"
                )
        perms.append((name, galois.orders[galois.names.index(name)], perm))
    group = OrbitGroup(perms)

    degs = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            iso = isogenies.get((i, j))
            rev = isogenies.get((j, i))
            if iso is None and rev is None:
                raise MissingIsogeny(f"no isogeny for the pair ({i}, {j})")
            use = iso if iso is not None else rev
            if not use.is_cyclic():
                raise NotPrimitive(f"isogeny for pair ({i}, {j}) is not primitive")
            degs[(i, j)] = use.degree_ideal()
    support = set()
    for d in degs.values():
        for prime, _ in d.factors():
            support.add(prime)
    metrics = {}
    for p in sorted(support, key=lambda q: (q.degree, repr(q))):
        mat = [[0] * k for _ in range(k)]
        for (i, j), d in degs.items():
            mat[i][j] = d.valuation(p)
        for i in range(k):
            for j in range(k):
                if mat[i][j] != mat[j][i]:
                    raise AsymmetricMatrix(
                        "forward and reverse isogeny degrees disagree"
                    )
        metrics[p] = tuple(tuple(row) for row in mat)
    datum = OrbitDatum(
        labels=tuple(range(k)),
        group=group,
        metrics=metrics,
        isogenies=dict(isogenies),
        modules=tuple(conjugates),
    )
    return validate_orbit(datum)


# -- materialization -----------------------------------------------------------

def materialize_center(datum, result, certificate_factory):
    """Realize the glued descriptor as a module plus a cyclic n-isogeny.

    Walks concrete isogeny paths: the p-part of base->label legs projected
    through `project_p`, unit steps from `factor_prime_power`, and glues one
    prime at a time.  Raises NotRealizable when a needed concrete leg is
    missing.
    """
    if not datum.modules:
        raise NotRealizable("orbit datum carries no concrete modules")
    base = datum.modules[0]
    factory = certificate_factory

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
                return _walk_to_vertex(
                    p, leg_x, leg_y, dx[vertex], factory
                )
        raise NotRealizable("center vertex lies outside concrete paths")

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


def _walk_to_vertex(p, leg_x, leg_y, steps, factory):
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
