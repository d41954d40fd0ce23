"""Isogeny-tree combinatorics: reconstruct the finite subtree spanned by a
Galois orbit from its per-prime distance matrices, find the Galois-fixed
center, and run the classification pipeline producing the square-free ideal
n and the involution assignment s -> m_s.

Tree-ness is tested once, by realizing each metric in `validate_orbit`;
`classify` reuses the realized trees.  No tree is searched: a new class's
distances follow from those of the two classes whose path it hangs from,
the center is left by one pass of leaf pruning, and s swaps a center edge
exactly when its exponents on the swapping generators sum to an odd number.

No vertex permutation is built either.  A generator acts on a realized tree
by the one automorphism extending its isometric permutation of the label
classes, which keeps the center; it swaps a center edge (a, b) exactly when
label 0's class and its image lie at different distances from a.  A
generator swapping the edge fixes no vertex, so the group fixes a vertex,
and minimality fails, exactly when no generator swaps it.

Trees are materialized with unit edges (every lattice point of the ambient
p-isogeny tree on a spanned path is a vertex), so centers of odd-diameter
subtrees are addressable edges.  Steiner vertices are the non-label
vertices; branch points have degree >= 3 while path subdivisions have
degree 2.
"""
from __future__ import annotations

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
        maps = [perm.__getitem__ for _, _, perm in self.generators]
        self.check_action(maps, range(n), NotGInvariant)


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


@dataclass
class SubTree:
    """Unit-edge realization of one per-prime metric.

    vertices 0..n-1; `class_vertex[c]` is where label class c sits;
    `label_class` maps label index -> class index; `dists[c][v]` is the
    distance from class c to vertex v.
    """

    adj: tuple
    class_vertex: tuple
    label_class: tuple
    classes: tuple
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
        # d(w, v) = max(d(u0, v) - alpha, d(best_u, v) - (span - alpha)) as w
        # lies on the u0-best_u path; the new chain lies at h - 1, ..., 0
        new_dists = [h + max(a - best_alpha, b - span + best_alpha)
                     for a, b in zip(d0, du)]
        new_dists.extend(range(h - 1, -1, -1))
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
        dists.append(new_dists)

    # minimality: every terminal vertex carries a class
    class_set = set(class_vertex)
    for v in range(len(adj)):
        if len(adj[v]) <= 1 and v not in class_set and len(adj) > 1:
            raise InternalInconsistency("terminal Steiner vertex produced")

    # stored as tuples: a classification keeps every tree and its distances
    return SubTree(
        adj=tuple(map(tuple, adj)),
        class_vertex=tuple(class_vertex),
        label_class=tuple(label_class),
        classes=tuple(map(tuple, classes)),
        dists=tuple(map(tuple, dists)),
    )


def tree_center(tree):
    """The center, by stripping every leaf layer by layer: one vertex is
    left for an even diameter, one edge for an odd one.

    A vertex reaches degree 1 once, so the last layer is what is left of a
    tree.  A graph with n - 1 edges is a tree exactly when that holds, as
    a cycle (a loop or a double edge included) is never stripped; any other
    graph is refused.
    """
    adj = tree.adj
    n = len(adj)
    degree = [len(nbrs) for nbrs in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2 and layer:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    if sum(map(len, adj)) != 2 * (n - 1) or len(layer) != remaining:
        raise InternalInconsistency("subtree is not a tree")
    return Center("vertex" if len(layer) == 1 else "edge", tuple(sorted(layer)))


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


def _swapping(tree, group, a):
    """Indices of the generators swapping the center edge (a, b): those
    taking label 0's class to a class at another distance from a."""
    dists, label_class = tree.dists, tree.label_class
    first = dists[label_class[0]][a]
    return [i for i, (_, _, perm) in enumerate(group.generators)
            if dists[label_class[perm[0]]][a] != first]


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
    group = datum.group
    n = unit_ideal(fq)
    centers = {}
    trees = datum.trees
    psi = {}
    psi_prime = {}
    swapping = {}  # prime with an edge center -> generators swapping it
    for p in datum.support:
        tree = trees[p]
        center = tree_center(tree)
        centers[p] = center
        if center.kind == "edge":
            n = n * p
            a, b = center.vertices
            psi[p], psi_prime[p] = _orient_edge(tree, datum, a, b)
            swapping[p] = _swapping(tree, group, a)
        else:
            psi[p] = center.vertices[0]
            psi_prime[p] = center.vertices[0]
    # every generator fixes or swaps each center edge, so an element swaps
    # it exactly when the exponents of the swapping generators sum to odd
    m_elements = {}
    for element in group.elements():
        m = unit_ideal(fq)
        for p, gens in swapping.items():
            if sum(element[i] for i in gens) % 2:
                m = m * p
        m_elements[element] = m
    m_generators = {
        name: m_elements[group.generator_element(name)]
        for name in group.names
    }
    return ClassificationResult(
        n=n,
        centers=centers,
        trees=trees,
        psi_descriptor=psi,
        psi_prime_descriptor=psi_prime,
        m_elements=m_elements,
        m_generators=m_generators,
    )


def _orient_edge(tree, datum, a, b):
    """Deterministic psi/psi' choice: order endpoints by their distance
    vectors to classes listed in sorted-label order."""
    order = sorted(range(len(tree.classes)),
                   key=lambda c: str(datum.labels[tree.classes[c][0]]))
    va = tuple(tree.dists[c][a] for c in order)
    vb = tuple(tree.dists[c][b] for c in order)
    return (a, b) if va <= vb else (b, a)


def minimality_check(datum, result):
    """For each p | n, the primes whose center is an edge: no vertex of the
    subtree is fixed by the full group (so any ideal satisfying the
    parametrization is divisible by p).

    That holds exactly when some generator swaps the edge.  Violations are
    reported, not raised; one would mean an internal inconsistency between
    the center and the action.
    """
    report = {}
    for p in datum.support:
        center = result.centers[p]
        if center.kind != "edge":
            continue
        ok = bool(_swapping(result.trees[p], datum.group, center.vertices[0]))
        report[p] = {
            "ok": ok,
            "violation": None if ok else "InternalInconsistency",
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
