"""Shared oracles and generators for the test suite.

Oracles here are deliberately independent of the library algorithms they
check: brute-force trial division, leaf pruning, spanned-subtree pruning,
and AHU canonical hashing.
"""
from __future__ import annotations

import random
import signal
import tracemalloc
from collections import deque
from contextlib import contextmanager

from dforge.extfield import ExtField
from dforge.fields import Fq


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once it has run for `seconds`, so a
    loop that would hang fails the test instead (SIGALRM, main thread)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def bounded(seconds, peak_mib):
    """`deadline(seconds)` on the body, and an AssertionError after it when
    the memory it allocated peaked above `peak_mib` MiB (tracemalloc, which
    sees numpy's arrays too)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        with deadline(seconds):
            yield
        peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= peak_mib, f"allocations peaked at {peak:.1f} MiB"


# -- field fixtures -----------------------------------------------------------

_FQ_CACHE = {}


def get_fq(p, modulus=None):
    key = (p, tuple(modulus) if modulus else None)
    if key not in _FQ_CACHE:
        _FQ_CACHE[key] = Fq(p, modulus)
    return _FQ_CACHE[key]


_FIELD_CACHE = {}


def rational_field(p, modulus=None):
    key = ("Q", p, tuple(modulus) if modulus else None)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = ExtField(get_fq(p, modulus))
    return _FIELD_CACHE[key]


def quadratic_field(p, modulus=None, dpoly=(1, 1)):
    """K = Q(sqrt(D)) for D = dpoly, default T + 1."""
    key = ("quad", p, tuple(modulus) if modulus else None, tuple(dpoly))
    if key not in _FIELD_CACHE:
        fq = get_fq(p, modulus)
        D = fq.rat(fq.poly(list(dpoly)))
        _FIELD_CACHE[key] = ExtField(fq, [-D, fq.rat_zero, fq.rat_one])
    return _FIELD_CACHE[key]


# -- polynomial oracles ---------------------------------------------------------

def brute_force_linear_factors(f):
    """All monic linear divisors by trial division; oracle for factoring."""
    fq = f.field
    out = []
    for c in range(fq.q):
        lin = fq.poly([fq.elem_packed(c), fq.one])
        if (f % lin).is_zero():
            out.append(lin)
    return out


def naive_poly_mul(a, b):
    """Schoolbook product over FqElem coefficients; oracle for arr_mul."""
    fq = a.field
    if a.is_zero() or b.is_zero():
        return fq.poly_zero
    out = [fq.zero] * (a.degree + b.degree + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return fq.poly(out)


# -- tree oracles ---------------------------------------------------------------

def random_tree(rng, max_vertices):
    """Random unit tree by uniform attachment; adjacency lists."""
    n = rng.randrange(2, max_vertices + 1)
    adj = [[] for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_dist(adj, start):
    dist = [-1] * len(adj)
    dist[start] = 0
    dq = deque((start,))
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


def spanned_subtree(adj, marked):
    """Prune non-marked leaves until every terminal vertex is marked;
    returns (kept vertex list, induced adjacency)."""
    keep = [True] * len(adj)
    degree = [len(a) for a in adj]
    marked_set = set(marked)
    queue = deque(v for v in range(len(adj))
                  if degree[v] <= 1 and v not in marked_set)
    while queue:
        v = queue.popleft()
        if not keep[v]:
            continue
        keep[v] = False
        for w in adj[v]:
            if keep[w]:
                degree[w] -= 1
                if degree[w] <= 1 and w not in marked_set:
                    queue.append(w)
    vertices = [v for v in range(len(adj)) if keep[v]]
    index = {v: i for i, v in enumerate(vertices)}
    sub = [[] for _ in vertices]
    for v in vertices:
        for w in adj[v]:
            if keep[w]:
                sub[index[v]].append(index[w])
    return vertices, sub, index


def leaf_pruning_center(adj):
    """Iteratively strip all leaves; the fixed point is the center."""
    n = len(adj)
    if n == 1:
        return ("vertex", (0,))
    degree = [len(a) for a in adj]
    alive = [True] * n
    remaining = n
    layer = [v for v in range(n) if degree[v] <= 1]
    while remaining > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            remaining -= 1
            for w in adj[v]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    left = [v for v in range(n) if alive[v]]
    if len(left) == 1:
        return ("vertex", tuple(left))
    return ("edge", tuple(sorted(left)))


def ahu_hash(adj, labels=None):
    """Canonical hash of a tree with optional vertex labels.

    Rooted at the pruning center (canonicalized over both endpoints for an
    edge center); label-respecting isomorphic trees get equal hashes.
    """
    labels = labels or {}

    def rooted(root, blocked):
        def rec(v, parent):
            subs = sorted(rec(w, v) for w in adj[v]
                          if w != parent and w != blocked)
            return (labels.get(v, ""), tuple(subs))
        return rec(root, None)

    kind, verts = leaf_pruning_center(adj)
    if kind == "vertex":
        return ("v", rooted(verts[0], None))
    a, b = verts
    return ("e", tuple(sorted((rooted(a, b), rooted(b, a)))))


# -- synthetic G-invariant orbit construction -----------------------------------

def grown_tree(rng, size):
    """Rooted random tree as a parent list (vertex 0 is the root)."""
    parent = [None]
    for v in range(1, size):
        parent.append(rng.randrange(v))
    return parent


def mirror_orbit_metric(rng, *, odd, depth=4, leaves=3):
    """Distance matrix (plus the swap involution) of labels placed
    symmetrically on two mirrored copies of a random rooted tree.

    `odd` joins the two roots by an edge (center = that edge, swapped);
    otherwise both copies share the root vertex (center = root, fixed).
    Returns (labels_count, matrix) for the label set L + mirror(L).
    """
    size = rng.randrange(2, depth + 2)
    parent = grown_tree(rng, size)
    n = len(parent)
    adj = [[] for _ in range(2 * n if odd else 2 * n - 1)]

    def add(u, v):
        adj[u].append(v)
        adj[v].append(u)

    for v in range(1, n):
        add(v, parent[v])
    if odd:
        # second copy on vertices n..2n-1, roots joined by an edge
        for v in range(1, n):
            add(n + v, n + parent[v])
        add(0, n)
        image = lambda v: v + n if v < n else v - n
    else:
        # second copy shares the root: copy vertex v>=1 -> n-1+v
        for v in range(1, n):
            p = parent[v]
            add(n - 1 + v, 0 if p == 0 else n - 1 + p)
        image = lambda v: v if v == 0 else (v + n - 1 if v < n else v - (n - 1))

    pool = list(range(1, n)) or [0]
    chosen = []
    for _ in range(min(leaves, len(pool))):
        v = rng.choice(pool)
        pool.remove(v)
        chosen.append(v)
    labels = []
    for v in chosen:
        labels.append(v)
        labels.append(image(v))
    dists = {v: bfs_dist(adj, v) for v in labels}
    k = len(labels)
    mat = tuple(tuple(dists[a][b] for b in labels) for a in labels)
    swap = tuple(i + 1 if i % 2 == 0 else i - 1 for i in range(k))
    return mat, swap


def seeded(fn):
    """Decorator-free helper to build a deterministic Random."""
    return random.Random(fn)


# -- synthetic orbits with known classification ----------------------------------

def _group_elems(n_gens):
    if n_gens == 1:
        return [(0,), (1,)]
    return [(0, 0), (1, 0), (0, 1), (1, 1)]


def _characters(n_gens):
    """Nontrivial homomorphisms G -> Z/2 for G = (Z/2)^n_gens."""
    if n_gens == 1:
        return [lambda g: g[0] % 2]
    return [
        lambda g: g[0] % 2,
        lambda g: g[1] % 2,
        lambda g: (g[0] + g[1]) % 2,
    ]


def symmetric_prime_tree(rng, elems, char, odd, base_positions):
    """Distance matrix of labels (g, b) on a G-symmetric gluing of copies.

    Copies of one random rooted tree, one per group element, attach by unit
    edges either to the two endpoints of a central edge (odd; copy g on the
    side char(g)) or to a single central vertex (even).  Labels sit at the
    same local positions in every copy, so the metric is G-invariant by
    construction and the center is the central edge or vertex.
    """
    size = rng.randrange(max(base_positions) + 1, max(base_positions) + 4)
    parent = grown_tree(rng, size)
    n_local = len(parent)
    n_copies = len(elems)
    hubs = 2 if odd else 1
    total = hubs + n_copies * n_local
    adj = [[] for _ in range(total)]

    def add(u, v):
        adj[u].append(v)
        adj[v].append(u)

    if odd:
        add(0, 1)

    def vid(copy_idx, local):
        return hubs + copy_idx * n_local + local

    for ci, g in enumerate(elems):
        for v in range(1, n_local):
            add(vid(ci, v), vid(ci, parent[v]))
        hub = char(g) if odd else 0
        add(vid(ci, 0), hub)

    positions = []
    for g in elems:
        ci = elems.index(g)
        for b in base_positions:
            positions.append(vid(ci, b))
    dists = {v: bfs_dist(adj, v) for v in set(positions)}
    k = len(positions)
    return tuple(tuple(dists[positions[i]][positions[j]] for j in range(k))
                 for i in range(k))


def synthetic_orbit(rng, primes_pool):
    """A synthetic G-invariant orbit datum with a known classification.

    Returns (generators, metrics, metrics_rebased, expected_n_primes,
    expected_m) where expected_m maps each group element to the set of
    primes it swaps; the rebased metrics use a second label family in the
    same ambient trees, exercising base-point independence.
    """
    n_gens = rng.choice((1, 1, 2))
    elems = _group_elems(n_gens)
    chars = _characters(n_gens)
    n_labels_base = rng.choice((1, 2))
    k = len(elems) * n_labels_base

    # the group permutes labels (g, b) -> (g + s, b)
    gens = []
    names = ["s", "t"][:n_gens]
    for gi, name in enumerate(names):
        perm = []
        for g in elems:
            moved = list(g)
            moved[gi] = (moved[gi] + 1) % 2
            tgt = elems.index(tuple(moved))
            for b in range(n_labels_base):
                perm.append(tgt * n_labels_base + b)
        # perm above is indexed by (elem, b) blocks in elems order
        gens.append((name, 2, tuple(perm)))

    n_primes = rng.randrange(1, min(3, len(primes_pool)) + 1)
    chosen = rng.sample(primes_pool, n_primes)
    metrics = {}
    metrics2 = {}
    edge_primes = []
    swap_chars = {}
    for p in chosen:
        odd = rng.random() < 0.7
        char = rng.choice(chars) if odd else (lambda g: 0)
        base_positions = [rng.randrange(1, 4) for _ in range(n_labels_base)]
        base_positions2 = [rng.randrange(1, 4) for _ in range(n_labels_base)]
        seed = rng.randrange(1 << 30)
        metrics[p] = symmetric_prime_tree(
            random.Random(seed), elems, char, odd, base_positions)
        metrics2[p] = symmetric_prime_tree(
            random.Random(seed), elems, char, odd, base_positions2)
        if odd:
            edge_primes.append(p)
            swap_chars[p] = char
    expected_m = {}
    for g in elems:
        expected_m[g] = frozenset(
            p for p in edge_primes if swap_chars[p](g) == 1
        )
    return gens, metrics, metrics2, frozenset(edge_primes), expected_m
