"""The `orbits` workload: tree classification on synthetic orbit data.

One operation builds the orbit datum from its plain data and runs
`validate_orbit`, `classify` and `minimality_check`: the four-point check,
subtree reconstruction and the all-pairs-BFS center, with no algebra.

Each orbit has a planted n and m-map.  For each prime, copies of one random
rooted tree, one per element g of G = (Z/2)^r, hang by unit edges either
from the two ends of a central edge (copy g on side chi(g) for a nontrivial
character chi) or from one central vertex.  Labels sit at the same local
positions in every copy, so the metric is G-invariant by construction; the
center is the central edge (p divides n, and p divides m_s exactly when
chi(s) = 1) or the central vertex (p does not divide n).

Every round holds the same shapes in the same numbers: r in {1, 2}, 1 to 3
labels per copy at depth 1 to 4, and 1 to 3 primes, so that only the
random trees vary with the seed.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import product

import refalg
from dforge import trees
from dforge.fields import Fq
from dforge.ideals import IdealA

F = refalg.Fq(3)
PRIMES = ((0, 1), (1, 1), (2, 1), (1, 0, 1))      # T, T + 1, T + 2, T^2 + 1
SHAPES = list(product((1, 2), (1, 2, 3), (1, 2, 3)))  # (rank, labels, primes)
PER_SHAPE = 40


@dataclass
class Orbit:
    labels: int
    generators: list       # (name, 2, permutation of label indices)
    metrics: dict          # prime (tuple) -> distance matrix
    n: tuple               # planted monic generator of n
    m: dict                # generator name -> planted monic generator of m_s
    ideals: dict           # prime (tuple) -> the program's IdealA


def bfs(adj, start):
    dist = [-1] * len(adj)
    dist[start] = 0
    queue = deque((start,))
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def leaf_pruning_center(adj):
    """Strip all leaves until one vertex or one edge is left."""
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
    left = tuple(v for v in range(n) if alive[v])
    return ("vertex", left) if len(left) == 1 else ("edge", left)


def _symmetric_metric(rng, elems, chi, positions):
    """Distances between labels (g, b) on the glued copies; chi is None for
    a central vertex."""
    size = max(positions) + 1 + rng.randrange(4)
    parent = [None] + [rng.randrange(v) for v in range(1, size)]
    hubs = 1 if chi is None else 2
    adj = [[] for _ in range(hubs + len(elems) * size)]

    def join(u, v):
        adj[u].append(v)
        adj[v].append(u)

    if hubs == 2:
        join(0, 1)
    for ci, g in enumerate(elems):
        base = hubs + ci * size
        for v in range(1, size):
            join(base + v, base + parent[v])
        join(base, 0 if chi is None else chi(g))
    spots = [hubs + ci * size + b for ci in range(len(elems)) for b in positions]
    dists = {v: bfs(adj, v) for v in set(spots)}
    return tuple(tuple(dists[a][b] for b in spots) for a in spots)


def _orbit(rng, rank, per_copy, n_primes, ideals):
    elems = list(product((0, 1), repeat=rank))
    chars = [g for g in elems if any(g)]     # chi_c(g) = <c, g> mod 2
    names = ["s", "t"][:rank]
    generators = []
    for i, name in enumerate(names):
        perm = []
        for g in elems:
            moved = list(g)
            moved[i] ^= 1
            target = elems.index(tuple(moved))
            perm.extend(target * per_copy + b for b in range(per_copy))
        generators.append((name, 2, tuple(perm)))
    metrics = {}
    n = (1,)
    m = {name: (1,) for name in names}
    for prime in rng.sample(PRIMES, n_primes):
        positions = [rng.randrange(1, 5) for _ in range(per_copy)]
        if rng.random() < 0.7:
            c = rng.choice(chars)
            chi = lambda g, c=c: sum(x * y for x, y in zip(c, g)) % 2
            n = refalg.pmul(F, n, prime)
            for i, name in enumerate(names):
                if c[i]:
                    m[name] = refalg.pmul(F, m[name], prime)
        else:
            chi = None
        metrics[prime] = _symmetric_metric(rng, elems, chi, positions)
    return Orbit(len(elems) * per_copy, generators, metrics, n, m, ideals)


def setup(name, seed):
    rng = random.Random(f"{name}:{seed}")
    fq = Fq(3)
    ideals = {p: IdealA(fq.poly(list(p))) for p in PRIMES}
    orbits = [_orbit(rng, *shape, ideals) for shape in SHAPES
              for _ in range(PER_SHAPE)]
    rng.shuffle(orbits)
    return orbits


def run(orbit):
    datum = trees.OrbitDatum(
        labels=tuple(range(orbit.labels)),
        group=trees.OrbitGroup(orbit.generators),
        metrics={orbit.ideals[p]: mat for p, mat in orbit.metrics.items()},
    )
    trees.validate_orbit(datum)
    result = trees.classify(datum)
    return result, trees.minimality_check(datum, result)


def _gen(ideal):
    return tuple(int(c) for c in ideal.gen.array)


def check(orbit, outcome):
    """None when n, the m-map, minimality and every center are right."""
    if not isinstance(outcome, tuple):
        return f"no result: {outcome!r}"
    result, report = outcome
    if _gen(result.n) != orbit.n:
        return f"n = {result.n}, planted {orbit.n}"
    got_m = {name: _gen(v) for name, v in result.m_generators.items()}
    if got_m != orbit.m:
        return f"m-map {got_m}, planted {orbit.m}"
    if any(not rep["ok"] for rep in report.values()):
        return "minimality fails"
    if sorted(_gen(p) for p in report) != sorted(
            p for p in orbit.metrics if refalg.pdivides(F, p, orbit.n)):
        return "minimality report does not cover the primes of n"
    for p, tree in result.trees.items():
        center = result.centers[p]
        want = leaf_pruning_center(tree.adj)
        if (center.kind, tuple(sorted(center.vertices))) != want:
            return f"center {center} at {p}, oracle {want}"
    return None
