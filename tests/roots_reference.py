"""The root search that `dforge.drinfeld.linearized_roots_in_Q` replaced,
kept as the reference for its differential test (test_roots.py).

It finds the roots in Q by the rational root theorem: it factors the
trailing and leading cleared coefficients and walks their coprime divisor
pairs (`coprime_fractions`), testing each F_q-line once, and stops when
`stop_dim` is met.  `linearized_roots_in_Q` and `_lin_eval_is_zero` are
verbatim, but for two calls: `RatFunc.qth_root`, which only this search
used, left the program with it and is `_qth_root` below, and the walk runs
without the budget of 2,000,000 candidates that `coprime_fractions` no
longer took (no test comes near it).

The walk is lazy: `divisors_in_degree_order` and `coprime_fractions` are
the heap walks that `dforge.ideals` had, verbatim, since this is the one
search that stops early.  `ideals.rational_roots` consumes every candidate
and builds its divisors eagerly; a reference built on that would factor
and multiply out every divisor of coefficients of degree up to 69.

The prime walks that `dforge.drinfeld._prime_walk` replaced are kept too,
verbatim, for its differential tests: `_root_prime`, the first prime of the
search by reduction, with `linearized_matrices`, the method of
`ResidueField` that took the cleared coefficients in A (here a function of
the field); and `_modular_dimension` with `_reduce_tails`, which cleared
each coefficient at every prime and divided by its denominator in A/P.
"""
from __future__ import annotations

import heapq

import numpy as np

from dforge.drinfeld import (_MAX_GOOD_PRIMES, _PRIME_CANDIDATE_BUDGET,
                             _prime_residues, _residue_primes)
from dforge.errors import (BudgetExceeded, DivisionByZero,
                           InternalInconsistency, UnsupportedField,
                           ZeroPolynomial)
from dforge.fields import (PolyA, RatFunc, cleared_numerators, monic_polys,
                           primitive_numerators)
from dforge.ideals import IdealA, factor_ideal
from dforge.skew import SkewPoly, kernel_dimension, skew_eval


def divisors_in_degree_order(f, cap=None):
    """Yield the monic divisors of f in nondecreasing degree, lazily.

    Heap walk over the exponent lattice of the factorization; only popped
    divisors are materialized, so early-stopping consumers never touch the
    full (possibly huge) divisor set.  With a cap, a divisor set larger
    than cap raises BudgetExceeded before the first divisor.
    """
    if f.is_zero():
        raise ZeroPolynomial("divisors of zero requested")
    field = f.field
    facs = factor_ideal(IdealA(f))
    total = 1
    for _, mult in facs:
        total *= mult + 1
    if cap is not None and total > cap:
        raise BudgetExceeded("monic divisors", cap)
    degs = [p.degree for p, _ in facs]
    mults = [m for _, m in facs]
    start = (0,) * len(facs)
    heap = [(0, start, field.poly_one)]
    seen = {start}
    while heap:
        deg, exps, poly = heapq.heappop(heap)
        yield poly
        for i in range(len(facs)):
            if exps[i] < mults[i]:
                nxt = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(
                        heap, (deg + degs[i], nxt, poly * facs[i][0].gen)
                    )


def coprime_fractions(trailing, leading, cap=None):
    """Yield the coprime monic pairs (u, v), u | trailing and v | leading.

    These are the candidates u/v of the rational root theorem over the PID
    A, up to a unit of F_q.  Pairs come in nondecreasing deg u + deg v, by
    a heap walk over the indices of two lazy divisor streams, so small
    fractions come first and an early-stopping consumer never fetches
    divisors beyond the frontier.  `cap` bounds each divisor set.
    """
    u_gen = divisors_in_degree_order(trailing, cap)
    v_gen = divisors_in_degree_order(leading, cap)
    u_cache = []
    v_cache = []

    def fetch(cache, gen, i):
        while len(cache) <= i:
            try:
                cache.append(next(gen))
            except StopIteration:
                return None
        return cache[i]

    heap = [(0, 0, 0)]
    visited = {(0, 0)}
    while heap:
        _, iu, iv = heapq.heappop(heap)
        u = fetch(u_cache, u_gen, iu)
        v = fetch(v_cache, v_gen, iv)
        for niu, niv in ((iu + 1, iv), (iu, iv + 1)):
            if (niu, niv) in visited:
                continue
            nu = fetch(u_cache, u_gen, niu)
            nv = fetch(v_cache, v_gen, niv)
            if nu is not None and nv is not None:
                visited.add((niu, niv))
                heapq.heappush(heap, (nu.degree + nv.degree, niu, niv))
        if u.gcd(v).is_one():
            yield u, v


def _poly_qth_root(p):
    """Exact q-th root of a PolyA, or None when it is not a q-th power."""
    f = p.field
    c = p.array
    if p.is_zero():
        return p
    if (len(c) - 1) % f.q != 0:
        return None
    stride = c[:: f.q]
    probe = np.zeros(len(c), dtype=np.int64)
    probe[:: f.q] = stride
    if not np.array_equal(probe, c):
        return None
    return PolyA(f, stride.copy())


def _qth_root(r):
    rn = _poly_qth_root(r.num)
    rd = _poly_qth_root(r.den)
    if rn is None or rd is None:
        return None
    return RatFunc(r.field, rn, rd)


def _lin_eval_is_zero(cleared, u, vpows):
    """sum_i C_i u^(q^i) v^(q^m - q^i) == 0, evaluated in A."""
    fq = u.field
    acc = fq.poly_zero
    for i, c in enumerate(cleared):
        if c.is_zero():
            continue
        acc = acc + c * u.frob_power(i) * vpows[i]
    return acc.is_zero()


def linearized_roots_in_Q(gpoly, extra=(), stop_dim=None):
    """All c in Q with sum g_i c^(q^i) = 0, for coefficients in Q (e = 1).

    Candidates u/v are the coprime monic pairs of `coprime_fractions` over
    the trailing and leading cleared coefficients (rational root theorem
    over the PID A); each F_q-line is tested once.  Roots must also kill
    every constraint in `extra`; the search stops once q^stop_dim - 1 roots
    are found, which is exhaustive when stop_dim bounds the kernel
    dimension.
    """
    field = gpoly.field
    if field.e != 1:
        raise UnsupportedField("automatic root search requires K = Q")
    fq = field.fq
    if gpoly.is_zero():
        raise DivisionByZero("root search on the zero constraint")
    val = gpoly.tau_valuation()
    cleared = primitive_numerators(fq, [c.as_rat() for c in gpoly.coeffs[val:]])
    m = len(cleared) - 1
    target = None if stop_dim is None else fq.q ** stop_dim - 1
    units = [fq.elem_packed(u) for u in range(2, fq.q)]
    lines = []

    def q_power_root(r, k):
        for _ in range(k):
            r = _qth_root(r)
            if r is None:
                return None
        return r

    vpow_cache = {}

    def vpows_for(v):
        if v not in vpow_cache:
            vq = [v]
            for _ in range(m):
                vq.append(vq[-1].frob_power(1))
            vpow_cache[v] = [vq[m] // vq[i] for i in range(m + 1)]
        return vpow_cache[v]

    for u, v in coprime_fractions(cleared[0], cleared[-1]):
        if not _lin_eval_is_zero(cleared, u, vpows_for(v)):
            continue
        root = q_power_root(RatFunc.make(u, v), val)
        if root is None or not all(
                skew_eval(t, field.from_rat(root)).is_zero() for t in extra):
            continue
        lines.append(root)
        if target is not None and (fq.q - 1) * len(lines) >= target:
            break
    roots = []
    for r in lines:
        roots.append(r)
        for xi in units:
            roots.append(RatFunc(fq, r.num.scale(xi), r.den))
    roots.sort(key=lambda r: (r.den.degree, r.num.degree, repr(r)))
    return [field.from_rat(r) for r in roots]


def _root_prime(fq, n, avoid):
    """A/P for the first monic irreducible P of degree >= n in packed order
    (`monic_polys`, `_prime_residues`) that divides no polynomial in
    `avoid`."""
    for P in monic_polys(fq, n):
        F = _prime_residues(P)
        if F is not None and not any(a.is_zero() for a in F.reduce(avoid)):
            return F


def linearized_matrices(self, polys):
    """For each coefficient list C_0, .., C_m in A, the n x n matrix over
    F_q of c -> sum_i C_i c^(q^i) on A/P, row j the image of T^j.

    The products by every C_i come from one matrix product: row j of
    C_i is C_i T^j, reduced by the rows T^k mod P.  The q-power maps
    act by the Frobenius rows, by Horner's rule in them.
    """
    fq, n = self.fq, self.n
    coeffs = [c.array for cs in polys for c in cs]
    width = n - 1 + max(len(c) for c in coeffs)
    shifted = np.zeros((len(coeffs), n, width), dtype=np.int64)
    for k, c in enumerate(coeffs):
        for j in range(n):
            shifted[k, j, j: j + len(c)] = c
    products = fq.arr_matmul(shifted.reshape(-1, width),
                             self._rows(width)).reshape(-1, n, n)
    out, start = [], 0
    for cs in polys:
        start += len(cs)
        acc = products[start - 1]
        for i in range(start - 2, start - len(cs) - 1, -1):
            acc = fq.arr_axpy(products[i], 1, fq.arr_matmul(self._frob, acc))
        out.append(acc)
    return out


def _reduce_tails(F, tails, s):
    """The tails' coefficients mapped to A/P by x -> s, or None when a
    coefficient's denominator vanishes mod P.

    A coefficient sum_j (n_j / d_j) x^j with common denominator L maps to
    N / L mod P, N = sum_j n_j (L / d_j) s^j (`ResidueField.reduce`).
    """
    cleared = [cleared_numerators(F.fq, c.coords)
               for t in tails for c in t.coeffs]
    values = F.reduce([nums for nums, _ in cleared], s)
    dens = [(i, L) for i, (_, L) in enumerate(cleared) if not L.is_one()]
    if dens:
        for (i, _), dv in zip(dens, F.reduce([L for _, L in dens])):
            if dv.is_zero():
                return None
            values[i] = values[i] / dv
    values = iter(values)
    return [[next(values) for _ in t.coeffs] for t in tails]


def _modular_dimension(field, tails, bound, residue_degree):
    """(dimension, primes tried): the dimension of the common kernel of the
    two tails when one prime proves it equals bound // 2 + 1, else None.

    Lemma (one good prime; Brown, JACM 18 (1971), and Li & Nemes, ISSAC
    1997, for Ore polynomials).  Let x -> s be a ring map from the
    P-integral elements of K onto F = A/P (`_residue_primes`); reduction
    mod P commutes with the q-power map, so it is a ring map on P-integral
    skew polynomials.  Let t1 = tails[0] = t1' tau^v, and suppose the lead
    of t1 and its coefficient at tau^v are P-units and every coefficient of
    both tails is P-integral.  Take a valuation ring above P in an algebraic
    closure.  The roots of t1' are integral (t1' / lead is monic and
    integral), their product is +-(coefficient at tau^v) / lead, a unit, so
    each is a unit, and t1' mod P is separable (its derivative is the unit
    coefficient at tau^v): reduction maps the roots of t1' injectively, and
    with them the roots of t1, their q^v-th roots.  A common root of the
    tails maps to a common root of the reduced pair, so the reduced right
    gcd g has deg g - val g >= the exact dimension, which is >= bound // 2
    + 1 once the tails vanish on the A-part (certify_non_cm).  A reduced
    dimension of bound // 2 + 1 therefore proves the certificate.

    A larger reduced dimension means CM or an unlucky prime: after
    `_MAX_GOOD_PRIMES` good primes, or `_PRIME_CANDIDATE_BUDGET`
    candidates, the caller falls back to the exact path.  Over the finite
    field F the reduced module has the Frobenius endomorphism, of tau-degree
    [F : F_q], so residue degrees below 2 bound + 2 give too large a
    dimension far more often.  Primes of degree <= bound divide some
    T^(q^i) - T, i <= bound, a factor of the closure's denominators, and
    usually of the tails' leads: those are skipped.  A reducible candidate
    is dropped unrecorded (`_prime_residues`).
    """
    expected = bound // 2 + 1
    t1 = tails[0]
    v1 = t1.tau_valuation()
    primes = []
    good = 0
    candidates = _residue_primes(field, residue_degree)
    for _ in range(_PRIME_CANDIDATE_BUDGET):
        P, s = next(candidates)
        F = _prime_residues(P)
        if F is None:
            continue
        reduced = _reduce_tails(F, tails, s)
        if reduced is None or reduced[0][v1].is_zero() \
                or reduced[0][-1].is_zero():
            primes.append((P, "skipped"))
            continue
        dimension = kernel_dimension([SkewPoly(F, t) for t in reduced])
        if dimension < expected:
            raise InternalInconsistency(
                "reduced constraints lost the A-part constants"
            )
        good += 1
        if dimension == expected:
            primes.append((P, "lucky"))
            return dimension, tuple(primes)
        primes.append((P, "unlucky"))
        if good == _MAX_GOOD_PRIMES:
            break
    return None, tuple(primes)
