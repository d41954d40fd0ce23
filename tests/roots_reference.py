"""The root search that `dforge.drinfeld.linearized_roots_in_Q` replaced,
kept as the reference for its differential test (test_roots.py).

It finds the roots in Q by the rational root theorem: it factors the
trailing and leading cleared coefficients and walks their coprime divisor
pairs (`ideals.coprime_fractions`), testing each F_q-line once, and stops
when `stop_dim` is met.  `linearized_roots_in_Q` and `_lin_eval_is_zero`
are verbatim, but for two calls: `RatFunc.qth_root`, which only this
search used, left the program with it and is `_qth_root` below, and the
walk runs without the budget of 2,000,000 candidates that
`coprime_fractions` no longer takes (no test comes near it).
"""
from __future__ import annotations

import numpy as np

from dforge.errors import DivisionByZero, UnsupportedField
from dforge.fields import PolyA, RatFunc, primitive_numerators
from dforge.ideals import coprime_fractions
from dforge.skew import skew_eval

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
