"""The `cm` and `certify` workloads: certify_non_cm on seeded rank-2 modules.

Both run the same call, `certify_non_cm(module, bound)`, over the input
groups: K = F_q(T)(sqrt(T+1)) at q = 5 and 7 with bound 2, F_9(T) with
bound 2 and F_3(T) with bound 4.  The coordinates of g and Delta are
polynomials of degree exactly 1 with nonzero coefficients, which keeps the
cost of one input within about 10 % of its group's.

`cm` sets g = 0: then zeta in F_{q^2} \\ F_q commutes with phi_T, so each
module must be refused.  Its group K5cm holds modules with CM by A[sqrt(D)]
instead (refalg.cm_module): u = sqrt(D) + a tau commutes with phi_T and has
odd tau-degree, so it is no phi_b, and each must be refused at bound 2.

`certify` keeps only modules whose j is not integral over A (screened with
the reference arithmetic, never by running the program).  A CM module has
integral j, so each of these must get a certificate.  It is not in
BENCHMARK.json: its operations, 0.15 to 2 s each, follow the host's slow
phases (see README.md), but it runs by name.

The program's objects are rebuilt from the plain coordinates inside each
operation, so nothing the program keeps on a module carries over between
rounds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import refalg
from dforge import drinfeld
from dforge.errors import CMSuspected
from dforge.extfield import ExtField
from dforge.fields import Fq
from dforge.skew import SkewPoly

# name, p, F_q modulus, quadratic (D = T + 1), bound
GROUPS = {
    "K5": (5, None, True, 2),
    "K7": (7, None, True, 2),
    "F9": (3, (1, 0, 1), False, 2),
    "F3": (3, None, False, 4),
    "K5cm": (5, None, True, 2),
}

# Per-round counts.  The median operation falls inside one group, away from
# a group boundary (cm: F3, ranks 11-26 of 42; certify: K5, ranks 1-10 of
# 15).  The cost of an F9 input varies by a factor of two from input to
# input, so F9 is kept to a small share of each round.
MIX = {
    "cm": (("K7", 10), ("F9", 2), ("K5", 10), ("F3", 16), ("K5cm", 4)),
    "certify": (("K7", 1), ("F9", 1), ("K5", 10), ("F3", 3)),
}


@dataclass
class Case:
    group: str
    g: tuple               # coordinates of g and Delta: one polynomial
    delta: tuple           # (a tuple of packed F_q values) per K-coordinate
    bound: int
    planted_cm: str | None  # why the module must be refused, if it must
    j_integral: bool


class Tower:
    """The program's field tower and the matching reference field."""

    def __init__(self, p, modulus, quadratic):
        self.ref = refalg.Fq(p, modulus)
        self.fq = Fq(p, modulus)
        fq = self.fq
        if quadratic:
            D = fq.rat(fq.poly([1, 1]))
            self.K = ExtField(fq, [-D, fq.rat_zero, fq.rat_one])
            self.D = (1, 1)
        else:
            self.K = ExtField(fq)
            self.D = None

    def element(self, coords):
        fq = self.fq
        return self.K.elem([fq.poly([fq.elem_packed(c) for c in poly])
                            for poly in coords])

    def module(self, g, delta):
        K = self.K
        return drinfeld.make_module(SkewPoly(
            K, (K.T(), self.element(g), self.element(delta))))


TOWERS = {}


def _random_coords(rng, tower):
    q, e = tower.ref.q, tower.K.e
    return tuple(tuple(rng.randrange(1, q) for _ in range(2)) for _ in range(e))


def _case(name, group, rng, tower):
    """One seeded input of the group, or None when the screen drops it."""
    bound = GROUPS[group][3]
    if group == "K5cm":
        g, delta = refalg.cm_module(tower.ref, tower.D, _random_coords(rng, tower))
        why = "u = sqrt(D) + a tau commutes with phi_T"
    elif name == "cm":
        delta = _random_coords(rng, tower)
        g = tuple(() for _ in delta)
        why = "g = 0"
    else:
        delta, g = _random_coords(rng, tower), _random_coords(rng, tower)
        why = None
    integral = refalg.j_is_integral(tower.ref, tower.D, g, delta)
    if why is None and integral:
        return None
    return Case(group, g, delta, bound, why, integral)


def setup(name, seed):
    rng = random.Random(f"{name}:{seed}")
    for group, _ in MIX[name]:
        TOWERS[group] = Tower(*GROUPS[group][:3])
    cases = []
    for group, count in MIX[name]:
        while sum(c.group == group for c in cases) < count:
            case = _case(name, group, rng, TOWERS[group])
            if case is not None:
                cases.append(case)
    # mix the groups so that slow phases of the machine hit them alike
    rng.shuffle(cases)
    return cases


def run(case):
    module = TOWERS[case.group].module(case.g, case.delta)
    try:
        return drinfeld.certify_non_cm(module, case.bound)
    except CMSuspected as exc:
        # drop the frames, which hold the operands of the refused computation
        return exc.with_traceback(None)


def check(case, answer):
    """None when the answer is right, else the reason it is wrong."""
    if case.planted_cm is not None:
        if not isinstance(answer, CMSuspected):
            return (f"{case.group}: CM module ({case.planted_cm}) "
                    f"not refused: {answer!r}")
        return None
    if case.j_integral:
        return f"{case.group}: input with integral j has no independent answer"
    if not isinstance(answer, drinfeld.NonCMCertificate):
        return f"{case.group}: j not integral over A, but got {answer!r}"
    module = TOWERS[case.group].module(case.g, case.delta)
    if answer.module != module or answer.bound != case.bound:
        return f"{case.group}: certificate for another module or bound"
    if answer.dimension != case.bound // 2 + 1:
        return f"{case.group}: certificate dimension {answer.dimension}"
    return None
