"""The `isogeny` workload: planted points over F_3(T) through `dforge.cli.main`.

One operation is one planted point: the commands `degree`, `dual`,
`project` (once per prime of the level), `star-orbit` and `find`, each run
in-process through `dforge.cli.main` on the point's job document, with
stdout captured.  That is the user's path through the CLI, short of process
start-up.

Points are built with the reference arithmetic, so the program receives
only the job documents:
- rotation pairs: phi_T = f1 f2 + c and psi_T = f2 f1 + c with f1 = a1 + b1 t
  and f2 = (T - c)/a1 + b2 t, so mu = f2 : phi -> psi has level (T - c);
- two-prime points: a module with a planted cyclic isogeny of level
  (T - c1)(T - c2), as the composite of two linear-prime factors, with
  constant a, b, u (non-constant ones cost up to ten times as much and
  vary by a factor of three from point to point).
A point is kept only when j(phi) is not integral over A.  A CM module has
integral j, so every certificate the commands ask for must be granted.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

import refalg
from dforge import cli
from refalg import (Rat, j_of, parse_ideal, parse_skew, pmul, rconst, rinv,
                    rmul, rpow, rsub, sadd, smul, sphi_a, sright_divmod, sscale)

F = refalg.Fq(3)
T = Rat((0, 1))

# Per-round counts.  A rotation point costs about 50 ms and a two-prime point
# about 250 ms, so the median operation is a rotation point.  A small batch
# gives each point more rounds in a run, and so a better chance of being
# timed while the host runs at full speed.
ROTATIONS = 20
TWO_PRIME = 4


@dataclass
class Point:
    kind: str
    phiT: tuple
    psiT: tuple
    mu: tuple
    level: tuple           # monic generator of the planted level
    primes: list           # monic generators of its prime factors
    docs: list = field(default_factory=list)   # one path per prime


def _const(c):
    return rconst(c % F.p)


def _lin(c):
    """T - c as a monic polynomial."""
    return (F.neg[c % 3], 1)


def _random_poly(rng):
    while True:
        coeffs = refalg.trim(rng.randrange(3) for _ in range(2))
        if coeffs:
            return coeffs


def rotation_point(rng):
    c = rng.randrange(3)
    a1 = rng.randrange(1, 3)
    b1, b2 = Rat(_random_poly(rng)), Rat(_random_poly(rng))
    a2 = rmul(F, rsub(F, T, _const(c)), rinv(F, _const(a1)))
    f1 = (_const(a1), b1)
    f2 = (a2, b2)
    phiT = sadd(F, smul(F, f1, f2), (_const(c),))
    psiT = sadd(F, smul(F, f2, f1), (_const(c),))
    if len(phiT) != 3 or len(psiT) != 3:
        return None
    return Point("rotation", phiT, psiT, f2, _lin(c), [_lin(c)])


def two_prime_point(rng):
    """phi_T = f1 h + c1 with h : phi -> mid of level (T - c1), and
    g1 = u + t : mid -> target of level (T - c2), planted by solving for
    the coefficient v of h; chi = g1 h is cyclic of level (T - c1)(T - c2)."""
    c1, c2 = rng.sample(range(3), 2)
    a, b, u = (_const(rng.randrange(1, 3)) for _ in range(3))
    e = rsub(F, _const(c1), _const(c2))
    u_h = rmul(F, rsub(F, T, _const(c1)), rinv(F, a))
    denom = rsub(F, rmul(F, b, rpow(F, u, F.q + 1)), rmul(F, a, u))
    if not denom.num:
        return None
    v = rmul(F, rsub(F, rsub(F, rmul(F, rmul(F, u_h, b), u), rmul(F, u_h, a)), e),
             rinv(F, denom))
    if not v.num:
        return None
    f1, h = (a, b), (u_h, v)
    phiT = sadd(F, smul(F, f1, h), (_const(c1),))
    P = sadd(F, smul(F, h, f1), (e,))
    g1 = (u, Rat((1,)))
    g2, rem = sright_divmod(F, P, g1)
    if rem:
        return None
    tgtT = sadd(F, smul(F, g1, g2), (_const(c2),))
    chi = smul(F, g1, h)
    if len(phiT) != 3 or len(tgtT) != 3 or not chi[0].num:
        return None
    primes = [_lin(c1), _lin(c2)]
    return Point("two-prime", phiT, tgtT, chi, pmul(F, *primes), primes)


def _non_cm(point):
    return j_of(F, point.phiT).den != (1,)


def _document(point, prime):
    return {
        "field": {"p": 3},
        "modules": {"phi": refalg.skew_text(point.phiT),
                    "psi": refalg.skew_text(point.psiT)},
        "isogenies": {"mu": {"source": "phi", "target": "psi",
                             "mu": refalg.skew_text(point.mu)}},
        "params": {"isogeny": "mu", "source": "phi", "target": "psi",
                   "bound": len(point.mu) - 1,
                   "prime": f"({refalg.poly_text(prime)})"},
    }


def setup(name, seed, workdir):
    rng = random.Random(f"{name}:{seed}")
    points = []
    for make, count in ((rotation_point, ROTATIONS), (two_prime_point, TWO_PRIME)):
        made = 0
        while made < count:
            point = make(rng)
            if point is None or not _non_cm(point):
                continue
            points.append(point)
            made += 1
    rng.shuffle(points)
    for i, point in enumerate(points):
        for k, prime in enumerate(point.primes):
            path = os.path.join(workdir, f"point{i}-{k}.json")
            with open(path, "w") as handle:
                json.dump(_document(point, prime), handle)
            point.docs.append(path)
    return points


def _cli(command, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--in", path])
    return code, out.getvalue()


def run(point):
    first = point.docs[0]
    outputs = {"degree": _cli("degree", first), "dual": _cli("dual", first)}
    for k, path in enumerate(point.docs):
        outputs[f"project{k}"] = _cli("project", path)
    outputs["star-orbit"] = _cli("star-orbit", first)
    outputs["find"] = _cli("find", first)
    return outputs


def _parse_json(outputs, key):
    code, text = outputs[key]
    if code != 0:
        raise ValueError(f"{key} exited with code {code}")
    return json.loads(text)


def check(point, outputs):
    """None when every command's output is right, else the first reason."""
    try:
        return _check(point, outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{point.kind}: {type(exc).__name__}: {exc}"


def _check(point, outputs):
    tag = point.kind
    if not isinstance(outputs, dict):
        return f"{tag}: no outputs: {outputs!r}"
    deg = _parse_json(outputs, "degree")
    if parse_ideal(F, deg["degree"]) != point.level or deg["cyclic"] is not True:
        return f"{tag}: degree {deg['degree']} cyclic {deg['cyclic']}"

    dual = _parse_json(outputs, "dual")
    eta = parse_skew(F, dual["mu"])
    if parse_ideal(F, dual["degree"]) != point.level:
        return f"{tag}: dual degree {dual['degree']}"
    if parse_skew(F, dual["source"]) != point.psiT \
            or parse_skew(F, dual["target"]) != point.phiT:
        return f"{tag}: dual is not psi -> phi"
    if smul(F, eta, point.mu) != sphi_a(F, point.phiT, point.level):
        return f"{tag}: dual * mu != phi_(a_n)"

    for k, prime in enumerate(point.primes):
        proj = _parse_json(outputs, f"project{k}")
        if parse_ideal(F, proj["p_part"]["degree"]) != prime:
            return f"{tag}: p-part degree {proj['p_part']['degree']}"

    star = _parse_json(outputs, "star-orbit")
    if len(star["points"]) != 2 ** len(point.primes):
        return f"{tag}: {len(star['points'])} star-orbit points"
    w_n = [p for p in star["points"] if parse_ideal(F, p["w"]) == point.level]
    if len(w_n) != 1:
        return f"{tag}: no single w_n translate"
    iso = w_n[0]["point"]["iso"]
    pair = (j_of(F, parse_skew(F, iso["source"])),
            j_of(F, parse_skew(F, iso["target"])))
    if pair != (j_of(F, point.psiT), j_of(F, point.phiT)):
        return f"{tag}: w_n translate does not carry (j(psi), j(phi))"

    found = _parse_json(outputs, "find")
    planted = False
    for entry in found["isogenies"]:
        u = parse_skew(F, entry["mu"])
        if smul(F, u, point.phiT) != smul(F, point.psiT, u):
            return f"{tag}: find returned a non-intertwiner"
        planted = planted or any(u == sscale(F, _const(c), point.mu)
                                 for c in range(1, F.q))
    if not planted:
        return f"{tag}: find misses the planted mu"
    return None

