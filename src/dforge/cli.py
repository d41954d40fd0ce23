"""Batch command-line front end.

One self-describing JSON job document declares the field tower, the
objects (modules, isogenies, orbits), and parameters; each subcommand runs
one library operation and prints a result JSON on stdout.  Exit codes:
0 success, 1 parse/schema error, 2 domain error, 3 internal error (a
KeyError, TypeError or ValueError raised by the computation).
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .errors import AlgebraError, EvenCharacteristic, ParseError
from .extfield import ExtField, GaloisDatum
from .fields import Fq, split_prime_power
from .drinfeld import CertificateCache, conjugate_module, j_invariant, make_module
from .ideals import IdealA
from .isogeny import (
    degree,
    dual,
    find_isogenies,
    project_p,
    verify_isogeny,
)
from .moduli import ModuliPoint, star_orbit
from .skew import SkewPoly, scalar_ratio
from .textform import (
    ext_to_text,
    ideal_to_text,
    parse_ext,
    parse_ideal,
    parse_rat,
    parse_skew,
    skew_to_text,
)
from .trees import (
    OrbitDatum,
    OrbitGroup,
    classify,
    minimality_check,
    orbit_from_isogenies,
    validate_orbit,
)


@contextmanager
def _reading():
    """Report a KeyError, TypeError or ValueError raised while reading the
    document as the parse error it is."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed document ({exc})") from exc


def _section(doc, key):
    value = doc.get(key) or {}
    if not isinstance(value, dict):
        raise ParseError(f"{key} must be a JSON object")
    return value


class JobContext:
    """Field tower, declared objects, and helpers built from a document."""

    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise ParseError("job document must be a JSON object")
        fspec = doc.get("field")
        if not isinstance(fspec, dict) or "p" not in fspec:
            raise ParseError("field specification with p is required")
        self.params = _section(doc, "params")
        self.objects = {"module": {}, "isogeny": {}, "orbit": {}}
        with _reading():
            self.fq = Fq(int(fspec["p"]), fspec.get("fq_modulus"))
            minpoly = fspec.get("ext_minpoly")
            if minpoly is not None:
                coeffs = [self._rat(c) for c in minpoly]
                self.field = ExtField(self.fq, coeffs)
            else:
                self.field = ExtField(self.fq)
            gens = []
            for g in fspec.get("galois", []) or []:
                image = self._ext(g["image"])
                gens.append((g["name"], int(g["order"]), image))
            self.galois = GaloisDatum(self.field, gens)
            for name, text in _section(doc, "modules").items():
                self.objects["module"][name] = make_module(
                    parse_skew(text, self.field))
        self.certs = CertificateCache()
        for name, spec in _section(doc, "isogenies").items():
            with _reading():
                src = self.named("module", spec["source"])
                tgt = self.named("module", spec["target"])
                mu = parse_skew(spec["mu"], self.field)
            cert = self.certs(src, max(mu.deg, 0))
            self.objects["isogeny"][name] = verify_isogeny(src, tgt, mu, cert)
        for name, spec in _section(doc, "orbits").items():
            self.objects["orbit"][name] = self._orbit(spec)

    def _rat(self, text):
        return parse_rat(text, self.fq)

    def _ext(self, spec):
        if isinstance(spec, list):
            return self.field.elem([self._rat(c) for c in spec])
        return parse_ext(spec, self.field)

    def named(self, kind, name):
        """The declared object of a kind ("module", "isogeny" or "orbit")."""
        table = self.objects[kind]
        if not isinstance(name, str) or name not in table:
            raise ParseError(f"unknown {kind} {name!r}")
        return table[name]

    def param(self, kind):
        """The object that params.<kind> names, or the only one declared."""
        name = self.params.get(kind)
        if name is None:
            table = self.objects[kind]
            if len(table) == 1:
                return next(iter(table.values()))
            raise ParseError(f"params.{kind} is required")
        return self.named(kind, name)

    def _orbit(self, spec):
        with _reading():
            labels = tuple(spec["labels"])
            gens = [
                (g["name"], int(g["order"]), tuple(g["permutation"]))
                for g in spec.get("generators", [])
            ]
            metrics = {}
            for ptext, mat in (spec.get("metrics") or {}).items():
                p = parse_ideal(ptext, self.fq)
                metrics[p] = tuple(tuple(int(x) for x in row) for row in mat)
            isogenies = {}
            for key, iso_name in (spec.get("isogenies") or {}).items():
                i, j = (int(x) for x in key.split(","))
                isogenies[(i, j)] = self.named("isogeny", iso_name)
            modules = tuple(self.named("module", m)
                            for m in spec.get("modules", []))
            datum = OrbitDatum(
                labels=labels,
                group=OrbitGroup(gens),
                metrics=metrics,
                isogenies=isogenies,
                modules=modules,
            )
        return validate_orbit(datum)


def _iso_json(iso):
    deg, n1, n2 = iso.degree_parts()
    return {
        "source": skew_to_text(iso.source.phiT),
        "target": skew_to_text(iso.target.phiT),
        "mu": skew_to_text(iso.mu),
        "degree": ideal_to_text(deg),
        "n1": ideal_to_text(n1),
        "n2": ideal_to_text(n2),
        "certificate-bound": iso.certificate.bound,
    }


def cmd_verify(ctx):
    iso = ctx.param("isogeny")
    return _iso_json(iso)


def cmd_degree(ctx):
    iso = ctx.param("isogeny")
    deg, n1, n2 = degree(iso)
    return {
        "degree": ideal_to_text(deg),
        "n1": ideal_to_text(n1),
        "n2": ideal_to_text(n2),
        "cyclic": n2.is_unit(),
    }


def cmd_dual(ctx):
    return _iso_json(dual(ctx.param("isogeny"), ctx.certs))


def cmd_j(ctx):
    mod = ctx.param("module")
    return {"j": ext_to_text(j_invariant(mod).value)}


def cmd_find(ctx):
    src = ctx.named("module",
                    ctx.params.get("source") or ctx.params.get("module"))
    tgt = ctx.named("module", ctx.params.get("target"))
    with _reading():
        bound = int(ctx.params.get("bound", 1))
        cands = ctx.params.get("candidates")
        candidates = None
        if cands is not None:
            candidates = [ctx._ext(c) for c in cands]
    if bound < 0:
        raise ParseError("params.bound must be nonnegative")
    isos = find_isogenies(src, tgt, bound, candidates=candidates,
                          certificate_factory=ctx.certs)
    return {
        "count": len(isos),
        "complete": candidates is None,
        "isogenies": [_iso_json(i) for i in isos],
    }


def cmd_project(ctx):
    iso = ctx.param("isogeny")
    with _reading():
        p = parse_ideal(ctx.params["prime"], ctx.fq)
    if not p.is_prime():
        raise ParseError(f"params.prime {p!r} is not a prime ideal")
    mid, p_part, coprime = project_p(iso, p, certificate_factory=ctx.certs)
    return {
        "pi_p_target": skew_to_text(mid.phiT),
        "p_part": _iso_json(p_part),
        "coprime_part": _iso_json(coprime),
    }


def cmd_classify(ctx):
    datum = ctx.param("orbit")
    result = classify(datum, fq=ctx.fq)
    report = minimality_check(datum, result)
    return {
        "n": ideal_to_text(result.n),
        "centers": {
            ideal_to_text(p): {"kind": c.kind, "vertices": list(c.vertices)}
            for p, c in result.centers.items()
        },
        "m": {name: ideal_to_text(v)
              for name, v in result.m_generators.items()},
        "minimality": {ideal_to_text(p): rep["ok"] for p, rep in report.items()},
    }


def cmd_star_orbit(ctx):
    iso = ctx.param("isogeny")
    point = ModuliPoint(iso).validate()
    galois = ctx.galois if ctx.galois.generators else None
    orbit = star_orbit(point, ctx.certs, galois=galois)
    return {
        "points": [
            {"w": ideal_to_text(w.m),
             "point": {"n": ideal_to_text(pt.level), "iso": _iso_json(pt.iso)}}
            for w, pt in orbit.translates
        ],
        "m_map": {k: ideal_to_text(v) for k, v in orbit.m_map.items()},
        "D_x": [ideal_to_text(m) for m in sorted(
            (w.m for w in orbit.decomposition), key=ideal_to_text)],
        "cm_suspected": orbit.cm_suspected,
    }


def cmd_example35(q):
    """Build the worked example over F_q, run every check, and classify."""
    try:
        p, _ = split_prime_power(q)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if p == 2:
        raise EvenCharacteristic("the example requires odd characteristic")
    fq = Fq.of_order(q)
    Tp1 = fq.rat(fq.poly([1, 1]))
    K = ExtField(fq, [-Tp1, fq.rat_zero, fq.rat_one])
    alpha = K.gen()
    one = K.one
    mu = SkewPoly(K, (alpha + one, -one))
    eta = SkewPoly(K, (alpha - one, one))
    phi = make_module(mu * eta)
    galois = GaloisDatum(K, [("s", 2, -alpha)])
    s = galois.generator_element("s")
    sphi = conjugate_module(galois, s, phi)
    certs = CertificateCache()
    iso_mu = verify_isogeny(sphi, phi, mu, certs(sphi, 2))
    iso_eta = verify_isogeny(phi, sphi, eta, certs(phi, 2))
    checks = []

    def check(name, fn):
        checks.append((name, fn))

    check("mu intertwines s(phi) -> phi",
          lambda: mu * sphi.phiT == phi.phiT * mu)
    check("s(phi_T) equals eta*mu",
          lambda: sphi.phiT == eta * mu)

    def j_check():
        jv = j_invariant(phi).value
        two = K.from_poly(fq.poly([2]))
        expect = -((two + alpha - alpha.frob()) ** (fq.q + 1))
        return jv == expect and not jv.in_base()

    check("j = -(2+a-a^q)^(q+1), not in Q", j_check)

    T_ideal = IdealA(fq.poly([0, 1]))

    def degree_check():
        dmu = iso_mu.degree_ideal()
        deta = iso_eta.degree_ideal()
        return dmu == T_ideal and deta == T_ideal

    check("deg mu = deg eta = (T)", degree_check)

    def dual_check():
        c = scalar_ratio(eta, dual(iso_mu, certs).mu)
        return c is not None and c.is_fq_constant()

    check("dual(mu) = eta up to F_q^x", dual_check)

    def classify_check():
        datum = orbit_from_isogenies([phi, sphi],
                                     {(1, 0): iso_mu, (0, 1): iso_eta},
                                     galois)
        result = classify(datum)
        rep = minimality_check(datum, result)
        ok = result.n == T_ideal
        ok = ok and result.m_generators["s"] == T_ideal
        ok = ok and all(v["ok"] for v in rep.values())
        return ok

    check("classification: n = (T), m_s = (T)", classify_check)

    outcomes = [bool(fn()) for _, fn in checks]
    return {
        "q": q,
        "checks": [{"name": name, "pass": ok}
                   for (name, _), ok in zip(checks, outcomes)],
        "n": ideal_to_text(T_ideal),
        "m": {"s": ideal_to_text(T_ideal)},
        "all_pass": all(outcomes),
    }


_COMMANDS = {
    "verify": cmd_verify,
    "degree": cmd_degree,
    "dual": cmd_dual,
    "j": cmd_j,
    "find": cmd_find,
    "project": cmd_project,
    "classify": cmd_classify,
    "star-orbit": cmd_star_orbit,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are parse errors (exit 1), not domain errors."""

    def error(self, message):
        raise ParseError(message)


_PARSER = _Parser(
    prog="dforge",
    description="Exact isogeny algebra for rank-two Drinfeld modules",
)
_PARSER.add_argument("command",
                     choices=sorted(_COMMANDS) + ["example35"],
                     help="operation to run")
_PARSER.add_argument("--in", dest="infile", help="job document (JSON)")
_PARSER.add_argument("--q", type=int, default=3,
                     help="field size for the example35 command")


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "example35":
            result = cmd_example35(args.q)
        else:
            if not args.infile:
                raise ParseError("--in is required for this command")
            try:
                with open(args.infile) as handle:
                    doc = json.load(handle)
            except OSError as exc:
                raise ParseError(f"cannot read job document: {exc}")
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc}")
            ctx = JobContext(doc)
            result = _COMMANDS[args.command](ctx)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except AlgebraError as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, MemoryError, RuntimeError, TypeError, ValueError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
