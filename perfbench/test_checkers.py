"""Each checker of the benchmark passes the program's answer and rejects a
planted wrong one.

    python3 -m pytest perfbench/test_checkers.py
"""
import copy
import dataclasses
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import refalg  # noqa: E402
import spans  # noqa: E402
import wl_certify  # noqa: E402
import wl_isogeny  # noqa: E402
import wl_orbits  # noqa: E402
from dforge.drinfeld import NonCMCertificate  # noqa: E402
from dforge.errors import CMSuspected  # noqa: E402
from dforge.skew import SkewPoly  # noqa: E402
from dforge.trees import Center  # noqa: E402


def _first(cases, group):
    return next(c for c in cases if c.group == group)


def test_certify_checker_rejects_refusal_of_non_integral_j():
    case = _first(wl_certify.setup("certify", 1), "K5")
    assert not case.j_integral and case.planted_cm is None
    assert wl_certify.check(case, wl_certify.run(case)) is None
    assert wl_certify.check(case, CMSuspected("planted refusal")) is not None


def _planted_certificate(case):
    module = wl_certify.TOWERS[case.group].module(case.g, case.delta)
    return NonCMCertificate(module, case.bound, case.bound // 2 + 1)


def test_cm_checker_rejects_certificate_for_g_zero():
    case = _first(wl_certify.setup("cm", 1), "K5")
    assert case.planted_cm == "g = 0" and not any(case.g)
    assert wl_certify.check(case, wl_certify.run(case)) is None
    assert wl_certify.check(case, _planted_certificate(case)) is not None


def test_cm_checker_rejects_certificate_for_cm_by_integers():
    case = _first(wl_certify.setup("cm", 1), "K5cm")
    assert case.planted_cm is not None and case.j_integral
    assert wl_certify.check(case, wl_certify.run(case)) is None
    assert wl_certify.check(case, _planted_certificate(case)) is not None


def test_cm_module_is_the_square_of_its_endomorphism():
    # the reference phi_T = u^2 - 1 equals the program's product, u = x + a tau
    tower = wl_certify.Tower(5, None, True)
    K = tower.K
    a = ((2, 3), (1, 4))
    g, delta = refalg.cm_module(tower.ref, tower.D, a)
    u = SkewPoly(K, (tower.element(((), (1,))), tower.element(a)))
    one = SkewPoly(K, (tower.element(((1,), ())),))
    assert tower.module(g, delta).phiT == u * u - one
    assert refalg.j_is_integral(tower.ref, tower.D, g, delta)


def test_j_integrality_screen():
    F = refalg.Fq(3)
    # j = (T + 1)^4 / (T + 1) lies in A; j = 1 / T does not
    assert refalg.j_is_integral(F, None, ((1, 1),), ((1, 1),))
    assert not refalg.j_is_integral(F, None, ((1,),), ((0, 1),))
    F5 = refalg.Fq(5)
    D = (1, 1)
    # g = x = sqrt(D), Delta = 1: j = x^6 = D^3 is integral
    assert refalg.j_is_integral(F5, D, ((), (1,)), ((1,), ()))
    # Delta = T has norm T^2, which does not divide the norm D^6 of g^6
    assert not refalg.j_is_integral(F5, D, ((), (1,)), ((0, 1), ()))


def _isogeny_point(tmp_path, make):
    rng = random.Random(7)
    point = None
    while point is None or not wl_isogeny._non_cm(point):
        point = make(rng)
    for k, prime in enumerate(point.primes):
        path = tmp_path / f"point-{k}.json"
        path.write_text(json.dumps(wl_isogeny._document(point, prime)))
        point.docs.append(str(path))
    outputs = wl_isogeny.run(point)
    assert wl_isogeny.check(point, outputs) is None
    return point, outputs


def _tamper(outputs, key, edit):
    out = copy.deepcopy(outputs)
    code, text = out[key]
    doc = json.loads(text)
    edit(doc)
    out[key] = (code, json.dumps(doc))
    return out


def test_isogeny_checker_rejects_wrong_degree_text(tmp_path):
    point, outputs = _isogeny_point(tmp_path, wl_isogeny.rotation_point)
    wrong = refalg.pmul(wl_isogeny.F, point.level, (1, 1))
    bad = _tamper(outputs, "degree",
                  lambda d: d.update(degree=f"({refalg.poly_text(wrong)})"))
    assert wl_isogeny.check(point, bad) is not None
    bad = _tamper(outputs, "degree", lambda d: d.update(cyclic=False))
    assert wl_isogeny.check(point, bad) is not None


def test_isogeny_checker_rejects_find_without_planted_mu(tmp_path):
    point, outputs = _isogeny_point(tmp_path, wl_isogeny.two_prime_point)
    F = wl_isogeny.F

    def drop_planted(doc):
        doc["isogenies"] = [
            e for e in doc["isogenies"]
            if not any(refalg.parse_skew(F, e["mu"])
                       == refalg.sscale(F, refalg.rconst(c), point.mu)
                       for c in range(1, F.q))]
        doc["count"] = len(doc["isogenies"])

    assert wl_isogeny.check(point, _tamper(outputs, "find", drop_planted)) is not None


def test_isogeny_checker_rejects_a_failed_command(tmp_path):
    point, outputs = _isogeny_point(tmp_path, wl_isogeny.rotation_point)
    bad = dict(outputs, dual=(1, ""))
    assert wl_isogeny.check(point, bad) is not None


def _orbit_outcome():
    orbits = wl_orbits.setup("orbits", 3)
    orbit = next(o for o in orbits if len(o.generators) == 2 and o.n != (1,))
    outcome = wl_orbits.run(orbit)
    assert wl_orbits.check(orbit, outcome) is None
    return orbit, outcome


def test_orbits_checker_rejects_wrong_center():
    orbit, (result, report) = _orbit_outcome()
    p, center = next(iter(result.centers.items()))
    tree = result.trees[p]
    wrong = next(v for v in range(tree.n_vertices) if v not in center.vertices)
    centers = dict(result.centers)
    centers[p] = Center("vertex", (wrong,))
    bad = dataclasses.replace(result, centers=centers)
    assert wl_orbits.check(orbit, (bad, report)) is not None


def test_orbits_checker_rejects_wrong_m_map():
    orbit, (result, report) = _orbit_outcome()
    m = dict(result.m_generators)
    m["s"], m["t"] = m["t"], m["s"]
    if m == result.m_generators:
        m["s"] = result.n.quotient(result.n)      # the unit ideal
    bad = dataclasses.replace(result, m_generators=m)
    assert wl_orbits.check(orbit, (bad, report)) is not None


def test_traced_metrics_match_the_benchmark_file():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    reported = {name: unit for name, (_, unit) in spans.Tracer().metrics().items()}
    assert reported == declared
