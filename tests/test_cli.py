"""CLI front end: documents, outputs, exit codes, the worked example."""
import json
import os
import random
import subprocess
import sys

import pytest

from dforge import cli, drinfeld, ideals
from dforge.cli import cmd_example35, main
from dforge.fields import Fq
from dforge.extfield import ExtField
from dforge.ideals import IdealA
from dforge.randgen import random_fq_poly, rotation_pair
from dforge.skew import SkewPoly
from dforge.textform import (
    ideal_to_text,
    parse_ext,
    parse_ideal,
    parse_rat,
    parse_skew,
    skew_to_text,
)
from dforge.errors import EvenCharacteristic, ParseError

from helpers import deadline, get_fq, quadratic_field, rational_field

F3 = get_fq(3)
K3 = quadratic_field(3)


def example_doc():
    alpha = K3.gen()
    one = K3.one
    mu = SkewPoly(K3, (alpha + one, -one))
    eta = SkewPoly(K3, (alpha - one, one))
    phiT = mu * eta
    sphiT = eta * mu
    return {
        "field": {
            "p": 3,
            "fq_modulus": None,
            "ext_minpoly": ["2 + 2*T", "0", "1"],
            "galois": [{"name": "s", "order": 2, "image": ["0", "2"]}],
        },
        "modules": {"phi": skew_to_text(phiT), "sphi": skew_to_text(sphiT)},
        "isogenies": {
            "mu": {"source": "sphi", "target": "phi",
                   "mu": skew_to_text(mu)},
        },
        "params": {"isogeny": "mu"},
    }


def run_cli(args, doc=None, tmp_path=None, env=None):
    argv = list(args)
    if doc is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        argv += ["--in", str(path)]
    proc = subprocess.run(
        [sys.executable, "-m", "dforge.cli"] + argv,
        capture_output=True, text=True,
        env=None if env is None else {**os.environ, **env},
    )
    return proc


def test_parse_serialize_roundtrip_fixtures():
    f9 = (1, 0, 1)  # F_9 = F_3[y]/(y^2 + 1); `[i0,i1]` is i0 + i1*y
    fixtures = [
        ("T + 2*t + t^2", K3),
        ("1 + 2*T + T^2", K3),
        ("(T) / (1 + T)", K3),
        ("[1, 2] + [2, 0]*t", K3),
        ("[(T), ((1 + T) / (T))] + t^3", K3),
        ("[1,2]*T + [0,1]*t", rational_field(3, f9)),
        ("[[1,2]*T, [0,1]] + [1, ([2,2])/(T)]*t", quadratic_field(3, f9)),
    ]
    for text, field in fixtures:
        val = parse_skew(text, field)
        assert parse_skew(skew_to_text(val), field) == val
        assert parse_skew(repr(val), field) == val


def test_parse_position_errors():
    with pytest.raises(ParseError) as err:
        parse_skew("T + + t", K3)
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_rat("T + x", F3)
    with pytest.raises(ParseError):
        parse_ext("t", K3)
    # tokens are ASCII: a superscript or Arabic-Indic digit is neither an
    # exponent nor the digit it stands for
    for text, pos in (("T^\u00b2", 2), ("T^\u0661", 2),
                      ("1 + T^\u00b2*t", 6)):
        with pytest.raises(ParseError) as err:
            parse_skew(text, K3)
        assert str(err.value) == (f"unexpected character {text[pos]!r} "
                                  f"(at position {pos})")


def test_parse_ideal_text():
    n = parse_ideal("(T^2 + 2*T)", F3)
    assert repr(n) == "(2*T + T^2)"
    # parentheses are grammar, not a wrapper: a product of ideals parses
    Tp = IdealA(F3.poly([0, 1, 1]))
    for text in ("(T)*(T+1)", "(T + 1)*(T)", "((T+1)*(T))"):
        assert parse_ideal(text, F3) == Tp, text


@pytest.mark.parametrize("fq", [F3, get_fq(3, (1, 0, 1)), get_fq(5)],
                         ids=["q3", "q9", "q5"])
def test_parse_ideal_reads_every_ideal_to_text(fq):
    rng = random.Random(fq.q)
    for degree in range(6):
        for _ in range(6):
            n = IdealA(random_fq_poly(rng, fq, degree, nonzero=True))
            assert parse_ideal(ideal_to_text(n), fq) == n


def test_cli_degree_and_dual(tmp_path):
    doc = example_doc()
    out = run_cli(["degree"], doc, tmp_path)
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert data["degree"] == "(T)"
    assert data["cyclic"] is True
    out = run_cli(["dual"], doc, tmp_path)
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["degree"] == "(T)"


def test_cli_j(tmp_path):
    doc = example_doc()
    doc["params"] = {"module": "phi"}
    out = run_cli(["j"], doc, tmp_path)
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert isinstance(data["j"], list) and len(data["j"]) == 2
    assert data["j"][1] != "0"  # alpha-component nonzero: j not in Q


def test_cli_outputs_are_byte_identical(tmp_path):
    doc = example_doc()
    a = run_cli(["verify"], doc, tmp_path)
    b = run_cli(["verify"], doc, tmp_path)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_classify_orbit(tmp_path):
    doc = example_doc()
    doc["isogenies"]["eta"] = {
        "source": "phi", "target": "sphi",
        "mu": skew_to_text(SkewPoly(K3, (K3.gen() - K3.one, K3.one))),
    }
    doc["orbits"] = {
        "orb": {
            "labels": [0, 1],
            "generators": [{"name": "s", "order": 2, "permutation": [1, 0]}],
            "metrics": {"(T)": [[0, 1], [1, 0]]},
            "isogenies": {"1,0": "mu", "0,1": "eta"},
            "modules": ["phi", "sphi"],
        }
    }
    doc["params"] = {"orbit": "orb"}
    out = run_cli(["classify"], doc, tmp_path)
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert data["n"] == "(T)"
    assert data["m"]["s"] == "(T)"
    assert all(data["minimality"].values())


def test_cli_refuses_a_document_with_a_non_tree_orbit(tmp_path):
    # every command reads the orbits, and a metric that breaks a triangle
    # inequality is refused there
    doc = example_doc()
    doc["orbits"] = {
        "orb": {"labels": [0, 1, 2],
                "metrics": {"(T)": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}}
    }
    out = run_cli(["degree"], doc, tmp_path)
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("domain error: NotTreeMetric")


def test_cli_star_orbit(tmp_path):
    doc = example_doc()
    out = run_cli(["star-orbit"], doc, tmp_path)
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert data["m_map"]["s"] == "(T)"
    assert len(data["points"]) == 2


def test_cli_find_and_project(tmp_path):
    # find over Q: the conjugating scalar between twisted modules
    from dforge.extfield import ExtField
    from dforge.fields import Fq

    Q3 = ExtField(Fq(3))
    phiT = parse_skew("T + (1 + T)*t + 2*t^2", Q3)
    c = SkewPoly.from_scalar(Q3.from_poly(F3.poly([2, 1])))
    cinv = SkewPoly.from_scalar(Q3.from_poly(F3.poly([2, 1])).inverse())
    psiT = c * phiT * cinv
    doc = {
        "field": {"p": 3, "fq_modulus": None, "ext_minpoly": None,
                  "galois": []},
        "modules": {
            "phi": skew_to_text(phiT),
            "psi": skew_to_text(psiT),
        },
        "params": {"source": "phi", "target": "psi", "bound": 0},
    }
    out = run_cli(["find"], doc, tmp_path)
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert data["complete"] is True and data["count"] >= 1
    # project the worked-example isogeny at (T) and at a coprime prime
    doc2 = example_doc()
    doc2["params"] = {"isogeny": "mu", "prime": "(T)"}
    out = run_cli(["project"], doc2, tmp_path)
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert data["coprime_part"]["degree"] == "(1)"
    doc2["params"] = {"isogeny": "mu", "prime": "(1 + T)"}
    out = run_cli(["project"], doc2, tmp_path)
    data = json.loads(out.stdout)
    assert data["p_part"]["degree"] == "(1)"


def test_cli_project_refuses_a_non_prime(tmp_path, capsys):
    # the unit ideal and a prime power are not primes; v_(1) has no end
    doc = example_doc()
    path = tmp_path / "job.json"
    for prime in ("(1)", "2", "(T^2)"):
        doc["params"] = {"isogeny": "mu", "prime": prime}
        path.write_text(json.dumps(doc))
        assert main(["project", "--in", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "parse error:" in out.err and "not a prime ideal" in out.err


def test_cli_project_tests_the_prime_once(tmp_path, monkeypatch, capsys):
    # the command's refusal and project_p's share one Rabin test
    calls = []
    test = ideals.is_irreducible
    monkeypatch.setattr(ideals, "is_irreducible",
                        lambda f: calls.append(f) or test(f))
    doc = example_doc()
    doc["params"] = {"isogeny": "mu", "prime": "(T)"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main(["project", "--in", str(path)]) == 0
    capsys.readouterr()
    assert [repr(f) for f in calls] == ["T"]


def test_cli_parse_error_exit_code(tmp_path):
    doc = example_doc()
    doc["modules"]["phi"] = "T + * t"
    out = run_cli(["verify"], doc, tmp_path)
    assert out.returncode == 1
    assert "position" in out.stderr


def test_cli_reducible_fq_modulus_is_parse_error(tmp_path, capsys):
    # x^2 - 1 = (x - 1)(x + 1) over F_3
    doc = {"field": {"p": 3, "fq_modulus": [2, 0, 1]},
           "modules": {"phi": "T + [1,1]*t + t^2"}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main(["j", "--in", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "parse error:" in out.err and "modulus is reducible" in out.err


def test_cli_reducible_ext_minpoly_over_f9_is_parse_error(tmp_path, capsys):
    # x^2 + T^2 = (x - yT)(x + yT) over F_9 = F_3[y]/(y^2 + 1)
    doc = {"field": {"p": 3, "fq_modulus": [1, 0, 1],
                     "ext_minpoly": ["T^2", "0", "1"]},
           "modules": {"phi": "T + t + t^2"}, "params": {"module": "phi"}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main(["j", "--in", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "parse error:" in out.err and "not irreducible" in out.err


def test_cli_usage_errors_are_parse_errors():
    for args in (["bogus"], ["verify", "--nope"], ["verify", "--seed", "5"]):
        out = run_cli(args)
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("parse error: "), out.stderr
    out = run_cli(["--help"])
    assert out.returncode == 0 and "usage: dforge" in out.stdout


def test_cli_domain_error_exit_code(tmp_path):
    doc = example_doc()
    # not an isogeny: scalar 1 between distinct modules
    doc["isogenies"]["mu"]["mu"] = "1"
    out = run_cli(["verify"], doc, tmp_path)
    assert out.returncode == 2
    assert "NotIntertwining" in out.stderr


def rational_doc():
    return {
        "field": {"p": 3},
        "modules": {"phi": "T + t + t^2", "psi": "T + 2*t + t^2"},
        "params": {"source": "phi", "target": "psi", "bound": 1},
    }


def test_cli_negative_bounds_are_parse_errors(tmp_path):
    doc = rational_doc()
    out = run_cli(["find"], doc, tmp_path)
    assert out.returncode == 0, out.stderr
    doc["params"]["bound"] = -1
    out = run_cli(["find"], doc, tmp_path)
    assert out.returncode == 1 and out.stdout == ""
    assert "params.bound must be nonnegative" in out.stderr
    # the option is gone: the usage error is a parse error too
    out = run_cli(["verify", "--certify-bound", "-1"], example_doc(), tmp_path)
    assert out.returncode == 1 and out.stdout == ""
    assert "unrecognized arguments: --certify-bound -1" in out.stderr


def isogenous_doc():
    """A pair over Q with an isogeny of tau-degree 1, searched at bound 1:
    its line of roots lies in the kernel of the tails modulo every prime."""
    phi, psi, mu, _ = rotation_pair(random.Random(1), rational_field(3))
    return {
        "field": {"p": 3},
        "modules": {"phi": skew_to_text(phi.phiT),
                    "psi": skew_to_text(psi.phiT)},
        "params": {"source": "phi", "target": "psi", "bound": mu.deg},
    }


def test_cli_budget_exceeded_is_domain_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(isogenous_doc()))
    assert main(["find", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] > 0
    monkeypatch.setattr(drinfeld, "ROOT_CANDIDATE_BUDGET", 0)
    assert main(["find", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "domain error: BudgetExceeded" in err


def _planted_value_error(module, bound):
    raise ValueError("planted")


def _planted_runtime_error(module, bound):
    raise RuntimeError("planted")


@pytest.mark.parametrize("case,code,message", [
    ("ok", 0, ""),
    ("isogeny without mu", 1, "parse error: malformed document ('mu')"),
    ("isogeny named by a list", 1, "parse error: unknown isogeny ['mu']"),
    ("params not an object", 1, "parse error: params must be a JSON object"),
    ("not an isogeny", 2, "domain error: NotIntertwining"),
    ("computation raises ValueError", 3, "internal error: ValueError: planted"),
    ("invariant check fails", 3, "internal error: RuntimeError: planted"),
])
def test_cli_exit_paths(tmp_path, monkeypatch, capsys, case, code, message):
    doc = example_doc()
    if case == "isogeny without mu":
        del doc["isogenies"]["mu"]["mu"]
    elif case == "isogeny named by a list":
        doc["params"]["isogeny"] = ["mu"]
    elif case == "params not an object":
        doc["params"] = ["isogeny", "mu"]
    elif case == "not an isogeny":
        doc["isogenies"]["mu"]["mu"] = "1"
    elif case == "computation raises ValueError":
        monkeypatch.setattr(drinfeld, "certify_non_cm", _planted_value_error)
    elif case == "invariant check fails":
        monkeypatch.setattr(drinfeld, "certify_non_cm", _planted_runtime_error)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path)]) == code
    out = capsys.readouterr()
    assert message in out.err
    assert (out.out != "") == (code == 0)


def test_cli_memory_error_is_internal_error(tmp_path, monkeypatch, capsys):
    # numpy's MemoryError is reported on one line with exit 3, not as a
    # traceback with Python's exit 1, the parse-error code
    def exhausted(ctx):
        raise MemoryError("planted")

    monkeypatch.setitem(cli._COMMANDS, "verify", exhausted)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(example_doc()))
    assert main(["verify", "--in", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["internal error: MemoryError: planted"]


@pytest.mark.parametrize("command,doc", [("degree", example_doc()),
                                         ("find", rational_doc())])
def test_cli_stdout_is_independent_of_hash_seed(tmp_path, command, doc):
    outs = [run_cli([command], doc, tmp_path, env={"PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    assert [o.returncode for o in outs] == [0, 0], outs[0].stderr
    assert outs[0].stdout == outs[1].stdout


def test_cmd_example35_in_process():
    # F_9 prints its elements as coordinate vectors: 1 is [1,0]
    for q, level in ((3, "(T)"), (5, "(T)"), (7, "(T)"), (9, "([1,0]*T)")):
        report = cmd_example35(q)
        assert report["all_pass"], report
        assert report["n"] == level
        assert report["m"]["s"] == level
    with pytest.raises(EvenCharacteristic):
        cmd_example35(4)


@pytest.mark.parametrize("q,code,message", [
    ("0", 1, "parse error: q = 0 is not a prime power"),
    ("1", 1, "parse error: q = 1 is not a prime power"),
    ("6", 1, "parse error: q = 6 is not a prime power"),
    ("65537", 1, "parse error: q = 65537 exceeds the table limit"),
    ("4294967291", 1, "parse error: q = 4294967291 exceeds the table limit"),
    ("2305843009213693951", 1,
     "parse error: q = 2305843009213693951 exceeds the table limit"),
    ("4", 2, "domain error: EvenCharacteristic"),
    ("65536", 2, "domain error: EvenCharacteristic"),
])
def test_example35_refuses_q_before_building_the_field(monkeypatch, capsys,
                                                        q, code, message):
    def no_field(cls, order):
        raise AssertionError(f"F_{order} was built for a refused q")

    monkeypatch.setattr(Fq, "of_order", classmethod(no_field))
    with deadline(1.0):
        assert main(["example35", "--q", q]) == code
    out = capsys.readouterr()
    assert message in out.err and out.out == ""


def test_huge_characteristic_in_a_document_is_a_parse_error(tmp_path, capsys):
    doc = example_doc()
    doc["field"]["p"] = 2305843009213693951
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    with deadline(1.0):
        assert main(["verify", "--in", str(path)]) == 1
    assert "too large for table-based arithmetic" in capsys.readouterr().err


def test_cli_example35_subprocess(tmp_path):
    out = run_cli(["example35", "--q", "3"])
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["all_pass"] is True
    out4 = run_cli(["example35", "--q", "4"])
    assert out4.returncode == 2
