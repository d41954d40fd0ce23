"""The flat parser of `dforge.textform` against the recursive-descent parser
it replaced (`textform_reference`): the same SkewPoly on every text the
generators write, and the same ParseError, message and position, on
seeded mutations of those texts.  Inputs are ASCII; non-ASCII characters,
the one intended difference, are covered in test_cli.py."""
import random
import re

import pytest

from dforge.errors import ParseError
from dforge.randgen import random_skew, rotation_pair, two_prime_point
from dforge.textform import parse_skew, skew_to_text

import textform_reference as reference
from helpers import quadratic_field, rational_field

F9 = (1, 0, 1)  # F_9 = F_3[y]/(y^2 + 1)
FIELDS = {
    "Q3": rational_field(3),
    "K3": quadratic_field(3),
    "F9T": rational_field(3, F9),
    "K9": quadratic_field(3, F9),  # F_9 coordinates nested in K coordinates
    "K5": quadratic_field(5),
}

# grammar the generators do not write: unary minus, powers of sums, twists
# of scalars by t, quotients by non-units, and products, powers, twists and
# inverses of elements of K outside Q
FORMS = [
    "-T*t + 2",
    "-(1 + T)^3 + T^0 - 0^0",
    "(T + 1)^2 / (T^2 + 2) * t^2 * (T / (T + 1))",
    "t * T - T^3 * t",
    "(t + T)^3 / (1 + T)",
    "(t * (1 + T) + 2)^2 * t",
    "2 / (1 + T) - 1 / (T^2)",
    "[0, 1] * [0, 1] + [1, 1]^3 * t",
    "t^2 * [T, 1] - [1, (T + 1) / T] * t",
    "1 / [1, 1] + [T, 1 / (T + 1)] / [1, T] * t",
    "[(T^2 + 1) / (T + 2), [1, 1]] * t^2 + [[0, 1]*T, 2]",
    "[t - t, T*t - t*T]",
    "[[1, 2]*T, [0, 1]] + [1, ([2, 2]) / (T)]*t",
    "[[[0, 1]]] + [[3]]*t",
]


def _outcome(parse, text, field):
    try:
        return parse(text, field)
    except ParseError as exc:
        return str(exc)


def _fraction_text(a):
    """a over Q written as `((num) / (den))*t^k` terms, the shape of the
    documents of perfbench's `isogeny` workload."""
    terms = [f"(({c.coords[0].num!r}) / ({c.coords[0].den!r}))*t^{k}"
             for k, c in enumerate(a.coeffs) if not c.is_zero()]
    return " + ".join(terms) or "0"


def _generated_texts(name, count):
    field = FIELDS[name]
    rng = random.Random(f"textform:{name}")
    texts = []
    for k in range(count):
        a = random_skew(rng, field, 3, 2, poly_only=k % 2 == 0)
        texts.append(skew_to_text(a))
        if field.e == 1:
            texts.append(_fraction_text(a))
    return texts


def _point_texts():
    Q3, K3 = FIELDS["Q3"], FIELDS["K3"]
    rng = random.Random("textform:points")
    texts = []
    for field in (Q3, K3):
        phi, psi, fwd, back = rotation_pair(rng, field, shift=1)
        texts += [phi.phiT, psi.phiT, fwd, back]
    phi, mid, target, h, g1, chi, _, _ = two_prime_point(rng, Q3)
    texts += [phi.phiT, mid.phiT, target.phiT, h, g1, chi]
    out = [(skew_to_text(a), a.field) for a in texts]
    return out + [(_fraction_text(a), Q3) for a in texts if a.field is Q3]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_generated_texts_parse_as_the_reference_does(name):
    field = FIELDS[name]
    for text in _generated_texts(name, 8) + FORMS:
        want = _outcome(reference.parse_skew, text, field)
        assert _outcome(parse_skew, text, field) == want, text


def test_generated_texts_read_back_their_value():
    rng = random.Random("textform:roundtrip")
    for field in FIELDS.values():
        for k in range(6):
            a = random_skew(rng, field, 3, 2, poly_only=k % 2 == 0)
            assert parse_skew(skew_to_text(a), field) == a


def test_rotation_and_two_prime_texts_parse_as_the_reference_does():
    for text, field in _point_texts():
        got = parse_skew(text, field)
        assert got == reference.parse_skew(text, field), text


_TOKEN = re.compile(r"[0-9]+|\S")
# a division by zero, a division by tau, and a ^ that _mutate puts before
# a token that is not an integer
_INSERTS = [["/", "(", "0", ")"], ["/", "t"], ["^"]]
_SPACES = " \t\n\v\f\r\x1c\x1f"


def _mutate(rng, tokens):
    """One seeded edit of a token list: a token deleted, duplicated or
    swapped with its neighbour, an insertion from _INSERTS, or ASCII
    whitespace."""
    toks = list(tokens)
    i = rng.randrange(len(toks))
    kind = rng.randrange(6)
    if kind == 0:
        del toks[i]
    elif kind == 1:
        toks.insert(i, toks[i])
    elif kind == 2 and i + 1 < len(toks):
        toks[i], toks[i + 1] = toks[i + 1], toks[i]
    elif kind == 5:
        toks[i] = rng.choice(_SPACES) + toks[i]
    else:
        insert = rng.choice(_INSERTS)
        if insert == ["^"] and i < len(toks) and toks[i].isdigit():
            i += 1
        toks[i:i] = insert
    return " ".join(toks)


def test_mutated_texts_fail_as_the_reference_does():
    rng = random.Random(0xD4)
    cases = [(t, FIELDS[n]) for n in sorted(FIELDS)
             for t in _generated_texts(n, 4)]
    cases += [(t, FIELDS["K3"]) for t in FORMS] + _point_texts()
    errors = 0
    for text, field in cases:
        tokens = _TOKEN.findall(text)
        for _ in range(8):
            mutated = _mutate(rng, tokens)
            want = _outcome(reference.parse_skew, mutated, field)
            assert _outcome(parse_skew, mutated, field) == want, mutated
            errors += isinstance(want, str)
    assert errors >= 200
