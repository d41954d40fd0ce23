"""Text grammar for field and skew-polynomial elements.

Polynomials: `c0 + c1*T + c2*T^2`; F_q coefficients as bare integers (the
prime-field embedding) or `[i0,i1,...]` coordinate lists; rational
functions as `num / den`; extension elements as coordinate lists over the
power basis; skew polynomials use `t` for tau.  One parser covers all of
these with position-annotated errors.

Tokens are ASCII: one regex pass splits the text into digit runs, the
letters A-Z and a-z, and the ten punctuation marks; any other character
that is not ASCII whitespace is an error at its position.  The parser
evaluates a document into coordinates, not into field elements: a value is
a map from tau-degree to a scalar, and a scalar is one sparse numerator
over F_q per coordinate of K (exponent -> packed value) over one sparse
denominator, with no gcd taken.  Sums, products, quotients, powers and the
Frobenius twist c -> c^(q^i) that t^i applies are operations on these
maps; K's own multiplication and Frobenius (`ExtFieldElem`) run only where
both factors of a product, or a twisted scalar, lie outside Q.  Each
coefficient of the result is canonicalised once, by one `RatFunc.make` per
coordinate.
"""
from __future__ import annotations

import re

import numpy as np

from .errors import ParseError
from .extfield import ExtField, ExtFieldElem
from .fields import PolyA, RatFunc, cleared_numerators
from .ideals import IdealA
from .skew import SkewPoly

_TOKEN = re.compile(r"[0-9]+|[-+*/^()\[\],A-Za-z]")
# the first character that is neither a token nor ASCII whitespace (the
# characters for which str.isspace holds: \t..\r, \x1c..\x1f and space)
_BAD = re.compile(r"[^-+*/^()\[\],A-Za-z0-9\t-\r\x1c- ]")
# stands in the token list for the first bad character
_BAD_TOKEN = object()
# the polynomial 1 in sparse form; sparse maps are never mutated once built
_ONE = {0: 1}


def _in_q(c):
    """True when a scalar lies in Q: every coordinate above the first is 0."""
    return not any(c[2:])


def _show(tok):
    """A token as errors print it: a digit run as the integer it reads."""
    return repr(int(tok) if tok is not None and tok.isdigit() else tok)


class _Parser:
    """Parses an expression into a SkewPoly over the declared field.

    A scalar is the tuple (den, num_0, ..., num_{e-1}) of sparse maps
    {exponent of T: packed F_q value} without zero values; the zero scalar
    never occurs in a value, so the zero value is {}.
    """

    def __init__(self, text, field):
        self.text = text
        self.field = field
        fq = field.fq
        self.fq = fq
        self.e = field.e
        bad = _BAD.search(text)
        self.end = bad.start() if bad else len(text)
        self.toks = _TOKEN.findall(text, 0, self.end)
        self.toks.append(_BAD_TOKEN if bad else None)
        self.unit = (_ONE, _ONE) + ({},) * (self.e - 1)
        self.T = {0: (_ONE, {1: 1}) + self.unit[2:]}
        # F_q values: integers mod p when q = p, else the field's tables
        p = fq.p
        if fq.d == 1:
            self.add = lambda a, b: (a + b) % p
            self.mul = lambda a, b: a * b % p
            self.inv = lambda a: pow(a, p - 2, p)
            self.pow = lambda a, n: pow(a, n, p)
        else:
            self.add, self.mul = fq.sadd, fq.smul
            self.inv, self.pow = fq.sinv, fq.spow

    def _fail(self, message, i):
        """ParseError at token i (the last token sits at the end)."""
        starts = [m.start() for m in _TOKEN.finditer(self.text, 0, self.end)]
        raise ParseError(message, (starts + [self.end])[i])

    # -- grammar -----------------------------------------------------------------

    def parse(self):
        """One pass over the tokens of

            expr := ['-'] term (('+' | '-') term)*
            term := factor (('*' | '/') factor)*
            factor := atom ('^' integer)*
            atom := '(' expr ')' | '[' expr (',' expr)* ']' | integer | 'T' | 't'

        Each step reads one token in one of four states: at the start of an
        expr, before an atom, after '^', or after an atom or a closed group,
        where a pending exponent is applied first.  A group ('(' or '[')
        pushes the expr around it.  Errors arise at the token where the
        grammar fails; the first character that is not a token fails as soon
        as it is reached.
        """
        START, OPERAND, EXPONENT, AFTER = range(4)
        groups = []  # (kind, outer expr state, entries, entry start, fq mode)
        total = term = op = exp = None
        neg = False
        state = START
        for i, tok in enumerate(self.toks):
            if tok is _BAD_TOKEN:
                raise ParseError(
                    f"unexpected character {self.text[self.end]!r}", self.end)
            if state == AFTER:
                if exp is not None:
                    factor = self._power(factor, exp)
                    exp = None
                if tok == "^":
                    state = EXPONENT
                    continue
                if op is None:
                    term = factor
                elif op == "*":
                    term = self._mul(term, factor)
                else:
                    term = self._divide(term, factor, i)
                if tok == "*" or tok == "/":
                    op, state = tok, OPERAND
                    continue
                if total is None:
                    total = self._neg(term) if neg else term
                else:
                    total = self._add(total, term, neg)
                if tok == "+" or tok == "-":
                    neg, op, state = tok == "-", None, OPERAND
                    continue
                if not groups:
                    if tok is not None:
                        self._fail(f"trailing input {_show(tok)}", i)
                    return self._canonical(total)
                kind, outer, parts, start, fq_mode = groups[-1]
                if kind == "[":
                    if any(total):
                        self._fail("tau inside a coordinate list", start)
                    parts.append((total.get(0), start))
                    if tok == ",":
                        groups[-1] = (kind, outer, parts, i + 1, fq_mode)
                        total = term = op = None
                        neg, state = False, START
                        continue
                close = "]" if kind == "[" else ")"
                if tok != close:
                    self._fail(f"expected {close!r}, found {_show(tok)}", i)
                groups.pop()
                factor = (self._coordinates(parts, fq_mode) if kind == "["
                          else total)
                total, term, op, neg = outer
                continue
            if state == EXPONENT:
                if tok is None or not tok.isdigit():
                    self._fail("exponent must be an integer", i)
                exp, state = int(tok), AFTER
                continue
            if state == START and tok == "-":
                neg, state = True, OPERAND
                continue
            if tok == "(":
                groups.append((tok, (total, term, op, neg), None, i + 1, None))
                total = term = op = None
                neg, state = False, START
                continue
            if tok == "[":
                # a list inside a list holds F_q coordinates
                fq_mode = self.e == 1 or any(g[0] == "[" for g in groups)
                groups.append((tok, (total, term, op, neg), [], i + 1, fq_mode))
                total = term = op = None
                neg, state = False, START
                continue
            if tok == "T":
                factor = self.T
            elif tok == "t":
                factor = {1: self.unit}
            elif tok is not None and tok.isdigit():
                factor = self._constant(int(tok) % self.fq.p)
            else:
                self._fail(f"unexpected token {_show(tok)}", i)
            state = AFTER

    def _divide(self, a, b, i):
        if not b:
            self._fail("division by zero", i)
        if any(b):
            self._fail("division by a tau polynomial", i)
        inv = self._sinv(b[0])
        if inv is self.unit:
            return a
        return {k: self._smul(c, inv) for k, c in a.items()}

    def _coordinates(self, parts, fq_mode):
        """The value of a coordinate list: extension coordinates when the
        field is a proper extension (entries are scalar expressions, with
        nested brackets meaning F_q coordinates), otherwise F_q coordinates
        of integers.  Entries hold no tau, so they lie in Q."""
        if fq_mode:
            # F_q coordinates over the power basis of the modulus; each
            # entry's packed value is read mod p
            fq = self.fq
            packed = 0
            for k, (s, start) in enumerate(parts):
                c = self._fq_constant(s)
                if c is None:
                    self._fail("F_q coordinates must be integers", start)
                packed += c % fq.p * fq.p ** k
            if len(parts) > fq.d:
                self._fail("too many F_q coordinates", parts[0][1])
            return self._constant(packed)
        if len(parts) > self.e:
            self._fail("too many extension coordinates", parts[0][1])
        out = None
        for j, (s, _) in enumerate(parts):
            if s is None:
                continue
            s = (s[0],) + ({},) * j + (s[1],) + ({},) * (self.e - j - 1)
            out = s if out is None else self._sadd(out, s, False)
        return {} if out is None else {0: out}

    # -- values: maps from tau-degree to scalar --------------------------------

    def _constant(self, c):
        if c == 1:
            return {0: self.unit}
        return {0: (_ONE, {0: c}) + self.unit[2:]} if c else {}

    def _neg(self, a):
        return {k: self._sneg(c) for k, c in a.items()}

    def _add(self, a, b, neg):
        out = dict(a)
        for k, c in b.items():
            if neg:
                c = self._sneg(c)
            if k in out:
                c = self._sadd(out[k], c, False)
                if c is None:
                    del out[k]
                    continue
            out[k] = c
        return out

    def _mul(self, a, b):
        """The skew product: (c t^i)(d t^j) = c d^(q^i) t^(i+j)."""
        out = {}
        for i, c in a.items():
            for j, d in b.items():
                prod = self._smul(c, self._twist(d, i) if i else d)
                k = i + j
                if k in out:
                    prod = self._sadd(out[k], prod, False)
                    if prod is None:
                        del out[k]
                        continue
                out[k] = prod
        return out

    def _power(self, a, n):
        if n == 1:
            return a
        if n == 0:
            return {0: self.unit}
        if len(a) == 1 and 0 in a:
            c = a[0]
            den, num = c[0], c[1]
            if den is _ONE and len(num) == 1 and _in_q(c):
                # a monomial of A
                (k, v), = num.items()
                return {0: (_ONE, {k * n: self.pow(v, n)}) + c[2:]}
        out = a
        for bit in bin(n)[3:]:
            out = self._mul(out, out)
            if bit == "1":
                out = self._mul(out, a)
        return out

    # -- scalars -----------------------------------------------------------------

    def _sneg(self, c):
        return (c[0],) + tuple(self._pneg(n) for n in c[1:])

    def _sadd(self, a, b, neg):
        """a + b (a - b when neg), None when it is zero."""
        den, xs, ys = a[0], a[1:], b[1:]
        if not (den is b[0] or den == b[0]):
            xs = [self._pmul(x, b[0]) for x in xs]
            ys = [self._pmul(y, den) for y in ys]
            den = self._pmul(den, b[0])
        nums = [self._padd(x, y, neg) for x, y in zip(xs, ys)]
        return (den, *nums) if any(nums) else None

    def _smul(self, a, b):
        if b is self.unit:
            return a
        if a is self.unit:
            return b
        if len(a) == 2:
            # e = 1
            return (self._pmul(a[0], b[0]), self._pmul(a[1], b[1]))
        if not _in_q(b):
            if not _in_q(a):
                return self._from_ext(self._to_ext(a) * self._to_ext(b))
            a, b = b, a
        num = b[1]
        out = [self._pmul(a[0], b[0])]
        out += [self._pmul(x, num) if x else x for x in a[1:]]
        return tuple(out)

    def _sinv(self, c):
        if c is self.unit:
            return c
        if not _in_q(c):
            return self._from_ext(self._to_ext(c).inverse())
        den, num = c[1], c[0]
        if len(den) == 1 and 0 in den:
            # a constant denominator moves into the numerator
            inv = self.inv(den[0])
            num, den = {k: self.mul(v, inv) for k, v in num.items()}, _ONE
        return (den, num) + self.unit[2:]

    def _twist(self, c, i):
        """c^(q^i): T -> T^(q^i) on every map, F_q values being fixed by
        Frobenius; outside Q it is K's Frobenius."""
        if not _in_q(c):
            return self._from_ext(self._to_ext(c).frob_power(i))
        den, num = c[0], c[1]
        if den is _ONE and len(num) == 1 and 0 in num:
            return c
        s = self.fq.q ** i
        return tuple(n if n is _ONE else {k * s: v for k, v in n.items()}
                     for n in c)

    def _fq_constant(self, c):
        """The packed F_q value of a scalar of Q, or None when it is not in
        F_q."""
        if c is None:
            return 0
        den, num = c[0], c[1]
        top = max(num)
        if len(num) != len(den) or top != max(den):
            return None
        v = self.mul(num[top], self.inv(den[top]))
        if all(num.get(k) == self.mul(v, x) for k, x in den.items()):
            return v
        return None

    # -- sparse polynomials of A -------------------------------------------------

    def _pneg(self, a):
        return {k: self.mul(v, self.fq.p - 1) for k, v in a.items()}

    def _padd(self, a, b, neg):
        if neg:
            b = self._pneg(b)
        if not a:
            return b
        out = dict(a)
        add = self.add
        for k, v in b.items():
            if k in out:
                v = add(out[k], v)
                if not v:
                    del out[k]
                    continue
            out[k] = v
        return out

    def _pmul(self, a, b):
        if a is _ONE:
            return b
        if b is _ONE:
            return a
        add, mul = self.add, self.mul
        if len(a) == 1 and len(b) == 1:
            # F_q has no zero divisors
            (i, x), = a.items()
            (j, y), = b.items()
            return {i + j: mul(x, y)}
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                k = i + j
                out[k] = add(out[k], mul(x, y)) if k in out else mul(x, y)
        return {k: v for k, v in out.items() if v}

    # -- conversions ---------------------------------------------------------------

    def _dense(self, a):
        fq = self.fq
        if a is _ONE:
            return fq.poly_one
        if not a:
            return fq.poly_zero
        arr = [0] * (max(a) + 1)
        for k, v in a.items():
            arr[k] = v
        return PolyA(fq, np.array(arr, dtype=np.int64))

    def _coords(self, c):
        den = self._dense(c[0])
        return tuple([RatFunc.make(self._dense(n), den) for n in c[1:]])

    def _to_ext(self, c):
        return ExtFieldElem(self.field, self._coords(c))

    def _from_ext(self, x):
        nums, den = cleared_numerators(self.fq, x.coords)
        return tuple(_ONE if a.is_one() else
                     {k: v for k, v in enumerate(a.array.tolist()) if v}
                     for a in [den] + nums)

    def _canonical(self, value):
        """The SkewPoly of a value: one RatFunc.make per coordinate."""
        field = self.field
        coeffs = [field.zero] * (max(value, default=-1) + 1)
        for k, c in value.items():
            coeffs[k] = ExtFieldElem(field, self._coords(c))
        return SkewPoly(field, coeffs)


def parse_skew(text, field):
    """Parse the `c0 + c1*t + ...` grammar into a SkewPoly over the field."""
    return _Parser(text, field).parse()


def parse_ext(text, field):
    out = parse_skew(text, field)
    if out.deg > 0:
        raise ParseError("tau in a scalar context")
    return out.constant() if not out.is_zero() else field.zero


def parse_rat(text, fq):
    tmp = ExtField(fq)
    return parse_ext(text, tmp).coords[0]


def parse_poly(text, fq):
    r = parse_rat(text, fq)
    if not r.den.is_one():
        raise ParseError("denominator in a polynomial context")
    return r.num


# -- serialization -------------------------------------------------------------

def ext_to_text(a):
    if a.field.e == 1:
        return repr(a.coords[0])
    return [repr(c) for c in a.coords]


def skew_to_text(a):
    return repr(a)


def ideal_to_text(n):
    return repr(n)


def parse_ideal(text, fq):
    return IdealA(parse_poly(text, fq))
