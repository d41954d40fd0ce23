"""The recursive-descent parser that `dforge.textform` replaced, kept
verbatim as the reference for its differential test (test_textform.py).

It evaluates every subexpression in K{tau}, with canonical field
arithmetic at each step.  Its lexer takes any Unicode digit, letter or
space; the flat parser takes ASCII only, the one intended difference.
"""
from __future__ import annotations

from dforge.errors import ParseError
from dforge.skew import SkewPoly

_TOKENS = ("+", "-", "*", "/", "^", "(", ")", "[", "]", ",")


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def next_token(self):
        c = self.peek()
        if c is None:
            return None, self.pos
        start = self.pos
        if c in _TOKENS:
            self.pos += 1
            return c, start
        if c.isdigit():
            end = self.pos
            while end < len(self.text) and self.text[end].isdigit():
                end += 1
            tok = self.text[self.pos:end]
            self.pos = end
            return int(tok), start
        if c.isalpha():
            self.pos += 1
            return c, start
        raise ParseError(f"unexpected character {c!r}", start)


class _Parser:
    """Parses an expression into a SkewPoly over the declared field."""

    def __init__(self, text, field):
        self.lex = _Lexer(text)
        self.field = field
        self.cur = None
        self.cur_pos = 0
        self._in_coords = False
        self._advance()

    def _advance(self):
        self.cur, self.cur_pos = self.lex.next_token()

    def _expect(self, tok):
        if self.cur != tok:
            raise ParseError(f"expected {tok!r}, found {self.cur!r}", self.cur_pos)
        self._advance()

    def parse(self):
        out = self._expr()
        if self.cur is not None:
            raise ParseError(f"trailing input {self.cur!r}", self.cur_pos)
        return out

    def _expr(self):
        if self.cur == "-":
            self._advance()
            out = -self._term()
        else:
            out = self._term()
        while self.cur in ("+", "-"):
            op = self.cur
            self._advance()
            rhs = self._term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def _term(self):
        out = self._factor()
        while True:
            if self.cur == "*":
                self._advance()
                out = out * self._factor()
            elif self.cur == "/":
                self._advance()
                rhs = self._factor()
                out = self._divide(out, rhs)
            else:
                return out

    def _divide(self, a, b):
        if b.is_zero():
            raise ParseError("division by zero", self.cur_pos)
        if b.deg != 0:
            raise ParseError("division by a tau polynomial", self.cur_pos)
        inv = b.constant().inverse()
        return SkewPoly(a.field, [c * inv for c in a.coeffs])

    def _factor(self):
        base = self._atom()
        while self.cur == "^":
            self._advance()
            if not isinstance(self.cur, int):
                raise ParseError("exponent must be an integer", self.cur_pos)
            e = self.cur
            self._advance()
            base = base ** e
        return base

    def _atom(self):
        field = self.field
        tok, pos = self.cur, self.cur_pos
        if tok == "(":
            self._advance()
            out = self._expr()
            self._expect(")")
            return out
        if tok == "[":
            return self._bracket()
        if isinstance(tok, int):
            self._advance()
            return SkewPoly.from_scalar(
                field.from_poly(field.fq.poly([tok]))
            )
        if tok == "T":
            self._advance()
            return SkewPoly.from_scalar(field.T())
        if tok == "t":
            self._advance()
            return SkewPoly.tau(field)
        raise ParseError(f"unexpected token {tok!r}", pos)

    def _bracket(self):
        """Coordinate list: extension coordinates when the field is a proper
        extension (entries are scalar expressions, with nested brackets
        meaning F_q coordinates), otherwise F_q coordinates of integers."""
        fq_mode = self.field.e == 1 or self._in_coords
        self._expect("[")
        parts = []
        while True:
            start = self.cur_pos
            if not fq_mode:
                outer = self._in_coords
                self._in_coords = True
                expr = self._expr()
                self._in_coords = outer
            else:
                expr = self._expr()
            if expr.deg > 0:
                raise ParseError("tau inside a coordinate list", start)
            parts.append((expr, start))
            if self.cur == ",":
                self._advance()
                continue
            break
        self._expect("]")
        field = self.field
        fq = field.fq
        scalars = [p.constant() if not p.is_zero() else field.zero
                   for p, _ in parts]
        if fq_mode:
            # F_q coordinate list over the power basis of the modulus
            vals = []
            for s, (_, start) in zip(scalars, parts):
                if not s.in_base() or not s.coords[0].is_constant():
                    raise ParseError("F_q coordinates must be integers", start)
                r = s.coords[0]
                vals.append(0 if r.is_zero() else int(r.num.array[0]))
            if len(vals) > fq.d:
                raise ParseError("too many F_q coordinates", parts[0][1])
            elem = fq.elem(vals)
            return SkewPoly.from_scalar(field.from_poly(fq.poly([elem])))
        if len(parts) > field.e:
            raise ParseError("too many extension coordinates", parts[0][1])
        coords = []
        for s, (_, start) in zip(scalars, parts):
            if not s.in_base():
                raise ParseError("nested extension coordinates", start)
            coords.append(s.coords[0])
        return SkewPoly.from_scalar(field.elem(coords))


def parse_skew(text, field):
    return _Parser(text, field).parse()
