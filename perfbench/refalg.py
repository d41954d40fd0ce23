"""Reference arithmetic for the benchmark's input generators and checkers.

Written apart from dforge on purpose: the benchmark generates its inputs and
checks the program's outputs with this code, so a fault in the program's
arithmetic cannot vouch for itself.  Plain Python, no numpy.

Conventions match the program's text and packing, nothing else:
- F_q elements are packed base-p integers c0 + c1 p + ... over the power
  basis of a monic modulus (q = p needs none);
- polynomials over F_q are little-endian tuples of packed values with no
  trailing zero;
- Rat is a canonical fraction (monic denominator, coprime to the numerator);
- skew polynomials over Q = F_q(T) are tuples of Rat with tau c = c^q tau,
  and c^q is c(T^q) because F_q coefficients are Frobenius-fixed.
"""
from __future__ import annotations


class Fq:
    """F_q with q = p^d by small lookup tables; q is at most a few dozen."""

    def __init__(self, p, modulus=None):
        modulus = tuple(modulus) if modulus else (0, 1)
        self.p = p
        self.d = len(modulus) - 1
        self.q = p ** self.d
        self.modulus = modulus
        q = self.q
        digits = [self._digits(v) for v in range(q)]
        self.add = [[self._pack([(x + y) % p for x, y in zip(a, b)])
                     for b in digits] for a in digits]
        self.neg = [self._pack([(-x) % p for x in a]) for a in digits]
        self.mul = [[self._digit_mul(a, b) for b in digits] for a in digits]
        self.inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul[a][b] == 1:
                    self.inv[a] = b
        if any(self.inv[a] == 0 for a in range(1, q)):
            raise ValueError("modulus is reducible")

    def _digits(self, v):
        return [(v // self.p ** i) % self.p for i in range(self.d)]

    def _pack(self, digits):
        return sum(c * self.p ** i for i, c in enumerate(digits))

    def _digit_mul(self, a, b):
        p, d = self.p, self.d
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(len(prod) - 1, d - 1, -1):
            top = prod[k]
            if top:
                for i, m in enumerate(self.modulus):
                    prod[k - d + i] = (prod[k - d + i] - top * m) % p
        return self._pack(prod[:d])


# -- polynomials over F_q -------------------------------------------------------

def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(F, a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return trim(F.add[x][y] for x, y in zip(a, b))


def pneg(F, a):
    return tuple(F.neg[x] for x in a)


def psub(F, a, b):
    return padd(F, a, pneg(F, b))


def pscale(F, a, c):
    return trim(F.mul[c][x] for x in a)


def pmul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = F.mul[x]
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add[out[i + j]][row[y]]
    return trim(out)


def pdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    if len(r) < len(b):
        return (), tuple(r)
    inv = F.inv[b[-1]]
    quo = [0] * (len(r) - len(b) + 1)
    for k in range(len(r) - len(b), -1, -1):
        c = F.mul[r[k + len(b) - 1]][inv]
        if c:
            quo[k] = c
            for i, y in enumerate(b):
                r[k + i] = F.add[r[k + i]][F.neg[F.mul[c][y]]]
    return trim(quo), trim(r[: len(b) - 1])


def pmonic(F, a):
    return pscale(F, a, F.inv[a[-1]]) if a and a[-1] != 1 else tuple(a)


def pgcd(F, a, b):
    while b:
        a, b = b, pdivmod(F, a, b)[1]
    return pmonic(F, a)


def ppow(F, a, e):
    out, base = (1,), tuple(a)
    while e:
        if e & 1:
            out = pmul(F, out, base)
        base = pmul(F, base, base)
        e >>= 1
    return out


def pdivides(F, a, b):
    """a | b in F_q[T]."""
    return not pdivmod(F, b, a)[1]


def pfrob(F, a):
    """a^q = a(T^q): the coefficients lie in F_q and are Frobenius-fixed."""
    if not a:
        return ()
    out = [0] * ((len(a) - 1) * F.q + 1)
    out[:: F.q] = a
    return tuple(out)


# -- Q = F_q(T) -------------------------------------------------------------------

class Rat:
    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        self.num = num
        self.den = den

    def __eq__(self, other):
        return (isinstance(other, Rat) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Rat({self.num}, {self.den})"


def rmake(F, num, den=(1,)):
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return Rat((), (1,))
    g = pgcd(F, num, den)
    num, den = pdivmod(F, num, g)[0], pdivmod(F, den, g)[0]
    inv = F.inv[den[-1]]
    return Rat(pscale(F, num, inv), pscale(F, den, inv))


def radd(F, a, b):
    return rmake(F, padd(F, pmul(F, a.num, b.den), pmul(F, b.num, a.den)),
                 pmul(F, a.den, b.den))


def rneg(F, a):
    return Rat(pneg(F, a.num), a.den)


def rsub(F, a, b):
    return radd(F, a, rneg(F, b))


def rmul(F, a, b):
    return rmake(F, pmul(F, a.num, b.num), pmul(F, a.den, b.den))


def rinv(F, a):
    if not a.num:
        raise ZeroDivisionError("inverse of zero")
    return rmake(F, a.den, a.num)


def rfrob(F, a):
    return Rat(pfrob(F, a.num), pfrob(F, a.den))


def rpow(F, a, e):
    out = Rat((1,))
    for _ in range(e):
        out = rmul(F, out, a)
    return out


def rconst(c):
    return Rat(trim((c,)))


RZERO = Rat((), (1,))


# -- Q{tau} ------------------------------------------------------------------------

def strim(c):
    c = list(c)
    while c and not c[-1].num:
        c.pop()
    return tuple(c)


def sadd(F, a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (RZERO,) * (n - len(a))
    b = tuple(b) + (RZERO,) * (n - len(b))
    return strim(radd(F, x, y) for x, y in zip(a, b))


def ssub(F, a, b):
    return sadd(F, a, tuple(rneg(F, y) for y in b))


def smul(F, a, b):
    """(c tau^i)(d tau^j) = c d^(q^i) tau^(i+j)."""
    if not a or not b:
        return ()
    out = [RZERO] * (len(a) + len(b) - 1)
    row = tuple(b)
    for i, x in enumerate(a):
        if i:
            row = tuple(rfrob(F, y) for y in row)
        if x.num:
            for j, y in enumerate(row):
                if y.num:
                    out[i + j] = radd(F, out[i + j], rmul(F, x, y))
    return strim(out)


def sscale(F, c, a):
    """c * a for a scalar c in Q."""
    return strim(rmul(F, c, x) for x in a)


def sright_divmod(F, a, b):
    """a = quo * b + rem with deg rem < deg b."""
    rem = list(a)
    m = len(b) - 1
    if len(rem) - 1 < m:
        return (), tuple(rem)
    quo = [RZERO] * (len(rem) - m)
    for k in range(len(rem) - 1 - m, -1, -1):
        top = rem[k + m]
        if not top.num:
            continue
        bk = list(b)
        for _ in range(k):
            bk = [rfrob(F, y) for y in bk]
        c = rmul(F, top, rinv(F, bk[m]))
        quo[k] = c
        for j, y in enumerate(bk):
            rem[k + j] = rsub(F, rem[k + j], rmul(F, c, y))
    return strim(quo), strim(rem[:m])


def sphi_a(F, phiT, a):
    """phi_a for a in F_q[T], by Horner over phi_T."""
    out = ()
    for c in reversed(a):
        out = smul(F, out, phiT)
        if c:
            out = sadd(F, out, (rconst(c),))
    return out


def j_of(F, phiT):
    """j = g^(q+1) / Delta of a rank-two module over Q."""
    if len(phiT) != 3:
        raise ValueError("not a rank-two module")
    return rmul(F, rpow(F, phiT[1], F.q + 1), rinv(F, phiT[2]))


# -- integrality of j over A = F_q[T] ----------------------------------------------

def _qmul(F, D, a, b):
    """(a0 + a1 x)(b0 + b1 x) in A[x]/(x^2 - D)."""
    return (padd(F, pmul(F, a[0], b[0]), pmul(F, D, pmul(F, a[1], b[1]))),
            padd(F, pmul(F, a[0], b[1]), pmul(F, a[1], b[0])))


def j_is_integral(F, D, g, delta):
    """Whether j = g^(q+1)/Delta is integral over A, for g and Delta with
    polynomial coordinates in K = Q (D is None) or K = Q(sqrt(D)).

    Over Q that is Delta | g^(q+1).  Over Q(sqrt(D)), j is integral exactly
    when its trace and norm over Q lie in A.  With P = g^(q+1) conj(Delta)
    = p0 + p1 x and N = N(Delta), the trace is 2 p0 / N and the norm is
    (p0^2 - D p1^2) / N^2.  The characteristic is odd, so 2 is a unit.
    """
    if D is None:
        return pdivides(F, delta[0], ppow(F, g[0], F.q + 1))
    gq = ((1,), ())
    for _ in range(F.q + 1):
        gq = _qmul(F, D, gq, g)
    p0, p1 = _qmul(F, D, gq, (delta[0], pneg(F, delta[1])))
    norm = psub(F, pmul(F, delta[0], delta[0]),
                pmul(F, D, pmul(F, delta[1], delta[1])))
    trace_ok = pdivides(F, norm, p0)
    norm_ok = pdivides(F, pmul(F, norm, norm),
                       psub(F, pmul(F, p0, p0), pmul(F, D, pmul(F, p1, p1))))
    return trace_ok and norm_ok


def cm_module(F, D, a):
    """(g, Delta) of phi_T = u^2 - 1 for u = x + a tau, x = sqrt(D), D = T + 1.

    u commutes with phi_T, a polynomial in u, and has tau-degree 1, while
    every phi_b has even tau-degree 2 deg b: phi has CM by A[x].  With
    x^q = D^((q-1)/2) x and a^q = a0(T^q) + a1(T^q) x^q (F = F_p, so the
    coefficients are Frobenius-fixed):
    g = x a + a x^q = a x (1 + D^((q-1)/2)) and Delta = a a^q.
    """
    if D != (1, 1) or F.d != 1:
        raise ValueError("made for K = F_p(T)(sqrt(T + 1)) only")
    h = ppow(F, D, (F.q - 1) // 2)
    ax = _qmul(F, D, a, ((), (1,)))
    g = tuple(pmul(F, c, padd(F, (1,), h)) for c in ax)
    aq = (pfrob(F, a[0]), pmul(F, pfrob(F, a[1]), h))
    return g, _qmul(F, D, a, aq)


# -- text ------------------------------------------------------------------------

def poly_text(a):
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if not c:
            continue
        mono = "" if i == 0 else ("T" if i == 1 else f"T^{i}")
        if not mono:
            parts.append(str(c))
        else:
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts)


def skew_text(a):
    """A skew polynomial over Q (prime q) in the program's input grammar."""
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if not c.num:
            continue
        coeff = f"(({poly_text(c.num)}) / ({poly_text(c.den)}))"
        parts.append(coeff if i == 0 else f"{coeff}*t^{i}")
    return " + ".join(parts)


class _TextParser:
    """Recursive descent over + - * / ^ ( ) integers, T and t, evaluated in
    Q{tau} for a prime q.  Division is allowed between scalars only."""

    def __init__(self, F, text):
        self.F = F
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(int(text[i:j]))
                i = j
            elif ch in "+-*/^()Tt":
                self.toks.append(ch)
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in {text!r}")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        if self.peek() is not None:
            raise ValueError("trailing input")
        return out

    def expr(self):
        F = self.F
        neg = self.peek() == "-"
        if neg:
            self.take()
        out = self.term()
        if neg:
            out = tuple(rneg(F, c) for c in out)
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = sadd(F, out, rhs) if op == "+" else ssub(F, out, rhs)
        return out

    def term(self):
        F = self.F
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                out = smul(F, out, rhs)
            else:
                if len(rhs) != 1 or len(out) > 1:
                    raise ValueError("division outside scalars")
                out = sscale(F, rinv(F, rhs[0]), out)
        return out

    def factor(self):
        base = self.atom()
        while self.peek() == "^":
            self.take()
            e = self.take()
            if not isinstance(e, int):
                raise ValueError("exponent must be an integer")
            out = (Rat((1,)),)
            for _ in range(e):
                out = smul(self.F, out, base)
            base = out
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            out = self.expr()
            if self.take() != ")":
                raise ValueError("expected )")
            return out
        if isinstance(tok, int):
            return strim((rconst(tok % self.F.p),))
        if tok == "T":
            return (Rat((0, 1)),)
        if tok == "t":
            return (RZERO, Rat((1,)))
        raise ValueError(f"unexpected token {tok!r}")


def parse_skew(F, text):
    return _TextParser(F, text).parse()


def parse_ideal(F, text):
    """The monic generator of an ideal printed as `(poly)`."""
    val = parse_skew(F, text)
    if len(val) != 1 or val[0].den != (1,):
        raise ValueError(f"not a polynomial ideal: {text!r}")
    return pmonic(F, val[0].num)
