"""Exact arithmetic for F_p < F_q < A = F_q[T] < Q = F_q(T), and the
rings A/(P).

Elements of F_q are packed base-p integers; polynomials over F_q are
little-endian numpy int64 arrays of packed values.  Only `Fq.arr_axpy` and
the scalar ops (`sadd`, `smul`, ...) know that packing: addition of packed
values is done there, as integers mod p when d = 1, through an addition
table when q <= 256 and digit by digit above.  Addition, subtraction and
negation are calls to `arr_axpy`, and so is each step of a short division
when d > 1; for d = 1, where packed values are integers mod p, a short
division reduces lazily, with one `% p` at the end (`Fq.arr_mod_inplace`).
A division with a long quotient multiplies by a Newton inverse of the
reversed divisor instead (`Fq.arr_divmod`).
Multiplication in F_q goes through discrete log/exp tables for every q.
One construction builds them for every (p, d), d = 1 included: a product
by h acts on F_p digit vectors as a d x d matrix, so the generator search
and the exp table are vector-matrix products over F_p, the table in
log2(q) doublings (`Fq._build_tables`).
Products in F_q[T] are exact integer convolutions of F_p digits: short ones
with all coefficients in F_p use np.convolve, all others go through
Kronecker substitution into one Python integer product (`_kron_conv`); the
switch looks at both lengths and the slot width (`_kron_pays`).  A long
product with few nonzero terms, such as the Frobenius spreads a(T^(q^k))
and T^(q^k) - T of the intertwiner closure, sums the products of its
nonzero terms per exponent instead, in one np.bincount (`Fq.arr_mul`).
A product by a constant skips these kernels: it is a scalar multiply, and
the constant 1 returns the other operand (`PolyA.__mul__`).
Matrices over F_q multiply the same way, by integer products of F_p digits
(`Fq.arr_matmul`); `ResidueField`, the one arithmetic in A/(P) for a monic
P, does all its work with them, Frobenius from T^q by squaring.  A/(P) is
a field exactly when `is_field` holds; factorization in A computes in it.
Linear algebra over F_q is one incremental elimination, `row_relations`.
Candidates in A, for a modulus of F_q or a prime of A/P, come from one
scan in packed order, `monic_polys`.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DivisionByZero, FieldMismatch

_EMPTY = np.zeros(0, dtype=np.int64)


# the largest q served by the log/exp tables of `Fq`
_MAX_ORDER = 65536


def _prime_factors(n):
    """The distinct primes dividing n, ascending, by trial division; none
    for n < 2."""
    primes = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        primes.append(n)
    return primes


def split_prime_power(q):
    """(p, d) with q = p^d, for a prime power q <= 65,536; ValueError,
    naming q, for any other q."""
    if q > _MAX_ORDER:
        raise ValueError(f"q = {q} exceeds the table limit {_MAX_ORDER}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p, d = primes[0], 0
    while q > 1:
        q //= p
        d += 1
    return p, d


def is_irreducible(f):
    """True when f is irreducible over F_q: Rabin's test on A/(f)
    (`ResidueField.is_field`)."""
    if f.is_zero() or f.degree < 1:
        return False
    return ResidueField(f.field, f.monic()).is_field()


def monic_polys(fq, n):
    """Yield the monic polynomials of A of degree n, n + 1, ... in packed
    order: by degree, then by the low coefficients read as base-q digits
    counting up from 0.  The one scan of candidates in A."""
    q = fq.q
    while True:
        for index in range(q ** n):
            yield PolyA(fq, np.array([index // q ** i % q for i in range(n)]
                                     + [1], dtype=np.int64))
        n += 1


class Fq:
    """The finite field F_q, q = p^d, with its polynomial ring A = F_q[T].

    `modulus` is the monic degree-d irreducible over F_p defining the power
    basis (little-endian int coefficients); omit it for q = p.
    """

    def __init__(self, p, modulus=None):
        modulus = (0, 1) if modulus is None else tuple(map(int, modulus))
        if len(modulus) < 2:
            raise ValueError("modulus must be monic of degree >= 1")
        d = len(modulus) - 1
        # the limit first: it bounds the trial divisions below
        if p > _MAX_ORDER or p ** d > _MAX_ORDER:
            raise ValueError(f"field of order {p}^{d} too large for "
                             f"table-based arithmetic (limit {_MAX_ORDER})")
        if _prime_factors(p) != [p]:
            raise ValueError(f"characteristic {p} is not prime")
        modulus = tuple(c % p for c in modulus)
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        red = np.ones((1, 1), dtype=np.int64)
        if d > 1:
            fp = Fq(p)
            residues = ResidueField(fp, fp.poly(modulus))
            if not residues.is_field():
                raise ValueError("modulus is reducible over F_p")
            red = residues._rows(2 * d - 1)
        self._setup(p, modulus, red)

    def _setup(self, p, modulus, red):
        """The field from a checked prime p and modulus, with `red` the rows
        y^k mod modulus for k < 2d - 1, as F_p digit vectors."""
        self.p = p
        self.d = len(modulus) - 1
        self.q = p ** self.d
        self.modulus = modulus
        self._red = red
        self._pp = p ** np.arange(self.d, dtype=np.int64)
        self._build_tables()
        self.zero = FqElem(self, 0)
        self.one = FqElem(self, 1)
        self.poly_zero = PolyA(self, _EMPTY)
        self.poly_one = PolyA(self, np.array([1], dtype=np.int64))
        self.rat_one = RatFunc(self, self.poly_one, self.poly_one)
        self.rat_zero = RatFunc(self, self.poly_zero, self.poly_one)

    @classmethod
    def of_order(cls, q):
        """F_q for a prime power q <= 65,536 (ValueError otherwise), defined
        by the first monic irreducible of degree d over F_p in packed order
        (`monic_polys`).  Each candidate gets one Rabin test, and the field
        is built from the rows of the one that passes."""
        p, d = split_prime_power(q)
        fp = cls(p)
        if d == 1:
            return fp
        # every degree has a monic irreducible, so the scan stops at degree d
        for P in monic_polys(fp, d):
            residues = ResidueField(fp, P)
            if residues.is_field():
                field = cls.__new__(cls)
                field._setup(p, tuple(map(int, P.array)),
                             residues._rows(2 * d - 1))
                return field

    def __repr__(self):
        return f"Fq(p={self.p}, d={self.d})"

    # -- construction of the multiplication tables ---------------------------

    def _build_tables(self):
        """The log/exp tables of the first generator g of F_q^x among 2, 3,
        ..., and for q <= 256 the addition and multiplication tables.

        Multiplication by h acts on F_p digit vectors (rows) as the d x d
        matrix whose row i holds the digits of y^i h: the digits of h times
        the reduction rows y^(i + j) of `_red`.  With steps[k] the matrix of
        g^(2^k), by squaring, each g^((q - 1)/r) is a product of steps, and
        g generates when none of them is 1 (r prime, r | q - 1).  The exp
        table is then (q - 2).bit_length() doublings: the powers g^0 ..
        g^(2^k - 1) times steps[k] are the next 2^k powers.
        """
        p, d, q = self.p, self.d, self.q
        order = q - 1
        one = self._red[:1]  # the digits of y^0
        span = np.arange(d)
        shifted = self._red[span[:, None] + span]  # [i, j]: y^(i + j)
        exponents = [order // r for r in _prime_factors(order)]
        steps = []  # F_2^x = {1}: no step
        for gen in range(2, q):
            steps = [np.dot(gen // self._pp % p, shifted) % p]
            while 1 << len(steps) < order:
                steps.append(steps[-1] @ steps[-1] % p)
            if all((_step_power(one, steps, e, p) != one).any()
                   for e in exponents):
                break
        powers = one
        for step in steps:
            powers = np.concatenate((powers, powers @ step % p))
        vals = powers[:order] @ self._pp
        self._exp = np.concatenate((vals, vals))
        self._log = np.zeros(q, dtype=np.int64)
        self._log[vals] = np.arange(order)
        self._addtab = self._multab = None
        if q <= 256:
            vals = np.arange(q, dtype=np.int64)
            self._addtab = self._digit_add(vals[:, None], vals[None, :])
            self._multab = np.zeros((q, q), dtype=np.int64)
            self._multab[1:, 1:] = self._exp[self._log[1:, None]
                                             + self._log[None, 1:]]

    # -- packed scalar arithmetic --------------------------------------------

    def _digit_add(self, a, b):
        # (a // p^j + b // p^j) mod p is digit j of a + b
        out = 0
        for j in range(self.d):
            pj = int(self._pp[j])
            out = out + ((a // pj + b // pj) % self.p) * pj
        return out

    def sadd(self, a, b):
        if self._addtab is not None:
            return int(self._addtab[a, b])
        return int(self._digit_add(a, b))

    def sneg(self, a):
        return self.smul(a, self.p - 1)

    def smul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def sinv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero in F_q")
        return int(self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)])

    def sdiv(self, a, b):
        return self.smul(a, self.sinv(b))

    def spow(self, a, e):
        if a == 0:
            return 0 if e else 1
        return int(self._exp[(self._log[a] * (e % (self.q - 1))) % (self.q - 1)])

    # -- array kernels (little-endian packed coefficient vectors) ------------

    def arr_axpy(self, x, c, y):
        """x + c*y for equal-length arrays x, y and a packed scalar c.

        The one array kernel that adds packed values; the result is not
        trimmed.  (The packed value of -1 is p - 1.)
        """
        if self.d == 1:
            return (x + c * y) % self.p
        if self._addtab is not None:
            return self._addtab[x, self._multab[y, c]]
        return self._digit_add(x, self.arr_scalar_mul(y, c))

    def arr_add(self, a, b):
        n = max(len(a), len(b))
        return _trim(self.arr_axpy(_pad(a, n), 1, _pad(b, n)))

    def arr_sub(self, a, b):
        n = max(len(a), len(b))
        return _trim(self.arr_axpy(_pad(a, n), self.p - 1, _pad(b, n)))

    def arr_neg(self, a):
        return self.arr_scalar_mul(a, self.p - 1)

    def arr_scalar_mul(self, a, c):
        """c*a, not trimmed: for c != 0 a trimmed array stays trimmed."""
        if c == 1:
            return a
        out = np.zeros(len(a), dtype=np.int64)
        if c:
            nz = a != 0
            out[nz] = self._exp[self._log[a[nz]] + self._log[c]]
        return out

    def arr_mul(self, a, b):
        """a b.  The sparse rule (`_SPARSE_MIN_WORK`) sums every product of
        two nonzero terms at exponent ia + ib by np.bincount in float64: the
        integers a_i b_j for d = 1, and for d > 1 the integers c // p^j (=
        digit j mod p) of the table products c, one sum per digit; then `% p`.
        Its result is trimmed.  Exact: a bin sums at most min(nnz) terms below
        p^2 (below q for d > 1), no partial sum exceeds the final one, and the
        pair cap gives min(nnz) <= 2^9, so every sum is below 2^9 (2^16)^2 =
        2^41 < 2^53, where float64 holds every integer.
        """
        if len(a) == 0 or len(b) == 0:
            return _EMPTY
        p = self.p
        work = len(a) * len(b)
        if work >= _SPARSE_MIN_WORK:
            na, nb = np.count_nonzero(a), np.count_nonzero(b)
            if na * nb <= min(_SPARSE_MAX_PAIRS, work // _SPARSE_RATIO):
                if na > nb:  # rows follow the sparser: few, long rows
                    a, b = b, a
                ia, ib = np.flatnonzero(a), np.flatnonzero(b)
                at = (ia[:, None] + ib).ravel()
                if self.d == 1:
                    vals = np.outer(a[ia].astype(float), b[ib].astype(float))
                    return np.bincount(at, vals.ravel()).astype(np.int64) % p
                vals = self._exp[(self._log[a[ia]][:, None]
                                  + self._log[b[ib]]).ravel()]
                digits = [np.bincount(at, vals // pj) for pj in self._pp]
                return self._pp @ (np.array(digits).astype(np.int64) % p)
        if self.d > 1:
            da, db = self._digits(a), self._digits(b)
            if da.shape[1] > 1 or db.shape[1] > 1:
                conv = _kron_conv(da, db, p) % p
                digits = (conv @ self._red[: conv.shape[1]]) % p
                return _trim(digits @ self._pp)
        # all coefficients in F_p, where packed values are the digits; the
        # length floor is tested first, as most products are short
        if (min(len(a), len(b)) < _KRON_MIN_SHORT
                or not _kron_pays(len(a), len(b), p)):
            return np.convolve(a, b) % p
        return _kron_conv(a[:, None], b[:, None], p)[:, 0] % p

    def _digits(self, a):
        """F_p digits of a, one row per coefficient, up to the highest
        digit that is nonzero in some coefficient."""
        digits = (a[:, None] // self._pp) % self.p
        h = np.flatnonzero(digits.any(axis=0))[-1] + 1
        return digits[:, :h]

    def arr_divmod(self, a, b, inverse=None):
        """(quotient, remainder) of a by b.

        When the quotient length k reaches `_NEWTON_MIN_LEN`, the quotient
        is rev(a) / rev(b) mod x^k, reversed, and costs two products besides
        the inverse (`arr_rev_inverse`; an `inverse` of b to precision >= k
        from an earlier call is used instead).  Lemma (MCA Algorithm 9.5):
        with n = len(a) - 1, m = len(b) - 1 and a = quo b + rem, deg rem <
        m, reversal x^n a(1/x) gives rev(a) = rev(quo) rev(b) + x^(n - m +
        1) rev(rem), so rev(quo) = rev(a) / rev(b) mod x^k, and rem = a -
        quo b needs only the m low coefficients of quo b.  Other divisions
        cancel one coefficient per step (`arr_mod_inplace`).
        """
        if len(b) == 0:
            raise DivisionByZero("polynomial division by zero")
        if len(a) < len(b):
            return _EMPTY, a
        if len(b) == 1:
            return self.arr_scalar_mul(a, self.sinv(int(b[0]))), _EMPTY
        k, m = len(a) - len(b) + 1, len(b) - 1
        if k >= _NEWTON_MIN_LEN:
            if inverse is None or len(inverse) < k:
                inverse = self.arr_rev_inverse(b, k)
            rev_quo = self.arr_mul(_trim(a[m:][::-1]), inverse[:k])
            quo = _pad(rev_quo[:k], k)[::-1].copy()
            low = self.arr_mul(_trim(quo[:m]), _trim(b[:m]))[:m]
            return quo, _trim(self.arr_axpy(a[:m], self.p - 1, _pad(low, m)))
        r = a.copy()
        rem = self.arr_mod_inplace(r, b)
        return self.arr_scalar_mul(r[m:], self.sinv(int(b[-1]))), rem

    def arr_rev_inverse(self, b, k):
        """1 / rev(b) mod x^k, rev(b) = b reversed, for lc(b) != 0, by Newton
        iteration with precision doubling (MCA Algorithm 9.3).

        Lemma: if rev(b) g = 1 + x^l h mod x^(2l), then g' = g - x^l (g h
        mod x^l) has rev(b) g' = 1 - x^(2l) h^2 = 1 mod x^(2l), and g' = g
        mod x^l.  So each step keeps g and appends the l coefficients
        -(g h mod x^l), where h is coefficients l .. 2l - 1 of rev(b) g;
        both products are `arr_mul`, for every q.
        """
        f = b[::-1]
        g = np.array([self.sinv(int(f[0]))], dtype=np.int64)
        while len(g) < k:
            l, n = len(g), min(2 * len(g), k)
            h = _trim(self.arr_mul(_trim(f[:n]), g)[l:n])
            gh = self.arr_mul(_trim(g[: n - l]), h)[: n - l]
            g = np.concatenate((g, self.arr_neg(_pad(gh, n - l))))
        return g

    def arr_mod_inplace(self, r, b):
        """r mod b where r is a private writable array; returns trimmed view.

        Each step cancels r's top coefficient against b below it and leaves
        that coefficient in place, so r[len(b) - 1:] / lc(b) is the quotient.

        For d = 1 the reduction is lazy: each step reduces only the top
        coefficient it cancels, adds (c * -1/lc(b) mod p) * b[:-1] to the
        window without reducing it, and one `% p` over r ends the division.
        Lemma: with nb = len(b) and r reduced on entry, each entry of r
        receives at most nb - 1 updates, one from each step whose window
        covers it, and each is at most (p - 1)^2.  So every entry stays below p + (nb - 1)(p - 1)^2,
        which is below 2^63 for p < 2^16 (`Fq` allows no larger q) and
        nb < 2^31: no int64 overflows, and the final `% p` gives the exact
        remainder and the reduced quotient slots.
        """
        nb = len(b)
        low = b[:-1]
        if self.d == 1:
            p = self.p
            minus_inv_lead = p - self.sinv(int(b[-1]))
            for k in range(len(r) - nb, -1, -1):
                c = int(r[k + nb - 1]) % p
                if c:
                    r[k: k + nb - 1] += (c * minus_inv_lead % p) * low
            r %= p
            return _trim(r[: nb - 1])
        minus_inv_lead = self.sneg(self.sinv(int(b[-1])))
        axpy, smul = self.arr_axpy, self.smul
        for k in range(len(r) - nb, -1, -1):
            c = int(r[k + nb - 1])
            if c:
                r[k: k + nb - 1] = axpy(r[k: k + nb - 1], smul(c, minus_inv_lead), low)
        return _trim(r[: nb - 1])

    def arr_gcd(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        a, b = a.copy(), b.copy()
        while len(b):
            if len(b) == 1:
                return np.array([1], dtype=np.int64)
            r = self.arr_mod_inplace(a, b)
            a, b = b, r
        if len(a) and a[-1] != 1:
            a = self.arr_scalar_mul(a, self.sinv(int(a[-1])))
        return a

    def arr_frob_spread(self, a, k):
        # a^(q^k): F_q coefficients are Frobenius-fixed, exponents scale
        if len(a) == 0 or k == 0:
            return a
        stride = self.q ** k
        out = np.zeros((len(a) - 1) * stride + 1, dtype=np.int64)
        out[:: stride] = a
        return out

    def arr_matmul(self, a, b):
        """The product over F_q of packed matrices a (k x m) and b (m x n).

        For d = 1 one integer matrix product, exact while m (p - 1)^2 <
        2^63.  Above, the F_p digits of both go through one integer product
        per digit pair (digit i of a times digit j of b lands at y^(i+j)),
        reduced by the modulus once at the end.
        """
        p, d = self.p, self.d
        if d == 1:
            return (a @ b) % p
        (k, m), n = a.shape, b.shape[1]
        da = (a[:, :, None] // self._pp) % p
        db = (b[:, :, None] // self._pp) % p
        prod = (da.transpose(0, 2, 1).reshape(k * d, m)
                @ db.reshape(m, n * d)).reshape(k, d, n, d)
        conv = np.zeros((k, n, 2 * d - 1), dtype=np.int64)
        for i in range(d):
            conv[:, :, i: i + d] += prod[:, i]
        return (((conv % p) @ self._red) % p) @ self._pp

    def arr_xpow_table(self, b, count, table=None):
        """Rows T^i mod b for i < count, for a monic b of degree n >= 1,
        extending `table` (such rows for i < len(table), len(table) >= n).

        Rows below n are the identity and rows n .. 2n - 1 come by steps of
        T.  Rows n .. 2n - 1 are the matrix of multiplication by T^n, so the
        last n rows times it give the next n, and all m rows times those
        give T^(m + i) = T^i T^m for i < m: two matrix products per doubling.
        """
        n = len(b) - 1
        if table is None:
            table = np.eye(n, dtype=np.int64)
        if len(table) < min(count, 2 * n):
            minus_low = self.arr_neg(b[:-1])
            cur, step = table[n - 1], []
            for _ in range(n):
                top = int(cur[-1])
                cur = np.concatenate(([0], cur[:-1]))
                if top:
                    cur = self.arr_axpy(cur, top, minus_low)
                step.append(cur)
            table = np.vstack((table[:n], step))
        while len(table) < count:
            shift = self.arr_matmul(table[-n:], table[n: 2 * n])
            table = np.vstack((table, self.arr_matmul(table, shift)))
        return table[:count]

    # -- convenience constructors ---------------------------------------------

    def elem(self, coords):
        if isinstance(coords, FqElem):
            return coords
        if isinstance(coords, int):
            return FqElem(self, coords % self.p)
        vec = [int(c) % self.p for c in coords]
        if len(vec) > self.d:
            raise ValueError("too many coordinates")
        vec += [0] * (self.d - len(vec))
        return FqElem(self, int(np.dot(vec, self._pp)))

    def elem_packed(self, val):
        """Element from its packed base-p value in [0, q)."""
        return FqElem(self, int(val) % self.q)

    def poly(self, coeffs):
        vals = []
        for c in coeffs:
            if isinstance(c, FqElem):
                if c.field is not self:
                    raise FieldMismatch("coefficient from another field")
                vals.append(c.val)
            elif isinstance(c, int):
                vals.append(c % self.p)
            else:
                vals.append(self.elem(c).val)
        return PolyA(self, _trim(np.array(vals, dtype=np.int64)))

    def poly_T(self):
        return self.poly([0, 1])

    def rat(self, num):
        """The PolyA num as an element of Q = F_q(T)."""
        return RatFunc.make(num, self.poly_one)


def _step_power(row, steps, e, p):
    """row times the matrix of g^e, where steps[k] is the matrix of g^(2^k)
    over F_p and e < 2^len(steps)."""
    for k, step in enumerate(steps):
        if e >> k & 1:
            row = row @ step % p
    return row


def _trim(arr):
    if len(arr) == 0 or arr[-1] != 0:
        return arr
    nz = np.flatnonzero(arr)
    return arr[: nz[-1] + 1] if len(nz) else arr[:0]


def _pad(arr, n):
    """arr followed by zeros up to length n."""
    if len(arr) == n:
        return arr
    out = np.zeros(n, dtype=np.int64)
    out[: len(arr)] = arr
    return out


def power(base, e, one):
    """base^e for an integer e >= 0, by left-to-right square-and-multiply.

    Starts from base itself: one squaring per bit below the top one, and
    one product by base per set bit among them.  `one` is returned for e = 0.
    """
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:
        return one
    out = base
    for bit in bin(e)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


# When products with all coefficients in F_p use _kron_conv (`_kron_pays`).
# Time of _kron_conv over np.convolve, median of three best-of-11 runs on
# one 2-core Xeon host, equal to within 0.02 over F_3, F_5 and F_7 (2-byte
# slots), shorter x longer operand:
#
#     100x1000  1.06    150x150  1.36    200x200  1.10    250x250   0.93
#     150x300   1.08    150x600  0.91    200x400  0.92    250x2500  0.66
#     200x2000  0.72    300x300  0.80    400x400  0.65    1000x1000 0.38
#
# So Kronecker substitution wins once the shorter has 150 coefficients and
# the lengths multiply to 250^2.  Wider slots make the integer product
# dearer, and the switch moves up by s = 2^(w - 2) for w-byte slots: over
# F_257 (4 bytes, s = 4) 1.24 at 400x400, 0.82 at 1000x1000 and 0.79 at
# 1000x8000; over F_65521 (6 bytes, s = 16) 1.36 at 1000x1000, 1.07 at
# 2000x2000, 1.39 at 1000x8000 and 0.70 at 4000x4000.
_KRON_MIN_LEN = 250
_KRON_MIN_SHORT = 150

# The sparse rule of `Fq.arr_mul`: the lengths multiply to at least
# _SPARSE_MIN_WORK, the nonzero counts to at most that / _SPARSE_RATIO and
# at most _SPARSE_MAX_PAIRS (2 MiB per array of pairs).  Time of the rule
# over the dense kernels, median of three best-of-11 runs on the host above,
# for a spread a(T^Q) of m + 1 terms times a dense operand of length L /
# times a second spread:
#     m, Q, L    1, 64, 64  1, 256, 32  1, 128, 128  3, 1024, 64
#     work       4160       8224        16512        196672
#     F_3        2.29/2.67  1.49/0.45   0.97/0.90    0.38/0.14
#     F_65521    2.11/2.07  1.56/0.34   0.97/0.90    0.30/0.01
#     F_9        0.39/0.37  0.26/0.20   0.32/0.28    0.15/0.07
# On `cm`'s groups (best of 60, interleaved) the floors 4096 / 8192 / 16384
# took F3 29.7 / 28.6 / 29.5 ms, F9 6.7 / 6.9 / 8.7 ms and K5 14.6 / 14.7 /
# 15.3 ms, against 34.2, 25.8 and 14.7 ms without the rule.  A ratio of 8
# took K5 to 15.8 ms: over F_p a dense operand of 1,238 terms times one of
# 27 with 4 terms (ratio 10) takes 37 us by the rule and 28 by np.convolve.
_SPARSE_MIN_WORK = 8192
_SPARSE_RATIO = 12
_SPARSE_MAX_PAIRS = 1 << 18

# Quotient length from which `Fq.arr_divmod` divides by a Newton inverse.
# Time of the Newton path, inverse included, over the loop of
# `arr_mod_inplace`, best of 9, two runs on the host above, divisor length x
# quotient length:
#
#                64x64      96x96      128x128    256x256    400x400
#     F_3        1.20-1.29  1.23-1.28  0.83-0.94  0.73-0.75  0.65-0.68
#     F_5        1.06-1.12  0.92-0.95  0.78-0.82  0.52-0.61  0.61-0.62
#     F_7        1.00-1.05  0.83-0.88  0.71-1.23  0.58-0.60  0.53-0.55
#     F_65521    0.62-0.82  0.70-0.95  0.58       0.44-0.50  0.55-0.68
#     F_512      0.42-0.46  0.49-0.50  0.44       0.28-0.45  0.49-0.54
#
#                2x64       2x128      1000x64    1000x128   1000x256
#     F_3        0.81       0.48-0.55  1.11-1.12  0.94-0.95  0.71-0.76
#     F_5        0.63-0.68  0.44       1.17-1.18  0.72-0.80  0.68-0.73
#     F_7        0.62-0.63  0.40       1.01-1.02  0.72-0.74  0.57-0.59
#     F_65521    0.57       0.36       0.82-0.85  0.64       0.56-0.57
#
# The quotient length decides: the loop pays one step per quotient
# coefficient, whatever the divisor.  Over F_4, F_9 and F_25, where a
# product splits digits and reduces by the modulus while a loop step is two
# table lookups, Newton is 1.3-2.4 times slower at 128x128 and breaks even
# near 256x256 (0.8-0.9 at 400x400); no workload divides polynomials that
# long over those fields.
_NEWTON_MIN_LEN = 128


def _kron_pays(na, nb, p):
    """True when an F_p product of operands of lengths na and nb takes
    `_kron_conv`: the shorter has at least _KRON_MIN_SHORT * s
    coefficients and the lengths multiply to at least (_KRON_MIN_LEN * s)^2,
    where s = 2^(w - 2) grows with the slot width of w >= 2 bytes."""
    short = min(na, nb)
    w = ((short * (p - 1) ** 2).bit_length() + 7) // 8
    s = 1 << max(w - 2, 0)
    return short >= _KRON_MIN_SHORT * s and na * nb >= (_KRON_MIN_LEN * s) ** 2


def _kron_conv(da, db, p):
    """All digit-pair convolutions of two F_p digit arrays, exactly.

    `da` (na, ha) and `db` (nb, hb) hold F_p digits of two polynomials over
    F_q, one row per coefficient (ha, hb <= d; digits past them are zero).
    With s = ha + hb - 1, returns the int64 array `conv` of shape
    (na + nb - 1, s) with

        conv[m, k] = sum over m1 + m2 = m, i + j = k of da[m1, i] * db[m2, j],

    unreduced.  Digit i of coefficient m goes into slot m*s + i of one big
    integer per operand (Kronecker substitution), and one Python integer
    product yields every convolution at once.

    Lemma (no carries).  Slot k of the product collects the products whose
    slot indices add up to k; since i + j <= ha + hb - 2 < s, slot m*s + k
    receives exactly the terms of conv[m, k].  Each such sum has at most
    h * min(na, nb) terms, h = min(ha, hb) <= d, each at most (p - 1)^2, so
    a slot of w bytes with 2^(8w) > h * min(na, nb) * (p - 1)^2 holds it
    and no carry reaches the next slot.  The unpacked slots are therefore
    the exact sums.  A slot wider than 7 bytes would not fit the int64
    result and raises RuntimeError.
    """
    (na, ha), (nb, hb) = da.shape, db.shape
    s = ha + hb - 1
    w = ((min(ha, hb) * min(na, nb) * (p - 1) ** 2).bit_length() + 7) // 8
    if w > 7:
        raise RuntimeError("slot too wide for an int64 result")

    def pack(x):
        slots = np.zeros((len(x), s), dtype="<u8")
        slots[:, : x.shape[1]] = x
        return int.from_bytes(
            slots.view(np.uint8).reshape(-1, 8)[:, :w].tobytes(), "little")

    n = na + nb - 1
    prod = pack(da) * pack(db)
    raw = np.frombuffer(prod.to_bytes(n * s * w, "little"), dtype=np.uint8)
    wide = np.zeros((n * s, 8), dtype=np.uint8)
    wide[:, :w] = raw.reshape(-1, w)
    return wide.view("<i8").reshape(n, s)


class FqElem:
    """Element of F_q as coordinates over the power basis of the modulus."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = int(val)

    @property
    def coords(self):
        p = self.field.p
        return tuple((self.val // p ** i) % p for i in range(self.field.d))

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and other.field is self.field
            and other.val == self.val
        )

    def __hash__(self):
        return hash((id(self.field), self.val))

    def __add__(self, other):
        return FqElem(self.field, self.field.sadd(self.val, other.val))

    def __neg__(self):
        return FqElem(self.field, self.field.sneg(self.val))

    def __mul__(self, other):
        return FqElem(self.field, self.field.smul(self.val, other.val))

    def __truediv__(self, other):
        return FqElem(self.field, self.field.sdiv(self.val, other.val))

    def inverse(self):
        return FqElem(self.field, self.field.sinv(self.val))

    def __pow__(self, e):
        return FqElem(self.field, self.field.spow(self.val, e))

    def __repr__(self):
        if self.field.d == 1:
            return str(self.val)
        return "[" + ",".join(str(c) for c in self.coords) + "]"


class PolyA:
    """Element of A = F_q[T], little-endian, no trailing zero coefficient."""

    __slots__ = ("field", "_c", "_hash")

    def __init__(self, field, arr):
        self.field = field
        arr = np.asarray(arr, dtype=np.int64)
        arr.flags.writeable = False
        self._c = arr
        self._hash = None

    @property
    def coeffs(self):
        return tuple(FqElem(self.field, int(v)) for v in self._c)

    @property
    def array(self):
        return self._c

    @property
    def degree(self):
        # zero polynomial reports the sentinel -1
        return len(self._c) - 1

    def is_zero(self):
        return len(self._c) == 0

    def is_one(self):
        return len(self._c) == 1 and int(self._c[0]) == 1

    def is_constant(self):
        return len(self._c) <= 1

    def lc(self):
        if self.is_zero():
            raise DivisionByZero("leading coefficient of zero")
        return FqElem(self.field, int(self._c[-1]))

    def is_monic(self):
        return len(self._c) > 0 and int(self._c[-1]) == 1

    def __bool__(self):
        return len(self._c) != 0

    def __eq__(self, other):
        return (
            isinstance(other, PolyA)
            and other.field is self.field
            and len(other._c) == len(self._c)
            and bool(np.array_equal(other._c, self._c))
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.field), self._c.tobytes()))
        return self._hash

    def __add__(self, other):
        return PolyA(self.field, self.field.arr_add(self._c, other._c))

    def __sub__(self, other):
        return PolyA(self.field, self.field.arr_sub(self._c, other._c))

    def __neg__(self):
        return PolyA(self.field, self.field.arr_neg(self._c))

    def __mul__(self, other):
        if isinstance(other, FqElem):
            return self.scale(other)
        # a constant operand is a scalar multiply, and the constant 1
        # shares the other operand (arrays are read-only)
        x, const = (other, self) if len(self._c) == 1 else (self, other)
        if len(const._c) == 1:
            c = int(const._c[0])
            return x if c == 1 else PolyA(self.field, self.field.arr_scalar_mul(x._c, c))
        return PolyA(self.field, self.field.arr_mul(self._c, other._c))

    def scale(self, c):
        if not c:
            return self.field.poly_zero
        return PolyA(self.field, self.field.arr_scalar_mul(self._c, c.val))

    def __divmod__(self, other):
        q, r = self.field.arr_divmod(self._c, other._c)
        return PolyA(self.field, q), PolyA(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        return power(self, e, self.field.poly_one)

    def gcd(self, other):
        return PolyA(self.field, self.field.arr_gcd(self._c, other._c))

    def monic(self):
        if self.is_zero() or self._c[-1] == 1:
            return self
        return self.scale(self.lc().inverse())

    def frob_power(self, k):
        return PolyA(self.field, self.field.arr_frob_spread(self._c, k))

    def derivative(self):
        if len(self._c) <= 1:
            return self.field.poly_zero
        f = self.field
        out = self._c[1:].copy()
        for i in range(len(out)):
            out[i] = f.smul(int(out[i]), (i + 1) % f.p) if (i + 1) % f.p else 0
        return PolyA(f, _trim(out))

    def shift(self, k):
        # multiply by T^k
        if self.is_zero():
            return self
        return PolyA(
            self.field,
            np.concatenate((np.zeros(k, dtype=np.int64), self._c)),
        )

    def pth_root(self):
        """The p-th root of a polynomial in T^p: T^p -> T, and each
        coefficient x -> x^(p^(d-1)), the inverse of x -> x^p on F_q."""
        f = self.field
        roots = self._c[:: f.p]
        out = np.zeros(len(roots), dtype=np.int64)
        nz = roots != 0
        out[nz] = f._exp[(f._log[roots[nz]] * f.p ** (f.d - 1)) % (f.q - 1)]
        return PolyA(f, out)

    def __repr__(self):
        return poly_to_text(self)


def poly_to_text(p):
    """Render in the `c0 + c1*T + c2*T^2` grammar."""
    if p.is_zero():
        return "0"
    parts = []
    for i, v in enumerate(p._c):
        if v == 0:
            continue
        c = FqElem(p.field, int(v))
        cs = repr(c)
        if i == 0:
            parts.append(cs)
        else:
            t = "T" if i == 1 else f"T^{i}"
            parts.append(t if cs == "1" else f"{cs}*{t}")
    return " + ".join(parts)


def shifted_sum(polys, shifts):
    """sum_i T^shifts[i] polys[i] for PolyA values over one field: one
    array, accumulated in place by `arr_axpy`, with no products."""
    fq = polys[0].field
    out = np.zeros(max(s + len(a._c) for a, s in zip(polys, shifts)),
                   dtype=np.int64)
    for a, s in zip(polys, shifts):
        a = a._c
        out[s: s + len(a)] = fq.arr_axpy(out[s: s + len(a)], 1, a)
    return PolyA(fq, _trim(out))


def cleared_numerators(fq, rats):
    """([r.num * (L // r.den) for r in rats], L): the RatFunc values `rats`
    times L, the monic lcm of their denominators."""
    lcm = fq.poly_one
    for r in rats:
        if not r.den.is_one():
            lcm = r.den if lcm.is_one() else lcm * (r.den // lcm.gcd(r.den))
    if lcm.is_one():
        return [r.num for r in rats], lcm
    return [r.num if r.den == lcm or r.is_zero() else r.num * (lcm // r.den)
            for r in rats], lcm


def primitive_numerators(fq, rats):
    """The primitive vector of A^n on the Q-line through `rats`.

    Each r becomes r.num * (L // r.den) for the common denominator L, and
    the results are divided by their content, their monic gcd.  The content
    starts as the gcd of the two lowest-degree nonzero numerators (the monic
    numerator when there is one), which is a multiple of the true content;
    one pass divides every numerator by it, sharing one inverse
    (`Fq.arr_divmod`).  A nonzero remainder r of some n replaces the content
    by gcd(content, r) = gcd(content, n), still a multiple of the true
    content and of lower degree, and the pass restarts; a pass without
    remainders ends at the true content.  The result is `rats` times a
    nonzero element of Q (all zero when `rats` is).
    """
    nums, _ = cleared_numerators(fq, rats)
    order = sorted((i for i, n in enumerate(nums) if n),
                   key=lambda i: len(nums[i]._c))
    if not order:
        return nums
    first = nums[order[0]]
    content = first.monic() if len(order) == 1 else first.gcd(nums[order[1]])
    while not content.is_one():
        b = content._c
        k = len(nums[order[-1]]._c) - len(b) + 1
        inverse = fq.arr_rev_inverse(b, k) if k >= _NEWTON_MIN_LEN else None
        out = list(nums)
        for i in order:
            quo, rem = fq.arr_divmod(nums[i]._c, b, inverse)
            if len(rem):
                content = content.gcd(PolyA(fq, rem))
                break
            out[i] = PolyA(fq, quo)
        else:
            return out
    return nums


class RatFunc:
    """Element of Q = F_q(T) in canonical form: den monic, gcd(num, den) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        # trusted constructor; use RatFunc.make to normalize
        self.field = field
        self.num = num
        self.den = den

    @classmethod
    def make(cls, num, den):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        field = num.field
        if num.is_zero():
            return field.rat_zero
        if not den.is_one():
            g = num.gcd(den)
            if not g.is_one():
                num = num // g
                den = den // g
            if den._c[-1] != 1:
                lead_inv = den.lc().inverse()
                num = num.scale(lead_inv)
                den = den.scale(lead_inv)
        return cls(field, num, den)

    @classmethod
    def from_poly(cls, p):
        return cls(p.field, p, p.field.poly_one)

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_one()

    def as_fq(self):
        if not self.is_constant():
            raise ValueError("not a constant")
        if self.is_zero():
            return self.field.zero
        return FqElem(self.field, int(self.num._c[0]))

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and other.field is self.field
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((hash(self.num), hash(self.den)))

    def _add_like(self, other, sign):
        # Knuth/cpython-fractions scheme: keeps gcd operands small and the
        # result canonical without a full re-normalization.
        field = self.field
        if other.is_zero():
            return self
        if self.is_zero():
            return other if sign > 0 else -other
        na, da = self.num, self.den
        nb, db = other.num, other.den
        if da.is_one() and db.is_one():
            t = na + nb if sign > 0 else na - nb
            return RatFunc(field, t, da) if not t.is_zero() else field.rat_zero
        g = da.gcd(db)
        if g.is_one():
            t = na * db + nb * da if sign > 0 else na * db - nb * da
            if t.is_zero():
                return field.rat_zero
            return RatFunc(field, t, da * db)
        s = da // g
        db_red = db // g
        t = na * db_red + nb * s if sign > 0 else na * db_red - nb * s
        if t.is_zero():
            return field.rat_zero
        g2 = t.gcd(g)
        if g2.is_one():
            return RatFunc(field, t, s * db)
        return RatFunc(field, t // g2, s * (db // g2))

    def __add__(self, other):
        return self._add_like(other, 1)

    def __sub__(self, other):
        return self._add_like(other, -1)

    def __neg__(self):
        if self.is_zero():
            return self
        return RatFunc(self.field, -self.num, self.den)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return self.field.rat_zero
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.field, self.num * other.num, self.den)
        # reduce crosswise first to keep gcd operands small; a denominator
        # of 1 has nothing to cancel
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not d.is_one():
            g1 = a.gcd(d)
            if not g1.is_one():
                a, d = a // g1, d // g1
        if not b.is_one():
            g2 = c.gcd(b)
            if not g2.is_one():
                c, b = c // g2, b // g2
        return RatFunc(self.field, a * c, b * d)

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero rational function")
        num, den = self.den, self.num
        if not den.is_monic():
            inv = den.lc().inverse()
            num, den = num.scale(inv), den.scale(inv)
        return RatFunc(self.field, num, den)

    def __truediv__(self, other):
        return self * other.inverse()

    def frob_power(self, k):
        # canonical form is preserved by T -> T^(q^k) spreading
        if k == 0 or self.is_zero():
            return self
        return RatFunc(self.field, self.num.frob_power(k), self.den.frob_power(k))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.field.rat_one)

    def __repr__(self):
        if self.den.is_one():
            return poly_to_text(self.num)
        return f"({poly_to_text(self.num)}) / ({poly_to_text(self.den)})"


class ResidueField:
    """The ring A/P at a monic P of degree n >= 1, table-free.

    Elements are packed vectors of length n over the basis 1, T, ...,
    T^(n-1) of A/P.  Every operation is a kernel of `Fq`: products are
    convolutions reduced by one matrix product with the rows T^i mod P,
    i < 2n - 1, and Frobenius x -> x^q is the F_q-linear map with rows
    (T^q)^i mod P, T^q by squaring, built on the first `frob`.  Elements
    carry the coefficient interface of K{tau} (is_zero, frob, inverse, +,
    -, *, /), so `skew` runs over A/P unchanged; factorization in A
    computes in A/(f).  `is_field`: A/P is a field, i.e. P is irreducible.
    """

    def __init__(self, fq, P):
        self.fq = fq
        self.P = P
        self.n = n = P.degree
        self._table = fq.arr_xpow_table(P.array, 2 * n - 1)

    @cached_property
    def _frob(self):
        # for n = 1, A/P is F_q and Frobenius the identity
        rows = [self.one]
        if self.n > 1:
            xq = power(ResidueElem(self, self._table[1]), self.fq.q, self.one)
            for _ in range(self.n - 1):
                rows.append(rows[-1] * xq)
        return np.array([r.vec for r in rows])

    # built on demand: elements refer to their field, so a field that kept
    # its own would form a reference cycle, left to the cyclic collector
    @property
    def zero(self):
        return ResidueElem(self, np.zeros(self.n, dtype=np.int64))

    @property
    def one(self):
        return ResidueElem(self, self._table[0])

    def _rows(self, count):
        """The rows T^i mod P for i < count."""
        if len(self._table) < count:
            self._table = self.fq.arr_xpow_table(self.P.array, count,
                                                 self._table)
        return self._table[:count]

    def _reduce_rows(self, polys):
        width = max(len(a.array) for a in polys)
        mat = np.zeros((len(polys), width), dtype=np.int64)
        for i, a in enumerate(polys):
            mat[i, : len(a.array)] = a.array
        return self.fq.arr_matmul(mat, self._rows(width))

    def reduce(self, polys, root=None):
        """The residues of the PolyA values `polys`, by one matrix product.

        With a PolyA `root` and `polys` a list of e-tuples (a_0, ..,
        a_(e-1)), the residues of sum_j a_j root^j: the a_j are reduced
        together, and each power of root acts by its multiplication matrix,
        whose rows are the residues of T^i root^j.
        """
        fq = self.fq
        if root is None:
            return [ResidueElem(self, r) for r in self._reduce_rows(polys)]
        k, e, n = len(polys), len(polys[0]), self.n
        powers = [root] if e > 1 else []
        while len(powers) < e - 1:
            powers.append(powers[-1] * root)
        mats = self._reduce_rows([a for v in polys for a in v]
                                 + [r.shift(i) for r in powers
                                    for i in range(n)])
        vals = mats[: k * e].reshape(k, e, n)
        out = vals[:, 0]
        for j in range(1, e):
            mult = mats[k * e + (j - 1) * n: k * e + j * n]
            out = fq.arr_axpy(out, 1, fq.arr_matmul(vals[:, j], mult))
        return [ResidueElem(self, r) for r in out]

    def is_field(self):
        """Rabin's test on P through the Frobenius map: T^(q^n) = T, and
        gcd(T^(q^(n/r)) - T, P) = 1 for every prime r dividing n."""
        n = self.n
        T = self.reduce([self.fq.poly_T()])[0]
        images = [T]
        for _ in range(n):
            images.append(images[-1].frob())
        if images[n] != T:
            return False
        for r in _prime_factors(n):
            if not (images[n // r] - T).lift().gcd(self.P).is_one():
                return False
        return True

    def linearized_matrices(self, residues):
        """For each list c_0, .., c_m of elements of A/P, the n x n matrix
        over F_q of c -> sum_i c_i c^(q^i) on A/P, row j the image of T^j.

        The products by every c_i come from one matrix product: row j of
        c_i is c_i T^j, reduced by the rows T^k mod P.  The q-power maps
        act by the Frobenius rows, by Horner's rule in them.
        """
        fq, n = self.fq, self.n
        width = 2 * n - 1
        coeffs = [c.vec for cs in residues for c in cs]
        shifted = np.zeros((len(coeffs), n, width), dtype=np.int64)
        for k, c in enumerate(coeffs):
            for j in range(n):
                shifted[k, j, j: j + n] = c
        products = fq.arr_matmul(shifted.reshape(-1, width),
                                 self._rows(width)).reshape(-1, n, n)
        out, start = [], 0
        for cs in residues:
            start += len(cs)
            acc = products[start - 1]
            for i in range(start - 2, start - len(cs) - 1, -1):
                acc = fq.arr_axpy(products[i], 1, fq.arr_matmul(self._frob, acc))
            out.append(acc)
        return out

    def __repr__(self):
        return f"ResidueField({self.P!r})"


def row_relations(fq, rows):
    """Yield (k, combo) for each row k of the F_q-matrix `rows` that lies in
    the span of the rows before it: combo[k] = 1, combo[i] = 0 for i > k
    and sum_i combo[i] rows[i] = 0.

    One incremental Gaussian elimination with an augmented identity block.
    The combos yielded are a basis of the left kernel {x : x rows = 0}.
    """
    pivots = []  # (col, row, aug)
    for k, row in enumerate(rows):
        aug = np.zeros(len(rows), dtype=np.int64)
        aug[k] = 1
        for col, prow, paug in pivots:
            c = int(row[col])
            if c:
                neg = fq.sneg(c)
                row = fq.arr_axpy(row, neg, prow)
                aug = fq.arr_axpy(aug, neg, paug)
        nz = np.flatnonzero(row)
        if len(nz) == 0:
            yield k, aug
            continue
        col = int(nz[0])
        inv = fq.sinv(int(row[col]))
        pivots.append((col, fq.arr_scalar_mul(row, inv),
                       fq.arr_scalar_mul(aug, inv)))


class ResidueElem:
    """Element of a ResidueField: its packed vector of length n."""

    __slots__ = ("field", "vec")

    def __init__(self, field, vec):
        self.field = field
        self.vec = vec

    def is_zero(self):
        return not np.count_nonzero(self.vec)

    def is_one(self):
        return int(self.vec[0]) == 1 and not np.count_nonzero(self.vec[1:])

    def __eq__(self, other):
        return (isinstance(other, ResidueElem) and other.field is self.field
                and bool(np.array_equal(other.vec, self.vec)))

    def __add__(self, other):
        fq = self.field.fq
        return ResidueElem(self.field, fq.arr_axpy(self.vec, 1, other.vec))

    def __sub__(self, other):
        fq = self.field.fq
        return ResidueElem(self.field,
                           fq.arr_axpy(self.vec, fq.p - 1, other.vec))

    def __mul__(self, other):
        fld = self.field
        if self.is_zero() or other.is_zero():
            return fld.zero
        conv = fld.fq.arr_mul(self.vec, other.vec)
        rows = fld._table[: len(conv)]
        return ResidueElem(fld, fld.fq.arr_matmul(conv[None, :], rows)[0])

    def __truediv__(self, other):
        return self * other.inverse()

    def frob(self):
        fld = self.field
        return ResidueElem(fld, fld.fq.arr_matmul(self.vec[None, :],
                                                  fld._frob)[0])

    def inverse(self):
        """x^(-1) = c / N(x) with c = x^q x^(q^2) ... x^(q^(n-1)): the norm
        N(x) = x c lies in F_q (Itoh-Tsujii)."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero in A/P")
        fld = self.field
        fq = fld.fq
        conj, cur = fld.one, self
        for _ in range(fld.n - 1):
            cur = cur.frob()
            conj = conj * cur
        norm = int((self * conj).vec[0])
        return ResidueElem(fld, fq.arr_scalar_mul(conj.vec, fq.sinv(norm)))

    def lift(self):
        """The representative in A, of degree < n."""
        return PolyA(self.field.fq, _trim(self.vec))

    def __repr__(self):
        return f"{poly_to_text(self.lift())} mod P"
