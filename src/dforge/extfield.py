"""The extension K = Q[x]/(f) and explicit finite Galois actions on it.

f is a single monic irreducible over Q (no towers of towers); e = 1
degenerates to Q itself.  Frobenius x -> x^q is precomputed as a linear
map over the power basis, so iterated q-powers cost e^2 coefficient
operations each.
"""
from __future__ import annotations

from functools import partial

from .errors import DivisionByZero, FieldMismatch, InvalidAutomorphism
from .fields import RatFunc, power
from .groups import CyclicProduct
from .ideals import rational_roots

__all__ = ["ExtField", "ExtFieldElem", "GaloisDatum"]


class ExtField:
    """Context for K = Q[x]/(f), f monic of degree e over Q = F_q(T)."""

    def __init__(self, fq, minpoly=None):
        self.fq = fq
        if minpoly is None:
            minpoly = [fq.rat_zero, fq.rat_one]  # f = x, i.e. K = Q
        minpoly = list(minpoly)
        if len(minpoly) < 2 or not minpoly[-1].is_one():
            raise ValueError("minimal polynomial must be monic of degree >= 1")
        self.f = tuple(minpoly)
        self.e = len(minpoly) - 1
        self.zero = ExtFieldElem(self, (fq.rat_zero,) * self.e)
        one = [fq.rat_zero] * self.e
        one[0] = fq.rat_one
        self.one = ExtFieldElem(self, tuple(one))
        self._xpow_table = self._reduction_table()
        if self.e > 1:
            self._check_no_rational_root()
            # (x^j)^q mod f for j < e, the linear part of Frobenius
            xq = self.gen() ** fq.q
            table = [self.one, xq]
            for _ in range(self.e - 2):
                table.append(table[-1] * xq)
            self._xq_pows = tuple(table)

    def _reduction_table(self):
        # x^k mod f for k = e .. 2e-2
        fq, e = self.fq, self.e
        rows = []
        cur = [(-self.f[i]) for i in range(e)]
        rows.append(tuple(cur))
        for _ in range(e - 2):
            top = cur[e - 1]
            cur = [fq.rat_zero] + cur[: e - 1]
            if not top.is_zero():
                cur = [cur[i] + top * rows[0][i] for i in range(e)]
            rows.append(tuple(cur))
        return rows

    def _check_no_rational_root(self):
        if rational_roots(list(self.f)):
            raise ValueError("minimal polynomial has a root in Q; not irreducible")

    def elem(self, coords):
        """Element from coordinates (RatFunc, PolyA, or base-embeddable values)."""
        vec = []
        for c in coords:
            if isinstance(c, RatFunc):
                vec.append(c)
            elif isinstance(c, int):
                vec.append(RatFunc.from_poly(self.fq.poly([c])))
            else:
                vec.append(RatFunc.from_poly(c))
        if len(vec) > self.e:
            raise ValueError("too many coordinates")
        vec += [self.fq.rat_zero] * (self.e - len(vec))
        return ExtFieldElem(self, tuple(vec))

    def from_rat(self, r):
        vec = [self.fq.rat_zero] * self.e
        vec[0] = r
        return ExtFieldElem(self, tuple(vec))

    def from_poly(self, p):
        return self.from_rat(RatFunc.from_poly(p))

    def gen(self):
        if self.e == 1:
            # x = 0 in the degenerate presentation
            return self.zero
        vec = [self.fq.rat_zero] * self.e
        vec[1] = self.fq.rat_one
        return ExtFieldElem(self, tuple(vec))

    def T(self):
        return self.from_poly(self.fq.poly_T())

    def __repr__(self):
        return f"ExtField(q={self.fq.q}, e={self.e})"


class ExtFieldElem:
    """Element of K as coordinates over the power basis 1, x, ..., x^{e-1}."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def is_one(self):
        return self.coords[0].is_one() and all(c.is_zero() for c in self.coords[1:])

    def in_base(self):
        """True when the element lies in Q."""
        return all(c.is_zero() for c in self.coords[1:])

    def as_rat(self):
        if not self.in_base():
            raise ValueError("element is not in Q")
        return self.coords[0]

    def is_fq_constant(self):
        return self.in_base() and self.coords[0].is_constant()

    def as_fq(self):
        if not self.is_fq_constant():
            raise ValueError("element is not an F_q constant")
        return self.coords[0].as_fq()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, ExtFieldElem)
            and other.field is self.field
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash(tuple(self.coords))

    def __add__(self, other):
        return ExtFieldElem(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        return ExtFieldElem(
            self.field, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return ExtFieldElem(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        fld = self.field
        e = fld.e
        if e == 1:
            return ExtFieldElem(fld, (self.coords[0] * other.coords[0],))
        fq = fld.fq
        raw = [fq.rat_zero] * (2 * e - 1)
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coords):
                if b.is_zero():
                    continue
                raw[i + j] = raw[i + j] + a * b
        out = list(raw[:e])
        for k in range(e, 2 * e - 1):
            top = raw[k]
            if top.is_zero():
                continue
            row = fld._xpow_table[k - e]
            out = [out[i] + top * row[i] for i in range(e)]
        return ExtFieldElem(fld, tuple(out))

    def scale(self, r):
        """Multiply by an element of Q."""
        if r.is_zero():
            return self.field.zero
        return ExtFieldElem(self.field, tuple(c * r for c in self.coords))

    def inverse(self):
        fld = self.field
        if self.is_zero():
            raise DivisionByZero("inverse of zero in K")
        if self.in_base():
            vec = [self.coords[0].inverse()] + [fld.fq.rat_zero] * (fld.e - 1)
            return ExtFieldElem(fld, tuple(vec))
        # solve self * y = 1: column j holds the coordinates of self * x^j,
        # and a column without a pivot makes self a zero divisor
        e = fld.e
        cols, cur, x = [], self, fld.gen()
        for _ in range(e):
            cols.append(cur.coords)
            cur = cur * x
        rank, rows = _first_dependence(cols + [fld.one.coords])
        if rank < e:
            raise DivisionByZero("element is a zero divisor; f is reducible")
        return ExtFieldElem(fld, tuple(row[e] for row in rows))

    def minimal_polynomial(self):
        """Coefficients over Q, low degree first, of the monic minimal
        polynomial: the first linear dependence among 1, a, a^2, ..."""
        powers = [self.field.one]
        for _ in range(self.field.e):
            powers.append(powers[-1] * self)
        k, rows = _first_dependence([p.coords for p in powers])
        return [-rows[j][k] for j in range(k)] + [self.field.fq.rat_one]

    def is_integral(self):
        """True when the element is integral over A = F_q[T].

        A is integrally closed, so a is integral over A exactly when its
        minimal polynomial over Q has coefficients in A."""
        if self.in_base():
            return self.coords[0].den.is_one()
        return all(c.den.is_one() for c in self.minimal_polynomial())

    def __truediv__(self, other):
        if self.is_zero() and not other.is_zero():
            return self
        return self * other.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.field.one)

    def frob(self):
        """The q-power map; coefficientwise spread plus the x^q linear map."""
        fld = self.field
        if fld.e == 1:
            return ExtFieldElem(fld, (self.coords[0].frob_power(1),))
        table = fld._xq_pows
        out = fld.zero
        for j, c in enumerate(self.coords):
            if c.is_zero():
                continue
            out = out + table[j].scale(c.frob_power(1))
        return out

    def frob_power(self, k):
        out = self
        for _ in range(k):
            out = out.frob()
        return out

    def __repr__(self):
        if self.field.e == 1:
            return repr(self.coords[0])
        return "[" + ", ".join(repr(c) for c in self.coords) + "]"


def _first_dependence(cols):
    """Gauss-Jordan over Q on the matrix with the given columns, stopping at
    the first column that lies in the span of the columns before it.

    Returns (k, rows): columns 0 .. k-1 are independent and reduce to the
    first k unit vectors, and, when k < len(cols), column k of the input is
    sum_{j<k} rows[j][k] cols[j]."""
    e = len(cols[0])
    rows = [[col[i] for col in cols] for i in range(e)]
    for j in range(len(cols)):
        piv = next((i for i in range(j, e) if not rows[i][j].is_zero()), None)
        if piv is None:
            return j, rows
        rows[j], rows[piv] = rows[piv], rows[j]
        inv = rows[j][j].inverse()
        rows[j] = [c * inv for c in rows[j]]
        for i in range(e):
            c = rows[i][j]
            if i != j and not c.is_zero():
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[j])]
    return len(cols), rows


class GaloisDatum(CyclicProduct):
    """An explicit finite abelian quotient of G_K acting on K = Q[x]/(f).

    Generators are given by name, order, and the image of the extension
    generator x; the images of x under all group elements are precomputed
    and the presentation is validated (images are roots of f, generators
    commute, orders hold).
    """

    def __init__(self, field, generators):
        self.field = field
        self.generators = tuple(generators)  # (name, order, image)
        super().__init__((g[0] for g in self.generators),
                         (g[1] for g in self.generators))
        for name, order, image in self.generators:
            if image.field is not field:
                raise FieldMismatch("generator image lives in another field")
            value = image ** field.e + self._apply_with_image(
                image, field.elem(field.f[:-1]))
            if not value.is_zero():
                raise InvalidAutomorphism(f"image of {name} is not a root of f")
        maps = [partial(self._apply_with_image, image)
                for _, _, image in self.generators]
        x = field.gen()
        self.check_action(maps, (x,), InvalidAutomorphism)
        self._x_images = {s: self.act(maps, s, x) for s in self.elements()}

    def _apply_with_image(self, ximg, a):
        # ring map fixing Q, x -> ximg, by Horner
        fld = self.field
        if fld.e == 1:
            return a
        acc = fld.zero
        for c in reversed(a.coords):
            acc = acc * ximg + fld.from_rat(c)
        return acc

    def apply(self, element, a):
        """Apply the automorphism indexed by an exponent tuple to a in K."""
        if a.field is not self.field:
            raise FieldMismatch("element from another field")
        element = tuple(element)
        if element == self.identity():
            return a
        return self._apply_with_image(self._x_images[element], a)

    def is_fixed(self, a):
        gens = [self.generator_element(n) for n in self.names]
        return all(self.apply(s, a) == a for s in gens)

    def __repr__(self):
        gens = ", ".join(f"{n}^{o}" for n, o in zip(self.names, self.orders))
        return f"GaloisDatum({gens or 'trivial'})"
