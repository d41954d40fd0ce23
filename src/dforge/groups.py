"""Finite abelian groups presented as products of cyclic groups.

An element is a tuple of exponents, one per generator.  The group acts on
some set through one-step maps, one per generator; the Galois action on K
and the action on an orbit's labels are both of this form.
"""
from __future__ import annotations

from itertools import combinations, product


class CyclicProduct:
    """Z/o_1 x ... x Z/o_r with named generators."""

    def __init__(self, names, orders):
        self.names = tuple(names)
        self.orders = tuple(orders)

    def identity(self):
        return (0,) * len(self.orders)

    def elements(self):
        return list(product(*(range(o) for o in self.orders)))

    def generator_element(self, name):
        if name not in self.names:
            raise KeyError(name)
        i = self.names.index(name)
        out = [0] * len(self.orders)
        out[i] = 1 % self.orders[i]
        return tuple(out)

    def compose(self, s, t):
        return tuple((a + b) % o for a, b, o in zip(s, t, self.orders))

    def is_cyclic(self):
        return len(self.orders) <= 1

    def act(self, maps, element, x):
        """Image of x under the element; maps[i] is generator i's one step."""
        for step, k in zip(maps, element):
            for _ in range(k):
                x = step(x)
        return x

    def check_action(self, maps, probes, error):
        """Raise `error` unless the maps present this group on the probes:
        unique names, orders >= 1, g^order = 1 and pairwise commutation."""
        if len(set(self.names)) != len(self.names):
            raise error("duplicate generator names")
        for name, order, step in zip(self.names, self.orders, maps):
            if order < 1:
                raise error(f"generator {name} has order < 1")
            for x in probes:
                cur = x
                for _ in range(order):
                    cur = step(cur)
                if cur != x:
                    raise error(f"generator {name} does not have order {order}")
        for (n1, f1), (n2, f2) in combinations(zip(self.names, maps), 2):
            if any(f1(f2(x)) != f2(f1(x)) for x in probes):
                raise error(f"generators {n1} and {n2} do not commute")
