"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1; presets cover cyclic groups, products of
cyclics, and the symmetric group on three letters.  Tables are validated
at construction: identity and inverses by scanning, associativity by
Light's test on a generating set.
"""

from __future__ import annotations

from functools import partial
from math import prod

from .errors import InputFormatError, NotCentral


class FiniteGroup:
    """A group given by its row-major multiplication table.

    table[a][b] is the product a*b.  The identity is located by scanning
    and inverses are tabulated; all three group laws are checked, so a
    bad table fails fast.
    """

    def __init__(self, table, name=""):
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise InputFormatError("multiplication table must be a list of rows")
        if not isinstance(name, str):
            raise InputFormatError("'name' must be a string")
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        self.name = name
        n = self.order
        if n == 0 or any(len(row) != n for row in self.table):
            raise InputFormatError("multiplication table must be square and nonempty")
        for row in self.table:
            for v in row:
                # JSON true/false would pass as the ints 1/0
                if type(v) is not int or not 0 <= v < n:
                    raise InputFormatError("table entries must be element indices")
        ident = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise InputFormatError("table has no two-sided identity")
        self.identity = ident
        self.inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == ident and self.table[b][a] == ident:
                    self.inverse[a] = b
                    break
            if self.inverse[a] is None:
                raise InputFormatError(f"element {a} has no inverse")
        self._check_associative()

    def _check_associative(self):
        """Light's test on a greedy generating set, in O(n^2 log n).

        Starting from {identity}, the first element g outside the closure
        becomes a generator once (x g) y = x (g y) holds for all x and y;
        the closure then grows by right multiplication by the generators.
        The elements that pass the test are closed under products, so the
        closure of passing generators is associative with every middle
        element in it; with the table's inverses it is cancellative, hence
        a finite group, and right multiplication by a new generator maps it
        onto a disjoint coset.  So each generator at least doubles the
        closure, at most 1 + log2 n generators reach all n elements, and
        then every triple associates.
        """
        T, n = self.table, self.order
        inside = [False] * n
        inside[self.identity] = True
        members, gens = [self.identity], []
        for g in range(n):
            if inside[g]:
                continue
            gT = T[g]
            for x in range(n):
                xg, xT = T[T[x][g]], T[x]
                for y in range(n):
                    if xg[y] != xT[gT[y]]:
                        raise InputFormatError(f"associativity fails at ({x},{g},{y})")
            gens.append(g)
            queue = list(members)
            while queue:
                row = T[queue.pop()]
                for h in gens:
                    if not inside[z := row[h]]:
                        inside[z] = True
                        members.append(z)
                        queue.append(z)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def product(self, elements):
        out = self.identity
        for g in elements:
            out = self.table[out][g]
        return out

    def is_central(self, z) -> bool:
        return all(self.table[z][g] == self.table[g][z] for g in range(self.order))

    def require_central(self, z):
        if not 0 <= z < self.order:
            raise InputFormatError(f"element index {z} out of range")
        if not self.is_central(z):
            raise NotCentral(f"element {z} is not central in {self.name or 'group'}")

    def is_abelian(self) -> bool:
        return all(self.is_central(z) for z in range(self.order))

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"FiniteGroup({self.name or f'order {self.order}'})"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InputFormatError("cyclic group order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"Z/{n}")


def product_group(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product; element (a, b) has index a*|H| + b."""
    no = h.order
    table = [[g.table[a1][a2] * no + h.table[b1][b2]
              for a2 in range(g.order) for b2 in range(no)]
             for a1 in range(g.order) for b1 in range(no)]
    return FiniteGroup(table, name=f"{g.name}x{h.name}")


def symmetric_3() -> FiniteGroup:
    """S_3 on {0,1,2}; elements are the six permutations in lex order."""
    from itertools import permutations
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return FiniteGroup(table, name="S3")


def _preset_factors(text):
    """(order, builder) of each factor of a group preset, read from the text."""
    for part in (p.strip() for p in text.split("x")):
        if part.startswith("cyclic:"):
            try:
                n = int(part.split(":", 1)[1])
            except ValueError:
                raise InputFormatError(f"bad cyclic order in {part!r}")
            yield n, partial(cyclic_group, n)
        elif part == "symmetric:3":
            yield 6, symmetric_3
        else:
            raise InputFormatError(f"unknown group preset {part!r}")


def group_from_preset(text: str) -> FiniteGroup:
    """Presets: cyclic:n, cyclic:a x cyclic:b (product), symmetric:3."""
    (_, build), *rest = _preset_factors(text)
    out = build()
    for _, build in rest:
        out = product_group(out, build())
    return out


def group_order(obj) -> int:
    """The order of the group that group_from_preset (obj a string) or
    group_from_json (obj a JSON object) builds, read without building or
    checking a table."""
    if isinstance(obj, dict) and "table" in obj:
        return len(obj["table"]) if isinstance(obj["table"], list) else 0
    if isinstance(obj, dict):
        obj = obj.get("preset")
    return prod(n for n, _ in _preset_factors(obj)) if isinstance(obj, str) else 0


def group_from_json(obj) -> FiniteGroup:
    """JSON input: {"table": [[...]]} or {"preset": "cyclic:4"}."""
    if not isinstance(obj, dict):
        raise InputFormatError("group input must be a JSON object")
    if "table" in obj:
        return FiniteGroup(obj["table"], name=obj.get("name", ""))
    if "preset" in obj:
        if not isinstance(obj["preset"], str):
            raise InputFormatError("group 'preset' must be a string such as \"cyclic:4\"")
        return group_from_preset(obj["preset"])
    raise InputFormatError("group input needs a 'table' or 'preset' key")
