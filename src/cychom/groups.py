"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1; presets cover cyclic groups, products of
cyclics, and the symmetric group on three letters.  Tables are validated
in full (associativity, identity, inverses) at construction.
"""

from __future__ import annotations

import json

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
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise InputFormatError(f"associativity fails at ({a},{b},{c})")

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


def group_from_preset(text: str) -> FiniteGroup:
    """Presets: cyclic:n, cyclic:a x cyclic:b (product), symmetric:3."""
    parts = [p.strip() for p in text.split("x")]
    groups = []
    for part in parts:
        if part.startswith("cyclic:"):
            try:
                groups.append(cyclic_group(int(part.split(":", 1)[1])))
            except ValueError:
                raise InputFormatError(f"bad cyclic order in {part!r}")
        elif part == "symmetric:3":
            groups.append(symmetric_3())
        else:
            raise InputFormatError(f"unknown group preset {part!r}")
    out = groups[0]
    for g in groups[1:]:
        out = product_group(out, g)
    return out


def group_from_json(obj) -> FiniteGroup:
    """JSON input: {"table": [[...]]} or {"preset": "cyclic:4"}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise InputFormatError("group input must be a JSON object")
    if "table" in obj:
        return FiniteGroup(obj["table"], name=obj.get("name", ""))
    if "preset" in obj:
        if not isinstance(obj["preset"], str):
            raise InputFormatError("group 'preset' must be a string such as \"cyclic:4\"")
        return group_from_preset(obj["preset"])
    raise InputFormatError("group input needs a 'table' or 'preset' key")
