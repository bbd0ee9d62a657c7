"""Sparse exact matrices with dense semantics.

Storage is column-major (``{col: {row: value}}``) because boundary and
operator matrices are built column by column from basis elements.  All
arithmetic stays in the matrix's scalar domain.
"""

from __future__ import annotations

from itertools import compress

from .domains import ScalarDomain
from .errors import DomainMismatch


def _nonzero(vec):
    """Indices of the nonzero entries of a dense vector, found at C speed."""
    return compress(range(len(vec)), vec)


class Matrix:
    __slots__ = ("rows", "cols", "dom", "_cols")

    def __init__(self, rows: int, cols: int, dom: ScalarDomain, entries=None):
        """entries: optional {(r, c): value} mapping; zeros are dropped."""
        self.rows = rows
        self.cols = cols
        self.dom = dom
        self._cols: dict[int, dict[int, object]] = {}
        if entries:
            for (r, c), v in entries.items():
                self._set(r, c, dom.coerce(v))

    # -- construction --------------------------------------------------
    def _set(self, r, c, v):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        col = self._cols.setdefault(c, {})
        if v == 0:
            col.pop(r, None)
            if not col:
                del self._cols[c]
        else:
            col[r] = v

    def _add_to(self, r, c, v):
        cur = self.entry(r, c)
        self._set(r, c, self.dom.add(cur, v))

    @classmethod
    def zeros(cls, rows, cols, dom):
        return cls(rows, cols, dom)

    @classmethod
    def identity(cls, n, dom):
        m = cls(n, n, dom)
        for i in range(n):
            m._set(i, i, dom.one)
        return m

    @classmethod
    def from_rows(cls, data, dom, cols=None):
        rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        m = cls(rows, cols, dom)
        for r, row in enumerate(data):
            for c in _nonzero(row):
                v = dom.coerce(row[c])
                if v != 0:
                    m._set(r, c, v)
        return m

    @classmethod
    def from_columns(cls, vectors, rows, dom):
        m = cls(rows, len(vectors), dom)
        for c, vec in enumerate(vectors):
            for r in _nonzero(vec):
                v = dom.coerce(vec[r])
                if v != 0:
                    m._set(r, c, v)
        return m

    # -- queries ---------------------------------------------------------
    @property
    def shape(self):
        return self.rows, self.cols

    def entry(self, r, c):
        return self._cols.get(c, {}).get(r, 0)

    def column_vector(self, c) -> list:
        vec = [0] * self.rows
        for r, v in self._cols.get(c, {}).items():
            vec[r] = v
        return vec

    def nnz(self) -> int:
        return sum(len(col) for col in self._cols.values())

    def is_zero(self) -> bool:
        return not self._cols

    def items(self):
        for c in sorted(self._cols):
            for r in sorted(self._cols[c]):
                yield (r, c), self._cols[c][r]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self.dom != other.dom:
            return False
        cs = set(self._cols) | set(other._cols)
        for c in cs:
            if self._cols.get(c, {}) != other._cols.get(c, {}):
                return False
        return True

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.dom}, nnz={self.nnz()})"

    # -- arithmetic ------------------------------------------------------
    def _check_dom(self, other):
        if self.dom != other.dom:
            raise DomainMismatch(f"{self.dom} vs {other.dom}")

    def __add__(self, other):
        self._check_dom(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = Matrix(self.rows, self.cols, self.dom)
        for c in set(self._cols) | set(other._cols):
            a, b = self._cols.get(c, {}), other._cols.get(c, {})
            for r in set(a) | set(b):
                v = self.dom.add(a.get(r, 0), b.get(r, 0))
                if v != 0:
                    out._set(r, c, v)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = Matrix(self.rows, self.cols, self.dom)
        for c, col in self._cols.items():
            for r, v in col.items():
                out._set(r, c, self.dom.neg(v))
        return out

    def scale(self, k):
        k = self.dom.coerce(k)
        out = Matrix(self.rows, self.cols, self.dom)
        if k == 0:
            return out
        for c, col in self._cols.items():
            for r, v in col.items():
                out._set(r, c, self.dom.mul(v, k))
        return out

    def __matmul__(self, other):
        self._check_dom(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        dom = self.dom
        out = Matrix(self.rows, other.cols, dom)
        for c, bcol in other._cols.items():
            acc: dict[int, object] = {}
            for k, bv in bcol.items():
                for r, av in self._cols.get(k, {}).items():
                    acc[r] = dom.add(acc.get(r, 0), dom.mul(av, bv))
            col = {r: v for r, v in acc.items() if v != 0}
            if col:
                out._cols[c] = col
        return out

    def apply(self, vec: list) -> list:
        """Matrix times a dense column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        dom = self.dom
        out = [0] * self.rows
        for c, v in enumerate(vec):
            if v == 0:
                continue
            for r, av in self._cols.get(c, {}).items():
                out[r] = dom.add(out[r], dom.mul(av, v))
        return out

    def kron(self, other):
        """Kronecker product; row/col index = self_index * other_dim + other_index."""
        self._check_dom(other)
        dom = self.dom
        out = Matrix(self.rows * other.rows, self.cols * other.cols, dom)
        for c1, col1 in self._cols.items():
            for c2, col2 in other._cols.items():
                c = c1 * other.cols + c2
                for r1, v1 in col1.items():
                    for r2, v2 in col2.items():
                        out._set(r1 * other.rows + r2, c, dom.mul(v1, v2))
        return out

    # -- conversions -----------------------------------------------------
    def to_dense_rows(self) -> list[list]:
        data = [[0] * self.cols for _ in range(self.rows)]
        for c, col in self._cols.items():
            for r, v in col.items():
                data[r][c] = v
        return data

    def sparse_rows(self) -> list[dict]:
        """The rows as fresh dicts {col: value}, the form elimination works on."""
        data = [{} for _ in range(self.rows)]
        for c, col in self._cols.items():
            for r, v in col.items():
                data[r][c] = v
        return data

    # The two numpy conversions below have no caller in cychom; they stay
    # only because perfbench/tracer.py names them, and import numpy
    # themselves so that importing cychom does not.
    def to_object_array(self):
        import numpy as np
        a = np.zeros((self.rows, self.cols), dtype=object)
        for c, col in self._cols.items():
            for r, v in col.items():
                a[r, c] = v
        return a

    def to_int64_array(self):
        import numpy as np
        a = np.zeros((self.rows, self.cols), dtype=np.int64)
        for c, col in self._cols.items():
            for r, v in col.items():
                a[r, c] = int(v)
        return a
