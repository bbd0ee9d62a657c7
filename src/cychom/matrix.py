"""Sparse exact matrices with dense semantics.

Storage is column-major (``{col: {row: value}}``) because boundary and
operator matrices are built column by column from basis elements.  No
stored value is zero, no stored column is empty, and over F_p every value
is a residue in [0, p).  The arithmetic kernels work on the column dicts
with the native ``+`` and ``*`` of the stored Python values and reduce
each output column at most once, with ``_reduced``, so the invariants hold
without a domain call per entry.

A matrix is a value: it is complete when its constructor returns, and no
method changes it afterwards.  So results may share column dicts with
their operands, and a matrix may be handed to any number of callers.
"""

from __future__ import annotations

from itertools import compress

from .domains import ScalarDomain
from .errors import DomainMismatch


def _entries(vec):
    """(index, value) of the nonzero entries of a dense list or a sparse dict."""
    if isinstance(vec, dict):
        return vec.items()
    # both found at C speed: compress keeps the entries that are nonzero
    return zip(compress(range(len(vec)), vec), compress(vec, vec))


def _reduced(col: dict, p) -> dict:
    """col without its zero entries, values reduced mod p when p is set (F_p)."""
    if p:
        return {r: w for r, v in col.items() if (w := v % p)}
    return {r: v for r, v in col.items() if v}


def _check_dom(dom, m):
    if dom is not m.dom and dom != m.dom:
        raise DomainMismatch(f"{dom} vs {m.dom}")


class Matrix:
    __slots__ = ("rows", "cols", "dom", "_cols")

    def __init__(self, rows: int, cols: int, dom: ScalarDomain):
        self.rows = rows
        self.cols = cols
        self.dom = dom
        self._cols: dict[int, dict[int, object]] = {}

    # -- construction --------------------------------------------------
    @classmethod
    def zeros(cls, rows, cols, dom):
        return cls(rows, cols, dom)

    @classmethod
    def identity(cls, n, dom):
        return cls.from_canonical_columns({i: {i: dom.one} for i in range(n)}, n, n, dom)

    @classmethod
    def from_canonical_columns(cls, columns, rows, cols, dom):
        """Columns {col: {row: value}} taken as they are, so every value must
        be nonzero and canonical (as ``dom.coerce`` returns it) and every
        index in range; empty columns are dropped."""
        m = cls(rows, cols, dom)
        m._cols = {c: col for c, col in columns.items() if col}
        return m

    @classmethod
    def from_column_sums(cls, columns, rows, cols, dom):
        """Columns {col: {row: value}} of sums of canonical scalars, which
        may be zero or out of [0, p): each column is reduced once."""
        m = cls(rows, cols, dom)
        m._cols = {c: col for c, a in columns.items() if (col := _reduced(a, dom.p))}
        return m

    @classmethod
    def from_rows(cls, data, dom, cols=None):
        """Rows given as dense lists or as sparse dicts {col: value};
        sparse rows need cols."""
        rows = len(data)
        if cols is None:
            if any(isinstance(row, dict) for row in data):
                raise ValueError("sparse dict rows need cols, the number of columns")
            cols = len(data[0]) if rows else 0
        m = cls(rows, cols, dom)
        coerce, store = dom.coerce, m._cols
        for r, row in enumerate(data):
            for c, v in _entries(row):
                if not 0 <= c < cols:
                    raise IndexError((r, c))
                if v := coerce(v):
                    store.setdefault(c, {})[r] = v
        return m

    @classmethod
    def from_columns(cls, vectors, rows, dom):
        """Columns given as dense lists or as sparse dicts {row: value}."""
        m = cls(rows, len(vectors), dom)
        coerce, store = dom.coerce, m._cols
        for c, vec in enumerate(vectors):
            col = {}
            for r, v in _entries(vec):
                if not 0 <= r < rows:
                    raise IndexError((r, c))
                if v := coerce(v):
                    col[r] = v
            if col:
                store[c] = col
        return m

    @classmethod
    def signed_sum(cls, rows, cols, dom, terms):
        """The sum of s * m over the pairs (s, m) of terms, s an integer
        (a sign +-1 for every caller), of rows x cols matrices over dom, in
        one pass; terms may be lazy."""
        acc = {}
        for s, m in terms:
            _check_dom(dom, m)
            if (m.rows, m.cols) != (rows, cols):
                raise ValueError("shape mismatch")
            for c, col in m._cols.items():
                a = acc.get(c)
                if a is None:
                    acc[c] = dict(col) if s == 1 else {r: s * v for r, v in col.items()}
                else:
                    for r, v in col.items():
                        a[r] = a.get(r, 0) + s * v
        return cls.from_column_sums(acc, rows, cols, dom)

    @classmethod
    def from_blocks(cls, rows, cols, dom, blocks):
        """The rows x cols sum of the placed blocks (row0, col0, block),
        each with its entry (0, 0) at (row0, col0), in one pass; blocks may
        be lazy and may overlap."""
        acc = {}
        for row0, col0, block in blocks:
            _check_dom(dom, block)
            if not (0 <= row0 <= rows - block.rows and 0 <= col0 <= cols - block.cols):
                raise IndexError(f"a {block.rows}x{block.cols} block at ({row0}, {col0})"
                                 f" leaves the {rows}x{cols} matrix")
            for c, col in block._cols.items():
                a = acc.get(col0 + c)
                if a is None:
                    acc[col0 + c] = {row0 + r: v for r, v in col.items()}
                else:
                    for r, v in col.items():
                        a[row0 + r] = a.get(row0 + r, 0) + v
        return cls.from_column_sums(acc, rows, cols, dom)

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

    # no caller in cychom; perfbench/tracer.py keys linalg.rank spans by it
    def items(self):
        for c in sorted(self._cols):
            for r in sorted(self._cols[c]):
                yield (r, c), self._cols[c][r]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        # no stored zeros or empty columns: equal matrices store equal dicts
        return ((self.rows, self.cols) == (other.rows, other.cols)
                and self.dom == other.dom and self._cols == other._cols)

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.dom}, nnz={self.nnz()})"

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        return Matrix.signed_sum(self.rows, self.cols, self.dom, ((1, self), (1, other)))

    def __sub__(self, other):
        return Matrix.signed_sum(self.rows, self.cols, self.dom, ((1, self), (-1, other)))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k):
        k = self.dom.coerce(k)
        return Matrix.from_column_sums({c: {r: v * k for r, v in a.items()}
                                        for c, a in self._cols.items()},
                                       self.rows, self.cols, self.dom)

    def __matmul__(self, other):
        _check_dom(self.dom, other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        p = self.dom.p
        left = self._cols
        out = Matrix(self.rows, other.cols, self.dom)
        for c, bcol in other._cols.items():
            if len(bcol) == 1:
                # one nonzero: a multiple of one column of self, in which no
                # entry vanishes, so only F_p has anything to reduce
                (k, bv), = bcol.items()
                acol = left.get(k)
                if acol is None:
                    continue
                if bv == 1:
                    out._cols[c] = acol
                    continue
                acc = {r: av * bv for r, av in acol.items()}
                if not p:
                    out._cols[c] = acc
                    continue
            else:
                acc = {}
                for k, bv in bcol.items():
                    acol = left.get(k)
                    if acol is not None:
                        for r, av in acol.items():
                            acc[r] = acc.get(r, 0) + av * bv
            col = _reduced(acc, p)
            if col:
                out._cols[c] = col
        return out

    def apply(self, vec: list) -> list:
        """Matrix times a dense column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for c, v in enumerate(vec):
            if v == 0:
                continue
            for r, av in self._cols.get(c, {}).items():
                out[r] += av * v
        p = self.dom.p
        return [w % p for w in out] if p else out

    def kron(self, other, cols=None):
        """Kronecker product; row/col index = self_index * other_dim + other_index.

        With cols, only those columns of the product, in that order, are
        built: the product times the 0/1 matrix that picks them.
        """
        _check_dom(self.dom, other)
        nr, nc = other.rows, other.cols
        left, right = self._cols, other._cols
        if cols is None:
            pairs = ((c1 * nc + c2, col1, col2)
                     for c1, col1 in left.items() for c2, col2 in right.items())
        else:
            pairs = ((k, left.get(c // nc), right.get(c % nc)) for k, c in enumerate(cols))
        out = Matrix(self.rows * nr, self.cols * nc if cols is None else len(cols), self.dom)
        p = self.dom.p
        for k, col1, col2 in pairs:
            if col1 and col2:
                col = {r1 * nr + r2: v1 * v2 for r1, v1 in col1.items() for r2, v2 in col2.items()}
                # a product of nonzero scalars is nonzero, so only F_p has anything to reduce
                out._cols[k] = _reduced(col, p) if p else col
        return out

    def columns(self, cols) -> Matrix:
        """The listed columns of self, in that order: self times the 0/1
        matrix that picks them."""
        out = Matrix(self.rows, len(cols), self.dom)
        out._cols = {k: col for k, c in enumerate(cols) if (col := self._cols.get(c))}
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

    def sparse_columns(self) -> list[dict]:
        """The columns as fresh dicts {row: value}, as they are stored."""
        return [dict(self._cols.get(c, ())) for c in range(self.cols)]

    def stored_columns(self):
        """The nonzero columns as the dicts {row: value} the matrix stores,
        not copies: a read-only view, whose dicts no caller may change."""
        return self._cols.values()

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
