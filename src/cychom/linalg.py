"""Exact linear algebra: rank, kernel, image, canonical subspaces, SNF.

Rank and reduced row echelon forms over Q, Z (reduced as Q) and F_p come
from one sparse echelon on rows {col: value}, taken sparsest first and
each reduced at its leading column.  Only the row step differs by
domain, as in ``matrix._reduced``: p is None over Q and Z, where rows
stay primitive integer rows so coefficients stay small, and p is set
over F_p, where rows stay residues and pivot rows lead with 1; F_p work
enters through ``_modp.rref_modp``.  ``rref`` takes structural pivots
first on every domain: a row that is the first to lead at its column is
a pivot row as it stands, so a triangular span (degeneracy relations,
for one) adds no pivot by elimination.  Subspaces are fingerprinted by
their reduced row echelon form, which makes equality of spans a plain
tuple comparison.  Over Z, homology reads the invariant factors of each
boundary matrix from a sparse elimination on unit pivots followed by a
Smith form of the remainder (``invariant_factors``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, prod

from . import _modp
from .domains import INTEGERS, PRIME_FIELD, Q, ScalarDomain
from .errors import AmbientMismatch, DomainMismatch, LatticeMismatch
from .matrix import Matrix


# ---------------------------------------------------------------------------
# row echelon machinery
# ---------------------------------------------------------------------------

def _primitive(row: dict) -> dict:
    """The primitive integer multiple of a sparse row {col: int | Fraction},
    without its zero entries.

    Scaling a row does not change the span it contributes to, and keeping
    rows primitive bounds coefficient growth in fraction-free elimination.
    A one-entry row, the commonest relation, becomes its unit vector.
    """
    if len(row) == 1:
        (c, v), = row.items()
        return {c: 1} if v else {}
    den = prod({v.denominator for v in row.values()})
    ints = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
    g = gcd(*ints.values())
    return {c: v // g for c, v in ints.items()} if g > 1 else ints


def _subtract(row: dict, piv: dict, c: int, p=None) -> dict:
    """row - (row[c] / piv[c]) piv, row consumed: its residues over F_p,
    where piv leads with 1, else its primitive integer multiple."""
    a = row[c]
    if p:
        for k, v in piv.items():
            if w := (row.get(k, 0) - a * v) % p:
                row[k] = w
            else:
                del row[k]
        return row
    b = piv[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if b != 1:
        for k in row:
            row[k] *= b
    for k, v in piv.items():
        if w := row.get(k, 0) - a * v:
            row[k] = w
        else:
            del row[k]
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _pivot(row: dict, c: int, p=None) -> dict:
    """row as the pivot row at c: scaled to lead with 1 over F_p."""
    if not p or row[c] == 1:
        return row
    inv = pow(row[c], -1, p)
    return {k: v * inv % p for k, v in row.items()}


def _echelon(rows, ech=None, p=None) -> dict:
    """Row echelon form {leading column: row} of the rows of ``_sparsest_first``.

    Each row, in the given order, is reduced at its leading column against
    the pivot rows of ech (a new dict when None) until it vanishes or leads
    at a new column, where it becomes a pivot row.  Returns ech.
    """
    ech = {} if ech is None else ech
    for row in rows:
        while row:
            c = min(row)
            piv = ech.get(c)
            if piv is None:
                ech[c] = _pivot(row, c, p)
                break
            row = _subtract(row, piv, c, p)
    return ech


def _sparsest_first(rows, p=None) -> list[dict]:
    """The nonzero rows sparsest first, so unit and two-term relations lead
    before dense rows; over Q and Z made primitive."""
    return sorted(filter(None, rows if p else map(_primitive, rows)), key=len)


def _back_substitute(ech: dict, p=None):
    """Reduce the echelon rows {leading column: row} in place, from the
    last pivot up: a reduced row is zero at every other pivot column, so
    subtracting it clears one entry of a row above for good."""
    for pc in sorted(ech, reverse=True):
        row = ech[pc]
        for c in [c for c in row if c != pc and c in ech]:
            row = _subtract(row, ech[c], c, p)
        ech[pc] = row


def _reduced_echelon(rows, p=None) -> dict:
    """Reduced echelon {pivot column: row} of the rows of ``_sparsest_first``.

    Structural pivots first (Faugere and Lachartre): the first row to lead
    at a column is its pivot row as it stands, and a later one-entry row
    there, a multiple of it, is dropped.  Only the other rows are then
    eliminated, and the echelon is back-substituted before and after.
    """
    ech, rest = {}, []
    for row in rows:
        c = min(row)
        if c not in ech:
            ech[c] = _pivot(row, c, p)
        elif len(row) > 1:
            rest.append(row)
    _back_substitute(ech, p)
    _back_substitute(_echelon(rest, ech, p), p)
    return ech


def rref(rows: list[dict], cols: int, dom: ScalarDomain):
    """Reduced row echelon form of sparse rows {col: value} over dom (Z as Q).

    One echelon, structural pivots first, serves every domain
    (``_reduced_echelon``); over F_p it runs under ``_modp.rref_modp``.
    Returns (the nonzero reduced rows as sparse dicts {col: value}, in
    order of their pivots, and the pivot column list).  Values are
    Fractions over Q and Z, residues over F_p.
    """
    if not rows:
        return [], []
    if dom.kind == PRIME_FIELD:
        return _modp.rref_modp(Matrix.from_rows(rows, dom, cols=cols), dom.p)
    ech = _reduced_echelon(_sparsest_first(rows))
    pivots = sorted(ech)
    return [{j: Fraction(v, ech[pc][pc]) for j, v in ech[pc].items()} for pc in pivots], pivots


def rref_rows(rows: list[list], dom: ScalarDomain):
    """Reduced row echelon form of a list of dense row vectors over a field.

    Returns (dense rref rows without trailing zero rows, pivot columns).
    """
    dom.require_field()
    if not rows or not rows[0]:
        return [], []
    width = len(rows[0])
    red, pivots = rref([{j: row[j] for j in compress(range(width), row)} for row in rows],
                       width, dom)
    return _dense(red, width, dom), pivots


def _dense(red: list[dict], width: int, dom: ScalarDomain) -> list[list]:
    """The sparse rows of ``rref`` as dense lists (zeros Fraction(0) over Q)."""
    out = [[0 if dom.kind == PRIME_FIELD else Fraction(0)] * width for _ in red]
    for dense, row in zip(out, red):
        for j, v in row.items():
            dense[j] = v
    return out


def rank(m: Matrix) -> int:
    """Rank over the matrix's own field (over Z: rank of the Q-extension)."""
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.dom.kind == PRIME_FIELD:
        return len(_modp.rref_modp(m, m.dom.p, reduce=False)[1])
    return len(_echelon(_sparsest_first(m.sparse_rows())))


# ---------------------------------------------------------------------------
# canonical subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace in canonical (reduced row echelon) form.

    ``vectors`` is a tuple of ambient vectors; equal subspaces produce
    identical tuples, so span equality is literal equality.
    """

    ambient: int
    dom: ScalarDomain
    vectors: tuple

    @classmethod
    def from_spanning(cls, vectors, ambient: int, dom: ScalarDomain):
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise AmbientMismatch(f"vector of length {len(v)} in ambient {ambient}")
        red, _ = rref_rows(vecs, dom) if vecs else ([], [])
        canon = tuple(tuple(dom.coerce(x) for x in row) for row in red)
        return cls(ambient, dom, canon)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, vector) -> bool:
        if len(vector) != self.ambient:
            raise AmbientMismatch("vector/ambient mismatch")
        stacked = [list(v) for v in self.vectors] + [list(vector)]
        red, _ = rref_rows(stacked, self.dom)
        return len(red) == self.dim


def kernel_vectors(m: Matrix) -> list[list]:
    """Canonical (reduced row echelon) basis of the right kernel of m.

    m is reduced with its columns reversed, so the vector read off for
    each free column f is 1 at f, 0 at every other free column and
    nonzero only at pivot columns after f: the kernel's own RREF rows,
    in order of their leading column.
    """
    dom = m.dom
    dom.require_field()
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [[dom.one if i == j else dom.zero for i in range(m.cols)] for j in range(m.cols)]
    last = m.cols - 1
    red, pivots = rref([{last - c: v for c, v in row.items()} for row in m.sparse_rows()],
                       m.cols, dom)
    pivset = set(pivots)
    out = {}
    for f in reversed(range(m.cols)):
        if f not in pivset:
            out[f] = [dom.zero] * m.cols
            out[f][last - f] = dom.one
    # a reduced row is nonzero only at its pivot and at free columns
    for row, pc in zip(red, pivots):
        for f, coef in row.items():
            if f != pc:
                out[f][last - pc] = dom.neg(coef)
    return list(out.values())


def rank_kernel_image(m: Matrix):
    """Rank, canonical kernel basis and canonical image basis over a field.

    The image is the canonical span of the rank-many non-free columns,
    the free ones being where the kernel vectors lead with 1; they are
    reduced as the sparse columns they are stored as.
    """
    kern = kernel_vectors(m)
    free = {v.index(m.dom.one) for v in kern}
    kernel = SubspaceBasis(m.cols, m.dom, tuple(tuple(v) for v in kern))
    red, _ = rref([col for c, col in enumerate(m.sparse_columns()) if c not in free],
                  m.rows, m.dom)
    image = SubspaceBasis(m.rows, m.dom, tuple(map(tuple, _dense(red, m.rows, m.dom))))
    return image.dim, kernel, image


def solve_in_span(basis_vectors: list[list], targets: list[list], dom: ScalarDomain):
    """Coordinates of each target in the span of basis_vectors, or None.

    One RREF of [B | T] answers every target; the result is None if any
    target lies outside the span.  basis_vectors need not be independent;
    a particular solution is fine for class computations because the span
    is what matters.
    """
    dom.require_field()
    k = len(basis_vectors)
    if k == 0:
        return [[] for _ in targets] if all(x == 0 for t in targets for x in t) else None
    rows = [[b[i] for b in basis_vectors] + [t[i] for t in targets]
            for i in range(len(basis_vectors[0]))]
    red, pivots = rref_rows(rows, dom)
    if pivots and pivots[-1] >= k:
        return None
    xs = [[dom.zero] * k for _ in targets]
    for i, pc in enumerate(pivots):
        for j, x in enumerate(xs):
            x[pc] = red[i][k + j]
    return xs


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass
class SmithForm:
    d: list[int]
    rank: int
    left: Matrix
    right: Matrix

    def diagonal_matrix(self, rows: int, cols: int, dom: ScalarDomain) -> Matrix:
        m = Matrix(rows, cols, dom)
        for i, v in enumerate(self.d):
            if v:
                m._set(i, i, v)
        return m


def smith_normal_form(m: Matrix) -> SmithForm:
    """SNF over Z with unimodular transforms: left @ m @ right = diag(d).

    Diagonal entries are nonnegative and form a divisibility chain.
    """
    if m.dom.kind != INTEGERS:
        raise DomainMismatch("SNF needs an integer matrix")
    rows, cols = m.rows, m.cols
    a = [[int(v) for v in row] for row in m.to_dense_rows()]
    left = [[int(i == j) for j in range(rows)] for i in range(rows)]
    right = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, f):  # row_i -= f * row_j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        left[i] = [x - f * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, f):  # col_i -= f * col_j
        for row in a:
            row[i] -= f * row[j]
        for row in right:
            row[i] -= f * row[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    t = 0
    n = min(rows, cols)
    while t < n:
        # locate a nonzero entry of minimal absolute value in the trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        if a[t][t] < 0:
            row_negate(t)
        # clear row and column t, restarting if a smaller remainder shows up
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        row_swap(t, i)
                        if a[t][t] < 0:
                            row_negate(t)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
        # divisibility: fold any non-multiple into the pivot and redo
        viol = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    viol = i
                    break
            if viol is not None:
                break
        if viol is not None:
            row_op(t, viol, -1)  # add offending row into pivot row
            continue
        t += 1

    d = [a[i][i] for i in range(n) if a[i][i] != 0]
    from .domains import Z as ZDOM
    lm = Matrix.from_rows(left, ZDOM, cols=rows)
    rm = Matrix.from_rows(right, ZDOM, cols=cols)
    return SmithForm(d=d, rank=len(d), left=lm, right=rm)


def invariant_factors(m: Matrix) -> list[int]:
    """The nonzero invariant factors of an integer matrix, each dividing the next.

    Rows are taken sparsest first; a ±1 entry, in the column fewest rows
    use, clears that column from the other rows by unimodular row
    operations, and its row and column then split off as one factor 1.
    Only rows left with no unit entry go, compacted, to the Smith form.
    """
    rows = {i: row for i, row in enumerate(m.sparse_rows()) if row}
    users = {c: set(col) for c, col in enumerate(m.sparse_columns()) if col}  # rows using c
    ones, progress = 0, True
    while progress:  # fill-in can give a row a unit entry for a later pass
        progress = False
        for i in sorted(rows, key=lambda i: len(rows[i])):
            units = [c for c, v in rows.get(i, {}).items() if v in (1, -1)]
            if not units:
                continue
            ones, progress, piv = ones + 1, True, rows.pop(i)
            for k in piv:
                users[k].discard(i)
            c = min(units, key=lambda c: len(users[c]))
            pc = piv.pop(c)
            for j in users.pop(c):
                row = rows[j]
                f = row.pop(c) * pc
                for k, v in piv.items():
                    if w := row.get(k, 0) - f * v:
                        row[k] = w
                        users[k].add(j)
                    else:
                        del row[k]
                        users[k].discard(j)
    cols = {c: k for k, c in enumerate(sorted(c for c, u in users.items() if u))}
    rest = [{cols[c]: v for c, v in row.items()} for row in rows.values() if row]
    return [1] * ones + smith_normal_form(Matrix.from_rows(rest, m.dom, cols=len(cols))).d


def integer_kernel_basis(m: Matrix) -> list[list]:
    """Basis of the kernel lattice of an integer matrix (saturated)."""
    snf = smith_normal_form(m)
    r = snf.rank
    return [snf.right.column_vector(c) for c in range(r, m.cols)]


# no caller in cychom; perfbench/tracer.py wraps it by name
def z_quotient_invariants(kernel_basis: list[list], boundary: Matrix):
    """Betti and torsion of (lattice spanned by kernel_basis) / im(boundary).

    boundary columns are assumed to lie in the kernel lattice; their
    coordinates in the basis are integral because the basis is saturated.
    """
    from .domains import Z as ZDOM
    k = len(kernel_basis)
    if k == 0:
        return 0, []
    if boundary.cols == 0 or boundary.is_zero():
        return k, []
    xs = solve_in_span(kernel_basis,
                       [boundary.column_vector(c) for c in range(boundary.cols)], Q)
    if xs is None:
        raise LatticeMismatch("boundary column not in kernel lattice")
    if any(Fraction(v).denominator != 1 for x in xs for v in x):
        raise LatticeMismatch("non-integral coordinates: kernel basis not saturated")
    coords = [[Fraction(v).numerator for v in x] for x in xs]
    mat = Matrix.from_columns(coords, k, ZDOM)
    snf = smith_normal_form(mat)
    betti = k - snf.rank
    torsion = [abs(v) for v in snf.d if abs(v) > 1]
    return betti, torsion
