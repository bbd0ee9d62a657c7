"""Exact linear algebra: rank, kernel, image, canonical subspaces, SNF.

Three eliminations on sparse rows {col: value}.  ``rref`` takes a
leftmost canonical echelon, sparsest rows and structural pivots first,
which fingerprints subspaces: equal spans give equal tuples.  Every rank,
and the unit phase of ``invariant_factors`` over Z, run a Markowitz
elimination (``_markowitz``), which pivots where fill-in is least and
reads no canonical form.  The Smith form of what the unit phase leaves,
and the kernel lattice, come from a sparse lattice echelon with no dense
transform (``_lattice_echelon``).  The first two share the row step
``_subtract``, which alone differs by domain: p is None over Q and Z,
where rows stay primitive integer rows, and set over F_p, where rows stay
residues and pivot rows lead with 1.  An F_p rank enters through
``_modp.rref_modp``; ``rref`` reduces its rows mod p and runs the same
echelon as over Q.  One-entry degeneracy relations do not reach
``rref``: ``chains.PresentedModule`` reduces them by ``coordinate_rref``,
and over Z asks ``leads_with_units`` whether the free coordinates are a
basis of the quotient.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, compress
from math import gcd, lcm, prod

from . import _modp
from .domains import INTEGERS, PRIME_FIELD, Q, Z, ScalarDomain
from .errors import AmbientMismatch, DomainMismatch, LatticeMismatch, refuse_assignment
from .matrix import Matrix, _reduced


# ---------------------------------------------------------------------------
# row echelon machinery
# ---------------------------------------------------------------------------

def _primitive(row: dict) -> dict:
    """The primitive integer multiple of a sparse row {col: int | Fraction},
    without its zero entries: the same span, with coefficients kept small
    in fraction-free elimination.  A one-entry row becomes a unit vector."""
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
    for row in rest:  # reduced at its leading column until it vanishes or leads anew
        while row and (c := min(row)) in ech:
            row = _subtract(row, ech[c], c, p)
        if row:
            ech[c] = _pivot(row, c, p)
    _back_substitute(ech, p)
    return ech


def _unit_step(row: dict, piv: dict, c: int) -> dict:
    """row - row[c] piv[c] piv, in place: zero at c when piv[c] is +-1."""
    t = -row[c] * piv[c]
    for k, v in piv.items():
        if w := row.get(k, 0) + t * v:
            row[k] = w
        else:
            del row[k]
    return row


def _markowitz(rows, p=None, units=False):
    """(pivot columns in pivot order, nonzero rows left over) of a Markowitz
    elimination of rows {col: value}, which it consumes.  A heap keeps the
    live rows by length and ``users`` the live rows of each column.  Each
    step pivots the shortest live row at its admissible entry in the column
    the fewest live rows use, clears that column from the other live rows,
    which go back on the heap, and drops the pivot row.  For a rank every
    entry is admissible and the row step is ``_subtract``.  With units,
    over Z, only a +-1 entry is and the step is unimodular (``_unit_step``):
    each pivot splits off an invariant factor 1, the rows left the others.
    """
    live = dict(enumerate(rows))
    users = {}
    for i, row in live.items():
        for c in row:
            users.setdefault(c, set()).add(i)
    heap, pivots = [(len(row), i) for i, row in live.items()], []
    heapify(heap)
    while heap:
        n, i = heappop(heap)
        row = live.get(i)
        if row is None or len(row) != n:  # pivoted, or changed and pushed again
            continue
        admissible = [c for c, v in row.items() if v in (1, -1)] if units else row
        if not admissible:
            continue
        c = min(admissible, key=lambda c: len(users[c]))
        pivots.append(c)
        del live[i]
        for k in row:
            users[k].discard(i)
        piv = _pivot(row, c, p)
        others, users[c] = users[c], set()
        for j in others:
            old = live[j]
            new = _unit_step(old, piv, c) if units else _subtract(old, piv, c, p)
            for k in piv:
                (users[k].add if k in new else users[k].discard)(j)
            live[j] = new  # an empty row is skipped when popped
            heappush(heap, (len(new), j))
    return pivots, [row for row in live.values() if row]


def rref(rows: list[dict], dom: ScalarDomain):
    """Reduced row echelon form of sparse rows {col: value} over dom (Z as Q).

    One echelon, structural pivots first, serves every domain
    (``_reduced_echelon``); over F_p the rows are first reduced mod p.
    Returns (the nonzero reduced rows as sparse dicts {col: value}, in
    order of their pivots, and the pivot column list).  Values are
    Fractions over Q and Z, residues over F_p.  The rows are only read.
    """
    if p := dom.p:
        rows = [_reduced(row, p) for row in rows]
    ech = _reduced_echelon(_sparsest_first(rows, p), p)
    pivots = sorted(ech)
    if p:
        return [ech[pc] for pc in pivots], pivots
    return [{j: Fraction(v, ech[pc][pc]) for j, v in ech[pc].items()} for pc in pivots], pivots


def coordinate_rref(rows: list[dict], dom: ScalarDomain):
    """``rref`` of rows with one entry each, with no elimination: the
    pivots are the supports of the nonzero ones, whose reduced rows are
    unit vectors.  The rows are only read."""
    p = dom.p
    pivots = sorted({c for row in rows for c, v in row.items() if (v % p if p else v)})
    return [{c: dom.one} for c in pivots], pivots


def rref_rows(rows: list[list], dom: ScalarDomain):
    """Reduced row echelon form of a list of dense row vectors over a field.

    Returns (dense rref rows without trailing zero rows, pivot columns).
    """
    dom.require_field()
    if not rows or not rows[0]:
        return [], []
    width = len(rows[0])
    red, pivots = rref([{j: row[j] for j in compress(range(width), row)} for row in rows], dom)
    return _dense(red, width, dom), pivots


def _dense(red: list[dict], width: int, dom: ScalarDomain) -> list[list]:
    """The sparse rows of ``rref`` as dense lists, padded with dom.zero."""
    out = [[dom.zero] * width for _ in red]
    for dense, row in zip(out, red):
        for j, v in row.items():
            dense[j] = v
    return out


def rank(m: Matrix) -> int:
    """Rank over the matrix's own field (over Z: rank of the Q-extension):
    the pivots of ``_markowitz``, over F_p under ``_modp.rref_modp``."""
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.dom.kind == PRIME_FIELD:
        return len(_modp.rref_modp(m, m.dom.p)[1])
    return len(_markowitz(_sparsest_first(m.sparse_rows()))[0])


# ---------------------------------------------------------------------------
# canonical subspaces
# ---------------------------------------------------------------------------

class SubspaceBasis:
    """A subspace in canonical (reduced row echelon) form.

    ``vectors`` is a tuple of ambient vectors; equal subspaces produce
    identical tuples, so span equality is literal equality.
    """

    __slots__ = ("ambient", "dom", "vectors")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, ambient: int, dom: ScalarDomain, vectors: tuple):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "vectors", vectors)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.ambient == other.ambient and self.dom == other.dom
                                 and self.vectors == other.vectors)

    def __hash__(self):
        return hash((self.ambient, self.dom, self.vectors))

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
    last = m.cols - 1
    red, pivots = rref([{last - c: v for c, v in row.items()} for row in m.sparse_rows()], dom)
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
    red, _ = rref([col for c, col in enumerate(m.sparse_columns()) if c not in free], m.dom)
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
# integer lattices: Smith form and kernel lattice from one echelon
# ---------------------------------------------------------------------------

def _combine(s: int, u: dict, t: int, v: dict) -> dict:
    """s u + t v for sparse integer rows, without zero entries."""
    out = {k: s * w for k, w in u.items()} if s else {}
    for k, w in v.items():
        if z := out.get(k, 0) + t * w:
            out[k] = z
        else:
            out.pop(k, None)
    return out


def _xgcd(a: int, b: int):
    """(g, x, y) with g = x a + y b and |g| = gcd(a, b)."""
    x, y, u, v = 1, 0, 0, 1
    while b:
        a, b, x, y, u, v = b, a % b, u, v, x - a // b * u, y - a // b * v
    return a, x, y


def _lattice_echelon(rows) -> dict:
    """Echelon basis {leading column: row} of the lattice spanned by the
    integer rows {col: value}, taken sparsest first.

    A row meeting the pivot row at its leading column c takes unimodular
    steps only.  When the pivot a divides the row's b (every unit pivot
    does), the row becomes row - (b/a) pivot.  Otherwise x pivot + y row,
    leading with g = x a + y b = ±gcd(a, b), becomes the pivot row, and
    the row becomes (b/g) pivot - (a/g) row, which is zero at c.
    """
    ech = {}
    for row in rows:
        while row:
            c = min(row)
            piv = ech.get(c)
            if piv is None:
                ech[c] = row
                break
            a, b = piv[c], row[c]
            if b % a:
                g, x, y = _xgcd(a, b)
                ech[c], row = _combine(x, piv, y, row), _combine(b // g, piv, -(a // g), row)
            else:
                row = _combine(1, row, -(b // a), piv)
    return ech


def leads_with_units(rows) -> bool:
    """Whether the echelon basis of the lattice L of the integer rows
    {col: value} leads with +-1 at each of its leading columns, the pivots
    of their span over Q.  It does exactly when L maps onto the pivot
    coordinates, that is when the other coordinates are a basis of Z^n / L.
    The row 2 e0 fails (Z / L is Z/2), and so does 2 e0 + e1: Z^2 / L has
    the basis e0, but not e1."""
    ech = _lattice_echelon(sorted(filter(None, ({c: int(v) for c, v in row.items() if v}
                                                for row in rows)), key=len))
    return all(row[c] in (1, -1) for c, row in ech.items())


class SmithForm:
    __slots__ = ("d", "rank")

    def __init__(self, d: list[int], rank: int):
        self.d = d
        self.rank = rank


def smith_normal_form(m: Matrix) -> SmithForm:
    """The nonzero Smith diagonal d of an integer matrix, each entry
    dividing the next, and its rank len(d).

    Lattice echelons of the rows and of the columns alternate (Kannan and
    Bachem), each pass taking the columns of the last one's rows in pivot
    order, until every row has one entry.  Every step is unimodular.  It
    ends: a row pass makes the first pivot the gcd of its column and a
    column pass the gcd of its row, so |pivot| falls until the pivot
    divides its row and column; then it stands alone in both, and the
    rest goes on alike.  Last, diag(a, b) ~ diag(gcd, lcm) makes a chain.
    """
    if m.dom.kind != INTEGERS:
        raise DomainMismatch("SNF needs an integer matrix")
    while True:
        ech = _lattice_echelon(sorted(filter(None, m.sparse_rows()), key=len))
        if all(len(row) == 1 for row in ech.values()):
            break
        m = Matrix.from_columns([ech[c] for c in sorted(ech)], m.cols, m.dom)
    d = sorted(abs(v) for row in ech.values() for v in row.values())
    for i, j in combinations(range(len(d)), 2):
        if d[j] % d[i]:
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return SmithForm(d, len(d))


def invariant_factors(m: Matrix) -> list[int]:
    """The nonzero invariant factors of an integer matrix, each dividing the next.

    Each +-1 pivot of ``_markowitz`` with units splits off a factor 1; the
    rows left with no +-1 entry go, compacted, to the Smith form.
    """
    ones, rest = _markowitz(filter(None, m.sparse_rows()), units=True)
    cols = {c: k for k, c in enumerate(sorted({c for row in rest for c in row}))}
    rest = [{cols[c]: v for c, v in row.items()} for row in rest]
    return [1] * len(ones) + smith_normal_form(Matrix.from_rows(rest, m.dom, cols=len(cols))).d


def integer_kernel_basis(m: Matrix) -> list[list]:
    """Saturated basis of the kernel lattice {x : m x = 0} of an integer
    matrix: the echelon rows, past row m.rows - 1, of the lattice
    {(m x, x)} that the columns of m stacked on the identity span.
    """
    if m.dom.kind != INTEGERS:
        raise DomainMismatch("integer kernel basis needs an integer matrix")
    top = m.rows
    stacked = [col | {top + j: 1} for j, col in enumerate(m.sparse_columns())]
    ech = _lattice_echelon(sorted(stacked, key=len))
    return [[ech[c].get(top + j, 0) for j in range(m.cols)] for c in sorted(ech) if c >= top]


# no caller in cychom; perfbench/tracer.py wraps it by name
def z_quotient_invariants(kernel_basis: list[list], boundary: Matrix):
    """Betti and torsion of (lattice spanned by kernel_basis) / im(boundary).

    boundary columns are assumed to lie in the kernel lattice; their
    coordinates in the basis are integral because the basis is saturated.
    """
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
    mat = Matrix.from_columns(coords, k, Z)
    snf = smith_normal_form(mat)
    betti = k - snf.rank
    torsion = [abs(v) for v in snf.d if abs(v) > 1]
    return betti, torsion
