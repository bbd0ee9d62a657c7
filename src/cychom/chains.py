"""Chain complexes, homology, normalization, totalization, and AW/EZ.

The bridge from simplicial data to linear algebra.  A SimplicialModule
carries face/degeneracy matrices per degree (built either by linearizing
a simplicial set spec or from algebra structure constants); everything
downstream is matrices over an exact domain.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cache, partial, reduce
from itertools import combinations
from operator import matmul
from types import MappingProxyType

from . import linalg
from .delta import cyclic_presentation, simplicial_identities
from .domains import ScalarDomain
from .errors import (
    BasisMismatch,
    DomainMismatch,
    LatticeMismatch,
    NotAChainMap,
    RangeExceedsComplex,
    SignCheckFailed,
    TruncationMismatch,
    TruncationTooSmall,
)
from .linalg import SubspaceBasis, integer_kernel_basis, invariant_factors, rank, rank_kernel_image, solve_in_span
from .matrix import Matrix


class ChainComplex:
    """Nonnegatively graded complex with explicit boundary matrices.

    ranks[n] is the module rank in degree n; diff[n] is d_n: C_n -> C_{n-1}
    for lo < n <= hi.  d*d = 0 is checked at construction.
    """

    def __init__(self, dom: ScalarDomain, ranks: dict, diffs: dict, name=""):
        self.dom = dom
        self.ranks = dict(ranks)
        self.diffs = dict(diffs)
        self.name = name
        degs = sorted(self.ranks)
        self.lo, self.hi = (degs[0], degs[-1]) if degs else (0, -1)
        for n in range(self.lo + 2, self.hi + 1):
            if not (self.d(n - 1) @ self.d(n)).is_zero():
                raise SignCheckFailed(f"d{n - 1} d{n} != 0 in {name or 'complex'}")

    def rank(self, n) -> int:
        return self.ranks.get(n, 0)

    def d(self, n) -> Matrix:
        """The boundary C_n -> C_{n-1} (zero where undefined)."""
        if n in self.diffs:
            return self.diffs[n]
        return Matrix.zeros(self.rank(n - 1), self.rank(n), self.dom)


class HomologyResult:
    """Betti numbers and torsion as dicts by degree.

    ``reps`` and ``boundary_image`` (a basis of im d_{n+1}, over a field
    only) are read-only mappings by degree.  The length of reps[n] is known
    from the start, and its vectors are built on the first read of any of
    them: over a field betti[n] cycle representatives, over Z a certified
    Z-basis of the cycle lattice ker d_n, of rank C_n - #f_n vectors (f_n
    the nonzero invariant factors of d_n)."""

    def __init__(self, dom, name=""):
        self.dom = dom
        self.name = name
        self.betti = {}
        self.torsion = {}
        self.reps = self.boundary_image = MappingProxyType({})

    def rows(self):
        return [{"degree": n, "betti": self.betti[n], "torsion": list(self.torsion.get(n, [])),
                 "domain": str(self.dom)} for n in sorted(self.betti)]


class _PerDegree(Mapping):
    """A read-only {degree: value} over fixed degrees; build(n) makes each
    value on its first read."""

    def __init__(self, degrees, build):
        self._degrees, self._build = tuple(degrees), cache(build)

    def __getitem__(self, n):
        if n not in self._degrees:
            raise KeyError(n)
        return self._build(n)

    def __iter__(self):
        return iter(self._degrees)

    def __len__(self):
        return len(self._degrees)


class _Representatives(Sequence):
    """A read-only sequence of known length whose items build() makes on
    the first read of any of them."""

    def __init__(self, count, build):
        self._count, self._build = count, cache(build)

    def __len__(self):
        return self._count

    def __getitem__(self, i):
        return self._build()[i]

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)


def _representatives(kernel: SubspaceBasis, image: SubspaceBasis, dom):
    """Deterministic cycle representatives: echelon completion of the image.

    A kernel vector is kept iff it is independent of the image and of the
    kernel vectors before it, i.e. iff its column is a pivot column of
    [image basis | kernel basis].
    """
    cols = image.vectors + kernel.vectors
    rows = [[v[i] for v in cols] for i in range(kernel.ambient)]
    _, pivots = linalg.rref_rows(rows, dom)
    return [list(kernel.vectors[j - image.dim]) for j in pivots if j >= image.dim]


def _certified_kernel(d: Matrix, nullity: int) -> list[list]:
    """integer_kernel_basis(d), certified: nullity many vectors that d kills
    with all invariant factors 1 span a saturated lattice, so all of ker d."""
    kern = integer_kernel_basis(d)
    k = Matrix.from_columns(kern, d.cols, d.dom)
    if not (d @ k).is_zero():
        raise LatticeMismatch("integral kernel basis has a vector outside the kernel")
    if len(kern) != nullity:
        raise LatticeMismatch(f"integral kernel basis has {len(kern)} vectors, kernel rank {nullity}")
    if invariant_factors(k) != [1] * nullity:
        raise LatticeMismatch("integral kernel basis not saturated")
    return kern


def homology(c: ChainComplex, degrees) -> HomologyResult:
    """Homology of the complex: Betti numbers from ranks over a field and
    from invariant factors over Z; bases on first read.

    Each boundary d_k is ranked (over Z: factored) once per call.  Over a
    field betti_n = rank C_n - rank d_n - rank d_{n+1} = len(reps[n]); the
    first read of a vector of reps[n] or of boundary_image[n] runs
    rank_kernel_image on d_n and d_{n+1}, whose bases must have the
    dimensions those ranks give.  Over Z, with f_k the nonzero invariant
    factors of d_k, betti_n = rank C_n - #f_n - #f_{n+1} and the torsion of
    H_n is the f_{n+1} above 1 (C_n / ker d_n embeds in C_{n-1}, so it is
    free); the first read of a vector of reps[n] builds and certifies the
    rank C_n - #f_n cycle lattice basis.
    """
    res = HomologyResult(c.dom, name=c.name)
    field = c.dom.kind != "Z"
    reduced = {}  # k -> rank(d_k) over a field, invariant_factors(d_k) over Z
    counts = {}  # n -> len(reps[n])
    for n in degrees:
        if not c.lo <= n < c.hi and not (n == c.hi == c.lo):
            raise RangeExceedsComplex(
                f"degree {n} needs boundaries d_{n} and d_{n + 1}; complex covers [{c.lo},{c.hi}]")
        for k in (n, n + 1):
            if k not in reduced:
                reduced[k] = (rank if field else invariant_factors)(c.d(k))
        if field:
            res.betti[n] = counts[n] = c.rank(n) - reduced[n] - reduced[n + 1]
            res.torsion[n] = []
        else:
            counts[n] = c.rank(n) - len(reduced[n])
            res.betti[n] = counts[n] - len(reduced[n + 1])
            res.torsion[n] = [v for v in reduced[n + 1] if v > 1]

    @cache
    def basis(k):
        """(kernel, image) of d_k over a field, checked against its rank."""
        r, kernel, image = rank_kernel_image(c.d(k))
        if r != reduced[k] or kernel.dim != c.rank(k) - r:
            raise BasisMismatch(f"d_{k} has rank {reduced[k]}, but bases of a"
                                f" {kernel.dim}-dim kernel and {r}-dim image")
        return kernel, image

    def representatives(n):
        if not field:
            return _certified_kernel(c.d(n), counts[n])
        return _representatives(basis(n)[0], basis(n + 1)[1], c.dom)

    res.reps = MappingProxyType({n: _Representatives(k, partial(representatives, n))
                                 for n, k in counts.items()})
    if field:
        res.boundary_image = _PerDegree(res.betti, lambda n: basis(n + 1)[1])
    return res


class ChainMap:
    """Degreewise matrices f_n: C_n -> D_{n+shift}, commuting with d."""

    def __init__(self, source: ChainComplex, target: ChainComplex, mats: dict,
                 shift=0, name=""):
        if source.dom != target.dom:
            raise DomainMismatch("chain map needs a common scalar domain")
        self.source = source
        self.target = target
        self.mats = dict(mats)
        self.shift = shift
        self.name = name
        self.verify()

    def mat(self, n) -> Matrix:
        if n in self.mats:
            return self.mats[n]
        return Matrix.zeros(self.target.rank(n + self.shift),
                            self.source.rank(n), self.source.dom)

    def verify(self):
        for n in range(self.source.lo, self.source.hi + 1):
            if n + self.shift <= self.target.lo or n + self.shift > self.target.hi:
                continue
            lhs = self.target.d(n + self.shift) @ self.mat(n)
            rhs = self.mat(n - 1) @ self.source.d(n)
            if lhs != rhs:
                raise NotAChainMap(f"{self.name or 'map'} fails d f = f d at degree {n}")


def class_coordinates(h: HomologyResult, n: int, cycles) -> Matrix:
    """Columns of coordinates of degree-n cycles in the class basis h.reps[n].

    Each cycle is solved against the representatives together with the
    boundary basis, and the boundary part of the solution is dropped.
    Over Z there is no boundary basis: raises DomainNotField.
    """
    h.dom.require_field()
    reps = [list(v) for v in h.reps[n]]
    basis = reps + [list(v) for v in h.boundary_image[n].vectors]
    xs = solve_in_span(basis, [list(v) for v in cycles], h.dom)
    if xs is None:
        raise NotAChainMap(f"cycle class not expressible at degree {n}")
    return Matrix.from_columns([x[:len(reps)] for x in xs], len(reps), h.dom)


def induced_map(f: ChainMap, h_src: HomologyResult, h_tgt: HomologyResult,
                degree: int) -> Matrix:
    """Matrix of f on homology bases at the given source degree."""
    tdeg = degree + f.shift
    src_reps = h_src.reps.get(degree)
    if src_reps is None or h_tgt.reps.get(tdeg) is None:
        raise BasisMismatch(f"homology bases missing at degrees {degree}/{tdeg}")
    d = f.target.d(tdeg)
    images = [f.mat(degree).apply(list(r)) for r in src_reps]
    if any(any(d.apply(v)) for v in images):
        raise NotAChainMap(f"{f.name or 'map'} sends a cycle to a non-cycle at degree {degree}")
    return class_coordinates(h_tgt, tdeg, images)


def exactness_at(f: Matrix, g: Matrix, rank_of=rank) -> bool:
    """Whether im(f) = ker(g) for consecutive homology-level matrices.

    im f lies in ker g iff g f = 0, and then they are equal iff their
    dimensions agree; the ranks are taken by rank_of, which may reuse them.
    """
    if g.cols != f.rows:
        raise BasisMismatch(f"middle space mismatch: {f.rows} vs {g.cols}")
    return (g @ f).is_zero() and rank_of(f) == g.cols - rank_of(g)


# ---------------------------------------------------------------------------
# presented modules (quotients by a relation span)
# ---------------------------------------------------------------------------

class PresentedModule:
    """A quotient of a based module by the span of relation vectors.

    Relations are sparse rows {ambient index: coefficient}, only read.
    The quotient basis ``free`` is the set of non-pivot coordinates of
    their reduced row echelon form, whose rows are kept as the columns of
    the matrix relations; proj and sect are the projection and section,
    with proj @ sect = identity.  sect picks the coordinates in free, so
    m @ sect is m.columns(free).  One-entry relations span a coordinate
    subspace, reduced with no elimination.
    """

    def __init__(self, ambient: int, relations, dom: ScalarDomain):
        self.ambient = ambient
        self.dom = dom
        one_entry = all(len(row) == 1 for row in relations)
        red, pivots = (linalg.coordinate_rref if one_entry else linalg.rref)(relations, ambient, dom)
        if dom.kind == "Z":
            # free is a basis of the quotient exactly when the relation
            # lattice leads with +-1 at every pivot; then red is integral
            if not linalg.leads_with_units(relations):
                raise DomainMismatch("the quotient over the integers has no basis on the free coordinates")
            red = [{j: int(v) for j, v in row.items()} for row in red]
        # every value below is canonical for dom and nonzero
        self.relations = Matrix.from_canonical_columns(dict(enumerate(red)), ambient, len(red), dom)
        pivset = set(pivots)
        self.free = [c for c in range(ambient) if c not in pivset]
        self.dim = len(self.free)
        # proj keeps a free coordinate and sends a pivot coordinate to
        # minus the free part of its reduced relation
        position = {c: k for k, c in enumerate(self.free)}
        cols = {c: {k: dom.one} for c, k in position.items()}
        for pc, rel in zip(pivots, red):
            cols[pc] = {position[c]: dom.neg(v) for c, v in rel.items() if c != pc}
        self.proj = Matrix.from_canonical_columns(cols, self.dim, ambient, dom)
        self.sect = Matrix.from_canonical_columns(
            {k: {c: dom.one} for k, c in enumerate(self.free)}, ambient, self.dim, dom)


# ---------------------------------------------------------------------------
# simplicial modules
# ---------------------------------------------------------------------------

def _alternating(k):
    """The signs of sum (-1)^i d_i over the faces i < k."""
    return tuple((i, (-1) ** i) for i in range(k))


class SimplicialModule:
    """A truncated simplicial module by explicit operator matrices.

    faces_fn(n, cols, signs) builds the sum of s d_i over the pairs (i, s)
    of signs, s = +-1, on the listed cells of degree n (all when cols is
    None), one column per cell.  d_i is the one-term sum, b_n = sum (-1)^i
    d_i and b'_n the same sum without the last face, so no boundary reads
    a face matrix; the normalized complex builds b_n on the nondegenerate
    cells alone.  degeneracy_fn(n, j) is s_j: rank(n) -> rank(n+1); the
    optional t_fn(n) is always the signed rotation (-1)^n t that the cyclic
    bicomplex needs.  All is lazy and cached: top degrees can be large.
    """

    def __init__(self, dom, truncation, rank_fn, faces_fn, degeneracy_fn,
                 t_fn=None, name=""):
        self.dom = dom
        self.truncation = truncation
        self._rank = rank_fn
        self._faces = faces_fn
        self._degeneracy = degeneracy_fn
        self._t = t_fn
        self.name = name
        self._cache = {}

    @property
    def has_cyclic(self):
        return self._t is not None

    def rank(self, n):
        return self._rank(n)

    def cached(self, key, build):
        """The value stored under key, built by build() on first use and
        shared by every caller."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def face(self, n, i) -> Matrix:
        """d_i on degree n."""
        return self.cached(("d", n, i), lambda: self._faces(n, None, ((i, 1),)))

    def degeneracy(self, n, j) -> Matrix:
        return self.cached(("s", n, j), lambda: self._degeneracy(n, j))

    def t(self, n) -> Matrix:
        return self.cached(("t", n), lambda: self._t(n))

    def boundary(self, n) -> Matrix:
        """The alternating face sum b: C_n -> C_{n-1}."""
        return self.cached(("b", n), lambda: self.boundary_on(n, None))

    def bprime(self, n) -> Matrix:
        """The truncated boundary omitting the last face."""
        return self.cached(("b'", n), lambda: self._faces(n, None, _alternating(n)))

    def degenerate_relations(self, n):
        """Spanning vectors of the degenerate submodule in degree n: the
        columns of every s_j as the sparse dicts {index: coefficient} it
        stores, not copies (s_j is injective: none is empty)."""
        return [col for j in range(n) for col in self.degeneracy(n - 1, j).stored_columns()]

    def normalized_quotient(self, n) -> PresentedModule:
        return self.cached(("nq", n), lambda: PresentedModule(
            self.rank(n), self.degenerate_relations(n), self.dom))

    def boundary_on(self, n, cols) -> Matrix:
        """The columns cols of b_n, in that order (all when cols is None),
        built on those cells alone."""
        return self._faces(n, cols, _alternating(n + 1))

    def normalized_boundary(self, n) -> Matrix:
        """The normalized d_n: proj_{n-1} @ b_n on the columns free_n of
        normalized_quotient(n), so faces of the dropped cells are never
        built.  Cached, and shared by every complex that needs it."""
        return self.cached(("bbar", n), lambda: self.normalized_quotient(n - 1).proj
                           @ self.boundary_on(n, self.normalized_quotient(n).free))

    def chain_complex(self, mode="unnormalized", top=None) -> ChainComplex:
        """The associated complex, optionally normalized.

        Degrees [0, top] with top defaulting to the truncation; homology
        is then reliable up to top - 1.  The normalized complex is the
        quotient by the degenerate submodule: with free_n the quotient
        basis of normalized_quotient(n) (the nondegenerate cells, for a
        simplicial set), its d_n is normalized_boundary(n).
        """
        top = self.truncation if top is None else top
        if top > self.truncation:
            raise TruncationTooSmall(f"requested top {top} above truncation {self.truncation}")
        if mode == "unnormalized":
            ranks = {n: self.rank(n) for n in range(top + 1)}
            diffs = {n: self.boundary(n) for n in range(1, top + 1)}
            return ChainComplex(self.dom, ranks, diffs, name=f"C({self.name})")
        if mode != "normalized":
            raise ValueError(f"unknown mode {mode!r}")
        ranks = {n: self.normalized_quotient(n).dim for n in range(top + 1)}
        diffs = {n: self.normalized_boundary(n) for n in range(1, top + 1)}
        return ChainComplex(self.dom, ranks, diffs, name=f"N({self.name})")


def linearize_module(spec, dom: ScalarDomain) -> SimplicialModule:
    """Free module on a simplicial set spec, with operator matrices; the
    rotation of a cyclic spec becomes the signed one, (-1)^n t.  A face
    sum adds up, per cell, the signs at the indices of its spec.face."""
    @cache
    def idx(n):
        return {x: k for k, x in enumerate(spec.elements(n))}

    def rank(n):
        return len(spec.elements(n))

    def faces(n, cols, signs):
        src, tgt, out = spec.elements(n), idx(n - 1), {}
        for c, x in enumerate(src if cols is None else [src[k] for k in cols]):
            col = out[c] = {}
            for i, s in signs:
                r = tgt[spec.face(n, i, x)]
                col[r] = col.get(r, 0) + s
        return Matrix.from_column_sums(out, len(tgt), len(out), dom)

    def op_matrix(n, target_deg, fn):
        src, tgt = spec.elements(n), idx(target_deg)
        return Matrix.from_canonical_columns(
            {c: {tgt[fn(x)]: dom.one} for c, x in enumerate(src)}, len(tgt), len(src), dom)

    def degeneracy(n, j):
        return op_matrix(n, n + 1, lambda x: spec.degeneracy(n, j, x))

    t_fn = None
    if spec.has_cyclic:
        def t_fn(n):
            m = op_matrix(n, n, lambda x: spec.t(n, x))
            return -m if n % 2 else m

    return SimplicialModule(dom, spec.truncation, rank, faces, degeneracy,
                            t_fn=t_fn, name=spec.name)


def linearize(spec, dom: ScalarDomain, mode="unnormalized") -> ChainComplex:
    """Chain complex of a simplicial set spec over the given domain."""
    return linearize_module(spec, dom).chain_complex(mode)


def check_module_identities(sm: SimplicialModule, top=None):
    """The instances of delta.simplicial_identities up to degree top that
    fail as matrix equalities on sm, the cyclic ones too when sm has a
    rotation (empty means pass).

    A cyclic module is checked on delta.cyclic_presentation, which implies
    the table (derived in tests/test_delta.py); the table is evaluated only
    after a relation fails, to list every violated instance.  A module
    without rotation is checked on the table.  The identities hold for the
    unsigned rotation t, so each degree's signed rotation (-1)^n t is
    turned back into t once.  Raises TruncationTooSmall for top above the
    truncation.
    """
    top = sm.truncation if top is None else top
    if top > sm.truncation:
        raise TruncationTooSmall(f"requested top {top} above truncation {sm.truncation}")

    @cache
    def op(tok):
        if tok[0] == "tau":
            return -sm.t(tok[1]) if tok[1] % 2 else sm.t(tok[1])
        return (sm.face if tok[0] == "delta" else sm.degeneracy)(tok[2], tok[1])

    identity = cache(lambda n: Matrix.identity(sm.rank(n), sm.dom))

    def product(word, n):
        return reduce(matmul, map(op, word)) if word else identity(n)

    def violations(table):
        return [f"{label} deg {n}" for label, n, lhs, rhs in table
                if product(lhs, n) != product(rhs, n)]

    if sm.has_cyclic and not violations(cyclic_presentation(top)):
        return []
    return violations(simplicial_identities(top, sm.has_cyclic))


# ---------------------------------------------------------------------------
# bicomplexes and totalization
# ---------------------------------------------------------------------------

class Bicomplex:
    """A finite grid of modules with vertical and horizontal differentials.

    horiz[(p, q)] maps M(p, q) -> M(p-1, q) and vert[(p, q)] maps M(p, q)
    -> M(p, q-1); total degree is p+q.  Signs are the caller's
    responsibility: the stored maps must already satisfy d_v d_v = 0,
    d_h d_h = 0 and d_v d_h + d_h d_v = 0, which is checked here.
    """

    def __init__(self, dom, ranks: dict, vert: dict, horiz: dict, name=""):
        self.dom = dom
        self.ranks = {k: v for k, v in ranks.items() if v}
        self.vert = dict(vert)
        self.horiz = dict(horiz)
        self.name = name
        self.verify()

    def rank(self, p, q):
        return self.ranks.get((p, q), 0)

    def v(self, p, q) -> Matrix:
        return self.vert.get(
            (p, q), Matrix.zeros(self.rank(p, q - 1), self.rank(p, q), self.dom))

    def h(self, p, q) -> Matrix:
        return self.horiz.get(
            (p, q), Matrix.zeros(self.rank(p - 1, q), self.rank(p, q), self.dom))

    def verify(self):
        """Check each distinct identity once: columns that share their maps
        (as in the cyclic bicomplex) repeat the same products of the same
        objects.  The memo holds the operands, so no id in a key is reused
        by a later temporary zero from v() or h()."""
        checked = {}

        def vanishes(*pairs):
            """Whether the sum of a @ b over the pairs (a, b) is zero."""
            key = tuple(id(m) for pair in pairs for m in pair)
            if key not in checked:
                (a, b), *rest = pairs
                total = sum((c @ d for c, d in rest), a @ b)
                checked[key] = (pairs, total.is_zero())
            return checked[key][1]

        for (p, q) in self.ranks:
            if self.rank(p, q - 1) and self.rank(p, q - 2):
                if not vanishes((self.v(p, q - 1), self.v(p, q))):
                    raise SignCheckFailed(f"vertical d^2 at ({p},{q})")
            if self.rank(p - 1, q) and self.rank(p - 2, q):
                if not vanishes((self.h(p - 1, q), self.h(p, q))):
                    raise SignCheckFailed(f"horizontal d^2 at ({p},{q})")
            if self.rank(p - 1, q) and self.rank(p, q - 1):
                if not vanishes((self.v(p - 1, q), self.h(p, q)),
                                (self.h(p, q - 1), self.v(p, q))):
                    raise SignCheckFailed(f"anticommutation at ({p},{q})")


def total_complex(b: Bicomplex, top=None) -> ChainComplex:
    """Totalize over p+q = n; the degrees up to top that no nonzero cell
    reaches get rank 0, so a grid cut at top covers its cut.

    The result carries cells/offsets describing the block layout.
    """
    cells = {}
    for (p, q) in b.ranks:
        cells.setdefault(p + q, []).append((p, q))
    for n in cells:
        cells[n].sort()
    offsets = {}
    ranks = {}
    for n, cl in cells.items():
        pos = 0
        for c in cl:
            offsets[c] = pos
            pos += b.ranks[c]
        ranks[n] = pos
    diffs = {}
    for n in sorted(cells):
        if n - 1 in cells:
            diffs[n] = Matrix.from_blocks(ranks[n - 1], ranks[n], b.dom, (
                (offsets[tgt], offsets[(p, q)], block)
                for (p, q) in cells[n]
                for tgt, block in (((p, q - 1), b.v(p, q)), ((p - 1, q), b.h(p, q)))
                if b.rank(*tgt)))
    # pad missing degrees inside the covered range with zero ranks
    if cells:
        hi = max(cells) if top is None else max(*cells, top)
        for n in range(min(cells), hi + 1):
            ranks.setdefault(n, 0)
    cc = ChainComplex(b.dom, ranks, diffs, name=f"Tot({b.name})")
    cc.cells = cells
    cc.offsets = offsets
    return cc


# ---------------------------------------------------------------------------
# tensor products and the comparison maps
# ---------------------------------------------------------------------------

def _check_pair(C: SimplicialModule, D: SimplicialModule):
    if C.dom != D.dom:
        raise DomainMismatch("tensor factors need a common scalar domain")
    if C.truncation != D.truncation:
        raise TruncationMismatch(
            f"truncations differ: {C.truncation} vs {D.truncation}")


def diagonal_tensor(C: SimplicialModule, D: SimplicialModule) -> SimplicialModule:
    """The degreewise tensor product, a simplicial module again: a face
    sum adds up the Kronecker products d_i (x) d_i of the factors' faces."""
    _check_pair(C, D)

    def rank(n):
        return C.rank(n) * D.rank(n)

    def faces(n, cols, signs):
        return Matrix.signed_sum(rank(n - 1), rank(n) if cols is None else len(cols), C.dom,
                                 ((s, C.face(n, i).kron(D.face(n, i), cols)) for i, s in signs))

    def degeneracy(n, j):
        return C.degeneracy(n, j).kron(D.degeneracy(n, j))

    return SimplicialModule(C.dom, C.truncation, rank, faces, degeneracy,
                            name=f"{C.name}(x){D.name}")


def tensor_bicomplex(C: SimplicialModule, D: SimplicialModule, top=None,
                     mode="unnormalized") -> Bicomplex:
    """The double complex C_p (x) D_q with the Koszul sign on columns."""
    _check_pair(C, D)
    top = C.truncation if top is None else top

    def cplx(M):
        return M.chain_complex(mode, top=top)

    cc, dd = cplx(C), cplx(D)
    ranks = {(p, q): cc.rank(p) * dd.rank(q)
             for p in range(top + 1) for q in range(top + 1 - p)}
    vert = {}
    horiz = {}
    for (p, q) in ranks:
        if q >= 1:
            m = Matrix.identity(cc.rank(p), C.dom).kron(dd.d(q))
            vert[(p, q)] = m if p % 2 == 0 else -m
        if p >= 1:
            horiz[(p, q)] = cc.d(p).kron(Matrix.identity(dd.rank(q), D.dom))
    return Bicomplex(C.dom, ranks, vert, horiz,
                     name=f"{C.name}[p](x){D.name}[q]")


def _aw_block(C, D, n, p, quot=None):
    """The (p, n-p) Alexander-Whitney block.  quot is the normalized
    quotient of the diagonal in degree n in the normalized mode (None in
    the other): then the factors are projected to their own quotients and
    only the columns quot.free of the product are built."""
    q = n - p
    left = Matrix.identity(C.rank(n), C.dom)
    for k in range(n, p, -1):
        left = C.face(k, k) @ left
    right = Matrix.identity(D.rank(n), D.dom)
    for k in range(n, q, -1):
        right = D.face(k, 0) @ right
    if quot is None:
        return left.kron(right)
    left = C.normalized_quotient(p).proj @ left
    right = D.normalized_quotient(q).proj @ right
    return left.kron(right, quot.free)


def _ez_block(C, D, n, p, quot=None):
    """The shuffle sum from bidegree (p, n-p) back to the diagonal.  With
    quot as for _aw_block, each factor starts from the section of its own
    quotient instead of the identity, so only the pairs of free cells are
    built, and the sum is projected by quot."""
    q = n - p
    if quot is None:
        left, right = Matrix.identity(C.rank(p), C.dom), Matrix.identity(D.rank(q), D.dom)
    else:
        left, right = C.normalized_quotient(p).sect, D.normalized_quotient(q).sect
    block = Matrix.signed_sum(C.rank(n) * D.rank(n), left.cols * right.cols, C.dom,
                              _shuffle_terms(C, D, n, p, left, right))
    return block if quot is None else quot.proj @ block


def _shuffle_terms(C, D, n, p, left0, right0):
    """(sign, s_nu left0 (x) s_mu right0) for each (p, n-p) shuffle (mu, nu)."""
    q = n - p
    for mu in combinations(range(n), p):
        nu = [k for k in range(n) if k not in mu]
        sign = (-1) ** sum(m - i for i, m in enumerate(mu))
        left = left0
        deg = p
        for j in nu:
            left = C.degeneracy(deg, j) @ left
            deg += 1
        right = right0
        deg = q
        for j in mu:
            right = D.degeneracy(deg, j) @ right
            deg += 1
        yield sign, left.kron(right)


def _tensor_pair(C, D, mode, top):
    """(top, the diagonal tensor, its complex, the totalized tensor
    bicomplex), built once per (D, mode, top) in C's cache and shared by
    aw_map and ez_map; top defaults to the truncation."""
    _check_pair(C, D)
    top = C.truncation if top is None else top
    def build():
        diag = diagonal_tensor(C, D)
        return (top, diag, diag.chain_complex(mode, top=top),
                total_complex(tensor_bicomplex(C, D, top=top, mode=mode)))
    return C.cached(("C(x)D", D, mode, top), build)


def aw_map(C: SimplicialModule, D: SimplicialModule, mode="unnormalized",
           top=None) -> ChainMap:
    """Alexander-Whitney: diagonal tensor complex to the totalized grid."""
    top, diag, src, tot = _tensor_pair(C, D, mode, top)
    mats = {}
    for n in range(top + 1):
        quot = diag.normalized_quotient(n) if mode == "normalized" else None
        mats[n] = Matrix.from_blocks(tot.rank(n), src.rank(n), C.dom, (
            (tot.offsets[(p, n - p)], 0, _aw_block(C, D, n, p, quot))
            for p in range(n + 1) if (p, n - p) in tot.offsets))
    return ChainMap(src, tot, mats, name=f"AW({C.name},{D.name})")


def ez_map(C: SimplicialModule, D: SimplicialModule, mode="unnormalized",
           top=None) -> ChainMap:
    """Eilenberg-Zilber: shuffle map from the totalized grid back."""
    top, diag, tgt, tot = _tensor_pair(C, D, mode, top)
    mats = {}
    for n in range(top + 1):
        quot = diag.normalized_quotient(n) if mode == "normalized" else None
        mats[n] = Matrix.from_blocks(tgt.rank(n), tot.rank(n), C.dom, (
            (0, tot.offsets[(p, n - p)], _ez_block(C, D, n, p, quot))
            for p in range(n + 1) if (p, n - p) in tot.offsets))
    return ChainMap(tot, tgt, mats, name=f"EZ({C.name},{D.name})")
