"""Chain complexes, homology, normalization, totalization, and AW/EZ.

The bridge from simplicial data to linear algebra.  A SimplicialModule
carries face/degeneracy matrices per degree (built either by linearizing
a simplicial set spec or from algebra structure constants); everything
downstream is matrices over an exact domain.
"""

from __future__ import annotations

from itertools import combinations, compress

from . import linalg
from .domains import ScalarDomain
from .errors import (
    BasisMismatch,
    DomainMismatch,
    NotAChainMap,
    RangeExceedsComplex,
    SignCheckFailed,
    TruncationMismatch,
    TruncationTooSmall,
)
from .linalg import SubspaceBasis, integer_kernel_basis, rank, rank_kernel_image, solve_in_span, z_quotient_invariants
from .matrix import Matrix


class ChainComplex:
    """Nonnegatively graded complex with explicit boundary matrices.

    ranks[n] is the module rank in degree n; diff[n] is d_n: C_n -> C_{n-1}
    for lo < n <= hi.  d*d = 0 is checked at construction.
    """

    def __init__(self, dom: ScalarDomain, ranks: dict, diffs: dict,
                 labels=None, name="", check=True):
        self.dom = dom
        self.ranks = dict(ranks)
        self.diffs = dict(diffs)
        self.labels = labels or {}
        self.name = name
        degs = sorted(self.ranks)
        self.lo, self.hi = (degs[0], degs[-1]) if degs else (0, -1)
        if check:
            for n in range(self.lo + 2, self.hi + 1):
                prod = self.d(n - 1) @ self.d(n)
                if not prod.is_zero():
                    raise SignCheckFailed(f"d{n - 1} d{n} != 0 in {name or 'complex'}")

    def rank(self, n) -> int:
        return self.ranks.get(n, 0)

    def d(self, n) -> Matrix:
        """The boundary C_n -> C_{n-1} (zero where undefined)."""
        if n in self.diffs:
            return self.diffs[n]
        return Matrix.zeros(self.rank(n - 1), self.rank(n), self.dom)


class HomologyResult:
    """Betti numbers, torsion (integral case) and cycle representatives."""

    def __init__(self, dom, name=""):
        self.dom = dom
        self.name = name
        self.betti = {}
        self.torsion = {}
        self.reps = {}         # degree -> list of cycle vectors
        self.boundary_image = {}  # degree -> SubspaceBasis of im d_{n+1}

    def degrees(self):
        return sorted(self.betti)

    def rows(self):
        out = []
        for n in self.degrees():
            out.append({"degree": n, "betti": self.betti[n],
                        "torsion": list(self.torsion.get(n, [])),
                        "domain": str(self.dom)})
        return out


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


def homology(c: ChainComplex, degrees) -> HomologyResult:
    """Homology of the complex; field case by rank, integral case by SNF.

    Over a field each boundary matrix is reduced once per call: d_{n+1}
    gives the image for H_n and the kernel for H_{n+1}.
    """
    res = HomologyResult(c.dom, name=c.name)
    reduced = {}  # k -> rank_kernel_image(d_k)
    for n in degrees:
        if not c.lo <= n < c.hi and not (n == c.hi == c.lo):
            raise RangeExceedsComplex(
                f"degree {n} needs boundaries d_{n} and d_{n + 1}; complex covers [{c.lo},{c.hi}]")
        if c.dom.kind == "Z":
            kern = integer_kernel_basis(c.d(n)) if c.rank(n) else []
            betti, tors = z_quotient_invariants(kern, c.d(n + 1))
            res.betti[n] = betti
            res.torsion[n] = tors
            res.reps[n] = kern
        else:
            for k in (n, n + 1):
                if k not in reduced:
                    reduced[k] = rank_kernel_image(c.d(k))
            kernel, image = reduced[n][1], reduced[n + 1][2]
            res.betti[n] = kernel.dim - image.dim
            res.torsion[n] = []
            res.reps[n] = _representatives(kernel, image, c.dom)
            res.boundary_image[n] = image
    return res


class ChainMap:
    """Degreewise matrices f_n: C_n -> D_{n+shift}, commuting with d."""

    def __init__(self, source: ChainComplex, target: ChainComplex, mats: dict,
                 shift=0, name="", check=True):
        if source.dom != target.dom:
            raise DomainMismatch("chain map needs a common scalar domain")
        self.source = source
        self.target = target
        self.mats = dict(mats)
        self.shift = shift
        self.name = name
        if check:
            self.verify()

    def mat(self, n) -> Matrix:
        if n in self.mats:
            return self.mats[n]
        return Matrix.zeros(self.target.rank(n + self.shift),
                            self.source.rank(n), self.source.dom)

    def verify(self):
        for n in range(self.source.lo + 1, self.source.hi + 1):
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
    """
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


def exactness_at(f: Matrix, g: Matrix) -> bool:
    """Whether im(f) = ker(g) for consecutive homology-level matrices.

    im f lies in ker g iff g f = 0, and then they are equal iff their
    dimensions agree.
    """
    if g.cols != f.rows:
        raise BasisMismatch(f"middle space mismatch: {f.rows} vs {g.cols}")
    return (g @ f).is_zero() and rank(f) == g.cols - rank(g)


# ---------------------------------------------------------------------------
# presented modules (quotients by a relation span)
# ---------------------------------------------------------------------------

class PresentedModule:
    """A quotient of a based module by the span of relation vectors.

    The quotient basis is the set of non-pivot coordinates of the reduced
    relation span; proj and sect are the corresponding projection and
    section matrices, with proj @ sect = identity.
    """

    def __init__(self, ambient: int, relations, dom: ScalarDomain, labels=None):
        self.ambient = ambient
        self.dom = dom
        if relations:
            if dom.kind == "Z":
                # valid only when the reduced span is integral with unit
                # pivots (true for degenerate subcomplexes of simplicial
                # sets, whose relations are standard basis vectors); the
                # RREF over Q has Fraction entries
                from .domains import Q as QDOM
                red, pivots = linalg.rref_rows(relations, QDOM)
                if any(v.denominator != 1 for row in red for v in row):
                    raise DomainMismatch("relation span is not saturated over the integers")
                red = [[v.numerator for v in row] for row in red]
            else:
                red, pivots = linalg.rref_rows(relations, dom)
        else:
            red, pivots = [], []
        self.rel_rref = red
        self.pivots = list(pivots)
        pivset = set(pivots)
        self.free = [c for c in range(ambient) if c not in pivset]
        self.dim = len(self.free)
        self.labels = [labels[c] for c in self.free] if labels else None
        proj = Matrix.zeros(self.dim, ambient, dom)
        for k, c in enumerate(self.free):
            proj._set(k, c, dom.one)
        # a pivot coordinate is minus the free part of its relation row,
        # which is sparse: compress skips its zeros at C speed
        for row, pc in zip(red, self.pivots):
            part = [row[c] for c in self.free]
            for k in compress(range(self.dim), part):
                proj._set(k, pc, dom.neg(part[k]))
        self.proj = proj
        sect = Matrix.zeros(ambient, self.dim, dom)
        for k, c in enumerate(self.free):
            sect._set(c, k, dom.one)
        self.sect = sect

    def contains_relation(self, vector) -> bool:
        """Whether the ambient vector lies in the relation span."""
        return all(x == 0 for x in self.proj.apply(list(vector)))


# ---------------------------------------------------------------------------
# simplicial modules
# ---------------------------------------------------------------------------

class SimplicialModule:
    """A truncated simplicial module by explicit operator matrices.

    face(n, i): rank(n) -> rank(n-1); degeneracy(n, j): rank(n) -> rank(n+1);
    optional t(n) (possibly signed).  Everything is lazy and cached, since
    top-degree matrices can be large.
    """

    def __init__(self, dom, truncation, rank_fn, face_fn, degeneracy_fn,
                 t_fn=None, labels_fn=None, name=""):
        self.dom = dom
        self.truncation = truncation
        self._rank = rank_fn
        self._face = face_fn
        self._degeneracy = degeneracy_fn
        self._t = t_fn
        self._labels = labels_fn
        self.name = name
        self._cache = {}

    @property
    def has_cyclic(self):
        return self._t is not None

    def rank(self, n):
        return self._rank(n)

    def labels(self, n):
        return self._labels(n) if self._labels else None

    def face(self, n, i) -> Matrix:
        key = ("d", n, i)
        if key not in self._cache:
            self._cache[key] = self._face(n, i)
        return self._cache[key]

    def degeneracy(self, n, j) -> Matrix:
        key = ("s", n, j)
        if key not in self._cache:
            self._cache[key] = self._degeneracy(n, j)
        return self._cache[key]

    def t(self, n) -> Matrix:
        key = ("t", n)
        if key not in self._cache:
            self._cache[key] = self._t(n)
        return self._cache[key]

    def boundary(self, n) -> Matrix:
        """The alternating face sum b: C_n -> C_{n-1}."""
        out = Matrix.zeros(self.rank(n - 1), self.rank(n), self.dom)
        for i in range(n + 1):
            m = self.face(n, i)
            out = out + m if i % 2 == 0 else out - m
        return out

    def bprime(self, n) -> Matrix:
        """The truncated boundary omitting the last face."""
        out = Matrix.zeros(self.rank(n - 1), self.rank(n), self.dom)
        for i in range(n):
            m = self.face(n, i)
            out = out + m if i % 2 == 0 else out - m
        return out

    def degenerate_relations(self, n):
        """Spanning vectors of the degenerate submodule in degree n."""
        rels = []
        for j in range(n):
            s = self.degeneracy(n - 1, j)
            for c in range(s.cols):
                rels.append(s.column_vector(c))
        return rels

    def normalized_quotient(self, n) -> PresentedModule:
        key = ("nq", n)
        if key not in self._cache:
            self._cache[key] = PresentedModule(
                self.rank(n), self.degenerate_relations(n), self.dom,
                labels=self.labels(n))
        return self._cache[key]

    def chain_complex(self, mode="unnormalized", top=None) -> ChainComplex:
        """The associated complex, optionally normalized.

        Degrees [0, top] with top defaulting to the truncation; homology
        is then reliable up to top - 1.
        """
        top = self.truncation if top is None else top
        if top > self.truncation:
            raise TruncationTooSmall(f"requested top {top} above truncation {self.truncation}")
        if mode == "unnormalized":
            ranks = {n: self.rank(n) for n in range(top + 1)}
            diffs = {n: self.boundary(n) for n in range(1, top + 1)}
            labels = {n: self.labels(n) for n in range(top + 1)} if self._labels else None
            return ChainComplex(self.dom, ranks, diffs, labels=labels,
                                name=f"C({self.name})")
        if mode != "normalized":
            raise ValueError(f"unknown mode {mode!r}")
        quots = {n: self.normalized_quotient(n) for n in range(top + 1)}
        ranks = {n: quots[n].dim for n in range(top + 1)}
        diffs = {n: quots[n - 1].proj @ self.boundary(n) @ quots[n].sect
                 for n in range(1, top + 1)}
        labels = {n: quots[n].labels for n in range(top + 1)} if self._labels else None
        return ChainComplex(self.dom, ranks, diffs, labels=labels,
                            name=f"N({self.name})")


def linearize_module(spec, dom: ScalarDomain, signed_t=False) -> SimplicialModule:
    """Free module on a simplicial set spec, with operator matrices."""
    index = {}

    def idx(n):
        if n not in index:
            index[n] = {x: k for k, x in enumerate(spec.elements(n))}
        return index[n]

    def rank(n):
        return len(spec.elements(n))

    def op_matrix(n, target_deg, fn):
        src = spec.elements(n)
        tgt = idx(target_deg)
        m = Matrix.zeros(len(tgt), len(src), dom)
        for c, x in enumerate(src):
            m._add_to(tgt[fn(x)], c, dom.one)
        return m

    def face(n, i):
        return op_matrix(n, n - 1, lambda x: spec.face(n, i, x))

    def degeneracy(n, j):
        return op_matrix(n, n + 1, lambda x: spec.degeneracy(n, j, x))

    t_fn = None
    if spec.has_cyclic:
        def t_fn(n):
            m = op_matrix(n, n, lambda x: spec.t(n, x))
            if signed_t and n % 2 == 1:
                m = -m
            return m

    return SimplicialModule(dom, spec.truncation, rank, face, degeneracy,
                            t_fn=t_fn, labels_fn=lambda n: list(spec.elements(n)),
                            name=spec.name)


def linearize(spec, dom: ScalarDomain, mode="unnormalized") -> ChainComplex:
    """Chain complex of a simplicial set spec over the given domain."""
    return linearize_module(spec, dom).chain_complex(mode)


def check_module_identities(sm: SimplicialModule, cyclic=False, signed=False,
                            top=None):
    """Verify the simplicial (and cyclic) identities as matrix equalities.

    For a signed rotation the mixed relations pick up minus signs; both
    conventions reduce to t^{n+1} = id.  Raises nothing: returns a list
    of violated instance descriptions (empty means pass).
    """
    top = sm.truncation if top is None else top
    bad = []

    def eq(a, b, msg):
        if a != b:
            bad.append(msg)

    for n in range(top + 1):
        if n >= 2:
            for j in range(n + 1):
                for i in range(j):
                    eq(sm.face(n - 1, i) @ sm.face(n, j),
                       sm.face(n - 1, j - 1) @ sm.face(n, i),
                       f"d{i} d{j} deg {n}")
        if n + 2 <= top:
            for j in range(n + 1):
                for i in range(j + 1):
                    eq(sm.degeneracy(n + 1, i) @ sm.degeneracy(n, j),
                       sm.degeneracy(n + 1, j + 1) @ sm.degeneracy(n, i),
                       f"s{i} s{j} deg {n}")
        if n + 1 <= top:
            ident = Matrix.identity(sm.rank(n), sm.dom)
            for j in range(n + 1):
                s = sm.degeneracy(n, j)
                for i in range(n + 2):
                    got = sm.face(n + 1, i) @ s
                    if i == j or i == j + 1:
                        eq(got, ident, f"d{i} s{j} = id deg {n}")
                    elif i < j:
                        eq(got, sm.degeneracy(n - 1, j - 1) @ sm.face(n, i),
                           f"d{i} s{j} deg {n}")
                    else:
                        eq(got, sm.degeneracy(n - 1, j) @ sm.face(n, i - 1),
                           f"d{i} s{j} deg {n}")
        if cyclic:
            t = sm.t(n)
            power = Matrix.identity(sm.rank(n), sm.dom)
            for _ in range(n + 1):
                power = t @ power
            eq(power, Matrix.identity(sm.rank(n), sm.dom), f"t^{n + 1} deg {n}")
            sign = -1 if signed else 1
            if n >= 1:
                d0t = sm.face(n, 0) @ t
                dn = sm.face(n, n)
                eq(d0t, dn.scale(sm.dom.coerce(sign ** n)) if signed and n % 2 else dn,
                   f"d0 t deg {n}")
                for i in range(1, n + 1):
                    lhs = sm.face(n, i) @ t
                    rhs = sm.t(n - 1) @ sm.face(n, i - 1)
                    eq(lhs, rhs.scale(sm.dom.coerce(sign)) if signed else rhs,
                       f"d{i} t deg {n}")
            if n + 1 <= top:
                lhs = sm.degeneracy(n, 0) @ t
                rhs = sm.t(n + 1) @ sm.t(n + 1) @ sm.degeneracy(n, n)
                eq(lhs, rhs.scale(sm.dom.coerce(sign ** n)) if signed and n % 2 else rhs,
                   f"s0 t deg {n}")
                for i in range(1, n + 1):
                    lhs = sm.degeneracy(n, i) @ t
                    rhs = sm.t(n + 1) @ sm.degeneracy(n, i - 1)
                    eq(lhs, rhs.scale(sm.dom.coerce(sign)) if signed else rhs,
                       f"s{i} t deg {n}")
    return bad


# ---------------------------------------------------------------------------
# bicomplexes and totalization
# ---------------------------------------------------------------------------

class Bicomplex:
    """A finite grid of modules with vertical and horizontal differentials.

    horiz[(p, q)] maps M(p, q) -> M(p-1, q).  With rows="chain",
    vert[(p, q)] maps M(p, q) -> M(p, q-1) and total degree is p+q; with
    rows="cochain" it maps to M(p, q+1) and total degree is p-q.  Signs
    are the caller's responsibility: the stored maps must already satisfy
    d_v d_v = 0, d_h d_h = 0 and d_v d_h + d_h d_v = 0.
    """

    def __init__(self, dom, ranks: dict, vert: dict, horiz: dict,
                 rows="chain", name="", check=True):
        if rows not in ("chain", "cochain"):
            raise ValueError(f"unknown row orientation {rows!r}")
        self.dom = dom
        self.ranks = {k: v for k, v in ranks.items() if v}
        self.vert = dict(vert)
        self.horiz = dict(horiz)
        self.rows = rows
        self.qstep = -1 if rows == "chain" else 1
        self.name = name
        if check:
            self.verify()

    def rank(self, p, q):
        return self.ranks.get((p, q), 0)

    def v(self, p, q) -> Matrix:
        return self.vert.get(
            (p, q), Matrix.zeros(self.rank(p, q + self.qstep), self.rank(p, q), self.dom))

    def h(self, p, q) -> Matrix:
        return self.horiz.get(
            (p, q), Matrix.zeros(self.rank(p - 1, q), self.rank(p, q), self.dom))

    def verify(self):
        dq = self.qstep
        for (p, q) in self.ranks:
            if self.rank(p, q + dq) and self.rank(p, q + 2 * dq):
                if not (self.v(p, q + dq) @ self.v(p, q)).is_zero():
                    raise SignCheckFailed(f"vertical d^2 at ({p},{q})")
            if self.rank(p - 1, q) and self.rank(p - 2, q):
                if not (self.h(p - 1, q) @ self.h(p, q)).is_zero():
                    raise SignCheckFailed(f"horizontal d^2 at ({p},{q})")
            if self.rank(p - 1, q) and self.rank(p, q + dq):
                anti = self.v(p - 1, q) @ self.h(p, q) + self.h(p, q + dq) @ self.v(p, q)
                if not anti.is_zero():
                    raise SignCheckFailed(f"anticommutation at ({p},{q})")

    def degree(self, p, q):
        return p + q if self.rows == "chain" else p - q


def total_complex(b: Bicomplex) -> ChainComplex:
    """Totalize over p+q = n (chain rows) or p-q = n (cochain rows).

    The result carries cells/offsets describing the block layout.
    """
    cells = {}
    for (p, q), r in b.ranks.items():
        cells.setdefault(b.degree(p, q), []).append((p, q))
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
        if (n - 1) not in cells:
            continue
        mat = Matrix.zeros(ranks[n - 1], ranks[n], b.dom)
        for (p, q) in cells[n]:
            col0 = offsets[(p, q)]
            for (tp, tq), block in (((p, q + b.qstep), b.v(p, q)),
                                    ((p - 1, q), b.h(p, q))):
                if b.rank(tp, tq) == 0:
                    continue
                row0 = offsets[(tp, tq)]
                for (r, c), v in block.items():
                    mat._add_to(row0 + r, col0 + c, v)
        diffs[n] = mat
    # pad missing degrees inside the covered range with zero ranks
    if cells:
        lo, hi = min(cells), max(cells)
        for n in range(lo, hi + 1):
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
    """The degreewise tensor product, a simplicial module again."""
    _check_pair(C, D)

    def rank(n):
        return C.rank(n) * D.rank(n)

    def face(n, i):
        return C.face(n, i).kron(D.face(n, i))

    def degeneracy(n, j):
        return C.degeneracy(n, j).kron(D.degeneracy(n, j))

    return SimplicialModule(C.dom, C.truncation, rank, face, degeneracy,
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


def _aw_block(C, D, n, p):
    """The (p, n-p) Alexander-Whitney block on unnormalized modules."""
    q = n - p
    left = Matrix.identity(C.rank(n), C.dom)
    for k in range(n, p, -1):
        left = C.face(k, k) @ left
    right = Matrix.identity(D.rank(n), D.dom)
    for k in range(n, q, -1):
        right = D.face(k, 0) @ right
    return left.kron(right)


def _ez_block(C, D, n, p):
    """The shuffle sum from bidegree (p, n-p) back to the diagonal."""
    q = n - p
    out = Matrix.zeros(C.rank(n) * D.rank(n), C.rank(p) * D.rank(q), C.dom)
    for mu in combinations(range(n), p):
        nu = [k for k in range(n) if k not in mu]
        sign = sum(m - i for i, m in enumerate(mu)) % 2
        left = Matrix.identity(C.rank(p), C.dom)
        deg = p
        for j in nu:
            left = C.degeneracy(deg, j) @ left
            deg += 1
        right = Matrix.identity(D.rank(q), D.dom)
        deg = q
        for j in mu:
            right = D.degeneracy(deg, j) @ right
            deg += 1
        term = left.kron(right)
        out = out - term if sign else out + term
    return out


def _tensor_pair_complexes(C, D, mode, top):
    diag = diagonal_tensor(C, D)
    src = diag.chain_complex(mode, top=top)
    tot = total_complex(tensor_bicomplex(C, D, top=top, mode=mode))
    return diag, src, tot


def aw_map(C: SimplicialModule, D: SimplicialModule, mode="unnormalized",
           top=None) -> ChainMap:
    """Alexander-Whitney: diagonal tensor complex to the totalized grid."""
    _check_pair(C, D)
    top = C.truncation if top is None else top
    diag, src, tot = _tensor_pair_complexes(C, D, mode, top)
    mats = {}
    for n in range(top + 1):
        mat = Matrix.zeros(tot.rank(n), src.rank(n), C.dom)
        pre = diag.normalized_quotient(n).sect if mode == "normalized" else None
        for p in range(n + 1):
            q = n - p
            if (p, q) not in tot.offsets:
                continue
            block = _aw_block(C, D, n, p)
            if mode == "normalized":
                block = C.normalized_quotient(p).proj.kron(
                    D.normalized_quotient(q).proj) @ block @ pre
            row0 = tot.offsets[(p, q)]
            for (r, c), v in block.items():
                mat._add_to(row0 + r, c, v)
        mats[n] = mat
    return ChainMap(src, tot, mats, name=f"AW({C.name},{D.name})")


def ez_map(C: SimplicialModule, D: SimplicialModule, mode="unnormalized",
           top=None) -> ChainMap:
    """Eilenberg-Zilber: shuffle map from the totalized grid back."""
    _check_pair(C, D)
    top = C.truncation if top is None else top
    diag, tgt, tot = _tensor_pair_complexes(C, D, mode, top)
    mats = {}
    for n in range(top + 1):
        mat = Matrix.zeros(tgt.rank(n), tot.rank(n), C.dom)
        post = diag.normalized_quotient(n).proj if mode == "normalized" else None
        for p in range(n + 1):
            q = n - p
            if (p, q) not in tot.offsets:
                continue
            block = _ez_block(C, D, n, p)
            if mode == "normalized":
                block = post @ block @ C.normalized_quotient(p).sect.kron(
                    D.normalized_quotient(q).sect)
            col0 = tot.offsets[(p, q)]
            for (r, c), v in block.items():
                mat._add_to(r, col0 + c, v)
        mats[n] = mat
    return ChainMap(tot, tgt, mats, name=f"EZ({C.name},{D.name})")
