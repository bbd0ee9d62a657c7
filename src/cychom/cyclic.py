"""Cyclic homology: Connes' (b, B) bicomplex, HC, the SBI sequence, and
the windowed negative/periodic variants.

HC is computed on the (b, B) bicomplex of the normalized mixed complex:
cell (p, q) is C̄_{q-p}, with b̄ vertical and B̄ horizontal, so total
degree n is C̄_n + C̄_{n-2} + ...  Over any ground ring it has the groups
of the cyclic bicomplex CC (Loday, Cyclic Homology, 2.1.7-2.1.8), whose
columns alternate between b and -b' and whose rows between 1 - t and
N = 1 + t + ... + t^n; CC stays as cyclic_bicomplex, the cross-check.
Every map uses the signed cyclic operator.  Negative and periodic
variants are computed over a finite column window together with S-tower
stabilization evidence, since the honest objects are limits.  Window w
means the floor(w/2) B columns left of column 0, with the groups of CC's
columns -w..0: each odd CC column is acyclic and collapses into B.
Each of hc, connes_maps, hc_window and cyclic_bicomplex checks the cyclic
relations of its module once (_cyclic_module), up to the highest degree
it reads; connes_bicomplex only builds.
"""

from __future__ import annotations

from itertools import accumulate

from .chains import (
    Bicomplex,
    ChainComplex,
    ChainMap,
    HomologyResult,
    SimplicialModule,
    check_module_identities,
    class_coordinates,
    exactness_at,
    homology,
    induced_map,
    total_complex,
)
from .errors import NoUnitStructure, NotAChainMap, RelationFailure, WindowTooSmall
from .hochschild import DEFAULT_BUDGET, FiniteAlgebra, extra_degeneracy, hochschild_module
from .linalg import rank
from .matrix import Matrix


def one_minus_t(sm: SimplicialModule, n: int) -> Matrix:
    return sm.cached(("1-t", n), lambda: Matrix.identity(sm.rank(n), sm.dom) - sm.t(n))


def norm_map(sm: SimplicialModule, n: int) -> Matrix:
    """N = 1 + t + ... + t^n on degree n (signed t)."""
    def build():
        powers = accumulate(range(n), lambda power, _: sm.t(n) @ power,
                            initial=Matrix.identity(sm.rank(n), sm.dom))
        return Matrix.signed_sum(sm.rank(n), sm.rank(n), sm.dom, ((1, m) for m in powers))
    return sm.cached(("N", n), build)


def _cyclic_module(arg, top, budget=DEFAULT_BUDGET) -> SimplicialModule:
    """The Hochschild module of an algebra, built to degree top, or the
    module given, with its cyclic relations checked up to degree top.
    Raises RelationFailure for a module without rotation."""
    if isinstance(arg, FiniteAlgebra):
        arg = hochschild_module(arg, top, budget=budget)
    elif not isinstance(arg, SimplicialModule):
        raise TypeError(f"expected an algebra or simplicial module, got {type(arg)!r}")
    if not arg.has_cyclic:
        raise RelationFailure("a bicomplex of cyclic homology needs a cyclic operator")
    bad = check_module_identities(arg, top=top)
    if bad:
        raise RelationFailure(f"cyclic relations fail: {bad[:3]}")
    return arg


def cyclic_bicomplex(sm: SimplicialModule, columns: int, pmin: int = 0,
                     qtop=None) -> Bicomplex:
    """The (windowed) cyclic bicomplex of a cyclic module.

    Columns run over pmin..columns, rows over 0..qtop.  Dropping columns
    on the left is harmless: the discarded columns form a subcomplex, so
    the window is a quotient complex.  The cyclic relations are checked
    up to degree qtop.  Every column of a parity holds the same maps,
    built once per row and cached on sm for later bicomplexes.
    """
    qtop = sm.truncation if qtop is None else qtop
    _cyclic_module(sm, qtop)
    ranks, vert, horiz = {}, {}, {}
    for p in range(pmin, columns + 1):
        for q in range(qtop + 1):
            ranks[(p, q)] = sm.rank(q)
            if q >= 1:
                vert[(p, q)] = (sm.boundary(q) if p % 2 == 0
                                else sm.cached(("-b'", q), lambda: -sm.bprime(q)))
            if p > pmin:
                horiz[(p, q)] = one_minus_t(sm, q) if p % 2 == 1 else norm_map(sm, q)
    return Bicomplex(sm.dom, ranks, vert, horiz, name=f"CC({sm.name})")


def connes_b(sm: SimplicialModule, n: int) -> Matrix:
    """The chain-level B = (1 - t) s N : C_n -> C_{n+1}, with the extra
    degeneracy s = t_{n+1} s_n (the unit in front, for a Hochschild
    module) read off the module, so that every cyclic module has one."""
    s = sm.t(n + 1) @ sm.degeneracy(n, n)
    if n % 2 == 0:  # sm.t(n + 1) is the signed (-1)^(n+1) t_{n+1}
        s = -s
    return one_minus_t(sm, n + 1) @ s @ norm_map(sm, n)


def connes_b_bar(sm: SimplicialModule, n: int) -> Matrix:
    """B̄ : C̄_n -> C̄_{n+1} of the normalized mixed complex, proj_{n+1} @ B_n
    on the columns free_n; cached per degree.  Raises RelationFailure
    unless B_n maps degenerate chains to degenerate ones."""
    def build():
        src = sm.normalized_quotient(n)
        pb = sm.normalized_quotient(n + 1).proj @ connes_b(sm, n)
        if not (pb @ src.relations).is_zero():
            raise RelationFailure(f"B does not descend to the normalized quotient at degree {n}")
        return pb.columns(src.free)
    return sm.cached(("Bbar", n), build)


def connes_bicomplex(sm: SimplicialModule, top: int, pmin: int = 0, pmax=None) -> Bicomplex:
    """Connes' (b, B) bicomplex of the normalized mixed complex, cut at
    total degree top.

    Cell (p, q) is C̄_{q-p}, for pmin <= p <= pmax (default: every column
    the cut meets), p <= q and p + q <= top.  Both maps lower the total
    degree, so the cut grid is a complex; the columns left of pmin form a
    subcomplex, so the window is a quotient.  It checks nothing of sm
    itself: its callers check the cyclic relations with _cyclic_module.
    """
    pmax = top // 2 if pmax is None else pmax
    ranks, vert, horiz = {}, {}, {}
    for p in range(pmin, pmax + 1):
        for q in range(p, top - p + 1):
            ranks[(p, q)] = sm.normalized_quotient(q - p).dim
            if q > p:
                vert[(p, q)] = sm.normalized_boundary(q - p)
            if p > pmin:
                horiz[(p, q)] = connes_b_bar(sm, q - p)
    return Bicomplex(sm.dom, ranks, vert, horiz, name=f"B({sm.name})")


def hc(arg, degrees, budget=DEFAULT_BUDGET) -> HomologyResult:
    """Cyclic homology of an algebra or cyclic module, on the (b, B)
    bicomplex cut at total degree max(degrees) + 1, with the cyclic
    relations checked up to that degree.

    The cut grid has no cell right of column (max(degrees) + 1) // 2, so
    it holds every column that reaches the degrees asked for.
    """
    degrees = list(degrees)
    top = max(degrees) + 1
    sm = _cyclic_module(arg, top, budget)
    res = homology(total_complex(connes_bicomplex(sm, top), top), degrees)
    res.name = f"HC({getattr(arg, 'name', sm.name)})"
    return res


def bprime_homotopy_check(sm: SimplicialModule, degrees) -> bool:
    """Verify b'h + hb' = id degreewise; certifies odd-column acyclicity."""
    A = getattr(sm, "algebra", None)
    if A is None:
        raise NoUnitStructure("homotopy needs a unital-algebra module")
    ident = True
    for n in degrees:
        lhs = sm.bprime(n + 1) @ extra_degeneracy(A, n)
        if n >= 1:
            lhs = lhs + extra_degeneracy(A, n - 1) @ sm.bprime(n)
        ident = ident and lhs == Matrix.identity(sm.rank(n), sm.dom)
    return ident


class SBIReport:
    """Homology-level I/S/B matrices and exactness verdicts per node."""

    def __init__(self, name=""):
        self.name = name
        self.i_maps = {}   # n -> matrix HH_n -> HC_n
        self.s_maps = {}   # n -> matrix HC_n -> HC_{n-2}
        self.b_maps = {}   # n -> matrix HC_n -> HH_{n+1}
        self.nodes = []    # (label, degree, im_dim, ker_dim, exact)

    @property
    def passed(self):
        return all(node[-1] for node in self.nodes)

    def rows(self):
        return [{"node": f"{lab}_{n}", "im_dim": im, "ker_dim": ker,
                 "exact": ok} for (lab, n, im, ker, ok) in self.nodes]


def connes_maps(arg, degrees, budget=DEFAULT_BUDGET) -> SBIReport:
    """Chain-level I, S, B on the (b, B) bicomplex and the exactness of
    the SBI sequence.

    HH comes from the normalized complex, I includes it as column 0, S
    shifts column p to p - 1 and drops column 0.  B̄^2 = 0 and
    b̄B̄ + B̄b̄ = 0 are checked as matrix identities before any homology is
    taken; exactness verdicts come from the composites and ranks of the
    induced maps, each map ranked once.
    """
    degrees = sorted(degrees)
    top = max(degrees) + 1
    sm = _cyclic_module(arg, top, budget)
    dom = sm.dom
    cc_h = sm.chain_complex("normalized", top)
    bic = connes_bicomplex(sm, top)
    tot = total_complex(bic, top)

    bmats = {n: connes_b_bar(sm, n) for n in range(top)}
    for n in range(top - 1):
        if not (bmats[n + 1] @ bmats[n]).is_zero():
            raise RelationFailure(f"B^2 != 0 at degree {n}")
    for n in range(top):
        anti = cc_h.d(n + 1) @ bmats[n]
        if n >= 1:
            anti = anti + bmats[n - 1] @ cc_h.d(n)
        if not anti.is_zero():
            raise RelationFailure(f"bB + Bb != 0 at degree {n}")

    # chain-level I (column-0 inclusion) and S (column shift)
    i_mats = {}
    for n in range(top + 1):
        blocks = [] if (0, n) not in tot.offsets else [
            (tot.offsets[(0, n)], 0, Matrix.identity(cc_h.rank(n), dom))]
        i_mats[n] = Matrix.from_blocks(tot.rank(n), cc_h.rank(n), dom, blocks)
    i_map = ChainMap(cc_h, tot, i_mats, name="I")
    s_map = _s_chain_map(bic, tot)

    h_hh = homology(cc_h, range(0, top))
    h_hc = homology(tot, range(0, top))

    rep = SBIReport(name=getattr(arg, "name", sm.name))
    for n in range(0, top):
        rep.i_maps[n] = induced_map(i_map, h_hh, h_hc, n)
        if n >= 2:
            rep.s_maps[n] = induced_map(s_map, h_hc, h_hc, n)
        else:
            rep.s_maps[n] = Matrix.zeros(0, h_hc.betti[n], dom)
    for n in range(0, top - 1):
        rep.b_maps[n] = _induced_b(bmats[n], cc_h.d(n + 1), tot, h_hc, h_hh, n)
    rep.b_maps[-1] = Matrix.zeros(h_hh.betti[0], 0, dom)
    rep.b_maps[-2] = Matrix.zeros(0, 0, dom)

    ranks = {}  # id -> (map, rank): each map is ranked once, and held

    def rank_once(m):
        if id(m) not in ranks:
            ranks[id(m)] = (m, rank(m))
        return ranks[id(m)][1]

    for n in degrees:
        # ... -> HH_n -I-> HC_n -S-> HC_{n-2} -B-> HH_{n-1} -> ...
        nodes = [("HH", n, rep.b_maps[n - 1], rep.i_maps[n]),
                 ("HC", n, rep.i_maps[n], rep.s_maps[n])]
        if n >= 2:
            nodes.append(("HC", n - 2, rep.s_maps[n], rep.b_maps[n - 2]))
        for label, deg, f, g in nodes:
            exact = exactness_at(f, g, rank_once)
            rep.nodes.append((label, deg, rank_once(f), g.cols - rank_once(g), exact))
    return rep


def _s_chain_map(bic: Bicomplex, tot: ChainComplex) -> ChainMap:
    """S: Tot_n -> Tot_{n-2} as a chain map: cell (p, q) goes to
    (p - 1, q - 1) by the identity of C̄_{q-p}, and column 0 is dropped."""
    s_mats = {}
    for n in range(tot.lo, tot.hi + 1):
        s_mats[n] = Matrix.from_blocks(tot.rank(n - 2), tot.rank(n), bic.dom, (
            (tot.offsets[(p - 1, q - 1)], tot.offsets[(p, q)],
             Matrix.identity(bic.rank(p, q), bic.dom))
            for (p, q) in tot.cells.get(n, []) if p >= 1 and (p - 1, q - 1) in tot.offsets))
    return ChainMap(tot, tot, s_mats, shift=-2, name="S")


def _induced_b(bmat, d, tot, h_hc, h_hh, n):
    """B on homology: B̄ on the column-0 part of an HC_n class; d is the
    normalized boundary out of degree n + 1."""
    off = tot.offsets.get((0, n), 0)  # no cell (0, n) only when C̄_n = 0
    images = []
    for r in h_hc.reps[n]:
        v = bmat.apply(list(r[off:off + bmat.cols]))
        if any(d.apply(v)):
            raise NotAChainMap(f"B image is not a cycle at degree {n}")
        images.append(v)
    return class_coordinates(h_hh, n + 1, images)


class TowerReport:
    """S-tower image dimensions per degree, with stabilization flags."""

    def __init__(self, name=""):
        self.name = name
        self.towers = {}        # n -> list of image dims along S^k
        self.stabilized = {}    # n -> bool
        self.hh_vanishing_top = None  # degrees checked zero, or None
        self.stable = False     # overall flag; False means UNSTABLE

    def rows(self):
        return [{"degree": n, "tower": self.towers[n],
                 "stabilized": self.stabilized[n]}
                for n in sorted(self.towers)]


def hc_window(variant: str, arg, degrees, window: int,
              budget=DEFAULT_BUDGET):
    """Windowed negative or periodic cyclic homology plus tower evidence.

    Negative: B columns -floor(window/2)..0; periodic: from the same
    column to every column the cut at max + 1 meets.  These give the
    groups of CC's columns -window..0 and -window..max+2.  The report
    carries per-degree S-tower image dimensions and an overall stability
    flag, true only when the normalized Hochschild homology
    vanishes identically in the top half of the inspected degree range —
    vanishing is computed, never assumed.
    """
    if variant not in ("negative", "periodic"):
        raise ValueError(f"unknown variant {variant!r}")
    if window < 1:
        raise WindowTooSmall("window must be at least 1")
    degrees = sorted(degrees)
    maxdeg = max(degrees)
    # the highest degree read: C̄_(maxdeg+3) in column 0 of the tower, and
    # C̄_(maxdeg+1+2 floor(window/2)) in the window's column -floor(window/2)
    qtop = max(maxdeg + 3, maxdeg + 1 + 2 * (window // 2))
    sm = _cyclic_module(arg, qtop, budget)
    pmax = 0 if variant == "negative" else None
    bic = connes_bicomplex(sm, maxdeg + 1, pmin=-(window // 2), pmax=pmax)
    res = homology(total_complex(bic, maxdeg + 1), degrees)
    res.name = f"HC^{'-' if variant == 'negative' else 'per'}({getattr(arg, 'name', sm.name)})"

    report = TowerReport(name=res.name)
    hc_top = maxdeg + 2
    tower = connes_bicomplex(sm, hc_top + 1)
    tot = total_complex(tower, hc_top + 1)
    h_hc = homology(tot, range(0, hc_top + 1))
    s_map = _s_chain_map(tower, tot)
    s_ind = {m: induced_map(s_map, h_hc, h_hc, m) for m in range(2, hc_top + 1)}
    for n in degrees:
        dims = [h_hc.betti[n]]
        acc = None
        for k in range(1, (hc_top - n) // 2 + 1):
            step = s_ind[n + 2 * k]
            acc = step if acc is None else acc @ step
            dims.append(rank(acc))
        report.towers[n] = dims
        report.stabilized[n] = len(dims) >= 2 and dims[-1] == dims[-2]

    check_top = maxdeg + 1
    half = (check_top + 1) // 2
    hh_res = homology(sm.chain_complex("normalized", top=check_top + 1),
                      range(half, check_top + 1))
    report.stable = all(hh_res.betti[m] == 0 for m in range(half, check_top + 1))
    if report.stable:
        report.hh_vanishing_top = (half, check_top)
    return res, report
