"""Formula-defined simplicial and cyclic sets, with exhaustive checking.

A spec is a truncated simplicial set: enumerable element codes per degree
plus face/degeneracy (and optionally cyclic) operator functions.  All the
built-ins here are small enough that every defining relation can be
checked on every element, and check_identities does exactly that.
"""

from __future__ import annotations

from itertools import groupby, islice, product
from operator import itemgetter

from .delta import (
    MonotoneMap,
    compose_cyclic,
    cyclic_factorize,
    cyclic_from_monotone,
    delta,
    factorize_epi_mono,
    hom_delta,
    sigma,
    simplicial_identities,
    tau_power,
)
from .errors import CyclicModeOnNonCyclic, NotCyclic
from .groups import FiniteGroup


class SimplicialSetSpec:
    """A truncated simplicial (or cyclic) set given by operator functions.

    Element codes must be hashable; operator functions must be pure.
    elements(n) is cached and returned in a fixed deterministic order.
    """

    def __init__(self, truncation, elements_fn, face_fn, degeneracy_fn,
                 t_fn=None, name=""):
        self.truncation = truncation
        self.name = name
        self._elements_fn = elements_fn
        self._face = face_fn
        self._degeneracy = degeneracy_fn
        self._t = t_fn
        self._cache = {}

    @property
    def has_cyclic(self):
        return self._t is not None

    def elements(self, n):
        if n not in self._cache:
            if not 0 <= n <= self.truncation:
                raise ValueError(f"degree {n} outside truncation {self.truncation}")
            self._cache[n] = list(self._elements_fn(n))
        return self._cache[n]

    def iter_elements(self, n):
        """The degree-n elements in order, from the cache when it is filled,
        else generated lazily without filling it."""
        return iter(self._cache.get(n) or self._elements_fn(n))

    def count(self, n, limit):
        """The number of degree-n elements, counted lazily up to limit."""
        return sum(1 for _ in islice(self.iter_elements(n), limit))

    def face(self, n, i, x):
        if not 0 <= i <= n:
            raise ValueError(f"face index {i} out of range in degree {n}")
        return self._face(n, i, x)

    def degeneracy(self, n, j, x):
        if not 0 <= j <= n:
            raise ValueError(f"degeneracy index {j} out of range in degree {n}")
        return self._degeneracy(n, j, x)

    def t(self, n, x):
        if self._t is None:
            raise NotCyclic(f"{self.name or 'spec'} has no cyclic structure")
        return self._t(n, x)

    def apply_monotone(self, phi: MonotoneMap, x):
        """Contravariant action of a simplex-category morphism.

        phi: [m] -> [n] acts on a degree-n element and yields degree m,
        via the canonical factorization into faces and degeneracies.
        """
        sw, dw = factorize_epi_mono(phi)
        deg = phi.target
        for i in reversed(dw):
            x = self.face(deg, i, x)
            deg -= 1
        for j in reversed(sw):
            x = self.degeneracy(deg, j, x)
            deg += 1
        return x

    def __repr__(self):
        return f"SimplicialSetSpec({self.name!r}, N={self.truncation})"


class SimplicialMapSpec:
    """A degreewise map between specs, checkable for naturality."""

    def __init__(self, source, target, fn, name=""):
        self.source = source
        self.target = target
        self.fn = fn
        self.name = name

    def __call__(self, n, x):
        return self.fn(n, x)


class CheckReport:
    """Outcome of an exhaustive relation check."""

    def __init__(self, name, checked, violations):
        self.name = name
        self.checked = checked
        self.violations = violations

    @property
    def passed(self):
        return not self.violations


def check_identities(spec: SimplicialSetSpec, mode="simplicial") -> CheckReport:
    """Exhaustively verify the defining relations on every element.

    mode "simplicial" checks the face/degeneracy relations; "cyclic" adds
    the rotation relations including t^(n+1) = id.  The relations are
    those of delta.simplicial_identities.  Specs are pure, so an image is
    computed once: for the whole call below the top degree, where many
    elements share one face, and within one element's relations at the
    top degree, which holds most elements and would dominate memory.
    """
    if mode not in ("simplicial", "cyclic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "cyclic" and not spec.has_cyclic:
        raise CyclicModeOnNonCyclic(f"{spec.name or 'spec'} is not cyclic")
    faces_or_degeneracies = {"delta": spec.face, "sigma": spec.degeneracy}
    top = spec.truncation
    below_top = {}  # (token, element) -> image, for elements below degree top

    def image(word, x, at_top):
        for tok in reversed(word):  # a token's last entry is its degree
            memo = below_top if tok[-1] < top else at_top
            key = (tok, x)
            if key not in memo:
                memo[key] = (spec.t(tok[1], x) if tok[0] == "tau" else
                             faces_or_degeneracies[tok[0]](tok[2], tok[1], x))
            x = memo[key]
        return x

    bad = []
    checked = 0
    for n, relations in groupby(simplicial_identities(top, mode == "cyclic"),
                                key=itemgetter(1)):
        relations = list(relations)
        for x in spec.elements(n):
            at_top = {}
            for label, _, lhs, rhs in relations:
                checked += 1
                if image(lhs, x, at_top) != image(rhs, x, at_top):
                    bad.append(f"{label} on {x} (deg {n})")
    return CheckReport(f"{spec.name or 'spec'} [{mode}]", checked, bad)


def check_map(m: SimplicialMapSpec, mode="simplicial") -> CheckReport:
    """Verify that a map commutes with faces, degeneracies (and t)."""
    if mode == "cyclic" and not (m.source.has_cyclic and m.target.has_cyclic):
        raise CyclicModeOnNonCyclic("both specs must be cyclic")
    bad = []
    checked = 0
    N = min(m.source.truncation, m.target.truncation)
    for n in range(N + 1):
        for x in m.source.elements(n):
            fx = m(n, x)
            if n >= 1:
                for i in range(n + 1):
                    checked += 1
                    if m(n - 1, m.source.face(n, i, x)) != m.target.face(n, i, fx):
                        bad.append(f"d{i} on {x} (deg {n})")
            if n + 1 <= N:
                for j in range(n + 1):
                    checked += 1
                    if m(n + 1, m.source.degeneracy(n, j, x)) != m.target.degeneracy(n, j, fx):
                        bad.append(f"s{j} on {x} (deg {n})")
            if mode == "cyclic":
                checked += 1
                if m(n, m.source.t(n, x)) != m.target.t(n, fx):
                    bad.append(f"t on {x} (deg {n})")
    return CheckReport(f"{m.name or 'map'} [{mode}]", checked, bad)


# ---------------------------------------------------------------------------
# built-in specs
# ---------------------------------------------------------------------------

def circle(N: int) -> SimplicialSetSpec:
    """The simplicial circle, with its cyclic structure.

    Degree n holds n+1 elements coded 0..n: code 0 is the (totally
    degenerate) basepoint, code i >= 1 is the simplex with i "zeros" in
    the two-point model, i.e. the (i-1)-fold-shifted degeneracy of the
    1-cell.  Operators act on the zero count; a count that becomes
    constant collapses to the basepoint.
    """
    def elements(n):
        return list(range(n + 1))

    def face(n, j, x):
        if x == 0:
            return 0
        c = x if j >= x else x - 1
        return c if 1 <= c <= n - 1 else 0

    def degeneracy(n, j, x):
        if x == 0:
            return 0
        return x if j >= x else x + 1

    def t(n, x):
        return (x + 1) % (n + 1)

    return SimplicialSetSpec(N, elements, face, degeneracy, t, name="circle")


def classifying_space(G: FiniteGroup, N: int, central=None) -> SimplicialSetSpec:
    """The bar construction on G; cyclic when a central element is given.

    Degree n is G^n.  With a central z the extra operator is
    t(g_1..g_n) = (z * (g_1...g_n)^{-1}, g_1..g_{n-1}).
    """
    if central is not None:
        G.require_central(central)

    def elements(n):
        yield from product(range(G.order), repeat=n)

    def face(n, i, x):
        if i == 0:
            return x[1:]
        if i == n:
            return x[:-1]
        return x[:i - 1] + (G.mul(x[i - 1], x[i]),) + x[i + 1:]

    def degeneracy(n, j, x):
        return x[:j] + (G.identity,) + x[j:]

    t = None
    if central is not None:
        def t(n, x):
            if n == 0:
                return x
            lead = G.mul(central, G.inv(G.product(x)))
            return (lead,) + x[:-1]

    return SimplicialSetSpec(N, elements, face, degeneracy, t,
                             name=f"B({G.name})")


def cyclic_bar(G: FiniteGroup, N: int) -> SimplicialSetSpec:
    """The cyclic bar construction: degree n is G^{n+1}, t rotates."""
    def elements(n):
        yield from product(range(G.order), repeat=n + 1)

    def face(n, i, x):
        if i == n:
            return (G.mul(x[n], x[0]),) + x[1:n]
        return x[:i] + (G.mul(x[i], x[i + 1]),) + x[i + 2:]

    def degeneracy(n, j, x):
        return x[:j + 1] + (G.identity,) + x[j + 1:]

    def t(n, x):
        return (x[n],) + x[:n]

    return SimplicialSetSpec(N, elements, face, degeneracy, t,
                             name=f"Gamma({G.name})")


def standard_simplex(k: int, N: int) -> SimplicialSetSpec:
    """The standard k-simplex: degree n holds the monotone maps [n]->[k]."""
    def elements(n):
        return [f.images for f in hom_delta(n, k)]

    def face(n, i, x):
        return tuple(x[v] for v in delta(n, i).images)

    def degeneracy(n, j, x):
        return tuple(x[v] for v in sigma(n, j).images)

    return SimplicialSetSpec(N, elements, face, degeneracy, name=f"Delta^{k}")


def free_cyclic(Y: SimplicialSetSpec) -> SimplicialSetSpec:
    """The free cyclic set on a simplicial set.

    Degree n is (Z/(n+1)) x Y_n.  A simplex-category operator alpha acts
    through the unique factorization tau^g . alpha = phi . tau^r in the
    cyclic category: alpha*(g, y) = (r, phi*(y)); the rotation acts by
    left multiplication on the first factor.
    """
    N = Y.truncation

    def elements(n):
        # lazy, so that counting a degree builds neither it nor Y's
        return ((g, y) for g in range(n + 1) for y in Y.iter_elements(n))

    def twisted(alpha: MonotoneMap, g, y):
        comp = compose_cyclic(tau_power(alpha.target, g), cyclic_from_monotone(alpha))
        nf = cyclic_factorize(comp)
        return (nf.rot, Y.apply_monotone(nf.phi, y))

    def face(n, i, x):
        return twisted(delta(n, i), *x)

    def degeneracy(n, j, x):
        return twisted(sigma(n, j), *x)

    def t(n, x):
        g, y = x
        return ((g + 1) % (n + 1), y)

    return SimplicialSetSpec(N, elements, face, degeneracy, t,
                             name=f"F({Y.name or 'Y'})")


def evaluation_map(X: SimplicialSetSpec, FX=None) -> SimplicialMapSpec:
    """The counit FX = free_cyclic(X) -> X, evaluating the rotation action."""
    if not X.has_cyclic:
        raise NotCyclic("evaluation needs a cyclic spec")
    FX = free_cyclic(X) if FX is None else FX

    def fn(n, x):
        g, y = x
        for _ in range(g):
            y = X.t(n, y)
        return y

    return SimplicialMapSpec(FX, X, fn, name=f"ev({X.name})")


def unit_section(X: SimplicialSetSpec, FX=None) -> SimplicialMapSpec:
    """The degreewise section x -> (0, x) of X -> FX = free_cyclic(X)."""
    FX = free_cyclic(X) if FX is None else FX
    return SimplicialMapSpec(X, FX, lambda n, x: (0, x), name=f"unit({X.name})")


# ---------------------------------------------------------------------------
# the lazy classifying space of the integers, and the circle map into it
# ---------------------------------------------------------------------------

def classifying_space_z(N: int) -> SimplicialSetSpec:
    """B of the infinite cyclic group, materialized lazily.

    Degree n codes are integer n-tuples.  Only the images of the circle's
    cells are enumerated: the circle map is cyclic, so they are closed
    under every operator.  The operator formulas themselves work on
    arbitrary tuples.  z = 1 makes it cyclic.
    """
    def face(n, i, x):
        if i == 0:
            return x[1:]
        if i == n:
            return x[:-1]
        return x[:i - 1] + (x[i - 1] + x[i],) + x[i + 1:]

    def degeneracy(n, j, x):
        return x[:j] + (0,) + x[j:]

    def t(n, x):
        if n == 0:
            return x
        return (1 - sum(x),) + x[:-1]

    def elements(n):
        return sorted(_circle_cell_in_bz(n, code) for code in range(n + 1))

    return SimplicialSetSpec(N, elements, face, degeneracy, t, name="B(Z)")


def _circle_cell_in_bz(n, code):
    if code == 0:
        return (0,) * n
    return tuple(1 if k == code - 1 else 0 for k in range(n))


def circle_to_bz(N: int) -> SimplicialMapSpec:
    """The cyclic map from the circle into B of the integers.

    The basepoint goes to the zero tuple and the fundamental 1-cell to
    (1); everything else is forced by naturality, which puts the single
    nonzero entry of the image tuple at position code-1.
    """
    S = circle(N)
    BZ = classifying_space_z(N)
    return SimplicialMapSpec(S, BZ, lambda n, x: _circle_cell_in_bz(n, x),
                             name="circle->B(Z)")
