"""The simplex category and its cyclic extension as executable combinatorics.

A morphism [m] -> [n] of the simplex category is a nondecreasing map of
finite ordinals, stored by its image tuple.  The cyclic extension is
modelled by nondecreasing maps F: Z -> Z satisfying F(i + m + 1) =
F(i) + n + 1, taken modulo adding a multiple of n + 1; every such map
factors uniquely as an ordinary monotone map following a rotation, which
is exactly the normal form computed here.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import NonComposableWord, ObjectMismatch, refuse_assignment


class MonotoneMap:
    """A nondecreasing map [source] -> [target], given by its images."""

    __slots__ = ("source", "target", "images")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, source: int, target: int, images: tuple):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)
        if len(self.images) != self.source + 1:
            raise ValueError("images length must be source+1")
        for a, b in zip(self.images, self.images[1:]):
            if b < a:
                raise ValueError("images must be nondecreasing")
        if self.images and (self.images[0] < 0 or self.images[-1] > self.target):
            raise ValueError("images out of range")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.source == other.source and self.target == other.target
                                 and self.images == other.images)

    def __hash__(self):
        return hash((self.source, self.target, self.images))

    def __call__(self, i):
        return self.images[i]

    def is_identity(self):
        return self.source == self.target and self.images == tuple(range(self.source + 1))


def identity_map(n: int) -> MonotoneMap:
    return MonotoneMap(n, n, tuple(range(n + 1)))


def delta(n: int, i: int) -> MonotoneMap:
    """The injection [n-1] -> [n] that misses the value i."""
    if not 0 <= i <= n:
        raise ValueError(f"delta index {i} out of range for [{n}]")
    return MonotoneMap(n - 1, n, tuple(v if v < i else v + 1 for v in range(n)))


def sigma(n: int, j: int) -> MonotoneMap:
    """The surjection [n+1] -> [n] that merges the values j and j+1."""
    if not 0 <= j <= n:
        raise ValueError(f"sigma index {j} out of range for [{n}]")
    return MonotoneMap(n + 1, n, tuple(v if v <= j else v - 1 for v in range(n + 2)))


def compose_monotone(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    """The composite f after g."""
    if g.target != f.source:
        raise ObjectMismatch(f"cannot compose [{g.source}]->[{g.target}] into [{f.source}]->[{f.target}]")
    return MonotoneMap(g.source, f.target, tuple(f.images[v] for v in g.images))


def factorize_epi_mono(f: MonotoneMap):
    """Canonical words for f: (degeneracy word, face word).

    The face word lists the values missed by f in strictly increasing
    order; the degeneracy word lists the positions j with f(j) = f(j+1)
    in strictly decreasing order.  Reassembly applies each word from its
    first element innermost (see word_to_map), and reproduces f.
    """
    missed = [v for v in range(f.target + 1) if v not in set(f.images)]
    merged = [j for j in range(f.source) if f.images[j] == f.images[j + 1]]
    return list(reversed(merged)), missed


def word_to_map(sigma_word, delta_word, source: int, target: int) -> MonotoneMap:
    """Rebuild the morphism from canonical words (first element innermost)."""
    m = identity_map(source)
    for j in sigma_word:
        m = compose_monotone(sigma(m.target - 1, j), m)
    for i in delta_word:
        m = compose_monotone(delta(m.target + 1, i), m)
    if m.source != source or m.target != target:
        raise ObjectMismatch("word does not fit the requested objects")
    return m


def hom_delta(m: int, n: int):
    """All monotone maps [m] -> [n]."""
    return [MonotoneMap(m, n, imgs)
            for imgs in combinations_with_replacement(range(n + 1), m + 1)]


# ---------------------------------------------------------------------------
# the cyclic category
# ---------------------------------------------------------------------------

class PeriodicMap:
    """A cyclic-category morphism [source] -> [target] as a periodic map.

    ``vals`` holds F(0..source) for a nondecreasing F with
    F(i + source + 1) = F(i) + target + 1, normalized so 0 <= F(0) <= target.
    """

    __slots__ = ("source", "target", "vals")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, source: int, target: int, vals: tuple):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "vals", vals)
        m, n = self.source, self.target
        if len(self.vals) != m + 1:
            raise ValueError("vals length must be source+1")
        for a, b in zip(self.vals, self.vals[1:]):
            if b < a:
                raise ValueError("vals must be nondecreasing")
        if not 0 <= self.vals[0] <= n:
            raise ValueError("vals[0] must lie in 0..target")
        if self.vals[m] > self.vals[0] + n + 1:
            raise ValueError("period violated")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.source == other.source and self.target == other.target
                                 and self.vals == other.vals)

    def __hash__(self):
        return hash((self.source, self.target, self.vals))

    def __repr__(self):
        return f"PeriodicMap(source={self.source!r}, target={self.target!r}, vals={self.vals!r})"

    def value(self, i: int) -> int:
        m = self.source
        q, r = divmod(i, m + 1)
        return self.vals[r] + q * (self.target + 1)


def periodic_from_values(source, target, raw):
    """Normalize raw values of F(0..source) by an (target+1)-shift."""
    shift = (raw[0] // (target + 1)) * (target + 1)
    return PeriodicMap(source, target, tuple(v - shift for v in raw))


def cyclic_from_monotone(f: MonotoneMap) -> PeriodicMap:
    return PeriodicMap(f.source, f.target, f.images)


def tau(n: int) -> PeriodicMap:
    """The cyclic rotation of [n]: F(i) = i - 1."""
    raw = tuple(i - 1 for i in range(n + 1))
    return periodic_from_values(n, n, raw)


def tau_power(n: int, r: int) -> PeriodicMap:
    raw = tuple(i - (r % (n + 1)) for i in range(n + 1))
    return periodic_from_values(n, n, raw)


def compose_cyclic(f: PeriodicMap, g: PeriodicMap) -> PeriodicMap:
    """The composite f after g in the cyclic category."""
    if g.target != f.source:
        raise ObjectMismatch(f"cannot compose [{g.source}]->[{g.target}] into [{f.source}]->[{f.target}]")
    raw = tuple(f.value(g.vals[i]) for i in range(g.source + 1))
    return periodic_from_values(g.source, f.target, raw)


class CyclicMorphism:
    """Normal form phi . tau^rot with phi a simplex-category morphism."""

    __slots__ = ("phi", "rot")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, phi: MonotoneMap, rot: int):
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "rot", rot)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.phi == other.phi and self.rot == other.rot

    def __hash__(self):
        return hash((self.phi, self.rot))

    @property
    def source(self):
        return self.phi.source

    @property
    def target(self):
        return self.phi.target


def cyclic_factorize(f: PeriodicMap) -> CyclicMorphism:
    """The unique factorization of f as phi . tau^rot.

    tau^rot has values i - rot, so phi(i) = F(i + rot) - k(n+1) for the k
    that puts phi in standard position; exactly one rot in 0..source makes
    phi land inside [target].
    """
    m, n = f.source, f.target
    hits = []
    for r in range(m + 1):
        raw = [f.value(i + r) for i in range(m + 1)]
        k = raw[0] // (n + 1)
        lo, hi = raw[0] - k * (n + 1), raw[-1] - k * (n + 1)
        if 0 <= lo and hi <= n:
            hits.append((r, tuple(v - k * (n + 1) for v in raw)))
    if len(hits) != 1:
        raise ValueError(f"factorization not unique: {len(hits)} candidates for {f}")
    r, vals = hits[0]
    return CyclicMorphism(MonotoneMap(m, n, vals), r)


def cyclic_to_periodic(c: CyclicMorphism) -> PeriodicMap:
    return compose_cyclic(cyclic_from_monotone(c.phi), tau_power(c.source, c.rot))


def cyclic_normal_form(word) -> CyclicMorphism:
    """Normal form of a composable generator word (leftmost outermost).

    Tokens: ("delta", i, n) for the face [n-1]->[n]; ("sigma", j, n) for
    the degeneracy [n+1]->[n]; ("tau", n) for the rotation of [n].
    """
    if not word:
        raise NonComposableWord("empty word has no object")
    maps = []
    for tok in word:
        kind = tok[0]
        if kind == "delta":
            maps.append(cyclic_from_monotone(delta(tok[2], tok[1])))
        elif kind == "sigma":
            maps.append(cyclic_from_monotone(sigma(tok[2], tok[1])))
        elif kind == "tau":
            maps.append(tau(tok[1]))
        else:
            raise NonComposableWord(f"unknown generator {tok!r}")
    out = maps[-1]
    for f in reversed(maps[:-1]):
        if out.target != f.source:
            raise NonComposableWord(
                f"object mismatch: [{out.target}] feeding a morphism on [{f.source}]")
        out = compose_cyclic(f, out)
    return cyclic_factorize(out)


def simplicial_identities(top: int, cyclic: bool):
    """The defining relations of the simplex category (and, when cyclic,
    of the cyclic category) on objects of degree at most top.

    Yields (label, n, lhs, rhs): two words of operators on a degree-n
    object, outermost first, in the tokens of cyclic_normal_form;
    ("delta", i, m) acts as the face d_i out of degree m, ("sigma", j, m)
    as the degeneracy s_j out of degree m and ("tau", m) as the rotation
    t of degree m.  The empty word is the identity.  The operators act
    contravariantly, so each word reversed is a morphism word, and the two
    sides of a relation have the same cyclic normal form.
    """
    for n in range(top + 1):
        if n >= 2:
            for j in range(n + 1):
                for i in range(j):
                    yield (f"d{i} d{j}", n, (("delta", i, n - 1), ("delta", j, n)),
                           (("delta", j - 1, n - 1), ("delta", i, n)))
        if n + 2 <= top:
            for j in range(n + 1):
                for i in range(j + 1):
                    yield (f"s{i} s{j}", n, (("sigma", i, n + 1), ("sigma", j, n)),
                           (("sigma", j + 1, n + 1), ("sigma", i, n)))
        if n + 1 <= top:
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = (("delta", i, n + 1), ("sigma", j, n))
                    if i == j or i == j + 1:
                        yield f"d{i} s{j} = id", n, lhs, ()
                    elif i < j:
                        yield f"d{i} s{j}", n, lhs, (("sigma", j - 1, n - 1), ("delta", i, n))
                    else:
                        yield f"d{i} s{j}", n, lhs, (("sigma", j, n - 1), ("delta", i - 1, n))
        if cyclic:
            t = ("tau", n)
            yield f"t^{n + 1} = id", n, (t,) * (n + 1), ()
            if n >= 1:
                yield "d0 t", n, (("delta", 0, n), t), (("delta", n, n),)
                for i in range(1, n + 1):
                    yield f"d{i} t", n, (("delta", i, n), t), (("tau", n - 1), ("delta", i - 1, n))
            if n + 1 <= top:
                yield "s0 t", n, (("sigma", 0, n), t), (("tau", n + 1),) * 2 + (("sigma", n, n),)
                for i in range(1, n + 1):
                    yield f"s{i} t", n, (("sigma", i, n), t), (("tau", n + 1), ("sigma", i - 1, n))


def cyclic_presentation(top: int):
    """The instances of simplicial_identities(top, True) that present the
    cyclic category, O(n) per degree: t^(n+1) = id, every d_i t and s_i t,
    and of the simplicial relations only d0 dk, s0 sk, d0 sk and
    d0 s0 = d1 s0 = id.

    The rotation relations give d_i = t^i d0 t^-i and s_i = t^i s0 t^-i;
    so rewritten, each table instance is t^p X t^q for an instance X of
    this list (Connes 1983; Loday, Cyclic Homology, 6.1), as
    tests/test_delta.py checks for every top up to 8.  dk s0 (k >= 2) on
    degree n, for one, is t^k X t^(1-k) for X the instance d0 s(n+2-k).
    Module checks evaluate this list; the per-element set check keeps the
    table, whose instance count `verify relations` prints.
    """
    for rel in simplicial_identities(top, True):
        lhs = rel[2]
        if lhs[-1][0] == "tau" or lhs[0][1] == 0 or (lhs[0][1], lhs[1][1]) == (1, 0):
            yield rel


def hom_delta_c(m: int, n: int):
    """All cyclic-category morphisms [m] -> [n] in normal form."""
    return [CyclicMorphism(phi, r) for phi in hom_delta(m, n) for r in range(m + 1)]
