"""Kaehler differentials, the de Rham complex, and the HKR maps.

Omega^n is presented as a quotient of the (n+1)-fold tensor power of A:
the class of a basis tensor (a0, a1, .., an) is a0 da1 ... dan.  The
relations are the Leibniz rule in each differential slot (with the
A-coefficient collected in front, legitimate since the tensor is over a
commutative A) and squares in adjacent slots.
"""

from __future__ import annotations

from itertools import product
from math import factorial

from .chains import PresentedModule, SimplicialModule
from .errors import BasisMismatch, NotCommutative, PositiveCharacteristic, RelationFailure
from .hochschild import FiniteAlgebra, extra_degeneracy, tensor_index
from .matrix import Matrix, _entries, _reduced


def _require_commutative(A: FiniteAlgebra):
    if not A.commutative:
        raise NotCommutative(f"{A.name or 'algebra'} is not commutative")


def _leibniz_relations(A: FiniteAlgebra, n: int):
    """Leibniz-rule relations in A tensor (n+1), for every slot and triple,
    as sparse dicts {tensor index: coefficient}."""
    P, d, p = A.products, A.dim, A.dom.p
    rels = []
    for k in range(1, n + 1):
        others = [range(d)] * (n - 1)  # slots 1..n except k
        for a0 in range(d):
            for b in range(d):
                for c in range(d):
                    bc, a0b, a0c = P[b][c], P[a0][b], P[a0][c]
                    for rest in product(*others):
                        def put(lead, val):
                            slots = list(rest)
                            slots.insert(k - 1, val)
                            return tensor_index((lead,) + tuple(slots), d)
                        # a0 d(bc) - (a0 b) dc - (a0 c) db = 0
                        terms = [(put(a0, m), v) for m, v in bc]
                        terms += [(put(m, c), -v) for m, v in a0b]
                        terms += [(put(m, b), -v) for m, v in a0c]
                        rel = {}
                        for i, v in terms:
                            rel[i] = rel.get(i, 0) + v
                        if rel := _reduced(rel, p):
                            rels.append(rel)
    return rels


def _square_relations(A: FiniteAlgebra, n: int):
    """Adjacent-slot squares: db db and db dc + dc db, as sparse dicts."""
    d, p = A.dim, A.dom.p
    rels = []
    for k in range(1, n):
        others = [range(d)] * (n - 2)
        for a0 in range(d):
            for rest in product(*others):
                def put(u, v):
                    slots = list(rest)
                    slots.insert(k - 1, u)
                    slots.insert(k, v)
                    return tensor_index((a0,) + tuple(slots), d)
                for b in range(d):
                    for c in range(b, d):
                        i, j = put(b, c), put(c, b)
                        rels.append(_reduced({i: 2}, p) if i == j else {i: 1, j: 1})
    return rels


def omega_power(A: FiniteAlgebra, n: int) -> PresentedModule:
    """Omega^n as a presented quotient of A tensor (n+1); Omega^0 = A."""
    _require_commutative(A)
    if n < 0:
        raise ValueError("negative form degree")
    rels = _leibniz_relations(A, n) + _square_relations(A, n) if n >= 1 else []
    pm = PresentedModule(A.dim ** (n + 1), rels, A.dom)
    pm.algebra = A
    pm.form_degree = n
    return pm


def kaehler_one(A: FiniteAlgebra) -> PresentedModule:
    """Omega^1 = (A tensor A) / (ab(x)c - a(x)bc + ca(x)b)."""
    return omega_power(A, 1)


def module_action(omega: PresentedModule, a_vector) -> Matrix:
    """The action of an algebra element on Omega^n quotient coordinates."""
    A = omega.algebra
    dom, d = A.dom, A.dim
    # a acts on the first tensor slot only: left multiplication by a,
    # tensored with the identity on the other n slots
    left = Matrix.from_columns([A.mul(a_vector, {i: 1}) for i in range(d)], d, dom)
    amb = left.kron(Matrix.identity(d ** omega.form_degree, dom))
    return omega.proj @ amb @ omega.sect


def derham_d(omega_n: PresentedModule, omega_n1: PresentedModule) -> Matrix:
    """The differential Omega^n -> Omega^(n+1) on quotient coordinates.

    Well-definedness is checked: the ambient map must send the relation
    span of the source into the relation span of the target.
    """
    A = omega_n.algebra
    n = omega_n.form_degree
    amb = omega_n1.proj @ extra_degeneracy(A, n)
    if not (amb @ omega_n.relations).is_zero():
        raise RelationFailure("differential not well-defined on the quotient")
    return amb @ omega_n.sect


class DeRhamResult:
    """Quotient dimensions, differentials and cohomology of Omega^*."""

    def __init__(self, A, top):
        self.algebra = A
        self.top = top
        self.omegas = {}
        self.d = {}       # n -> matrix Omega^n -> Omega^(n+1)
        self.betti = {}   # cohomology dimensions

    def dims(self):
        return [self.omegas[n].dim for n in range(self.top + 1)]


def derham(A: FiniteAlgebra, degrees) -> DeRhamResult:
    """The de Rham complex and its cohomology in the requested degrees."""
    _require_commutative(A)
    A.dom.require_field()
    degrees = list(degrees)
    top = max(degrees) + 1
    res = DeRhamResult(A, top)
    for n in range(top + 1):
        res.omegas[n] = omega_power(A, n)
    for n in range(top):
        res.d[n] = derham_d(res.omegas[n], res.omegas[n + 1])
    for n in range(top - 1):
        prod_m = res.d[n + 1] @ res.d[n]
        if not prod_m.is_zero():
            raise RelationFailure(f"d^2 != 0 at degree {n}")
    from .linalg import rank
    for n in degrees:
        res.betti[n] = (res.omegas[n].dim - rank(res.d[n])
                        - (rank(res.d[n - 1]) if n >= 1 else 0))
    return res


# ---------------------------------------------------------------------------
# the HKR maps
# ---------------------------------------------------------------------------

def _permutations_signed(n):
    from itertools import permutations
    for perm in permutations(range(1, n + 1)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        yield perm, -1 if inv % 2 else 1


def _module_algebra(sm: SimplicialModule, omega: PresentedModule) -> FiniteAlgebra:
    """sm.algebra, which must be commutative and omega's algebra."""
    if omega.algebra is not sm.algebra:
        raise BasisMismatch("Omega must be built on sm.algebra, the basis of the module's chains")
    _require_commutative(sm.algebra)
    return sm.algebra


def hkr_epsilon(sm: SimplicialModule, n: int, omega: PresentedModule) -> Matrix:
    """Antisymmetrization Omega^n -> C_n(A), landing in cycles of sm.

    Needs exact division by n!, hence characteristic zero.
    """
    A = _module_algebra(sm, omega)
    if A.dom.characteristic != 0:
        raise PositiveCharacteristic("antisymmetrization needs characteristic zero")
    dom, d = A.dom, A.dim
    amb_dim = d ** (n + 1)
    inv_fact = dom.inv(dom.coerce(factorial(n)))
    perms = list(_permutations_signed(n))
    cols = {}
    for col_idx in product(range(d), repeat=n + 1):
        acc = cols[tensor_index(col_idx, d)] = {}
        for perm, sign in perms:
            r = tensor_index((col_idx[0],) + tuple(col_idx[k] for k in perm), d)
            acc[r] = acc.get(r, 0) + sign * inv_fact
    eps = Matrix.from_column_sums(cols, amb_dim, amb_dim, dom) @ omega.sect
    # the image must consist of Hochschild cycles
    if n >= 1 and not (sm.boundary(n) @ eps).is_zero():
        raise RelationFailure("antisymmetrization image is not made of cycles")
    return eps


def hkr_pi(sm: SimplicialModule, n: int, omega: PresentedModule) -> Matrix:
    """The projection C_n(A) -> Omega^n, (a0..an) -> a0 da1...dan.

    On the presented quotient this is literally the projection matrix;
    it kills boundaries (pi . b_{n+1} = 0), which is verified.
    """
    _module_algebra(sm, omega)
    pi = omega.proj
    if not (pi @ sm.boundary(n + 1)).is_zero():
        raise RelationFailure("projection does not kill boundaries")
    return pi


def wedge(omega_p: PresentedModule, omega_q: PresentedModule, u, v,
          omega_pq: PresentedModule):
    """Wedge product of quotient-coordinate forms u (degree p) and v (degree q).

    Lifts both to ambient tensors, multiplies the coefficient slots and
    concatenates the differential slots, then projects into Omega^(p+q).
    """
    A = omega_p.algebra
    d = A.dim
    p, q = omega_p.form_degree, omega_q.form_degree
    lift_u = omega_p.sect.apply(list(u))
    lift_v = omega_q.sect.apply(list(v))
    # native sums of canonical scalars; the projection reduces them once
    amb = [0] * (d ** (p + q + 1))
    for iu, cu in _entries(lift_u):
        a0, rest_u = divmod(iu, d ** p)
        for iv, cv in _entries(lift_v):
            b0, rest_v = divmod(iv, d ** q)
            for m, coef in A.products[a0][b0]:
                amb[(m * d ** p + rest_u) * d ** q + rest_v] += cu * cv * coef
    return omega_pq.proj.apply(amb)
