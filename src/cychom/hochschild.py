"""Finite-dimensional unital algebras and their Hochschild modules.

An algebra is a structure-constant table over an exact field; the
Hochschild simplicial module has degree-n module A tensored with itself
n+1 times, faces multiplying adjacent slots by ``FiniteAlgebra.products``
(cyclically for the last one), degeneracies inserting the unit, and the
signed rotation.
"""

from __future__ import annotations

from .chains import SimplicialModule, homology, linearize_module
from .domains import ScalarDomain
from .errors import (
    BudgetExceeded,
    InputFormatError,
    MatrixMismatch,
    NoUnit,
    NotAssociative,
)
from .groups import FiniteGroup, group_from_preset, group_order
from .matrix import Matrix, _entries, _reduced
from .simplicial import cyclic_bar

DEFAULT_BUDGET = 2 ** 20


class FiniteAlgebra:
    """A unital associative algebra by structure constants.

    table[i][j] is the coefficient vector of (basis_i * basis_j), dim >= 1,
    kept as the input record: every computation reads products[i][j], its
    nonzero (k, c) with k ascending.  labels, if given, are dim strings.  An
    undeclared unit is found by solving the unit laws over the basis;
    associativity is checked on all basis triples.  Malformed input raises
    InputFormatError.
    """

    def __init__(self, dom: ScalarDomain, table, labels=None, unit=None, name=""):
        if unit is None:
            # solving the unit laws needs division; over Z the unit must
            # be declared explicitly
            dom.require_field()
        self.dom = dom
        self.dim = len(table)
        self.name = name
        if self.dim < 1:
            raise InputFormatError("the algebra dimension must be at least 1")
        if labels is not None and not (isinstance(labels, list) and len(labels) == self.dim
                                       and all(isinstance(x, str) for x in labels)):
            raise InputFormatError(f"'labels' must be a list of {self.dim} strings")
        if not isinstance(name, str):
            raise InputFormatError("'name' must be a string")
        if unit is not None and len(unit) != self.dim:
            raise InputFormatError(f"'unit' must be a list of {self.dim} coefficients")
        self.labels = list(labels or (f"e{i}" for i in range(self.dim)))
        self.table = [[[dom.coerce(c) for c in cell] for cell in row] for row in table]
        if any(len(row) != self.dim for row in self.table) or \
                any(len(cell) != self.dim for row in self.table for cell in row):
            raise InputFormatError("structure-constant table must be dim x dim x dim")
        self.products = [[[(k, c) for k, c in enumerate(cell) if c] for cell in row]
                         for row in self.table]
        if unit is not None:
            self.unit = [dom.coerce(c) for c in unit]
            if not self._is_unit(self.unit):
                raise NoUnit("declared unit fails the unit laws")
        else:
            self.unit = self._find_unit()
        self._check_associative()
        P = self.products
        self.commutative = all(P[i][j] == P[j][i] for i in range(self.dim) for j in range(i))

    def mul(self, u, v):
        """Product of two coefficient vectors (dense lists or sparse dicts)."""
        out = {}
        for i, a in _entries(u):
            row = self.products[i]
            for j, b in _entries(v):
                ab = a * b
                for k, c in row[j]:
                    out[k] = out.get(k, 0) + ab * c
        coerce = self.dom.coerce
        return [coerce(out.get(k, 0)) for k in range(self.dim)]

    def _is_unit(self, u):
        for i in range(self.dim):
            e_i = [self.dom.one if k == i else self.dom.zero for k in range(self.dim)]
            if self.mul(u, e_i) != e_i or self.mul(e_i, u) != e_i:
                return False
        return True

    def _find_unit(self):
        # solve u * e_j = e_j for all j: a linear system in u
        from .linalg import solve_in_span
        dom = self.dom
        n = self.dim
        # columns of the system: for candidate basis coefficient u_i the
        # contribution to (slot j -> component k) is c_{ij}^k
        basis_vectors = []
        for i in range(n):
            vec = []
            for j in range(n):
                vec.extend(self.table[i][j])
            basis_vectors.append(vec)
        target = []
        for j in range(n):
            target.extend(dom.one if k == j else dom.zero for k in range(n))
        xs = solve_in_span(basis_vectors, [target], dom)
        if xs is None or not self._is_unit(xs[0]):
            raise NoUnit("algebra has no two-sided unit")
        return xs[0]

    def _check_associative(self):
        # a triple costs the product of its nonzero counts: d^3 dictionary
        # steps in all on a monomial algebra
        P, n, p = self.products, self.dim, self.dom.p
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs, rhs = {}, {}
                    for m, c in P[i][j]:
                        for r, v in P[m][k]:
                            lhs[r] = lhs.get(r, 0) + c * v
                    for m, c in P[j][k]:
                        for r, v in P[i][m]:
                            rhs[r] = rhs.get(r, 0) + c * v
                    if _reduced(lhs, p) != _reduced(rhs, p):
                        raise NotAssociative(f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})")

    def __repr__(self):
        return f"FiniteAlgebra({self.name or f'dim {self.dim}'}, {self.dom})"


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def group_algebra(G: FiniteGroup, dom: ScalarDomain) -> FiniteAlgebra:
    n = G.order
    table = [[[dom.one if G.mul(i, j) == k else dom.zero for k in range(n)]
              for j in range(n)] for i in range(n)]
    unit = [dom.one if i == G.identity else dom.zero for i in range(n)]
    return FiniteAlgebra(dom, table, labels=[f"g{i}" for i in range(n)],
                         unit=unit, name=f"K[{G.name}]")


def truncated_polynomial(k: int, dom: ScalarDomain) -> FiniteAlgebra:
    """K[x]/(x^k), basis 1, x, ..., x^(k-1)."""
    if k < 1:
        raise InputFormatError("truncation exponent must be >= 1")
    table = [[[dom.one if i + j == m else dom.zero for m in range(k)]
              for j in range(k)] for i in range(k)]
    unit = [dom.one] + [dom.zero] * (k - 1)
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, k)]
    return FiniteAlgebra(dom, table, labels=labels, unit=unit, name=f"K[x]/(x^{k})")


def product_field(m: int, dom: ScalarDomain) -> FiniteAlgebra:
    """K^m with the idempotent basis."""
    if m < 1:
        raise InputFormatError("need at least one factor")
    table = [[[dom.one if i == j == k else dom.zero for k in range(m)]
              for j in range(m)] for i in range(m)]
    unit = [dom.one] * m
    return FiniteAlgebra(dom, table, labels=[f"p{i}" for i in range(m)],
                         unit=unit, name=f"K^{m}")


def _json_int(x, what):
    # JSON numbers arrive as int or float and true/false as bool (an int
    # subclass); only a genuine integer is an exact scalar or a size
    if type(x) is not int:
        raise InputFormatError(f"{what} must be an integer, got {x!r}")
    return x


def _json_preset(obj) -> str:
    """The preset text of a JSON {preset, params} input, params checked."""
    preset = obj["preset"]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise InputFormatError("'params' must be a JSON object")
    if preset == "group":
        if not isinstance(params.get("group"), str):
            raise InputFormatError("'params.group' must be a group preset string")
        return "group:" + params["group"]
    if preset == "truncpoly":
        k = _json_int(params.get("k", 2), "'k'")
        return f"truncpoly:{k}"
    if preset == "productfield":
        m = _json_int(params.get("m", 2), "'m'")
        return f"productfield:{m}"
    raise InputFormatError(f"unknown algebra preset {preset!r}")


def algebra_from_json(obj, dom: ScalarDomain) -> FiniteAlgebra:
    """JSON: {dim, labels?, unit?, table} or {preset, params}."""
    if not isinstance(obj, dict):
        raise InputFormatError("algebra input must be a JSON object")
    if "preset" in obj:
        return algebra_from_preset(_json_preset(obj), dom)
    if "table" not in obj:
        raise InputFormatError("algebra input needs a 'table' or 'preset' key")
    table = obj["table"]
    if not (isinstance(table, list) and
            all(isinstance(row, list) and
                all(isinstance(cell, list) for cell in row) for row in table)):
        raise InputFormatError("'table' must be a dim x dim x dim array")
    for row in table:
        for cell in row:
            for c in cell:
                _json_int(c, "a structure constant")
    unit = obj.get("unit")
    if unit is None and not dom.is_field:
        raise InputFormatError(f"over {dom} the algebra input needs a 'unit' key")
    if unit is not None:
        if not isinstance(unit, list):
            raise InputFormatError("'unit' must be a list of integers")
        for c in unit:
            _json_int(c, "a unit coefficient")
    if "dim" in obj and len(table) != _json_int(obj["dim"], "'dim'"):
        raise InputFormatError("declared dim does not match the table")
    return FiniteAlgebra(dom, table, labels=obj.get("labels"),
                         unit=unit, name=obj.get("name", ""))


def _preset_int(text):
    try:
        return int(text.split(":", 1)[1])
    except ValueError:
        raise InputFormatError(f"bad size in algebra preset {text!r}")


def algebra_from_preset(text: str, dom: ScalarDomain) -> FiniteAlgebra:
    """Presets: unit, truncpoly:k, productfield:m, group:<group preset>."""
    if text == "unit":
        return truncated_polynomial(1, dom)
    if text.startswith("truncpoly:"):
        return truncated_polynomial(_preset_int(text), dom)
    if text.startswith("productfield:"):
        return product_field(_preset_int(text), dom)
    if text.startswith("group:"):
        return group_algebra(group_from_preset(text.split(":", 1)[1]), dom)
    raise InputFormatError(f"unknown algebra preset {text!r}")


def algebra_table_entries(obj) -> int:
    """The d^3 structure constants that algebra_from_preset (obj a string)
    or algebra_from_json (obj a JSON object) builds, plus the n^2 entries
    of a group algebra's group table, read without building or checking a
    table."""
    if isinstance(obj, dict) and "preset" in obj:
        obj = _json_preset(obj)
    if not isinstance(obj, str):
        table = obj.get("table") if isinstance(obj, dict) else None
        return len(table) ** 3 if isinstance(table, list) else 0
    if obj.startswith("group:"):
        n = group_order(obj[len("group:"):])
        return n ** 2 + n ** 3
    if obj.startswith(("truncpoly:", "productfield:")):
        return _preset_int(obj) ** 3
    return 1  # "unit", or a preset that algebra_from_preset refuses


# ---------------------------------------------------------------------------
# the Hochschild simplicial module
# ---------------------------------------------------------------------------

def tensor_index(idx_tuple, dim):
    """Slot-major position of a basis tensor (first slot most significant)."""
    out = 0
    for i in idx_tuple:
        out = out * dim + i
    return out


def _unit_led(A: FiniteAlgebra) -> FiniteAlgebra:
    """A, or over Z, when its unit's first nonzero coordinate is not +-1
    but a later one is, A on its basis reordered with that one first.  The
    degeneracy relations then lead with +-1, so the free coordinates are a
    basis of the normalized quotient."""
    ones = [k for k, c in enumerate(A.unit) if c in (1, -1)]
    if A.dom.is_field or not ones or next(c for c in A.unit if c) in (1, -1):
        return A
    order = ones[:1] + [k for k in range(A.dim) if k != ones[0]]
    table = [[[A.table[i][j][k] for k in order] for j in order] for i in order]
    return FiniteAlgebra(A.dom, table, labels=[A.labels[k] for k in order],
                         unit=[A.unit[k] for k in order], name=A.name)


def hochschild_module(A: FiniteAlgebra, N: int,
                      budget=DEFAULT_BUDGET) -> SimplicialModule:
    """The simplicial module [n] -> A tensor (n+1), with cyclic structure.

    Basis tensors are indexed slot-major (first slot most significant).
    The rotation carries the sign (-1)^n, as every module rotation does.
    A face sum is built one cell at a time by the slot arithmetic of the
    faces d_i, which multiply slot i into slot i + 1 (slot n into slot 0).
    Over Z the module may be built on A's basis reordered (``_unit_led``);
    sm.algebra is the algebra it is built on.
    """
    dom = A.dom
    d = A.dim
    if d ** (N + 1) > budget:
        raise BudgetExceeded(
            f"degree {N} needs {d ** (N + 1)} basis tensors (budget {budget})")
    A = _unit_led(A)

    def rank(n):
        return d ** (n + 1)

    # a face sum takes A.products times the sign of each face
    products = A.products
    unit = [(k, c) for k, c in enumerate(A.unit) if c]

    def faces(n, cols, signs):
        # slot i times slot i + 1: col = ((pre * d + a) * d + b) * size + post;
        # the last face is face 0 after slot n moves to the front
        top = d ** n
        terms = [(i == n, d ** (n - 1 - i) if i < n else top // d, s) for i, s in signs]
        cols = range(rank(n)) if cols is None else cols
        out = {}
        for j, col in enumerate(cols):
            acc = out[j] = {}
            for last, size, s in terms:
                head, post = divmod((col % d) * top + col // d if last else col, size)
                head, b = divmod(head, d)
                pre, a = divmod(head, d)
                for k, c in products[a][b]:
                    r = (pre * d + k) * size + post
                    acc[r] = acc.get(r, 0) + s * c
        return Matrix.from_column_sums(out, rank(n - 1), len(cols), dom)

    def degeneracy(n, j):
        # the unit goes between slots j and j + 1: col = pre * size + post
        size = d ** (n - j)
        return Matrix.from_canonical_columns(
            {col: {(col // size * d + k) * size + col % size: c for k, c in unit}
             for col in range(rank(n))}, rank(n + 1), rank(n), dom)

    def t(n):
        # slot n moves to the front: col = head * d + last
        sign = dom.coerce(-1) if n % 2 else dom.one
        top = d ** n
        return Matrix.from_canonical_columns(
            {col: {(col % d) * top + col // d: sign} for col in range(rank(n))},
            rank(n), rank(n), dom)

    sm = SimplicialModule(dom, N, rank, faces, degeneracy, t_fn=t, name=f"Hoch({A.name})")
    sm.algebra = A
    return sm


def extra_degeneracy(A: FiniteAlgebra, n: int) -> Matrix:
    """Unit insertion A^(n+1) -> A^(n+2), x -> (1, x).

    On the Hochschild complex this is the homotopy h; on tensors
    presenting forms it is the ambient de Rham differential.
    """
    size = A.dim ** (n + 1)
    return Matrix.from_canonical_columns(
        {col: {k * size + col: c for k, c in enumerate(A.unit) if c} for col in range(size)},
        A.dim * size, size, A.dom)


def hh(A: FiniteAlgebra, degrees, mode="normalized", budget=DEFAULT_BUDGET):
    """Hochschild homology of A in the given degrees."""
    degrees = list(degrees)
    N = max(degrees) + 1
    sm = hochschild_module(A, N, budget=budget)
    return homology(sm.chain_complex(mode), degrees)


class PipelineReport:
    """The Betti numbers of both routes; hh_vs_cyclic_bar raises
    MatrixMismatch before any report exists if their boundaries differ."""

    def __init__(self, group, dom, degrees):
        self.group = group
        self.dom = dom
        self.degrees = list(degrees)
        self.betti_algebra = {}
        self.betti_spec = {}

    @property
    def passed(self):
        return self.betti_algebra == self.betti_spec


def hh_vs_cyclic_bar(G: FiniteGroup, degrees, dom: ScalarDomain,
                     budget=DEFAULT_BUDGET) -> PipelineReport:
    """Compare the two routes to the Hochschild complex of a group algebra.

    The cyclic bar construction of G, linearized, must give exactly the
    boundary matrices of the Hochschild module of K[G] under the
    slot-major basis identification; anything else is a pipeline bug.
    """
    degrees = list(degrees)
    N = max(degrees) + 1
    A = group_algebra(G, dom)
    sm_alg = hochschild_module(A, N, budget=budget)
    sm_spec = linearize_module(cyclic_bar(G, N), dom)
    report = PipelineReport(G.name, dom, degrees)
    for n in range(1, N + 1):
        if sm_alg.boundary(n) != sm_spec.boundary(n):
            raise MatrixMismatch(
                f"boundary matrices differ at degree {n} for {G.name} over {dom}")
    h_alg = homology(sm_alg.chain_complex("normalized"), degrees)
    h_spec = homology(sm_spec.chain_complex("normalized"), degrees)
    report.betti_algebra = dict(h_alg.betti)
    report.betti_spec = dict(h_spec.betti)
    return report
