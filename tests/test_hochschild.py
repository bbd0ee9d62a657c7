"""Hochschild modules of finite algebras and the algebra/group pipeline."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cychom import linalg
from cychom.chains import ChainComplex, check_module_identities, homology
from cychom.domains import Fp, Q, Z
from cychom.errors import BudgetExceeded, InputFormatError, MatrixMismatch, NoUnit, NotAssociative
from cychom.groups import cyclic_group, product_group, symmetric_3
from cychom.hochschild import (
    FiniteAlgebra,
    algebra_from_json,
    algebra_from_preset,
    extra_degeneracy,
    group_algebra,
    hh,
    hh_vs_cyclic_bar,
    hochschild_module,
    product_field,
    truncated_polynomial,
)
from cychom.matrix import Matrix
from cychom.simplicial import cyclic_bar

from .oracle import (
    FACE_SUMS,
    dense_homology_dim,
    face_sum,
    first_nonassociative_triple,
    hochschild_operators,
    rebased_table,
    snf_diagonal_by_minors,
)


def test_algebra_validation_rejects_nonassociative_table():
    dom = Q
    # e1*e1 = e0 but e0 not an identity: force (e1 e1) e1 != e1 (e1 e1)
    table = [[[0, 1], [1, 0]], [[1, 0], [0, 0]]]
    with pytest.raises((NotAssociative, NoUnit)):
        FiniteAlgebra(dom, table)


@pytest.mark.parametrize("dom", [Q, Fp(3)])
def test_algebra_validation_names_the_nonassociative_triple(dom):
    # unit e0, e1 e1 = e2, e1 e2 = 0, e2 e1 = e1, e2 e2 = 0:
    # (e1 e1) e1 = e2 e1 = e1, but e1 (e1 e1) = e1 e2 = 0
    e0, e1, e2, zero = [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]
    table = [[e0, e1, e2], [e1, e2, zero], [e2, e1, zero]]
    with pytest.raises(NotAssociative, match=re.escape("(e1 e1) e1 != e1 (e1 e1)")):
        FiniteAlgebra(dom, table)


@st.composite
def _unital_tables(draw):
    # row and column 0 the identity, every other constant in {-1, 0, 1}
    d = draw(st.integers(1, 4))
    coeffs = st.lists(st.sampled_from([-1, 0, 1]), min_size=d, max_size=d)
    return [[[int(k == i + j) for k in range(d)] if 0 in (i, j) else draw(coeffs)
             for j in range(d)] for i in range(d)]


@st.composite
def _rebased_presets(draw):
    # truncpoly:3 or productfield:3 in the basis f = M e, M a product of
    # elementary row additions: associative, and monomial no longer
    table = draw(st.sampled_from([truncated_polynomial(3, Q).table,
                                  product_field(3, Q).table]))
    d = len(table)
    ops = draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1),
                                  st.sampled_from([-1, 1])).filter(lambda t: t[0] != t[1]),
                        min_size=1, max_size=6))
    M = [[int(a == i) for a in range(d)] for i in range(d)]
    M_inv = [row[:] for row in M]
    for i, j, s in ops:
        # M <- (I + s E_ij) M and M_inv <- M_inv (I - s E_ij)
        M[i] = [x + s * y for x, y in zip(M[i], M[j])]
        for row in M_inv:
            row[j] -= s * row[i]
    assert all(sum(M[i][c] * M_inv[c][k] for c in range(d)) == int(i == k)
               for i in range(d) for k in range(d))
    # f_i f_j = sum M[i][a] M[j][b] e_a e_b, and e_c = sum M_inv[c][k] f_k
    return [[[sum(M[i][a] * M[j][b] * table[a][b][c] * M_inv[c][k]
                  for a in range(d) for b in range(d) for c in range(d))
              for k in range(d)] for j in range(d)] for i in range(d)]


@settings(max_examples=150)
@given(st.one_of(_unital_tables(), _rebased_presets()), st.sampled_from([Q, Fp(3)]))
def test_associativity_check_agrees_with_the_dense_oracle(table, dom):
    failing = first_nonassociative_triple(table, dom.p)
    if failing is None:
        FiniteAlgebra(dom, table)
    else:
        i, j, k = failing
        with pytest.raises(NotAssociative,
                           match=re.escape(f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})")):
            FiniteAlgebra(dom, table)


def _oracle_complex(A, top):
    """A's unnormalized Hochschild complex on A's own basis, each boundary
    the signed sum of the oracle's faces."""
    ops, d = hochschild_operators(A.table, A.unit, top, p=A.dom.p), A.dim
    diffs = {n: Matrix.from_canonical_columns(
        dict(enumerate(face_sum(ops, n, FACE_SUMS["b"](n), A.dom.p))), d ** n, d ** (n + 1), A.dom)
        for n in range(1, top + 1)}
    return ChainComplex(A.dom, {n: d ** (n + 1) for n in range(top + 1)}, diffs)


# K^2 and K^3 in unimodular bases where no coordinate of the unit is +-1
K2_UNIT_2_3 = [[[5, 6], [-3, -4]], [[-3, -4], [2, 3]]]
K3_UNIT_3_2_2 = [[[3, 2, 2], [-2, -1, -2], [-2, -2, -1]], [[-2, -1, -2], [0, 1, 0], [3, 1, 3]],
                 [[-2, -2, -1], [3, 1, 3], [0, 2, -1]]]


@settings(max_examples=100)
@given(st.one_of(_unital_tables(), _rebased_presets()), st.sampled_from([Q, Fp(3), Z]))
@example(K2_UNIT_2_3, Z).via("Euclid in one pass")
@example(K2_UNIT_2_3, Q).via("a division by 2")
@example(K3_UNIT_3_2_2, Z).via("Euclid in two passes")
def test_the_module_is_built_on_a_basis_that_starts_with_the_unit(table, dom):
    assume(first_nonassociative_triple(table, dom.p) is None)
    # over Z the unit is declared: the one solved for over Q, integral here
    A = FiniteAlgebra(dom, table, unit=FiniteAlgebra(Q, table).unit if dom == Z else None)
    sm = hochschild_module(A, 4)
    B = sm.algebra
    if sum(map(bool, A.unit)) < 2:
        assert B is A
    else:
        assert B.unit == [1] + [0] * (A.dim - 1) and B.basis[0] == A.unit
        assert B.table == rebased_table(A.table, B.basis, dom.p)
        if dom == Z:
            assert snf_diagonal_by_minors(B.basis) == [1] * A.dim  # unimodular
    # every degeneracy column is one cell: no quotient eliminates
    calls, real = [], linalg.rref
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rref", lambda *args: calls.append(args) or real(*args))
        for n in range(5):
            sm.normalized_quotient(n)
    assert calls == []
    # over Z the Smith form of the unnormalized d_4 of a dense table can
    # take minutes (see CHANGES.md), so there the degrees stop at 2
    top = 3 if dom == Z else 4
    got = homology(sm.chain_complex("normalized", top=top), range(top))
    want = homology(_oracle_complex(A, top), range(top))
    assert (got.betti, got.torsion) == (want.betti, want.torsion)


def test_the_rebased_table_holds_integral_entries_as_ints():
    # over Q the unit [2, 3] is eliminated by a division by 2; an integral
    # Fraction left in the table would make every face add Fractions
    A = FiniteAlgebra(Q, K2_UNIT_2_3)
    sm = hochschild_module(A, 2)
    assert sm.algebra is not A  # rebased on a basis that starts with the unit
    entries = [c for row in sm.algebra.table for cell in row for c in cell]
    assert [c for c in entries if isinstance(c, Fraction) and c.denominator == 1] == []


@pytest.mark.parametrize("table, kwargs", [
    ([], {}),
    ([[[1]]], {"unit": [1, 5]}),
    ([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], {"unit": [1]}),
    ([[[1]]], {"unit": [1], "labels": ["a", "b"]}),
    ([[[1]]], {"labels": [1]}),
])
def test_algebra_validation_rejects_malformed_input(table, kwargs):
    with pytest.raises(InputFormatError, match="must be"):
        FiniteAlgebra(Q, table, **kwargs)


def test_unit_is_located_automatically():
    A = product_field(2, Q)
    # unit of Q x Q is (1, 1), not a basis vector
    assert list(A.unit) == [1, 1]
    assert A.commutative


def test_group_algebra_not_commutative_for_s3():
    A = group_algebra(symmetric_3(), Q)
    assert not A.commutative
    assert A.dim == 6


@pytest.mark.parametrize("preset,expected", [
    ("unit", [1, 0, 0, 0]),
    ("truncpoly:2", [2, 1, 1, 1, 1]),
    ("productfield:2", [2, 0, 0, 0]),
    ("group:cyclic:2", [2, 0, 0, 0]),
])
def test_hh_values(preset, expected):
    A = algebra_from_preset(preset, Q)
    res = hh(A, range(len(expected)))
    assert [res.betti[n] for n in range(len(expected))] == expected


def test_hh_truncpoly3_through_degree_7():
    # HH_n(K[x]/(x^k)) = K^k for n = 0 and K^(k-1) for n >= 1 in characteristic 0
    res = hh(truncated_polynomial(3, Q), range(8))
    assert [res.betti[n] for n in range(8)] == [3, 2, 2, 2, 2, 2, 2, 2]


def test_hh_matches_dense_oracle():
    A = truncated_polynomial(2, Q)
    sm = hochschild_module(A, 4)
    cc = sm.chain_complex("unnormalized")
    res = homology(cc, range(4))
    for n in range(4):
        dim = dense_homology_dim(cc.d(n).to_dense_rows(),
                                 cc.d(n + 1).to_dense_rows(), cc.rank(n))
        assert res.betti[n] == dim


def test_normalized_equals_unnormalized_betti():
    for preset in ("truncpoly:2", "productfield:2", "group:cyclic:3"):
        A = algebra_from_preset(preset, Q)
        unn = hh(A, range(4), mode="unnormalized")
        nor = hh(A, range(4), mode="normalized")
        assert unn.betti == nor.betti


def test_signed_cyclic_module_relations():
    for preset in ("truncpoly:2", "group:cyclic:3"):
        A = algebra_from_preset(preset, Q)
        sm = hochschild_module(A, 4)
        assert check_module_identities(sm) == []


def test_bprime_homotopy_small():
    for preset in ("truncpoly:3", "productfield:2"):
        A = algebra_from_preset(preset, Q)
        sm = hochschild_module(A, 4)
        B = sm.algebra  # the unit insertion is in the module's own basis
        for n in range(3):
            lhs = sm.bprime(n + 1) @ extra_degeneracy(B, n)
            if n >= 1:
                lhs = lhs + extra_degeneracy(B, n - 1) @ sm.bprime(n)
            assert lhs == Matrix.identity(sm.rank(n), Q)


@pytest.mark.parametrize("dom", [Q, Fp(2)])
def test_pipeline_group_algebra_vs_cyclic_bar(dom):
    rep = hh_vs_cyclic_bar(cyclic_group(2), range(4), dom)
    assert rep.passed
    assert rep.betti_algebra == rep.betti_spec


def test_pipeline_raises_on_differing_boundaries(monkeypatch):
    # Z/4 and Z/2 x Z/2 have cyclic bars of the same ranks but other faces
    from cychom import hochschild
    klein = product_group(cyclic_group(2), cyclic_group(2))
    monkeypatch.setattr(hochschild, "cyclic_bar", lambda G, N: cyclic_bar(klein, N))
    with pytest.raises(MatrixMismatch, match="boundary matrices differ at degree 2"):
        hh_vs_cyclic_bar(cyclic_group(4), range(2), Q)


def test_budget_guard():
    A = group_algebra(symmetric_3(), Q)
    with pytest.raises(BudgetExceeded):
        hochschild_module(A, 9, budget=10_000).rank(9)


def test_algebra_from_json_table_and_preset():
    A = algebra_from_json({"dim": 2, "labels": ["1", "x"], "unit": [1, 0],
                           "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}, Q)
    assert A.commutative and list(A.unit) == [1, 0]
    B = algebra_from_json({"preset": "truncpoly", "params": {"k": 2}}, Q)
    assert B.dim == 2
    with pytest.raises(InputFormatError):
        algebra_from_json({"nope": 1}, Q)


def test_hh_over_z_of_group_algebra():
    # HH_*(Z[C2]) = H_*(C2, Z[C2]^ad); the adjoint module is two trivial
    # copies of Z since C2 is abelian, so HH_1 = (Z/2)^2 and HH_2 = 0.
    A = group_algebra(cyclic_group(2), Z)
    res = hh(A, range(3))
    assert res.betti == {0: 2, 1: 0, 2: 0}
    assert res.torsion == {0: [], 1: [2, 2], 2: []}


# the seed-1 benchmark inputs: K[x]/(x^2) and K^2 in a random unimodular basis
REBASED = {
    "truncpoly2": {"table": [[[2, 1], [-1, 0]], [[-1, 0], [0, -1]]], "unit": [0, -1]},
    "productfield2": {"table": [[[-1, 0], [-1, 0]], [[-1, 0], [-2, 1]]], "unit": [-2, 1]},
}


ORACLE_ALGEBRAS = pytest.mark.parametrize("build", [
    lambda dom: truncated_polynomial(3, dom),
    lambda dom: group_algebra(symmetric_3(), dom),
    *[lambda dom, obj=obj: algebra_from_json(obj, dom) for obj in REBASED.values()],
], ids=["truncpoly:3", "group:symmetric:3", *[f"{name} rebased" for name in REBASED]])


@pytest.mark.parametrize("dom", [Q, Fp(7)], ids=str)
@ORACLE_ALGEBRAS
def test_operators_match_the_tuple_oracle(build, dom):
    sm = hochschild_module(build(dom), 4)
    B = sm.algebra  # the operators are in the module's own basis
    ops = hochschild_operators(B.table, B.unit, 4, p=dom.p)
    for key, cols in ops.items():
        kind, n = key[:2]
        m = {"d": lambda: sm.face(n, key[2]), "s": lambda: sm.degeneracy(n, key[2]),
             "t": lambda: sm.t(n), "h": lambda: extra_degeneracy(B, n)}[kind]()
        assert m.sparse_columns() == cols, key


def _check_boundaries_against_the_oracle_faces(A, dom):
    whole, picked = hochschild_module(A, 4), hochschild_module(A, 4)
    B = whole.algebra  # the faces are in the module's own basis
    ops = hochschild_operators(B.table, B.unit, 4, p=dom.p)
    for n in range(1, 5):
        cols = list(range(whole.rank(n) - 1, -1, -3))  # reversed and strided
        for signs in FACE_SUMS.values():
            expected = face_sum(ops, n, signs(n), dom.p)
            assert whole._faces(n, None, signs(n)).sparse_columns() == expected, n
            assert whole._faces(n, cols, signs(n)).sparse_columns() == [expected[c] for c in cols], n
        expected = face_sum(ops, n, FACE_SUMS["b"](n), dom.p)
        assert whole.boundary(n).sparse_columns() == expected, n
        assert whole.bprime(n).sparse_columns() == face_sum(ops, n, FACE_SUMS["b'"](n), dom.p), n
        # uncached: built on these cells
        assert picked.boundary_on(n, cols).sparse_columns() == [expected[c] for c in cols], n
    # b and b' are built in one pass over the cells: no face matrix is made or cached
    assert not [key for key in {**whole._cache, **picked._cache} if key[0] == "d"]


@pytest.mark.parametrize("dom", [Q, Fp(7)], ids=str)
@ORACLE_ALGEBRAS
def test_boundary_is_the_signed_sum_of_the_oracle_faces(build, dom):
    _check_boundaries_against_the_oracle_faces(build(dom), dom)


def test_boundary_over_z_is_the_signed_sum_of_the_oracle_faces():
    _check_boundaries_against_the_oracle_faces(truncated_polynomial(3, Z), Z)
