"""Chain complexes, homology, normalization, tensor products, AW/EZ."""

import pytest
from contextlib import contextmanager
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cychom.chains import (
    Bicomplex,
    ChainComplex,
    ChainMap,
    PresentedModule,
    SimplicialModule,
    aw_map,
    check_module_identities,
    diagonal_tensor,
    exactness_at,
    ez_map,
    homology,
    induced_map,
    linearize,
    linearize_module,
    tensor_bicomplex,
    total_complex,
)
from cychom.delta import simplicial_identities
from cychom.domains import Fp, Q, Z
from cychom.errors import (
    DomainMismatch,
    LatticeMismatch,
    NotAChainMap,
    RangeExceedsComplex,
    SignCheckFailed,
)
from cychom import linalg
from cychom.hochschild import algebra_from_json, hochschild_module, truncated_polynomial
from cychom.groups import cyclic_group, group_from_preset
from cychom.matrix import Matrix
from cychom.simplicial import circle, classifying_space, cyclic_bar, free_cyclic, standard_simplex

from .oracle import (
    FACE_SUMS,
    dense_homology_dim,
    dense_rank,
    dense_rank_modp,
    dense_rref,
    snf_diagonal_by_minors,
)


def _rows(m):
    return m.to_dense_rows()


def test_circle_homology_over_q_and_f2():
    for dom in (Q, Fp(2)):
        cc = linearize(circle(4), dom, mode="normalized")
        res = homology(cc, range(4))
        assert [res.betti[n] for n in range(4)] == [1, 1, 0, 0]


def test_circle_homology_matches_dense_oracle():
    cc = linearize(circle(4), Q, mode="unnormalized")
    res = homology(cc, range(4))
    for n in range(4):
        dim = dense_homology_dim(_rows(cc.d(n)), _rows(cc.d(n + 1)), cc.rank(n))
        assert res.betti[n] == dim


def test_bz2_integral_homology():
    spec = classifying_space(cyclic_group(2), 5)
    cc = linearize(spec, Z, mode="normalized")
    res = homology(cc, range(5))
    assert [res.betti[n] for n in range(5)] == [1, 0, 0, 0, 0]
    assert [res.torsion[n] for n in range(5)] == [[], [2], [], [2], []]


def test_bz2_mod2_betti():
    spec = classifying_space(cyclic_group(2), 6)
    res = homology(linearize(spec, Fp(2), mode="normalized"), range(6))
    assert all(res.betti[n] == 1 for n in range(6))


def test_normalization_is_quasi_iso():
    for spec in (circle(5), classifying_space(cyclic_group(2), 5),
                 cyclic_bar(cyclic_group(2), 5), standard_simplex(2, 5)):
        for dom in (Q, Fp(3)):
            unn = homology(linearize(spec, dom, mode="unnormalized"), range(5))
            nor = homology(linearize(spec, dom, mode="normalized"), range(5))
            assert unn.betti == nor.betti


def test_homology_needs_interior_degree():
    cc = linearize(circle(3), Q)
    with pytest.raises(RangeExceedsComplex):
        homology(cc, [3])


def test_chain_complex_rejects_nonzero_d_squared():
    one = Matrix.from_rows([[Fraction(1)]], Q)
    with pytest.raises(SignCheckFailed):
        ChainComplex(Q, {0: 1, 1: 1, 2: 1}, {1: one, 2: one})


def test_presented_module_projection_section():
    pm = PresentedModule(3, [{0: 1, 1: 1}], Q)
    assert pm.dim == 2
    prod = pm.proj @ pm.sect
    assert prod == Matrix.identity(2, Q)
    assert not any(pm.proj.apply([2, 2, 0]))
    assert any(pm.proj.apply([1, 0, 0]))


def test_presented_module_over_z_keeps_integrality():
    pm = PresentedModule(2, [{0: 1, 1: 1}], Z)
    image = pm.proj.apply([3, 0])
    assert all(isinstance(v, int) or getattr(v, "denominator", 1) == 1
               for v in image)


def test_presented_module_over_z_rejects_an_unsaturated_span():
    # the reduced relation e0 + e1/2 is not integral
    with pytest.raises(DomainMismatch):
        PresentedModule(2, [{0: 2, 1: 1}], Z)


AMBIENT = 6
sparse_relation = st.dictionaries(st.integers(0, AMBIENT - 1),
                                  st.integers(-4, 4).filter(bool), max_size=3)


def _relation_led_at(c):
    return st.tuples(st.integers(-4, 4).filter(bool), sparse_relation).map(
        lambda t: {c: t[0], **{k: v for k, v in t[1].items() if k > c}})


# relations that structural pivots treat apart: several leading at one
# column, and one-entry relations repeated or after a longer one
structural_relations = st.integers(0, AMBIENT - 1).flatmap(lambda c: st.lists(
    st.one_of(_relation_led_at(c), st.integers(-4, 4).filter(bool).map(lambda v: {c: v}),
              sparse_relation), max_size=8))


@settings(max_examples=100)
@given(st.sampled_from([Q, Z, Fp(5)]),
       st.one_of(st.lists(sparse_relation, max_size=8), structural_relations))
def test_presented_module_matches_the_dense_oracle(dom, relations):
    dense = [[r.get(c, 0) for c in range(AMBIENT)] for r in relations]
    red = dense_rref(dense, dom.p)
    pivots = [row.index(1) for row in red]
    # over Z the free coordinates are a basis of the quotient exactly when
    # the relations restricted to the pivot columns span all of Z^pivots
    if dom == Z and (snf_diagonal_by_minors([[r[c] for c in pivots] for r in dense])
                     != [1] * len(pivots)):
        with pytest.raises(DomainMismatch):
            PresentedModule(AMBIENT, relations, dom)
        return
    pm = PresentedModule(AMBIENT, relations, dom)
    assert pm.free == [c for c in range(AMBIENT) if c not in pivots]
    assert pm.relations == Matrix.from_columns(red, AMBIENT, dom)
    rk = dense_rank(dense) if dom.p is None else dense_rank_modp(dense, 5)
    assert pm.dim == AMBIENT - rk
    assert pm.proj @ pm.sect == Matrix.identity(pm.dim, dom)
    for row in dense:
        assert not any(pm.proj.apply([dom.coerce(v) for v in row]))


def test_presented_module_over_z_refuses_a_quotient_with_torsion():
    # Z^2 / (e0 + e1, e0 - e1) = Z/2 and Z^2 / 2 e0 = Z/2 + Z; reduced as
    # over Q, the first would be 0 and the second free of rank 1
    for relations in ([{0: 1, 1: 1}, {0: 1, 1: -1}], [{0: 2}]):
        with pytest.raises(DomainMismatch):
            PresentedModule(2, relations, Z)
    # 2 e0 and 3 e0 span the lattice Z e0
    assert PresentedModule(2, [{0: 2}, {0: 3}], Z).free == [1]


@contextmanager
def _by_elimination():
    """Every PresentedModule built inside reduces its relations by
    linalg.rref, spans of one-entry relations too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "coordinate_rref", linalg.rref)
        yield


def _presented_or_refused(relations, dom):
    try:
        pm = PresentedModule(AMBIENT, relations, dom)
    except DomainMismatch:
        return None
    return pm.free, pm.proj, pm.sect, pm.relations


# 4 = p - 1 over F_5; 0, and 5 over F_5, make a zero relation
one_entry_relation = st.builds(lambda c, v: {c: v}, st.integers(0, AMBIENT - 1),
                               st.sampled_from([1, -1, 2, 4, 0, 5]))


@settings(max_examples=100)
@given(st.sampled_from([Q, Z, Fp(5)]), st.lists(one_entry_relation, max_size=10))
@example(Q, []).via("the empty span")
@example(Fp(5), [{2: 4}, {2: -1}, {0: 2}, {3: 5}]).via("repeated support, p - 1, -1 and p")
@example(Z, [{1: 2}, {1: -1}, {3: 2}]).via("a unit and a 2 at one pivot, a 2 alone at another")
def test_coordinate_relations_match_the_elimination_route(dom, relations):
    coordinate = _presented_or_refused(relations, dom)
    with _by_elimination():
        assert coordinate == _presented_or_refused(relations, dom)


GATE_CASES = {
    "bg Z/3": lambda dom: linearize_module(classifying_space(cyclic_group(3), 4), dom),
    "circle": lambda dom: linearize_module(circle(4), dom),
    "truncpoly:3": lambda dom: hochschild_module(truncated_polynomial(3, dom), 4),
    # the diagonal tensor that `verify aw-ez` normalizes
    "circle (x) truncpoly:2": lambda dom: diagonal_tensor(
        linearize_module(circle(4), dom), hochschild_module(truncated_polynomial(2, dom), 4)),
}


@pytest.mark.parametrize("dom", [Q, Fp(5), Z], ids=str)
@pytest.mark.parametrize("name", GATE_CASES)
def test_coordinate_normalization_matches_the_elimination_route(name, dom):
    # picking the nondegenerate cells gives the cells and the normalized
    # differentials that reducing the degeneracy relations gives
    sm = GATE_CASES[name](dom)
    degeneracies = {(n, j): sm.degeneracy(n, j) for n in range(4) for j in range(n + 1)}
    stored = {key: m.sparse_columns() for key, m in degeneracies.items()}
    assert all(len(rel) == 1 for n in range(1, 5) for rel in sm.degenerate_relations(n))
    with _by_elimination():
        ref = GATE_CASES[name](dom)
        expected = ([ref.normalized_quotient(n).free for n in range(5)],
                    [ref.normalized_boundary(n) for n in range(1, 5)])
    assert ([sm.normalized_quotient(n).free for n in range(5)],
            [sm.normalized_boundary(n) for n in range(1, 5)]) == expected
    # the relations were the stored columns of the cached degeneracies,
    # which normalization read and left as they were
    for key, m in degeneracies.items():
        assert sm.degeneracy(*key) is m and m.sparse_columns() == stored[key], key


@pytest.mark.parametrize("spec", [
    circle(4), classifying_space(cyclic_group(2), 4), cyclic_bar(cyclic_group(2), 4),
    standard_simplex(2, 4), free_cyclic(circle(4))], ids=lambda s: s.name)
def test_normalized_basis_is_the_nondegenerate_simplices(spec):
    # x is degenerate iff x = s_j d_j x for some j, since d_j s_j = id
    sm = linearize_module(spec, Q)
    for n in range(spec.truncation + 1):
        nondegenerate = [k for k, x in enumerate(spec.elements(n))
                         if all(spec.degeneracy(n - 1, j, spec.face(n, j, x)) != x
                                for j in range(n))]
        assert sm.normalized_quotient(n).free == nondegenerate


# K^2 in the basis f0 = e0, f1 = e1 - e0 (the seed-1 benchmark input): its
# unit -2 f0 + f1 has no zero entry, so the module is built on the basis
# -2 f0 + f1, f0 that starts with the unit, where every relation is one cell
DENSE_UNIT_K2 = {"table": [[[-1, 0], [-1, 0]], [[-1, 0], [-2, 1]]], "unit": [-2, 1]}

NORMALIZED_CASES = {
    "circle": lambda dom: linearize_module(circle(4), dom),
    "bg Z/3": lambda dom: linearize_module(classifying_space(cyclic_group(3), 4), dom),
    "cyclic bar Z/2": lambda dom: linearize_module(cyclic_bar(cyclic_group(2), 4), dom),
    "free cyclic circle": lambda dom: linearize_module(free_cyclic(circle(4)), dom),
    "truncpoly:2": lambda dom: hochschild_module(truncated_polynomial(2, dom), 4),
    "dense-unit productfield:2": lambda dom: hochschild_module(algebra_from_json(DENSE_UNIT_K2, dom), 4),
    "circle (x) truncpoly:2": lambda dom: diagonal_tensor(
        linearize_module(circle(4), dom), hochschild_module(truncated_polynomial(2, dom), 4)),
}


@pytest.mark.parametrize("dom", [Q, Fp(5), Z], ids=str)
@pytest.mark.parametrize("name", NORMALIZED_CASES)
def test_normalized_differential_is_proj_b_sect(name, dom):
    build = NORMALIZED_CASES[name]
    fresh = build(dom)
    cc = fresh.chain_complex("normalized")
    assert not [key for key in fresh._cache if key[0] == "b"]
    ambient = build(dom)
    for n in range(1, 5):
        expected = (ambient.normalized_quotient(n - 1).proj @ ambient.boundary(n)
                    @ ambient.normalized_quotient(n).sect)
        assert cc.d(n) == expected, n
    # with every boundary cached, the columns are picked from it
    assert ambient.chain_complex("normalized").diffs == cc.diffs


def summed_faces(rank, face, dom):
    """A faces_fn that adds up the face matrices face(n, i), then picks cols."""
    def faces(n, cols, signs):
        m = Matrix.signed_sum(rank(n - 1), rank(n), dom, ((s, face(n, i)) for i, s in signs))
        return m if cols is None else m.columns(cols)
    return faces


def test_a_module_built_from_another_modules_faces_normalizes():
    sm = hochschild_module(truncated_polynomial(2, Q), 4)
    copy = SimplicialModule(Q, 4, sm.rank, summed_faces(sm.rank, sm.face, Q), sm.degeneracy,
                            t_fn=sm.t)
    assert copy.chain_complex("normalized").diffs == sm.chain_complex("normalized").diffs
    assert not [key for key in copy._cache if key[0] == "b"]  # built on the free cells


@pytest.mark.parametrize("dom", [Q, Fp(5), Z], ids=str)
@pytest.mark.parametrize("signs", FACE_SUMS)
@pytest.mark.parametrize("name", NORMALIZED_CASES)
def test_face_sum_is_the_signed_sum_of_the_single_faces(name, signs, dom):
    sm, faces = (NORMALIZED_CASES[name](dom) for _ in range(2))
    for n in range(1, 5):
        terms = FACE_SUMS[signs](n)
        expected = Matrix.signed_sum(faces.rank(n - 1), faces.rank(n), dom,
                                     ((s, faces.face(n, i)) for i, s in terms))
        assert sm._faces(n, None, terms) == expected, n
        cols = list(range(sm.rank(n) - 1, -1, -2))  # reversed and strided
        assert sm._faces(n, cols, terms) == expected.columns(cols), n
    assert not sm._cache


@pytest.mark.parametrize("dom", [Q, Fp(5), Z], ids=str)
@pytest.mark.parametrize("name", NORMALIZED_CASES)
def test_boundaries_cache_no_face_matrix(name, dom):
    whole, normalized = (NORMALIZED_CASES[name](dom) for _ in range(2))
    for n in range(1, 5):
        assert whole.boundary(n) == whole._faces(n, None, FACE_SUMS["b"](n)), n
        assert whole.bprime(n) == whole._faces(n, None, FACE_SUMS["b'"](n)), n
    if not (dom == Z and name == "dense-unit productfield:2"):  # not integral, as above
        normalized.chain_complex("normalized")
    assert not [key for key in {**whole._cache, **normalized._cache} if key[0] == "d"]


@pytest.mark.parametrize("dom", [Q, Fp(5), Z], ids=str)
@pytest.mark.parametrize("name", ["bg Z/3", "cyclic bar Z/2", "circle", "free cyclic circle"])
def test_linearized_boundary_is_the_signed_sum_of_the_faces(name, dom):
    faces, whole, picked = (NORMALIZED_CASES[name](dom) for _ in range(3))
    for n in range(1, 5):
        expected = Matrix.signed_sum(faces.rank(n - 1), faces.rank(n), dom,
                                     (((-1) ** i, faces.face(n, i)) for i in range(n + 1)))
        assert whole.boundary(n) == expected, n
        for cols in (picked.normalized_quotient(n).free, list(range(picked.rank(n) - 1, -1, -2))):
            assert picked.boundary_on(n, cols) == expected.columns(cols), n  # built on cols
            assert whole.boundary_on(n, cols) == expected.columns(cols), n  # b_n cached, cols built
    assert not [key for key in {**whole._cache, **picked._cache} if key[0] == "d"]


def test_unnormalized_hh_and_homology_build_no_face_matrix(monkeypatch):
    from cychom import hochschild
    built = []

    def recorded(*args, **kwargs):
        built.append(hochschild_module(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(hochschild, "hochschild_module", recorded)
    res = hochschild.hh(truncated_polynomial(2, Q), range(4), mode="unnormalized")
    assert res.betti == {0: 2, 1: 1, 2: 1, 3: 1}
    sm = linearize_module(classifying_space(cyclic_group(3), 4), Z)
    torsion = homology(sm.chain_complex("unnormalized"), range(4)).torsion
    assert torsion == {0: [], 1: [3], 2: [], 3: [3]}
    for module in (*built, sm):
        assert [key for key in module._cache if key[0] == "b"]
        assert not [key for key in module._cache if key[0] == "d"]


def test_a_module_is_freed_without_the_cycle_collector():
    # its builders hold no reference back to it, so dropping the last
    # reference frees it and every matrix in its cache at once
    import gc
    import weakref
    gc.disable()
    try:
        for build in (lambda: hochschild_module(truncated_polynomial(2, Q), 4),
                      lambda: linearize_module(classifying_space(cyclic_group(3), 4), Z)):
            sm = build()
            for mode in ("unnormalized", "normalized"):
                homology(sm.chain_complex(mode), range(4))
            ref = weakref.ref(sm)
            del sm
            assert ref() is None
    finally:
        gc.enable()


def test_dense_unit_degeneracy_relations_leave_nothing_over():
    # every pivot of the quotient is the leading column of some relation,
    # so no relation adds a pivot that its leading column does not give
    sm = hochschild_module(algebra_from_json(DENSE_UNIT_K2, Q), 6)
    for n in range(1, 7):
        q = sm.normalized_quotient(n)
        leading = {min(rel) for rel in sm.degenerate_relations(n)}
        assert q.dim == 2
        assert leading == set(range(sm.rank(n))) - set(q.free)


def test_exactness_at():
    f = Matrix.from_rows([[1], [0]], Q)   # image = span(e0)
    g = Matrix.from_rows([[0, 1]], Q)     # kernel = span(e0)
    assert exactness_at(f, g)
    g_bad = Matrix.from_rows([[1, 0]], Q)
    assert not exactness_at(f, g_bad)
    # g f = 0, but ker g = everything is larger than im f
    assert not exactness_at(f, Matrix.zeros(1, 2, Q))


def test_induced_map_of_identity_is_identity():
    cc = linearize(circle(4), Q)
    ident = ChainMap(cc, cc, {n: Matrix.identity(cc.rank(n), Q)
                              for n in range(5)})
    h = homology(cc, range(4))
    for n in range(4):
        assert induced_map(ident, h, h, n) == Matrix.identity(h.betti[n], Q)


def test_chain_map_is_checked_at_the_lowest_degree_of_its_source():
    # S is one cell e in degree 1; in T, d(e) = v, so d f_1 = [1] but f_0 d_1 = 0
    one = Matrix.identity(1, Q)
    S = ChainComplex(Q, {1: 1, 2: 0}, {})
    T = ChainComplex(Q, {0: 1, 1: 1, 2: 0}, {1: one})
    with pytest.raises(NotAChainMap, match="degree 1"):
        ChainMap(S, T, {1: one})


def test_induced_map_rejects_image_that_is_not_a_cycle():
    # S has the 1-cycle e; T bounds nothing but d(e) = v, so e is no cycle there
    one, zero = Matrix.identity(1, Q), Matrix.zeros(1, 1, Q)
    S = ChainComplex(Q, {0: 1, 1: 1, 2: 0}, {1: zero})
    T = ChainComplex(Q, {0: 1, 1: 1, 2: 0}, {1: one})
    f = ChainMap(S, T, {0: zero, 1: zero})
    f.mats[1] = one  # past the check at construction, f is no chain map
    with pytest.raises(NotAChainMap):
        induced_map(f, homology(S, [1]), homology(T, [1]), 1)


def test_representatives_are_the_greedy_echelon_completion():
    # the vectors a one-at-a-time loop keeps: each kernel basis vector
    # independent of the boundaries and of the vectors kept before it
    def e(i, n):
        return [1 if k == i else 0 for k in range(n)]

    C = linearize_module(circle(2), Q)
    torus = homology(total_complex(tensor_bicomplex(C, C, top=2)), range(2))
    assert torus.reps == {0: [e(0, 1)], 1: [e(1, 4), e(3, 4)]}
    assert torus.boundary_image[1].dim == 2
    sm = hochschild_module(truncated_polynomial(3, Fp(5)), 3)
    hh = homology(sm.chain_complex("unnormalized"), range(2))
    assert hh.reps == {0: [e(0, 3), e(1, 3), e(2, 3)], 1: [e(1, 9), e(2, 9)]}


def test_homology_reduces_each_boundary_matrix_once(monkeypatch):
    from cychom import chains
    ranked, reduced = [], []
    orig_rank, orig_rki = chains.rank, chains.rank_kernel_image

    def counted_rank(m):
        ranked.append(m)
        return orig_rank(m)

    def counted_rki(m):
        reduced.append(m)
        return orig_rki(m)

    monkeypatch.setattr(chains, "rank", counted_rank)
    monkeypatch.setattr(chains, "rank_kernel_image", counted_rki)
    sm = hochschild_module(truncated_polynomial(2, Q), 5)
    cc = sm.chain_complex("unnormalized")
    h = homology(cc, range(5))
    # the Betti numbers rank d_0 .. d_5 once each and build no basis
    assert [h.betti[n] for n in range(5)] == [2, 1, 1, 1, 1]
    assert len(ranked) == 6 and not reduced
    assert all(sum(m is cc.diffs[k] for m in ranked) == 1 for k in range(1, 6))
    # their count is the Betti number; reading the vectors of every
    # degree then reduces d_0 .. d_5 once each
    assert all(len(h.reps[n]) == h.betti[n] for n in range(5)) and not reduced
    assert all(len(list(h.reps[n])) == h.betti[n] for n in range(5))
    assert len(reduced) == 6 and len(ranked) == 6
    assert all(sum(m is cc.diffs[k] for m in reduced) == 1 for k in range(1, 6))


@pytest.mark.parametrize("dom", [Q, Fp(3)], ids=str)
@pytest.mark.parametrize("build", [
    lambda dom: linearize(classifying_space(cyclic_group(3), 5), dom, "normalized"),
    lambda dom: hochschild_module(truncated_polynomial(3, dom), 4).chain_complex("unnormalized"),
    lambda dom: total_complex(tensor_bicomplex(*[linearize_module(circle(3), dom)] * 2, top=3)),
], ids=["bz3", "hh truncpoly:3", "torus"])
def test_lazy_representatives_are_independent_cycles(build, dom):
    rk = dense_rank if dom == Q else (lambda rows: dense_rank_modp(rows, dom.p))
    cc = build(dom)
    h = homology(cc, range(cc.hi))
    assert len(h.reps) == len(h.boundary_image) == cc.hi
    assert list(h.reps) == list(range(cc.hi))
    assert 0 in h.reps and cc.hi not in h.reps and h.reps.get(cc.hi) is None
    for n, reps in zip(h.reps, h.reps.values()):
        assert len(reps) == h.betti[n]
        assert not any(any(cc.d(n).apply(list(r))) for r in reps)
        # independent modulo the boundaries: they add betti_n to the rank
        image = [list(v) for v in h.boundary_image[n].vectors]
        assert rk(image) == len(image) == rk(cc.d(n + 1).to_dense_rows())
        assert rk(image + [list(r) for r in reps]) == len(image) + h.betti[n]


SLOW = ("cyclic:5", "cyclic:6", "symmetric:3")


def _bg(preset, top):
    G = group_from_preset(preset)
    return classifying_space(G, top, central=G.identity if G.is_abelian() else None)


# (name, integral chain complex in a mode, slow); a slow complex is
# compared up to degree 2 when unnormalized, where the kernel lattice
# route takes 0.8-6.7 s on its degree 3
Z_COMPLEXES = [
    *[(f"bg {g}", lambda mode, g=g: linearize(_bg(g, 4), Z, mode), g in SLOW)
      for g in ("cyclic:2", "cyclic:3", "cyclic:4", *SLOW)],
    ("cyclicbar cyclic:3", lambda mode: linearize(cyclic_bar(cyclic_group(3), 4), Z, mode), False),
    ("fbg cyclic:2",
     lambda mode: linearize(free_cyclic(classifying_space(cyclic_group(2), 4)), Z, mode), False),
    ("circle", lambda mode: linearize(circle(4), Z, mode), False),
    ("hh truncpoly:3",
     lambda mode: hochschild_module(truncated_polynomial(3, Z), 4).chain_complex(mode), False),
]


@pytest.mark.parametrize("mode", ["normalized", "unnormalized"])
@pytest.mark.parametrize("build,slow", [(b, s) for _, b, s in Z_COMPLEXES],
                         ids=[name for name, _, _ in Z_COMPLEXES])
def test_integral_homology_matches_the_kernel_lattice_route(build, slow, mode):
    from cychom.linalg import integer_kernel_basis, z_quotient_invariants
    top = 2 if slow and mode == "unnormalized" else 3
    cc = build(mode)
    res = homology(cc, range(top + 1))
    counts = {n: len(reps) for n, reps in res.reps.items()}
    for n in range(top + 1):
        kern = integer_kernel_basis(cc.d(n)) if cc.rank(n) else []
        assert (res.betti[n], res.torsion[n]) == z_quotient_invariants(kern, cc.d(n + 1))
        assert counts[n] == len(kern)
    if not slow:  # the certified cycle basis has the length reported before the read
        assert all(len(list(res.reps[n])) == counts[n] for n in counts)


def test_integral_homology_reduces_each_boundary_matrix_once(monkeypatch):
    from cychom import chains, linalg
    calls = []
    orig = chains.invariant_factors

    def counted(m):
        calls.append(m)
        return orig(m)

    def forbidden(*args):
        raise AssertionError("integral homology solved in a span")

    monkeypatch.setattr(chains, "invariant_factors", counted)
    for owner, name in [(chains, "solve_in_span"), (linalg, "solve_in_span"),
                        (linalg, "z_quotient_invariants")]:
        monkeypatch.setattr(owner, name, forbidden)
    cc = linearize(_bg("cyclic:3", 5), Z, "unnormalized")
    h = homology(cc, range(5))
    assert [h.torsion[n] for n in range(5)] == [[], [3], [], [3], []]
    # d_1 .. d_5 once each and d_0 (zero, not stored) once; no cycle basis yet
    assert all(sum(m is cc.diffs[k] for m in calls) == 1 for k in range(1, 6))
    assert len(calls) == 6
    # the length of reps[n] is rank C_n - #f_n = 3^n - rank d_n and builds nothing
    assert [len(h.reps[n]) for n in range(5)] == [1, 3, 6, 21, 60] and len(calls) == 6
    # reading every degree certifies each cycle basis once
    for _ in range(2):
        assert all(len(list(h.reps[n])) == len(h.reps[n]) for n in range(5))
    assert len(calls) == 6 + 5


def _not_saturated(m, basis):
    return [[3 * x for x in v] for v in basis]


def _drop_last(m, basis):
    return basis[:-1]


def _off_kernel(m, basis):
    # add a unit vector that d does not kill to the first basis vector
    moved = [c for c in range(m.cols) if any(m.column_vector(c))]
    if not basis or not moved:
        return basis
    return [[x + (k == moved[0]) for k, x in enumerate(basis[0])]] + basis[1:]


@pytest.mark.parametrize("tamper,spec,top,degree,message", [
    (_not_saturated, lambda: _bg("cyclic:2", 3), 2, 0, "saturated"),
    (_drop_last, lambda: circle(2), 1, 0, "kernel rank"),
    (_drop_last, lambda: _bg("cyclic:2", 3), 2, 0, "kernel rank"),
    (_off_kernel, lambda: free_cyclic(circle(3)), 2, 2, "outside the kernel"),
], ids=["not saturated bg cyclic:2", "dropped circle", "dropped bg cyclic:2",
        "off kernel fcircle"])
def test_tampered_integral_cycle_basis_is_refused_on_read(monkeypatch, tamper, spec, top,
                                                         degree, message):
    from cychom import chains
    real = chains.integer_kernel_basis
    monkeypatch.setattr(chains, "integer_kernel_basis", lambda m: tamper(m, real(m)))
    h = homology(linearize(spec(), Z, "normalized"), range(top + 1))
    with pytest.raises(LatticeMismatch, match=message):
        h.reps[degree][0]


def test_bicomplex_rejects_broken_anticommutation():
    one = Matrix.from_rows([[Fraction(1)]], Q)
    ranks = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    vert = {(0, 1): one, (1, 1): one}
    horiz = {(1, 0): one, (1, 1): one}
    with pytest.raises(SignCheckFailed):
        Bicomplex(Q, ranks, vert, horiz)


def test_total_complex_of_tensor_square_of_circle():
    C = linearize_module(circle(4), Q)
    tot = total_complex(tensor_bicomplex(C, C, top=4))
    res = homology(tot, range(4))
    # Kuenneth for the torus: 1, 2, 1, 0
    assert [res.betti[n] for n in range(4)] == [1, 2, 1, 0]


def test_aw_ez_normalized_retraction_and_homotopy_inverse():
    C = linearize_module(circle(4), Q)
    aw = aw_map(C, C, mode="normalized", top=4)
    ez = ez_map(C, C, mode="normalized", top=4)
    for n in range(5):
        assert (aw.mat(n) @ ez.mat(n)) == Matrix.identity(aw.target.rank(n), Q)
    round_trip = ChainMap(aw.source, aw.source,
                          {n: ez.mat(n) @ aw.mat(n) for n in range(5)})
    h = homology(aw.source, range(4))
    for n in range(4):
        assert induced_map(round_trip, h, h, n) == Matrix.identity(h.betti[n], Q)


def test_aw_ez_unnormalized_not_a_retraction_in_general():
    C = linearize_module(circle(3), Q)
    aw = aw_map(C, C, mode="unnormalized", top=3)
    ez = ez_map(C, C, mode="unnormalized", top=3)
    assert any((aw.mat(n) @ ez.mat(n)) != Matrix.identity(aw.target.rank(n), Q)
               for n in range(4))


def test_module_identities_of_linearized_circle():
    sm = linearize_module(circle(4), Q)
    assert check_module_identities(sm) == []


def test_module_identities_report_a_corrupted_hochschild_module():
    sm = hochschild_module(truncated_polynomial(2, Q), 4)
    neg_t3 = SimplicialModule(Q, 4, sm.rank, summed_faces(sm.rank, sm.face, Q), sm.degeneracy,
                              t_fn=lambda n: -sm.t(n) if n == 3 else sm.t(n))
    assert check_module_identities(neg_t3) == [
        "s1 t deg 2", "s2 t deg 2", "d0 t deg 3", "d1 t deg 3", "d2 t deg 3",
        "d3 t deg 3", "s0 t deg 3", "s1 t deg 3", "s2 t deg 3", "s3 t deg 3",
        "d1 t deg 4", "d2 t deg 4", "d3 t deg 4", "d4 t deg 4"]
    swapped = SimplicialModule(
        Q, 4, sm.rank,
        summed_faces(sm.rank, lambda n, i: sm.face(n, 1 - i if n == 2 and i < 2 else i), Q),
        sm.degeneracy, t_fn=sm.t)
    assert check_module_identities(swapped) == [
        "d0 s1 deg 1", "d1 s1 = id deg 1", "d2 s0 deg 2", "d0 s1 deg 2",
        "d0 s2 deg 2", "d1 s2 deg 2", "d0 t deg 2", "d1 t deg 2", "d2 t deg 2",
        "d0 d1 deg 3", "d0 d2 deg 3", "d1 d2 deg 3", "d0 d3 deg 3", "d1 d3 deg 3"]


def _full_table_violations(sm, top):
    """Every instance of simplicial_identities(top, True) on sm, each word
    applied innermost first, with the unsigned rotation t."""
    def op(tok):
        if tok[0] == "tau":
            return sm.t(tok[1]).scale(-1) if tok[1] % 2 else sm.t(tok[1])
        return (sm.face if tok[0] == "delta" else sm.degeneracy)(tok[2], tok[1])

    def apply(word, n):
        m = Matrix.identity(sm.rank(n), sm.dom)
        for tok in reversed(word):
            m = op(tok) @ m
        return m

    return [f"{label} deg {n}" for label, n, lhs, rhs in simplicial_identities(top, True)
            if apply(lhs, n) != apply(rhs, n)]


CYCLIC_MODULES = {
    "truncpoly:2 over Q": lambda: hochschild_module(truncated_polynomial(2, Q), 4),
    "truncpoly:2 over F_5": lambda: hochschild_module(truncated_polynomial(2, Fp(5)), 4),
    "cyclic bar Z/2": lambda: linearize_module(cyclic_bar(cyclic_group(2), 4), Q),
}


@settings(max_examples=60)
@given(st.sampled_from(sorted(CYCLIC_MODULES)), st.data())
def test_module_identities_of_one_corrupted_entry_are_the_full_table_violations(name, data):
    # the presentation of the cyclic category passes or fails as the full
    # table does, and a failure reports every violated instance of it
    make = CYCLIC_MODULES[name]
    clean = make()
    kind = data.draw(st.sampled_from(["d", "s", "t"]))
    if kind == "d":
        n = data.draw(st.integers(1, 4))
        key = ("d", n, data.draw(st.integers(0, n)))
        m = clean.face(n, key[2])
    elif kind == "s":
        n = data.draw(st.integers(0, 3))
        key = ("s", n, data.draw(st.integers(0, n)))
        m = clean.degeneracy(n, key[2])
    else:
        key = ("t", data.draw(st.integers(0, 4)))
        m = clean.t(key[1])
    r, c = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
    corrupted = m + Matrix.from_column_sums({c: {r: m.dom.one}}, m.rows, m.cols, m.dom)
    sm = make()
    sm.cached(key, lambda: corrupted)
    bad = check_module_identities(sm)
    assert bad == _full_table_violations(sm, 4)
    assert check_module_identities(clean) == [] == _full_table_violations(clean, 4)
