"""Cyclic homology, the SBI sequence and the windowed variants."""

import pytest

from cychom import cyclic, hochschild
from cychom.chains import (
    Bicomplex,
    ChainMap,
    class_coordinates,
    exactness_at,
    homology,
    induced_map,
    total_complex,
)
from cychom.cyclic import (
    bprime_homotopy_check,
    connes_b,
    connes_b_bar,
    connes_bicomplex,
    connes_maps,
    cyclic_bicomplex,
    hc,
    hc_window,
    norm_map,
    one_minus_t,
)
from cychom.chains import linearize_module
from cychom.domains import Fp, Q, Z
from cychom.errors import (
    RelationFailure,
    SignCheckFailed,
    TruncationTooSmall,
    WindowTooSmall,
)
from cychom.groups import cyclic_group, symmetric_3
from cychom.hochschild import (
    algebra_from_json,
    algebra_from_preset,
    group_algebra,
    hochschild_module,
    product_field,
    truncated_polynomial,
)
from cychom.linalg import rank
from cychom.matrix import Matrix
from cychom.simplicial import circle, classifying_space, cyclic_bar, free_cyclic

from .oracle import dense_homology_dim


def test_hc_of_ground_field():
    A = truncated_polynomial(1, Q)
    res = hc(A, range(6))
    assert [res.betti[n] for n in range(6)] == [1, 0, 1, 0, 1, 0]


def test_hc_betti_matches_dense_oracle():
    A = truncated_polynomial(1, Q)
    top = 4
    sm = hochschild_module(A, top + 1)
    tot = total_complex(cyclic_bicomplex(sm, top + 1, qtop=top + 1))
    res = homology(tot, range(top))
    for n in range(top):
        d_in = tot.d(n + 1).to_dense_rows()
        d_out = tot.d(n).to_dense_rows()
        assert res.betti[n] == dense_homology_dim(
            d_out, d_in, tot.rank(n))


def test_hc0_is_the_algebra_for_commutative_inputs():
    for A in (truncated_polynomial(3, Q), product_field(2, Q)):
        assert hc(A, [0]).betti[0] == A.dim


def test_hc_of_group_algebra_vs_oracle():
    A = group_algebra(cyclic_group(2), Q)
    res = hc(A, range(3))
    top = 3
    sm = hochschild_module(A, top + 1)
    tot = total_complex(cyclic_bicomplex(sm, top + 1, qtop=top + 1))
    for n in range(3):
        d_in = tot.d(n + 1).to_dense_rows()
        d_out = tot.d(n).to_dense_rows()
        assert res.betti[n] == dense_homology_dim(
            d_out, d_in, tot.rank(n))


def test_hc_window_too_small():
    A = truncated_polynomial(1, Q)
    with pytest.raises(WindowTooSmall):
        hc_window("periodic", A, range(2), window=0)
    with pytest.raises(ValueError):
        hc_window("bogus", A, range(2), window=2)


def test_bprime_contraction():
    for A in (truncated_polynomial(2, Q), group_algebra(cyclic_group(3), Q)):
        sm = hochschild_module(A, 5)
        assert bprime_homotopy_check(sm, range(4))


LINEARIZED_CYCLIC_SETS = {
    "circle": lambda: circle(6),
    "cyclic bar S3": lambda: cyclic_bar(symmetric_3(), 4),
    "bg Z/3 central 1": lambda: classifying_space(cyclic_group(3), 5, central=1),
    "free cyclic circle": lambda: free_cyclic(circle(5)),
}


@pytest.mark.parametrize("dom", [Q, Z, Fp(5)], ids=str)
@pytest.mark.parametrize("name", LINEARIZED_CYCLIC_SETS)
def test_bprime_contraction_of_linearized_cyclic_sets(name, dom):
    # the extra degeneracy t_{n+1} s_n contracts b' on every cyclic module,
    # with no algebra and no unit; degree n reads degree n + 1
    sm = linearize_module(LINEARIZED_CYCLIC_SETS[name](), dom)
    assert bprime_homotopy_check(sm, range(sm.truncation))


def test_bprime_contraction_needs_a_rotation():
    sm = linearize_module(classifying_space(cyclic_group(2), 3), Q)
    assert not sm.has_cyclic
    with pytest.raises(RelationFailure, match="cyclic operator"):
        bprime_homotopy_check(sm, range(2))


def test_norm_and_one_minus_t_compose_to_zero():
    A = truncated_polynomial(2, Q)
    sm = hochschild_module(A, 4)
    for n in range(3):
        assert (norm_map(sm, n) @ one_minus_t(sm, n)).is_zero()
        assert (one_minus_t(sm, n) @ norm_map(sm, n)).is_zero()


def test_hc_accepts_linearized_cyclic_sets():
    # the cyclic bar construction on Z/2 linearizes to the same cyclic
    # module as the group algebra, so HC must agree
    G = cyclic_group(2)
    top = 3
    sm = linearize_module(cyclic_bar(G, top + 2), Q)
    res_set = hc(sm, range(top))
    res_alg = hc(group_algebra(G, Q), range(top))
    assert all(res_set.betti[n] == res_alg.betti[n] for n in range(top))


def test_connes_b_squares_to_zero():
    A = truncated_polynomial(2, Q)
    sm = hochschild_module(A, 5)
    for n in range(3):
        assert (connes_b(sm, n + 1) @ connes_b(sm, n)).is_zero()
        anti = sm.boundary(n + 1) @ connes_b(sm, n)
        if n >= 1:
            anti = anti + connes_b(sm, n - 1) @ sm.boundary(n)
        assert anti.is_zero()


def test_sbi_exact_for_ground_field():
    rep = connes_maps(truncated_polynomial(1, Q), range(4))
    assert rep.passed
    # S : HC_2 -> HC_0 is an isomorphism of one-dimensional spaces
    s2 = rep.s_maps[2]
    assert s2.rows == 1 and s2.cols == 1
    assert s2.entry(0, 0) != 0


def test_sbi_exact_for_dual_numbers():
    rep = connes_maps(truncated_polynomial(2, Q), range(4))
    assert rep.passed
    assert len(rep.nodes) > 0


def test_hc_window_flags():
    A = product_field(2, Q)
    res, report = hc_window("periodic", A, range(3), window=1)
    assert report.stable
    assert all(report.stabilized[n] for n in report.towers)

    B = truncated_polynomial(2, Q)
    _, report_b = hc_window("periodic", B, range(3), window=1)
    assert not report_b.stable

    # a module with no algebra: the cyclic bar of Z/2, whose normalized
    # HH (that of Q[Z/2]) vanishes in positive degrees
    sm = linearize_module(cyclic_bar(cyclic_group(2), 6), Q)
    _, report_c = hc_window("periodic", sm, range(3), 1)
    assert report_c.stable and report_c.hh_vanishing_top == (2, 3)


def test_hc_window_negative_of_field():
    A = truncated_polynomial(1, Q)
    res, report = hc_window("negative", A, range(3), window=2)
    assert [res.betti[n] for n in range(3)] == [1, 0, 0]
    assert report.stable


def _dual_numbers_module():
    return hochschild_module(truncated_polynomial(2, Q), 3)


def test_cyclic_bicomplex_stores_one_map_per_parity_and_row():
    sm = _dual_numbers_module()
    cc = cyclic_bicomplex(sm, 6, pmin=-1, qtop=3)
    for maps in (cc.vert, cc.horiz):
        held = {}
        for (p, q), m in maps.items():
            held.setdefault((p % 2, q), set()).add(id(m))
        assert held and all(len(ids) == 1 for ids in held.values())
    assert cc.vert[(0, 2)] is sm.boundary(2)
    assert cc.vert[(1, 2)] == -sm.bprime(2)
    assert cc.horiz[(1, 2)] is one_minus_t(sm, 2)
    assert cc.horiz[(2, 2)] is norm_map(sm, 2)
    # a later bicomplex of the same module reuses the same objects
    wider = cyclic_bicomplex(sm, 9, qtop=3)
    assert wider.vert[(7, 1)] is cc.vert[(1, 1)]
    assert wider.horiz[(8, 3)] is cc.horiz[(2, 3)]


def _matmul_counter(monkeypatch):
    calls = []
    orig = Matrix.__matmul__

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return orig(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    return calls


def test_bicomplex_verify_cost_does_not_grow_with_the_columns(monkeypatch):
    sm = _dual_numbers_module()
    narrow = cyclic_bicomplex(sm, 3, qtop=3)
    wide = cyclic_bicomplex(sm, 7, qtop=3)
    calls = _matmul_counter(monkeypatch)
    narrow.verify()
    n_narrow = len(calls)
    wide.verify()
    # 2 vertical d^2 products per parity and row q >= 2, (1-t)N and N(1-t)
    # per row, and 2 anticommutators of 2 products per row q >= 1
    assert n_narrow == len(calls) - n_narrow == 2 * 2 + 2 * 4 + 2 * 2 * 3


def test_bicomplex_verify_still_checks_every_column():
    sm = _dual_numbers_module()
    cc = cyclic_bicomplex(sm, 5, qtop=3)
    # 2(1 - t) keeps N(1 - t) = 0 but breaks bN + ... anticommutation
    wrong = one_minus_t(sm, 2).scale(2)
    last_only = dict(cc.horiz)
    last_only[(5, 2)] = wrong
    with pytest.raises(SignCheckFailed, match="anticommutation"):
        Bicomplex(Q, cc.ranks, cc.vert, last_only)
    shared = {(p, q): wrong if (p % 2, q) == (1, 2) else m for (p, q), m in cc.horiz.items()}
    with pytest.raises(SignCheckFailed, match="anticommutation"):
        Bicomplex(Q, cc.ranks, cc.vert, shared)


def test_cached_operators_are_not_modified_by_their_users():
    A = truncated_polynomial(2, Q)
    sm = hochschild_module(A, 4)
    assert connes_maps(sm, range(3)).passed
    hc_window("periodic", sm, range(2), window=1)
    homology(total_complex(cyclic_bicomplex(sm, 3, pmin=-1, qtop=3)), range(3))
    fresh = hochschild_module(A, 4)
    build = {"d": fresh.face, "s": fresh.degeneracy, "t": fresh.t,
             "b": fresh.boundary, "b'": fresh.bprime,
             "-b'": lambda n: -fresh.bprime(n),
             "1-t": lambda n: one_minus_t(fresh, n),
             "N": lambda n: norm_map(fresh, n),
             "bbar": fresh.normalized_boundary,
             "Bbar": lambda n: connes_b_bar(fresh, n)}
    kinds = set()
    for (kind, *idx), held in sm._cache.items():
        kinds.add(kind)
        if kind == "nq":
            new = fresh.normalized_quotient(*idx)
            assert (held.relations, held.proj, held.sect) == (new.relations, new.proj, new.sect)
        else:
            assert held == build[kind](*idx), (kind, idx)
    assert kinds == set(build) | {"nq"}


def test_hc_window_builds_one_hochschild_module(monkeypatch):
    built = []
    orig = hochschild.hochschild_module

    def counted(A, N, *args, **kwargs):
        built.append(N)
        return orig(A, N, *args, **kwargs)

    monkeypatch.setattr(hochschild, "hochschild_module", counted)
    monkeypatch.setattr(cyclic, "hochschild_module", counted)
    _, report = hc_window("periodic", product_field(2, Q), range(2), window=1)
    assert built == [4] and report.stable


@pytest.mark.parametrize("variant", ["negative", "periodic"])
@pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
def test_hc_window_checks_the_module_to_the_highest_degree_it_reads(monkeypatch, variant, window):
    reads, checked, built = [], [], []
    real_check, real_module = cyclic.check_module_identities, cyclic.hochschild_module

    def check(sm, top):
        checked.append(top)
        start = len(reads)
        bad = real_check(sm, top=top)
        del reads[start:]  # what the check itself reads is not counted
        return bad

    def recording(A, N, **kwargs):
        built.append(N)
        sm = real_module(A, N, **kwargs)
        # the highest degree an operator touches: s_j out of degree n reaches n + 1
        for name, above in (("face", 0), ("degeneracy", 1), ("t", 0), ("boundary_on", 0)):
            op = getattr(sm, name)
            setattr(sm, name, lambda n, *args, op=op, above=above:
                    reads.append(n + above) or op(n, *args))
        return sm

    monkeypatch.setattr(cyclic, "check_module_identities", check)
    monkeypatch.setattr(cyclic, "hochschild_module", recording)
    for maxdeg in range(3):
        del reads[:], checked[:], built[:]
        hc_window(variant, product_field(2, Q), range(maxdeg + 1), window)
        top = max(maxdeg + 3, maxdeg + 1 + 2 * (window // 2))
        assert built == checked == [top] and max(reads) == top, (maxdeg, reads)


def test_hc_window_budget_counts_only_the_degrees_read():
    # window 3 reads C̄ up to degree 4 at max degree 1: 2^5 = 32 basis tensors
    res, report = hc_window("periodic", product_field(2, Q), range(2), 3, budget=32)
    assert [res.betti[n] for n in range(2)] == [2, 0] and report.stable


def test_connes_maps_ranks_each_homology_level_map_once(monkeypatch):
    ranked = []
    orig = cyclic.rank

    def counted(m):
        ranked.append(id(m))
        return orig(m)

    monkeypatch.setattr(cyclic, "rank", counted)
    rep = connes_maps(truncated_polynomial(2, Q), range(4))
    assert rep.passed and ranked
    # the maps live in rep, so their ids stay distinct
    assert len(ranked) == len(set(ranked))


def test_hc_of_truncated_cubic_to_degree_six():
    # in characteristic 0, S vanishes on the reduced HC of a positively
    # graded algebra (Goodwillie 1985), so the reduced HH_n = HC_n + HC_{n-1};
    # the reduced HH_n of K[x]/(x^3) is K^2 in every degree
    res = hc(truncated_polynomial(3, Q), range(7))
    assert [res.betti[n] for n in range(7)] == [3, 0, 3, 0, 3, 0, 3]


def test_b_that_does_not_descend_is_refused(monkeypatch):
    sm = hochschild_module(truncated_polynomial(2, Q), 3)
    real = cyclic.connes_b

    def off_the_quotient(sm, n):
        # every cell also goes to x (x) ... (x) x, which is not degenerate
        last = sm.rank(n + 1) - 1
        return real(sm, n) + Matrix.from_canonical_columns(
            {c: {last: Q.one} for c in range(sm.rank(n))}, sm.rank(n + 1), sm.rank(n), Q)

    monkeypatch.setattr(cyclic, "connes_b", off_the_quotient)
    with pytest.raises(RelationFailure, match="does not descend"):
        connes_b_bar(sm, 1)
    with pytest.raises(RelationFailure, match="does not descend"):
        hc(truncated_polynomial(2, Q), range(3))


@pytest.mark.parametrize("make", [
    lambda: hochschild_module(truncated_polynomial(2, Q), 8),
    lambda: linearize_module(cyclic_bar(cyclic_group(2), 8), Q),
], ids=["truncpoly:2", "cyclic bar Z/2"])
def test_cut_grid_has_no_column_right_of_half_the_top(make):
    # so hc's bicomplex holds every column the cut meets: a wider one is
    # the same grid, holding the same maps
    sm = make()
    for top in range(9):
        bic = connes_bicomplex(sm, top)
        assert all(p <= top // 2 for p, _ in bic.ranks)
        for k in (1, 2):
            wide = connes_bicomplex(sm, top, pmax=top // 2 + k)
            assert wide.ranks == bic.ranks
            for maps, wide_maps in ((bic.vert, wide.vert), (bic.horiz, wide.horiz)):
                assert wide_maps.keys() == maps.keys()
                assert all(wide_maps[c] is maps[c] for c in maps)


@pytest.mark.parametrize("call", [
    lambda sm: hc(sm, range(5)),
    lambda sm: connes_maps(sm, range(5)),
    lambda sm: hc_window("negative", sm, range(2), 1),
    lambda sm: cyclic_bicomplex(sm, 2, qtop=5),
], ids=["hc", "connes_maps", "hc_window", "cyclic_bicomplex"])
def test_a_hochschild_module_truncated_below_the_degrees_read_is_refused(call):
    # before building any operator, so none of degrees 3..5, past the
    # tensors its budget counted
    sm, reads = hochschild_module(truncated_polynomial(2, Q), 2), []
    for name in ("face", "degeneracy", "t", "boundary_on"):
        op = getattr(sm, name)
        setattr(sm, name, lambda n, *args, op=op: reads.append(n) or op(n, *args))
    with pytest.raises(TruncationTooSmall, match="above truncation 2"):
        call(sm)
    assert reads == []


@pytest.mark.parametrize("top", [3, 5])
def test_a_cyclic_bar_truncated_below_the_degrees_read_is_refused(top):
    # rather than failing on a bare ValueError from the spec
    sm = linearize_module(cyclic_bar(cyclic_group(2), 2), Q)
    with pytest.raises(TruncationTooSmall, match=f"top {top} above truncation 2"):
        hc(sm, range(top))
    assert cyclic.check_module_identities(sm, 2) == []


def test_hc_and_connes_maps_check_once_and_build_one_bicomplex(monkeypatch):
    # hc_window's one check: test_hc_window_checks_the_module_to_the_highest_degree_it_reads
    checked, built = [], []
    real_check, real_build = cyclic.check_module_identities, cyclic.connes_bicomplex
    monkeypatch.setattr(cyclic, "check_module_identities",
                        lambda sm, top: checked.append(top) or real_check(sm, top=top))
    monkeypatch.setattr(cyclic, "connes_bicomplex",
                        lambda sm, top, **kw: built.append(top) or real_build(sm, top, **kw))
    A = truncated_polynomial(2, Q)
    hc(A, range(4))
    assert checked == [4] and built == [4]
    del checked[:], built[:]
    connes_maps(A, range(3))
    assert checked == [3] and built == [3]


def test_corrupted_b_bar_in_one_column_is_refused():
    sm = hochschild_module(truncated_polynomial(3, Q), 5)
    bic = connes_bicomplex(sm, 4, pmin=-1)
    assert bic.horiz[(1, 3)] is bic.horiz[(0, 2)] is connes_b_bar(sm, 2)
    horiz = dict(bic.horiz)
    horiz[(1, 3)] = connes_b_bar(sm, 2).scale(2)
    with pytest.raises(SignCheckFailed, match="anticommutation"):
        Bicomplex(Q, bic.ranks, bic.vert, horiz)


def test_integral_hc_needs_what_hh_needs():
    # a rebased K^2 whose unit [2, 3] has no +-1 coordinate: the unit is
    # primitive, so both build the normalized complex over Z on a unimodular
    # basis that starts with it; K^2 is separable, so HH = Z^2, 0, 0, 0 and
    # HC = Z^2, 0, Z^2, 0
    A = algebra_from_json({"table": [[[5, 6], [-3, -4]], [[-3, -4], [2, 3]]],
                           "unit": [2, 3]}, Z)
    from_hh, from_hc = hochschild.hh(A, range(4)), hc(A, range(4))
    assert from_hh.betti == {0: 2, 1: 0, 2: 0, 3: 0}
    assert from_hc.betti == {0: 2, 1: 0, 2: 2, 3: 0}
    assert from_hh.torsion == from_hc.torsion == {n: [] for n in range(4)}

# -- the (b, B) route against the cyclic bicomplex CC ----------------------
#
# The oracles below compute on CC = cyclic_bicomplex: I is the inclusion of
# column 0 of the unnormalized Hochschild complex, S the two-column shift,
# and B = connes_b on the column-0 part of a class.

CROSS_PRESETS = ("unit", "truncpoly:2", "truncpoly:3", "productfield:2",
                 "group:cyclic:2", "group:cyclic:3")
FIELDS = {"Q": Q, "F2": Fp(2), "F3": Fp(3)}


def _cc_s_map(sm, tot):
    mats = {}
    for n in range(tot.lo, tot.hi + 1):
        mats[n] = Matrix.from_blocks(tot.rank(n - 2), tot.rank(n), sm.dom, (
            (tot.offsets[(p - 2, q)], tot.offsets[(p, q)], Matrix.identity(sm.rank(q), sm.dom))
            for (p, q) in tot.cells.get(n, []) if p >= 2 and (p - 2, q) in tot.offsets))
    return ChainMap(tot, tot, mats, shift=-2)


def _cc_hc(sm, top):
    tot = total_complex(cyclic_bicomplex(sm, top, qtop=top))
    return tot, homology(tot, range(top))


def _cc_sbi_rows(A, degrees):
    top = max(degrees) + 1
    sm = hochschild_module(A, top)
    dom = sm.dom
    c = sm.chain_complex("unnormalized", top)
    tot, h_hc = _cc_hc(sm, top)
    h_hh = homology(c, range(top))
    inc = {n: Matrix.from_blocks(tot.rank(n), c.rank(n), dom,
                                 [(tot.offsets[(0, n)], 0, Matrix.identity(c.rank(n), dom))])
           for n in range(top + 1)}
    i_map, s_map = ChainMap(c, tot, inc), _cc_s_map(sm, tot)
    i = {n: induced_map(i_map, h_hh, h_hc, n) for n in range(top)}
    s = {n: induced_map(s_map, h_hc, h_hc, n) if n >= 2 else Matrix.zeros(0, h_hc.betti[n], dom)
         for n in range(top)}
    b = {n: class_coordinates(h_hh, n + 1, [
        connes_b(sm, n).apply(r[tot.offsets[(0, n)]:][:sm.rank(n)]) for r in h_hc.reps[n]])
        for n in range(top - 1)}
    b[-1], b[-2] = Matrix.zeros(h_hh.betti[0], 0, dom), Matrix.zeros(0, 0, dom)
    rows = []
    for n in degrees:
        nodes = [("HH", n, b[n - 1], i[n]), ("HC", n, i[n], s[n])]
        if n >= 2:
            nodes.append(("HC", n - 2, s[n], b[n - 2]))
        rows += [{"node": f"{lab}_{deg}", "im_dim": rank(f), "ker_dim": g.cols - rank(g),
                  "exact": exactness_at(f, g)} for lab, deg, f, g in nodes]
    return rows


def _cc_window(variant, A, degrees, window):
    """(homology, towers, stable) of the old CC window: columns -window..0
    or -window..max+2, rows up to max + window + 2."""
    maxdeg = max(degrees)
    qtop = maxdeg + window + 2
    sm = hochschild_module(A, qtop)
    pmax = 0 if variant == "negative" else maxdeg + 2
    res = homology(total_complex(cyclic_bicomplex(sm, pmax, pmin=-window, qtop=qtop)), degrees)
    tot, h = _cc_hc(sm, maxdeg + 3)
    s_map = _cc_s_map(sm, tot)
    towers = {}
    for n in degrees:
        dims, acc = [h.betti[n]], None
        for m in range(n + 2, maxdeg + 3, 2):
            step = induced_map(s_map, h, h, m)
            acc = step if acc is None else acc @ step
            dims.append(rank(acc))
        towers[n] = dims
    half = (maxdeg + 2) // 2
    hh_c = homology(sm.chain_complex("unnormalized", maxdeg + 2), range(half, maxdeg + 2))
    return res, towers, all(hh_c.betti[m] == 0 for m in range(half, maxdeg + 2))


def _groups(res, degrees):
    return [(res.betti[n], res.torsion[n]) for n in degrees]


@pytest.mark.parametrize("dom", [Q, Fp(2), Fp(3), Z], ids=str)
def test_hc_is_the_hc_of_the_cyclic_bicomplex(dom):
    for preset in CROSS_PRESETS:
        A = algebra_from_preset(preset, dom)
        got = hc(A, range(4))
        _, want = _cc_hc(hochschild_module(A, 4), 4)
        assert _groups(got, range(4)) == _groups(want, range(4)), preset


@pytest.mark.parametrize("dom", FIELDS.values(), ids=FIELDS)
def test_sbi_rows_are_those_of_the_cyclic_bicomplex(dom):
    for preset in CROSS_PRESETS:
        A = algebra_from_preset(preset, dom)
        assert connes_maps(A, range(4)).rows() == _cc_sbi_rows(A, range(4)), preset


@pytest.mark.parametrize("dom", FIELDS.values(), ids=FIELDS)
@pytest.mark.parametrize("variant", ["negative", "periodic"])
def test_hc_window_is_the_cc_window(variant, dom):
    for preset in CROSS_PRESETS:
        A = algebra_from_preset(preset, dom)
        for window in range(1, 5 if A.dim <= 2 else 3):  # CC at dim 3, window 4: 4 s
            res, report = hc_window(variant, A, range(2), window)
            want, towers, stable = _cc_window(variant, A, range(2), window)
            assert _groups(res, range(2)) == _groups(want, range(2)), (preset, window)
            assert report.towers == towers and report.stable == stable, (preset, window)
            assert report.stabilized == {n: t[-1] == t[-2] for n, t in towers.items()}


@pytest.mark.parametrize("p", [2, 3])
def test_hc_of_linearized_cyclic_bar_is_the_cc_hc(p):
    for order in (2, 3):
        sm = linearize_module(cyclic_bar(cyclic_group(order), 5), Fp(p))
        _, want = _cc_hc(sm, 4)
        assert _groups(hc(sm, range(4)), range(4)) == _groups(want, range(4)), order
