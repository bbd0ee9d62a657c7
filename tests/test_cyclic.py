"""Cyclic homology, the SBI sequence and the windowed variants."""

import pytest

from cychom import cyclic, hochschild
from cychom.chains import Bicomplex, homology, total_complex
from cychom.cyclic import (
    bprime_homotopy_check,
    connes_b,
    connes_maps,
    cyclic_bicomplex,
    hc,
    hc_window,
    norm_map,
    one_minus_t,
)
from cychom.chains import linearize_module
from cychom.domains import Q
from cychom.errors import SignCheckFailed, WindowTooSmall
from cychom.groups import cyclic_group
from cychom.hochschild import (
    group_algebra,
    hochschild_module,
    product_field,
    truncated_polynomial,
)
from cychom.matrix import Matrix
from cychom.simplicial import cyclic_bar

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
        hc(A, range(4), columns=2)
    with pytest.raises(WindowTooSmall):
        hc_window("periodic", A, range(2), window=0)
    with pytest.raises(ValueError):
        hc_window("bogus", A, range(2), window=2)


def test_bprime_contraction():
    for A in (truncated_polynomial(2, Q), group_algebra(cyclic_group(3), Q)):
        sm = hochschild_module(A, 5)
        assert bprime_homotopy_check(sm, range(4))


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
    wider = cyclic_bicomplex(sm, 9, qtop=3, check=False)
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
    fresh = hochschild_module(A, 4)
    build = {"d": fresh.face, "s": fresh.degeneracy, "t": fresh.t,
             "b": fresh.boundary, "b'": fresh.bprime,
             "-b'": lambda n: -fresh.bprime(n),
             "1-t": lambda n: one_minus_t(fresh, n),
             "N": lambda n: norm_map(fresh, n)}
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
