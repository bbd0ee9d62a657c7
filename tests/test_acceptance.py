"""The acceptance gate: one test per headline criterion.

Each test prints a single pass/fail line on the real stdout so the
verdicts are visible in any pytest run.  Values are cross-checked against
the naive dense oracles in tests/oracle.py wherever a number is asserted.
"""

import functools
import sys
import time
from fractions import Fraction
from itertools import product as iproduct

from cychom.chains import (
    ChainMap,
    aw_map,
    check_module_identities,
    ez_map,
    homology,
    induced_map,
    linearize_module,
    total_complex,
)
from cychom.cyclic import (
    bprime_homotopy_check,
    connes_maps,
    cyclic_bicomplex,
    hc,
    hc_window,
)
from cychom.delta import cyclic_to_periodic, hom_delta, hom_delta_c
from cychom.derham import hkr_epsilon, hkr_pi, omega_power
from cychom.domains import Fp, Q, Z
from cychom.groups import cyclic_group, symmetric_3
from cychom.hochschild import (
    group_algebra,
    hh,
    hochschild_module,
    product_field,
    truncated_polynomial,
)
from cychom.linalg import rank, solve_in_span
from cychom.matrix import Matrix
from cychom.simplicial import (
    check_identities,
    check_map,
    circle,
    circle_to_bz,
    classifying_space,
    cyclic_bar,
    free_cyclic,
    standard_simplex,
)

from .oracle import (
    dense_homology_dim,
    dense_rank,
    snf_diagonal_by_minors,
)
from .test_delta import closure_hom_counts


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                print(f"[criterion {num:2d}] {desc}: FAIL",
                      file=sys.__stdout__, flush=True)
                raise
            print(f"[criterion {num:2d}] {desc}: pass",
                  file=sys.__stdout__, flush=True)
        return wrapper
    return deco


def _normalized_dense(sm, n):
    return sm.chain_complex("normalized").d(n).to_dense_rows()


@criterion(1, "relation suites under 60s")
def test_criterion_01_relation_suites():
    t0 = time.time()
    g2, g3 = cyclic_group(2), cyclic_group(3)
    specs = [
        circle(6),
        classifying_space(g2, 6, central=g2.identity),
        classifying_space(g3, 6, central=1),
        cyclic_bar(g2, 6),
        cyclic_bar(g3, 6),
        free_cyclic(circle(6)),
        free_cyclic(classifying_space(g2, 6)),
    ]
    for spec in specs:
        mode = "cyclic" if spec.has_cyclic else "simplicial"
        rep = check_identities(spec, mode)
        assert rep.passed and not rep.violations, spec.name
    algebras = [
        truncated_polynomial(1, Q),
        truncated_polynomial(2, Q),
        group_algebra(g2, Q),
        group_algebra(g3, Q),
    ]
    for A in algebras:
        sm = hochschild_module(A, 6)
        bad = check_module_identities(sm, top=5)
        assert not bad, (A.name, bad[:3])
    assert time.time() - t0 < 60


@criterion(2, "cyclic category normal forms vs hom-set closure")
def test_criterion_02_delta_c_normal_form():
    homs = closure_hom_counts()
    for m in range(4):
        for n in range(4):
            n_delta = len(hom_delta(m, n))
            assert len(homs[(m, n)]) == (m + 1) * n_delta
            normal = {cyclic_to_periodic(c).vals for c in hom_delta_c(m, n)}
            assert normal == homs[(m, n)]


@criterion(3, "homology values with dense oracle under 120s")
def test_criterion_03_homology_values():
    t0 = time.time()

    def oracle_betti(cc, n, p=None):
        return dense_homology_dim(cc.d(n).to_dense_rows(),
                                  cc.d(n + 1).to_dense_rows(),
                                  cc.rank(n), p)

    # circle: (K, K, 0, 0) over Q and F2
    for dom, p in ((Q, None), (Fp(2), 2)):
        cc = linearize_module(circle(4), dom).chain_complex("normalized")
        res = homology(cc, range(4))
        assert [res.betti[n] for n in range(4)] == [1, 1, 0, 0]
        for n in range(4):
            assert res.betti[n] == oracle_betti(cc, n, p)

    # B(Z/2) over Z: Z, Z/2, 0, Z/2, 0
    g2 = cyclic_group(2)
    cc = linearize_module(classifying_space(g2, 6), Z).chain_complex(
        "normalized")
    res = homology(cc, range(5))
    assert [res.betti[n] for n in range(5)] == [1, 0, 0, 0, 0]
    assert [res.torsion[n] for n in range(5)] == [[], [2], [], [2], []]
    for n in range(5):
        assert res.betti[n] == oracle_betti(cc, n)
        snf = snf_diagonal_by_minors(cc.d(n + 1).to_dense_rows())
        assert [d for d in snf if d > 1] == res.torsion[n]

    # B(Z/2) over F2: Betti 1 in every degree 0..5
    cc = linearize_module(classifying_space(g2, 7), Fp(2)).chain_complex(
        "normalized")
    res = homology(cc, range(6))
    assert all(res.betti[n] == 1 for n in range(6))
    assert all(oracle_betti(cc, n, 2) == 1 for n in range(6))

    # Hochschild values over Q
    hh_values = [
        (truncated_polynomial(1, Q), [1, 0, 0, 0]),
        (truncated_polynomial(2, Q), [2, 1, 1, 1, 1]),
        (product_field(2, Q), [2, 0, 0, 0]),
    ]
    for A, want in hh_values:
        top = len(want) - 1
        res = hh(A, range(top + 1))
        assert [res.betti[n] for n in range(top + 1)] == want, A.name
        cc = hochschild_module(A, top + 1).chain_complex("normalized")
        for n in range(top + 1):
            assert oracle_betti(cc, n) == want[n], (A.name, n)

    # HC(Q) = (1, 0, 1, 0, 1, 0)
    A = truncated_polynomial(1, Q)
    res = hc(A, range(6))
    assert [res.betti[n] for n in range(6)] == [1, 0, 1, 0, 1, 0]
    sm = hochschild_module(A, 7)
    tot = total_complex(cyclic_bicomplex(sm, 7, qtop=7))
    for n in range(6):
        assert res.betti[n] == oracle_betti(tot, n)

    assert time.time() - t0 < 120


@criterion(4, "algebra vs cyclic bar boundary matrices agree")
def test_criterion_04_pipeline_equality():
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
              symmetric_3()]
    for G in groups:
        for dom in (Q, Fp(2)):
            sm_alg = hochschild_module(group_algebra(G, dom), 5)
            sm_spec = linearize_module(cyclic_bar(G, 5), dom)
            for n in range(1, 6):
                assert sm_alg.boundary(n) == sm_spec.boundary(n), \
                    (G.name, str(dom), n)


@criterion(5, "normalized and unnormalized Betti numbers agree")
def test_criterion_05_normalization():
    g2, g3 = cyclic_group(2), cyclic_group(3)
    specs = [
        circle(5),
        classifying_space(g2, 5),
        classifying_space(g3, 5),
        cyclic_bar(g2, 5),
        standard_simplex(2, 5),
        free_cyclic(circle(5)),
    ]
    for spec in specs:
        sm = linearize_module(spec, Q)
        a = homology(sm.chain_complex("normalized"), range(5))
        b = homology(sm.chain_complex("unnormalized"), range(5))
        assert a.betti == b.betti, spec.name
    algebras = [
        truncated_polynomial(1, Q),
        truncated_polynomial(2, Q),
        truncated_polynomial(3, Q),
        product_field(2, Q),
        product_field(3, Q),
        group_algebra(g2, Q),
        group_algebra(g3, Q),
    ]
    for A in algebras:
        sm = hochschild_module(A, 5)
        a = homology(sm.chain_complex("normalized"), range(5))
        b = homology(sm.chain_complex("unnormalized"), range(5))
        assert a.betti == b.betti, A.name


@criterion(6, "AW.EZ = id and EZ.AW = id on homology")
def test_criterion_06_aw_ez():
    top = 5
    S = linearize_module(circle(top), Q)
    H = hochschild_module(truncated_polynomial(2, Q), top)
    for C, D in ((S, S), (S, H)):
        aw = aw_map(C, D, mode="normalized", top=top)
        ez = ez_map(C, D, mode="normalized", top=top)
        for n in range(top + 1):
            assert (aw.mat(n) @ ez.mat(n)) == Matrix.identity(
                aw.target.rank(n), Q)
        round_trip = ChainMap(aw.source, aw.source,
                              {n: ez.mat(n) @ aw.mat(n)
                               for n in range(top + 1)})
        h_src = homology(aw.source, range(5))
        for n in range(5):
            assert induced_map(round_trip, h_src, h_src, n) == \
                Matrix.identity(h_src.betti[n], Q)


@criterion(7, "b' contracting homotopy is an exact matrix identity")
def test_criterion_07_bprime_acyclicity():
    algebras = [
        truncated_polynomial(1, Q),
        truncated_polynomial(2, Q),
        truncated_polynomial(3, Q),
        truncated_polynomial(4, Q),
        product_field(2, Q),
        product_field(3, Q),
        product_field(4, Q),
        group_algebra(cyclic_group(2), Q),
        group_algebra(cyclic_group(3), Q),
        group_algebra(cyclic_group(4), Q),
        group_algebra(symmetric_3(), Q),
    ]
    for A in algebras:
        assert A.dim <= 6
        sm = hochschild_module(A, 6)
        assert bprime_homotopy_check(sm, range(6)), A.name


@criterion(8, "SBI sequence exact at every node")
def test_criterion_08_sbi():
    algebras = [
        truncated_polynomial(1, Q),
        truncated_polynomial(2, Q),
        group_algebra(cyclic_group(2), Q),
    ]
    for A in algebras:
        rep = connes_maps(A, range(5))
        assert rep.passed, (A.name, rep.rows())


def _naive_omega_dim(A, n):
    """Brute-force presentation: Leibniz + alternation, dense rank."""
    d = A.dim
    amb = d ** (n + 1)

    def idx(t):
        out = 0
        for i in t:
            out = out * d + i
        return out

    rels = []
    for k in range(1, n + 1):
        for rest in iproduct(range(d), repeat=n):
            for b in range(d):
                for c in range(d):
                    vec = [Fraction(0)] * amb
                    for m in range(d):
                        coef = A.table[b][c][m]
                        if coef:
                            t = rest[:k] + (m,) + rest[k:]
                            vec[idx(t)] += Fraction(coef)
                    for m, coef in enumerate(A.table[rest[0]][b]):
                        if coef:
                            t = (m,) + rest[1:k] + (c,) + rest[k:]
                            vec[idx(t)] -= Fraction(coef)
                    for m, coef in enumerate(A.table[rest[0]][c]):
                        if coef:
                            t = (m,) + rest[1:k] + (b,) + rest[k:]
                            vec[idx(t)] -= Fraction(coef)
                    if any(vec):
                        rels.append(vec)
    for k in range(1, n):
        for rest in iproduct(range(d), repeat=n - 1):
            for b in range(d):
                for c in range(d):
                    vec = [Fraction(0)] * amb
                    vec[idx(rest[:k] + (b, c) + rest[k:])] += 1
                    vec[idx(rest[:k] + (c, b) + rest[k:])] += 1
                    if any(vec):
                        rels.append(vec)
    return amb - dense_rank(rels)


@criterion(9, "HKR comparison maps")
def test_criterion_09_hkr():
    commutative = [
        truncated_polynomial(1, Q),
        truncated_polynomial(2, Q),
        truncated_polynomial(3, Q),
        product_field(2, Q),
        group_algebra(cyclic_group(2), Q),
    ]
    for A in commutative:
        sm = hochschild_module(A, 4)
        for n in range(4):
            om = omega_power(sm.algebra, n)  # chains are in the module's basis
            eps = hkr_epsilon(sm, n, om)
            pi = hkr_pi(sm, n, om)
            assert (pi @ eps) == Matrix.identity(om.dim, Q), (A.name, n)

    # the product of fields is smooth: eps and pi are inverse isos on
    # homology in degrees <= 2
    A = product_field(2, Q)
    for n in range(3):
        sm = hochschild_module(A, n + 1)
        om = omega_power(sm.algebra, n)
        eps = hkr_epsilon(sm, n, om)
        res = hh(A, [n], mode="unnormalized")
        assert res.betti[n] == om.dim, n
        reps = [list(v) for v in res.reps[n]]
        bound = [list(v) for v in res.boundary_image[n].vectors]
        xs = solve_in_span(reps + bound, [eps.column_vector(c) for c in range(eps.cols)], Q)
        assert xs is not None
        classes = Matrix.from_columns([x[:len(reps)] for x in xs], len(reps), Q)
        assert rank(classes) == om.dim, n

    # presentation oracle for the dual numbers
    B = truncated_polynomial(2, Q)
    assert omega_power(B, 1).dim == 1 == _naive_omega_dim(B, 1)
    assert omega_power(B, 2).dim == 0 == _naive_omega_dim(B, 2)


@criterion(10, "circle to B(Z) is a cyclic map up to degree 6")
def test_criterion_10_circle_to_bz():
    rep = check_map(circle_to_bz(6), "cyclic")
    assert rep.passed and not rep.violations
    assert rep.checked > 0


@criterion(11, "windowed variants: stability flags and periodic Betti")
def test_criterion_11_windowed():
    for A, even in ((truncated_polynomial(1, Q), 1),
                    (product_field(2, Q), 2)):
        res, report = hc_window("periodic", A, range(4), window=2)
        assert [res.betti[n] for n in range(4)] == [even, 0, even, 0], A.name
        assert report.stable, A.name
        assert all(report.stabilized[n] for n in report.towers), A.name

    _, report = hc_window("periodic", truncated_polynomial(2, Q),
                          range(4), window=2)
    assert not report.stable
