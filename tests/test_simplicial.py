import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cychom.delta import hom_delta
from cychom.errors import CyclicModeOnNonCyclic, NotCyclic
from cychom.groups import cyclic_group, symmetric_3
from cychom.simplicial import (
    SimplicialMapSpec,
    SimplicialSetSpec,
    check_identities,
    check_map,
    circle,
    circle_to_bz,
    classifying_space,
    classifying_space_z,
    cyclic_bar,
    evaluation_map,
    free_cyclic,
    standard_simplex,
    unit_section,
)


def test_circle_structure():
    s = circle(6)
    assert s.elements(2) == [0, 1, 2]
    # both faces of the 1-cell hit the basepoint
    assert s.face(1, 0, 1) == 0 and s.face(1, 1, 1) == 0
    # code 1 in degree 2 is s_1(tau), code 2 is s_0(tau)
    assert s.degeneracy(1, 1, 1) == 1
    assert s.degeneracy(1, 0, 1) == 2
    assert check_identities(s, "cyclic").passed


def test_circle_t_is_cyclic_shift():
    s = circle(5)
    for n in range(6):
        for x in range(n + 1):
            assert s.t(n, x) == (x + 1) % (n + 1)


def test_classifying_space_structure():
    g2 = cyclic_group(2)
    b = classifying_space(g2, 5)
    for n in range(6):
        assert len(b.elements(n)) == 2 ** n
    assert b.face(2, 1, (1, 1)) == (0,)  # d_1(g,h) = (gh)
    assert check_identities(b, "simplicial").passed
    with pytest.raises(CyclicModeOnNonCyclic):
        check_identities(b, "cyclic")


def test_classifying_space_cyclic_with_central():
    b = classifying_space(cyclic_group(3), 5, central=1)
    assert check_identities(b, "cyclic").passed
    # t(g1,..,gn) leads with z*(g1...gn)^{-1}
    assert b.t(2, (1, 1)) == ((1 - 2) % 3, 1)


def test_cyclic_bar_structure():
    g3 = cyclic_group(3)
    c = cyclic_bar(g3, 4)
    for n in range(5):
        assert len(c.elements(n)) == 3 ** (n + 1)
    assert c.face(2, 2, (1, 2, 1)) == (2, 2)  # (g2*g0, g1)
    assert c.t(1, (1, 2)) == (2, 1)
    assert c.t(1, c.t(1, (1, 2))) == (1, 2)
    assert check_identities(c, "cyclic").passed


def test_relation_suite_catches_corruption():
    base = circle(4)

    def bad_face(n, i, x):
        if n == 2 and i in (0, 1):
            return base.face(n, 1 - i, x)
        return base.face(n, i, x)

    corrupt = SimplicialSetSpec(4, base.elements, bad_face,
                                base.degeneracy, base._t, name="corrupt")
    rep = check_identities(corrupt, "simplicial")
    assert not rep.passed
    assert any("d0 d" in v or "d1 d" in v or "s" in v for v in rep.violations)


def test_free_cyclic_on_point():
    pt = SimplicialSetSpec(5, lambda n: ["*"], lambda n, i, x: "*",
                           lambda n, j, x: "*", name="pt")
    f = free_cyclic(pt)
    s = circle(5)
    assert check_identities(f, "cyclic").passed
    for n in range(6):
        assert len(f.elements(n)) == n + 1
    # (g, *) -> g is an isomorphism onto the circle
    iso = SimplicialMapSpec(f, s, lambda n, x: x[0])
    assert check_map(iso, "cyclic").passed


def test_free_cyclic_cardinality():
    f = free_cyclic(circle(3))
    assert len(f.elements(1)) == 4


def test_free_cyclic_suite_on_builtin():
    f = free_cyclic(classifying_space(cyclic_group(2), 4))
    assert check_identities(f, "cyclic").passed


def _random_subcomplex(k, N, seed_simplices):
    """Sub-simplicial set of the standard k-simplex generated by seeds."""
    amb = standard_simplex(k, N)
    pool = {n: set() for n in range(N + 1)}
    frontier = []
    for n, x in seed_simplices:
        if x not in pool[n]:
            pool[n].add(x)
            frontier.append((n, x))
    while frontier:
        n, x = frontier.pop()
        images = []
        if n >= 1:
            images += [(n - 1, amb.face(n, i, x)) for i in range(n + 1)]
        if n + 1 <= N:
            images += [(n + 1, amb.degeneracy(n, j, x)) for j in range(n + 1)]
        for m, y in images:
            if y not in pool[m]:
                pool[m].add(y)
                frontier.append((m, y))
    if not pool[0]:
        pool[0].add((0,))
    return SimplicialSetSpec(N, lambda n: sorted(pool[n]), amp_face(amb),
                             amp_deg(amb), name="sub")


def amp_face(amb):
    return lambda n, i, x: amb.face(n, i, x)


def amp_deg(amb):
    return lambda n, j, x: amb.degeneracy(n, j, x)


@settings(max_examples=20)
@given(st.integers(1, 2), st.data())
def test_free_cyclic_property_on_random_subcomplexes(k, data):
    N = 3
    cells = [(n, f.images) for n in range(N + 1) for f in hom_delta(n, k)]
    seeds = data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4))
    y = _random_subcomplex(k, N, seeds)
    assert check_identities(y, "simplicial").passed
    assert check_identities(free_cyclic(y), "cyclic").passed


def test_evaluation_map():
    s = circle(5)
    ev = evaluation_map(s)
    assert check_map(ev, "cyclic").passed
    # ev(g, x) = g + x in Z/(n+1)
    for n in range(6):
        for g in range(n + 1):
            for x in range(n + 1):
                assert ev(n, (g, x)) == (g + x) % (n + 1)
    # ev composed with the unit section is the identity
    un = unit_section(s)
    for n in range(6):
        for x in s.elements(n):
            assert ev(n, un(n, x)) == x


def test_evaluation_naturality_on_cyclic_bar():
    ev = evaluation_map(cyclic_bar(cyclic_group(2), 4))
    assert check_map(ev, "cyclic").passed


def test_evaluation_requires_cyclic():
    with pytest.raises(NotCyclic):
        evaluation_map(classifying_space(cyclic_group(2), 3))


def test_circle_to_bz():
    m = circle_to_bz(6)
    assert m(1, 1) == (1,)
    assert m(1, 0) == (0,)
    assert m(2, 1) == (1, 0)
    assert m(2, 2) == (0, 1)
    assert check_map(m, "cyclic").passed


def test_bz_lazy_spec_is_cyclic():
    bz = classifying_space_z(4)
    assert check_identities(bz, "cyclic").passed
    assert bz.t(2, (3, 4)) == (1 - 7, 3)


def test_bz_holds_the_images_of_the_circle_cells_closed_under_every_operator():
    N = 8
    S, bz, m = circle(N), classifying_space_z(N), circle_to_bz(N)
    cells = [bz.elements(n) for n in range(N + 1)]
    for n in range(N + 1):
        assert cells[n] == sorted(m(n, x) for x in S.elements(n))
        for x in cells[n]:
            assert bz.t(n, x) in cells[n]
            assert all(bz.face(n, i, x) in cells[n - 1] for i in range(n + 1) if n)
            assert all(bz.degeneracy(n, j, x) in cells[n + 1] for j in range(n + 1) if n < N)


def test_relation_suite_runtime_corpus():
    # the full corpus named by the acceptance gate, at reduced depth here
    specs = [
        (circle(6), "cyclic"),
        (classifying_space(cyclic_group(2), 4), "simplicial"),
        (classifying_space(cyclic_group(3), 4, central=1), "cyclic"),
        (cyclic_bar(cyclic_group(2), 4), "cyclic"),
        (cyclic_bar(cyclic_group(3), 3), "cyclic"),
        (free_cyclic(circle(4)), "cyclic"),
        (free_cyclic(classifying_space(cyclic_group(2), 3)), "cyclic"),
    ]
    for spec, mode in specs:
        assert check_identities(spec, mode).passed
