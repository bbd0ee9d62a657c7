"""Kaehler differentials, the de Rham complex and the HKR comparison maps."""

import json
import os

import pytest

from cychom.derham import (
    derham,
    derham_d,
    hkr_epsilon,
    hkr_pi,
    kaehler_one,
    module_action,
    omega_power,
    wedge,
)
from cychom.domains import Fp, Q
from cychom.errors import BasisMismatch, NotCommutative, PositiveCharacteristic
from cychom.groups import cyclic_group, symmetric_3
from cychom.hochschild import (
    FiniteAlgebra,
    algebra_from_json,
    group_algebra,
    hochschild_module,
    product_field,
    truncated_polynomial,
)
from cychom.matrix import Matrix

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def square_zero_plane(dom):
    """Q[x,y]/(x^2, y^2) with basis 1, x, y, xy."""
    exps = [(0, 0), (1, 0), (0, 1), (1, 1)]
    n = len(exps)
    table = []
    for (a, b) in exps:
        row = []
        for (c, d) in exps:
            e = (a + c, b + d)
            cell = [dom.one if e == f and max(e) <= 1 else dom.zero
                    for f in exps]
            row.append(cell)
        table.append(row)
    return FiniteAlgebra(dom, table, labels=["1", "x", "y", "xy"],
                         name="Q[x,y]/(x2,y2)")


@pytest.mark.parametrize("algebra,dims", [
    (truncated_polynomial(2, Q), [2, 1, 0]),
    (truncated_polynomial(3, Q), [3, 2, 0]),
    (product_field(2, Q), [2, 0, 0]),
    (truncated_polynomial(1, Q), [1, 0, 0]),
])
def test_omega_dimensions(algebra, dims):
    assert [omega_power(algebra, n).dim for n in range(3)] == dims


def test_leibniz_holds_in_the_quotient():
    # d(xy) = x dy + y dx as classes in Omega^1 of Q[x,y]/(x2,y2)
    A = square_zero_plane(Q)
    omega = kaehler_one(A)
    d = A.dim

    def amb(a0, a1):
        v = [Q.zero] * (d * d)
        v[a0 * d + a1] = Q.one
        return v

    one, x, y, xy = 0, 1, 2, 3
    lhs = omega.proj.apply(amb(one, xy))          # 1 d(xy)
    rhs_vec = [a + b for a, b in
               zip(omega.proj.apply(amb(x, y)),   # x dy
                   omega.proj.apply(amb(y, x)))]  # y dx
    assert lhs == rhs_vec


def test_squares_die_in_characteristic_zero():
    # d(x^2) = 0 forces x dx = 0 in Omega^1 of Q[x]/(x^2)
    A = truncated_polynomial(2, Q)
    omega = kaehler_one(A)
    x_vec = [Q.zero, Q.one]
    act = module_action(omega, x_vec)
    dx = omega.proj.apply([Q.zero, Q.zero, Q.zero, Q.one])[:]
    # project 1 (x) x = "1 dx", then multiply by x
    one_dx = omega.proj.apply([Q.zero, Q.one, Q.zero, Q.zero])
    assert any(c != 0 for c in one_dx)
    assert all(c == 0 for c in act.apply(one_dx))
    assert dx is not None  # silence linters; dx computed for coverage


def test_omega_rejects_noncommutative_algebra():
    A = group_algebra(symmetric_3(), Q)
    with pytest.raises(NotCommutative):
        omega_power(A, 1)
    with pytest.raises(NotCommutative):
        derham(A, range(2))


@pytest.mark.parametrize("algebra,betti", [
    (truncated_polynomial(1, Q), [1, 0]),
    (truncated_polynomial(2, Q), [1, 0]),
    (truncated_polynomial(3, Q), [1, 0]),
    (product_field(2, Q), [2, 0]),
])
def test_derham_cohomology(algebra, betti):
    res = derham(algebra, range(2))
    assert [res.betti[n] for n in range(2)] == betti


def test_derham_d_squares_to_zero_on_plane():
    A = square_zero_plane(Q)
    res = derham(A, range(3))
    for n in range(res.top - 1):
        assert (res.d[n + 1] @ res.d[n]).is_zero()


@pytest.mark.parametrize("algebra", [
    truncated_polynomial(2, Q),
    truncated_polynomial(3, Q),
    product_field(2, Q),
])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_hkr_section_of_projection(algebra, n):
    sm = hochschild_module(algebra, n + 1)
    omega = omega_power(sm.algebra, n)  # chains are in the module's basis
    eps = hkr_epsilon(sm, n, omega)
    pi = hkr_pi(sm, n, omega)
    assert pi @ eps == Matrix.identity(omega.dim, algebra.dom)


def test_hkr_maps_need_omega_on_the_module_basis():
    # K[x]/(x^2) in the basis 1 + x, x: the module is built on a basis that
    # starts with the unit, so Omega built from A is in another basis
    with open(os.path.join(DATA, "truncpoly2_unit_1_m1.json")) as f:
        A = algebra_from_json(json.load(f), Q)
    sm = hochschild_module(A, 3)
    assert sm.algebra is not A
    for n in range(3):
        with pytest.raises(BasisMismatch):
            hkr_epsilon(sm, n, omega_power(A, n))
        with pytest.raises(BasisMismatch):
            hkr_pi(sm, n, omega_power(A, n))
        omega = omega_power(sm.algebra, n)
        assert hkr_pi(sm, n, omega) @ hkr_epsilon(sm, n, omega) == Matrix.identity(omega.dim, Q)


def test_hkr_section_on_plane_degree_2():
    A = square_zero_plane(Q)
    omega = omega_power(A, 2)
    assert omega.dim > 0
    sm = hochschild_module(A, 3)
    eps = hkr_epsilon(sm, 2, omega)
    pi = hkr_pi(sm, 2, omega)
    assert pi @ eps == Matrix.identity(omega.dim, Q)


def test_hkr_epsilon_needs_characteristic_zero():
    A = truncated_polynomial(2, Fp(2))
    with pytest.raises(PositiveCharacteristic):
        hkr_epsilon(hochschild_module(A, 3), 2, omega_power(A, 2))


def test_wedge_is_antisymmetric_on_one_forms():
    A = square_zero_plane(Q)
    om1 = omega_power(A, 1)
    om2 = omega_power(A, 2)
    d = A.dim

    def one_form(a0, a1):
        v = [Q.zero] * (d * d)
        v[a0 * d + a1] = Q.one
        return om1.proj.apply(v)

    dx = one_form(0, 1)
    dy = one_form(0, 2)
    uv = wedge(om1, om1, dx, dy, om2)
    vu = wedge(om1, om1, dy, dx, om2)
    assert any(c != 0 for c in uv)
    assert uv == [Q.neg(c) for c in vu]
    # wedging a form with itself dies
    assert all(c == 0 for c in wedge(om1, om1, dx, dx, om2))


def test_wedge_unit_acts_as_identity():
    A = truncated_polynomial(3, Q)
    om0 = omega_power(A, 0)
    om1 = omega_power(A, 1)
    unit0 = om0.proj.apply(list(A.unit))
    for j in range(om1.dim):
        basis = [Q.one if i == j else Q.zero for i in range(om1.dim)]
        assert wedge(om0, om1, unit0, basis, om1) == basis


def test_differential_matches_action_leibniz():
    # d is a derivation for the module action: d(a . w)? checked via
    # d on Omega^0, where d(ab) = a db + b da must hold.
    A = truncated_polynomial(3, Q)
    om0 = omega_power(A, 0)
    om1 = omega_power(A, 1)
    d0 = derham_d(om0, om1)
    for i in range(A.dim):
        for j in range(A.dim):
            a = [Q.one if k == i else Q.zero for k in range(A.dim)]
            b = [Q.one if k == j else Q.zero for k in range(A.dim)]
            ab = A.mul(a, b)
            lhs = d0.apply(om0.proj.apply(ab))
            da = d0.apply(om0.proj.apply(a))
            db = d0.apply(om0.proj.apply(b))
            a_db = module_action(om1, a).apply(db)
            b_da = module_action(om1, b).apply(da)
            rhs = [u + v for u, v in zip(a_db, b_da)]
            assert lhs == rhs
