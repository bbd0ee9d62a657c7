import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cychom.chains import homology, linearize
from cychom.domains import Fp, Q, Z
from cychom import _modp, linalg
from cychom.errors import DomainNotField, LatticeMismatch
from cychom.groups import cyclic_group
from cychom.linalg import (
    SubspaceBasis,
    integer_kernel_basis,
    invariant_factors,
    kernel_vectors,
    rank,
    rank_kernel_image,
    rref_rows,
    smith_normal_form,
    solve_in_span,
    z_quotient_invariants,
)
from cychom.matrix import Matrix
from cychom.simplicial import classifying_space

from .oracle import dense_rank, dense_rank_modp, dense_rref, in_span, snf_diagonal_by_minors

small_int = st.integers(min_value=-9, max_value=9)


def rand_rows(seed, nr, nc, lo=-9, hi=9):
    rng = random.Random(seed)
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


@given(st.lists(st.lists(small_int, min_size=4, max_size=4), min_size=1, max_size=6))
def test_rank_matches_dense_oracle_q(rows):
    m = Matrix.from_rows(rows, Q, cols=4)
    assert rank(m) == dense_rank(rows)


@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=5),
       st.sampled_from([2, 3, 5, 7]))
def test_rank_matches_dense_oracle_modp(rows, p):
    m = Matrix.from_rows([[v % p for v in r] for r in rows], Fp(p), cols=3)
    assert rank(m) == dense_rank_modp(rows, p)


# the largest p with (p - 1)^2 < 2^63, the largest prime F_p accepts
BIG_P = 3037000493


def test_prime_field_stops_at_int64_safe_bound():
    assert (BIG_P - 1) ** 2 < 2 ** 63 <= (3037000507 - 1) ** 2
    assert Fp(BIG_P).p == BIG_P
    with pytest.raises(ValueError):
        Fp(3037000507)


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(min_value=BIG_P - 9, max_value=BIG_P - 1),
                         min_size=3, max_size=3), min_size=1, max_size=5))
def test_rank_matches_dense_oracle_at_largest_prime(rows):
    m = Matrix.from_rows(rows, Fp(BIG_P), cols=3)
    assert rank(m) == dense_rank_modp(rows, BIG_P)


def _arrow(n, values):
    """An n x n "arrow": a dense first row, a dense first column and a
    diagonal, from 3n - 2 values.  The rows below the first lead at
    column 0 where their entry there is nonzero, and eliminating them
    there fills each of them in."""
    rows = [values[:n]] + [[0] * n for _ in range(n - 1)]
    for i in range(1, n):
        rows[i][0], rows[i][i] = values[n + i - 1], values[2 * n + i - 2]
    return rows


def arrows(top):
    return st.integers(1, top).flatmap(
        lambda n: st.lists(small_int, min_size=3 * n - 2, max_size=3 * n - 2).map(
            lambda values: _arrow(n, values)))


@given(arrows(7), st.sampled_from([Q, Z, Fp(2), Fp(BIG_P)]))
def test_rank_of_a_fill_in_arrow_matches_dense_oracle(rows, dom):
    m = Matrix.from_rows(rows, dom, cols=len(rows))
    assert rank(m) == (dense_rank_modp(rows, dom.p) if dom.p else dense_rank(rows))


@st.composite
def sparse_matrices(draw, top=12):
    """An nr x nc matrix, nr, nc <= top, with its entries at random cells."""
    nr, nc = draw(st.integers(1, top)), draw(st.integers(1, top))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1)),
                                 small_int, max_size=nr * nc))
    return [[cells.get((i, j), 0) for j in range(nc)] for i in range(nr)]


@settings(max_examples=200)
@given(sparse_matrices(), st.sampled_from([Q, Z, Fp(2), Fp(BIG_P)]))
def test_rank_of_a_sparse_matrix_matches_dense_oracle(rows, dom):
    m = Matrix.from_rows(rows, dom, cols=len(rows[0]))
    assert rank(m) == (dense_rank_modp(rows, dom.p) if dom.p else dense_rank(rows))


def test_rank_kernel_image_rejects_z():
    m = Matrix.from_rows([[2, 0], [0, 3]], Z)
    with pytest.raises(DomainNotField):
        rank_kernel_image(m)


@pytest.mark.parametrize("dom", [Q, Fp(5)])
def test_rank_nullity(dom):
    for seed in range(20):
        rows = rand_rows(seed, 5, 7)
        if dom.kind == "Fp":
            rows = [[v % 5 for v in r] for r in rows]
        m = Matrix.from_rows(rows, dom, cols=7)
        r, kern, img = rank_kernel_image(m)
        assert r + kern.dim == 7
        assert img.dim == r
        for v in kern.vectors:
            assert all(x == 0 for x in m.apply(list(v)))


@given(st.lists(st.lists(small_int, min_size=4, max_size=4), min_size=1, max_size=5),
       st.sampled_from([Q, Fp(5)]))
def test_kernel_vectors_are_the_canonical_kernel_basis(rows, dom):
    if dom.kind == "Fp":
        rows = [[v % 5 for v in r] for r in rows]
    m = Matrix.from_rows(rows, dom, cols=4)
    ks = kernel_vectors(m)
    assert tuple(map(tuple, ks)) == SubspaceBasis.from_spanning(ks, 4, dom).vectors
    for v in ks:
        assert all(x == 0 for x in m.apply(v))
    assert len(ks) == 4 - (dense_rank(rows) if dom == Q else dense_rank_modp(rows, 5))


def _count_reductions(monkeypatch, name):
    """Record the number of rows of each call to linalg.<name>."""
    calls = []
    orig = getattr(linalg, name)

    def counted(rows, *args):
        calls.append(len(rows))
        return orig(rows, *args)

    monkeypatch.setattr(linalg, name, counted)
    return calls


def test_rank_kernel_image_is_one_reduction_plus_the_pivot_columns(monkeypatch):
    m = Matrix.from_rows([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]], Q)
    calls = _count_reductions(monkeypatch, "rref")
    r, kern, img = rank_kernel_image(m)
    # the rows of m, then one row per pivot column
    assert calls == [3, 2]
    assert r == img.dim == 2 and kern.dim == 2
    assert img.vectors == SubspaceBasis.from_spanning(
        [m.column_vector(c) for c in range(4)], 3, Q).vectors


def test_solve_in_span_is_one_reduction_for_all_targets(monkeypatch):
    calls = _count_reductions(monkeypatch, "rref_rows")
    xs = solve_in_span([[1, 0, 1], [0, 1, 1]], [[1, 1, 2], [2, 0, 2], [0, 0, 0]], Q)
    assert calls == [3]
    assert xs == [[1, 1], [2, 0], [0, 0]]


def test_kernel_vectors_annihilated():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]], Q)
    ks = kernel_vectors(m)
    assert len(ks) == 2
    for v in ks:
        assert m.apply(v) == [0, 0]
    # empty shapes: no rows leave every unit vector, no columns no vector
    for dom in (Q, Fp(5)):
        assert kernel_vectors(Matrix.zeros(0, 3, dom)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert kernel_vectors(Matrix.zeros(2, 0, dom)) == []


def test_rref_fractions_exact():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    red, pivots = rref_rows(rows, Q)
    assert pivots == [0]
    assert red[0] == [1, Fraction(2, 3)]


WIDTH = 5
unit_row = st.tuples(st.integers(0, WIDTH - 1), st.integers(-9, 9).filter(bool)).map(
    lambda t: [t[1] if j == t[0] else 0 for j in range(WIDTH)])
int_row = st.lists(small_int, min_size=WIDTH, max_size=WIDTH)
fraction_row = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7),
                        min_size=WIDTH, max_size=WIDTH)


@given(st.lists(st.one_of(unit_row, int_row, fraction_row), min_size=1, max_size=8))
def test_rref_rows_q_is_the_rref_of_the_same_span(rows):
    red, pivots = rref_rows(rows, Q)
    assert len(red) == len(pivots) == dense_rank(rows)
    assert pivots == sorted(set(pivots))
    for i, (row, pc) in enumerate(zip(red, pivots)):
        assert len(row) == WIDTH
        assert row[pc] == 1 and not any(row[:pc])
        assert all(other[pc] == 0 for k, other in enumerate(red) if k != i)
    assert all(in_span(rows, row) for row in red)
    assert all(in_span(red, row) for row in rows)


def _fp_rows(p, unreduced=False):
    # zeros keep the rows sparse; entries just below p make products of residues large;
    # unreduced entries (negative, at least p, multiples of p) stand for their residues
    entry = st.one_of(st.just(0), st.integers(1, 4), st.integers(p - 4, p - 1))
    if unreduced:
        entry = st.one_of(entry, st.integers(-p - 4, -1), st.integers(p, p + 4),
                          st.sampled_from([-p, p, 2 * p]))
    row = st.lists(entry, min_size=WIDTH, max_size=WIDTH)
    return st.tuples(st.just(p), st.lists(row, min_size=1, max_size=8))


@settings(max_examples=80)
@given(st.one_of(_fp_rows(5), _fp_rows(BIG_P), _fp_rows(5, unreduced=True),
                 _fp_rows(BIG_P, unreduced=True)))
@example((5, [[-1, 7, 10, 0, -5], [4, -3, 5, 12, 0], [0, 0, 15, -10, 5]]))
@example((BIG_P, [[-1, BIG_P + 2, 0, 2 * BIG_P, 3], [BIG_P - 1, 2, -BIG_P, 0, -3]]))
def test_rref_rows_fp_is_the_rref_of_the_same_span(p_rows):
    p, rows = p_rows
    red, pivots = rref_rows(rows, Fp(p))
    r = dense_rank_modp(rows, p)
    assert len(red) == len(pivots) == r
    assert red == dense_rref(rows, p)
    assert pivots == sorted(set(pivots))
    for i, (row, pc) in enumerate(zip(red, pivots)):
        assert len(row) == WIDTH and all(type(v) is int and 0 <= v < p for v in row)
        assert row[pc] == 1 and not any(row[:pc])
        assert all(other[pc] == 0 for k, other in enumerate(red) if k != i)
    # the same span: the reduced rows add nothing to the rank of the input
    assert dense_rank_modp(rows + red, p) == r


def _led_at(c):
    """Rows zero before column c, nonzero at c, with a dense tail."""
    return st.tuples(small_int.filter(bool), st.lists(small_int, min_size=WIDTH - 1 - c,
                                                      max_size=WIDTH - 1 - c)).map(
        lambda t: [0] * c + [t[0]] + t[1])


def _one_entry_at(c):
    return small_int.filter(bool).map(lambda v: [v if j == c else 0 for j in range(WIDTH)])


# the rows structural pivots treat apart: several rows leading at one
# column (the first is its pivot row; the others are eliminated, and
# those not in the span leave leftovers with new pivots), one-entry rows
# repeated at a column, and one-entry rows after a longer row at theirs
structural_rows = st.integers(0, WIDTH - 1).flatmap(lambda c: st.lists(
    st.one_of(_led_at(c), _one_entry_at(c), _led_at(0), unit_row, int_row),
    min_size=1, max_size=8))


@settings(max_examples=200)
@given(structural_rows, st.sampled_from([Q, Z, Fp(5), Fp(BIG_P)]))
@example([[0, 3, 1, 0, 0], [0, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, -5, 0, 0, 0]], Q)
@example([[1, 1, 0, 0, 0], [1, 0, 1, 0, 0], [2, 0, 0, 1, 0]], Z)
@example([[0, 0, 4, 1, 0], [0, 0, -4, 0, 0], [0, 0, 2, 0, 0]], Fp(5))
def test_rref_with_structural_pivots_is_the_oracle_rref(rows, dom):
    # over Z the span is reduced as over Q
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    red, pivots = linalg.rref(sparse, WIDTH, dom)
    expect = dense_rref(rows, dom.p)
    assert len(red) == len(pivots) == (dense_rank_modp(rows, dom.p) if dom.p else dense_rank(rows))
    assert [[row.get(j, 0) for j in range(WIDTH)] for row in red] == expect
    assert pivots == [row.index(1) for row in expect]
    assert sparse == [{j: v for j, v in enumerate(row) if v} for row in rows]  # not consumed


@pytest.mark.parametrize("dom", [Q, Z, Fp(5)])
def test_rank_reads_the_sparse_columns_without_densifying(monkeypatch, dom):
    def densify(self):
        raise AssertionError("rank densified its matrix")

    monkeypatch.setattr(Matrix, "to_dense_rows", densify)
    rows = [[0, 2, 0, 4], [1, 0, 0, 0], [0, 1, 0, 2], [3, 0, 0, 5]]
    # mod 5 the last row is 3 times the second
    want = dense_rank_modp(rows, dom.p) if dom.p else dense_rank(rows)
    assert rank(Matrix.from_rows(rows, dom)) == want == (2 if dom.p else 3)


def test_integral_routines_read_the_sparse_rows_without_densifying(monkeypatch):
    def densify(self):
        raise AssertionError("an integral routine densified its matrix")

    monkeypatch.setattr(Matrix, "to_dense_rows", densify)
    rows = [[0, 2, 0], [3, -2, -3], [0, -3, 3], [0, 4, 0]]
    m = Matrix.from_rows(rows, Z)
    assert invariant_factors(m) == smith_normal_form(m).d == snf_diagonal_by_minors(rows)
    assert len(integer_kernel_basis(Matrix.from_rows([[2, 4, 6]], Z))) == 2
    # normalized BZ/2 has one cell per degree, and d_2 = 2, d_1 = d_3 = 0
    h = homology(linearize(classifying_space(cyclic_group(2), 4), Z, "normalized"), range(4))
    assert h.torsion[1] == [2] and [len(list(h.reps[n])) for n in range(4)] == [1, 1, 0, 1]


def _count_calls(monkeypatch, module, name):
    """Record the arguments of each call to module.<name>."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_fp_elimination_enters_through_rref_modp_and_runs_the_shared_row_step(monkeypatch):
    entries = _count_calls(monkeypatch, _modp, "rref_modp")
    steps = _count_calls(monkeypatch, linalg, "_subtract")
    F5 = Fp(5)
    rows = [[1, 2, 1], [3, 1, 2]]  # rows sharing every column: a pivot clears one
    assert rank(Matrix.from_rows(rows, F5)) == 2
    assert len(entries) == 1 and steps
    del entries[:], steps[:]
    red, pivots = linalg.rref([{0: 1, 1: 2}, {0: 3, 2: 1}], 3, F5)
    assert (red, pivots) == ([{0: 1, 2: 2}, {1: 1, 2: 4}], [0, 1])
    assert entries == [] and steps  # rref runs the shared echelon, not rref_modp


@pytest.mark.parametrize("dom", [Q, Z, Fp(5)], ids=str)
def test_rref_runs_the_shared_echelon_on_its_rows_on_every_domain(monkeypatch, dom):
    def refused(*args, **kwargs):
        raise AssertionError("rref left the shared echelon")

    monkeypatch.setattr(Matrix, "from_rows", classmethod(refused))
    monkeypatch.setattr(_modp, "rref_modp", refused)
    echelons = _count_calls(monkeypatch, linalg, "_reduced_echelon")
    rows = [{0: 1, 1: 2}, {0: 3, 2: 1}]
    red, pivots = linalg.rref(rows, 3, dom)
    assert pivots == [0, 1] and len(echelons) == 1
    assert linalg.rref([], 3, dom) == ([], []) and len(echelons) == 2


@pytest.mark.parametrize("dom", [Q, Fp(5)])
def test_repeated_one_entry_rows_take_structural_pivots_with_no_row_step(monkeypatch, dom):
    steps = _count_calls(monkeypatch, linalg, "_subtract")
    rows = [{0: 2}, {1: 3}, {0: 4}, {2: 1}, {1: 1}, {0: 1}]
    red, pivots = linalg.rref(rows, 3, dom)
    assert (red, pivots, steps) == ([{0: 1}, {1: 1}, {2: 1}], [0, 1, 2], [])


def test_subspace_canonical_form_is_order_independent():
    a = SubspaceBasis.from_spanning([[1, 2, 0], [0, 1, 1]], 3, Q)
    b = SubspaceBasis.from_spanning([[1, 3, 1], [0, 2, 2], [1, 2, 0]], 3, Q)
    assert a.vectors == b.vectors


def test_subspace_contains():
    s = SubspaceBasis.from_spanning([[1, 1, 0], [0, 0, 1]], 3, Q)
    assert s.contains([2, 2, 5])
    assert not s.contains([1, 0, 0])


@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=3))
def test_solve_in_span_agrees_with_membership_oracle(vecs, targets):
    xs = solve_in_span([list(map(Fraction, v)) for v in vecs],
                       [list(map(Fraction, t)) for t in targets], Q)
    assert (xs is not None) == all(in_span(vecs, t) for t in targets)
    if xs is not None:
        assert len(xs) == len(targets)
        for x, target in zip(xs, targets):
            combo = [sum(x[j] * vecs[j][i] for j in range(len(vecs))) for i in range(3)]
            assert combo == list(map(Fraction, target))


@settings(max_examples=40)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=4))
@example([[0, 2, 0], [3, -2, -3], [0, -3, 3]])  # loops if a pass leaves pivot order
def test_snf_matches_minor_oracle(rows):
    m = Matrix.from_rows(rows, Z, cols=3)
    snf = smith_normal_form(m)
    assert snf.d == snf_diagonal_by_minors(rows)
    for i in range(len(snf.d) - 1):
        assert snf.d[i + 1] % snf.d[i] == 0


def _columns_times(base, picks):
    """(columns, rows) of the matrix whose columns are f times column k of
    base, for each (k, f) of picks."""
    cols = [[f * v for v in base[k % len(base)]] for k, f in picks]
    return len(cols), [list(row) for row in zip(*cols)]


small_shapes = st.integers(0, 5).flatmap(lambda nc: st.tuples(
    st.just(nc), st.lists(st.lists(st.integers(-3, 3), min_size=nc, max_size=nc), max_size=4)))
# many columns that are 2, 3 or 6 times a few columns: wide, of low rank and
# with no unit entry, as the remainders of d_6 of BS_3 and of its cyclic bar
wide_low_rank = st.builds(
    _columns_times,
    st.integers(1, 4).flatmap(lambda nr: st.lists(
        st.lists(small_int, min_size=nr, max_size=nr), min_size=1, max_size=2)),
    st.lists(st.tuples(st.integers(0, 1), st.sampled_from([2, 3, 6])), min_size=1, max_size=10))


@settings(max_examples=120)
@given(st.one_of(small_shapes, arrows(5).map(lambda rows: (len(rows), rows)), wide_low_rank),
       st.sampled_from([1, 2]))
@example((3, [[1, 2, 0], [1, 0, 2]]), 1)  # the unit pivot fills in a 2: factors 1, 2
@example((3, [[2, 3, 0], [1, 2, 5]]), 1)  # row 0 gets its unit only after row 1 pivots
@example((3, [[2, 3, 0], [0, 3, 4], [0, 1, 1]]), 1)  # row 1 as well, from row 2: 1, 1, 2
@example((3, [[0, 0, 0], [0, 0, 0]]), 1)
@example((0, [[], []]), 1)
@example((4, []), 1)
def test_invariant_factors_match_minor_oracle(shape, scale):
    # scale 2 leaves no unit entry, so everything goes to the Smith form
    nc, rows = shape
    rows = [[scale * v for v in row] for row in rows]
    assert invariant_factors(Matrix.from_rows(rows, Z, cols=nc)) == snf_diagonal_by_minors(rows)


def test_unit_phase_pivots_a_row_that_fill_in_gives_a_unit(monkeypatch):
    # rows 0 and 1 have no +-1 entry when popped; row 2 pivots at column 2,
    # the one fewest rows use, and turns row 1 into -e1, which pivots in turn
    snf = _count_calls(monkeypatch, linalg, "smith_normal_form")
    rows = [[2, 3, 0], [0, 3, 4], [0, 1, 1]]
    assert invariant_factors(Matrix.from_rows(rows, Z)) == [1, 1, 2]
    assert [m.sparse_rows() for m, in snf] == [[{0: 2}]]


@settings(max_examples=120)
@given(st.one_of(small_shapes, arrows(5).map(lambda rows: (len(rows), rows)), wide_low_rank))
@example((3, [[0, 2, 0], [3, -2, -3], [0, -3, 3]]))
def test_integer_kernel_basis_is_a_saturated_basis_of_the_kernel_lattice(shape):
    nc, rows = shape
    basis = integer_kernel_basis(Matrix.from_rows(rows, Z, cols=nc))
    assert all(len(v) == nc for v in basis)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows for v in basis)
    assert len(basis) == nc - dense_rank(rows)
    # all invariant factors 1: the basis spans a saturated lattice, so with
    # nullity many vectors that m kills, all of the kernel lattice
    assert snf_diagonal_by_minors(basis) == [1] * len(basis)


def test_integer_kernel_basis_saturated():
    # kernel of (2 4) is spanned by (2,-1), not (4,-2)
    m = Matrix.from_rows([[2, 4]], Z)
    basis = integer_kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert 2 * v[0] + 4 * v[1] == 0
    from math import gcd
    assert gcd(v[0], v[1]) == 1


def test_z_quotient_klein_bottle_style():
    # Z^2 / <(2,0)> = Z/2 + Z
    basis = [[1, 0], [0, 1]]
    boundary = Matrix.from_columns([[2, 0]], 2, Z)
    betti, torsion = z_quotient_invariants(basis, boundary)
    assert betti == 1 and torsion == [2]


def test_z_quotient_free():
    basis = [[1, 0, 0], [0, 1, 0]]
    boundary = Matrix.zeros(3, 0, Z)
    betti, torsion = z_quotient_invariants(basis, boundary)
    assert betti == 2 and torsion == []


def test_z_quotient_boundary_outside_kernel_lattice_is_internal_failure():
    with pytest.raises(LatticeMismatch):
        z_quotient_invariants([[1, 0]], Matrix.from_columns([[0, 1]], 2, Z))
