"""Every sparse Matrix operation against dense list arithmetic.

Each result is compared entry by entry with the same operation on dense
row lists (products and Kronecker products from tests/oracle.py), and is
checked to keep the storage invariants: no stored zero, no empty column,
over F_p every value a residue in [0, p).  No operation may change its
operands, since results may share column dicts with them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cychom.domains import Fp, Q, Z
from cychom.errors import DomainMismatch
from cychom.matrix import Matrix

from .oracle import dense_kron, dense_matmul

BIG = Fp(3037000493)   # the largest prime the F_p domain takes
DOMAINS = [Q, Z, Fp(5), BIG]


def values(dom):
    """Scalars of dom, zero half the time so that matrices are sparse."""
    if dom == Q:
        nonzero = st.one_of(st.integers(-3, 3),
                            st.fractions(max_denominator=4).map(lambda x: x.limit_denominator(4)))
    elif dom == Z:
        nonzero = st.integers(-3, 3)
    elif dom == BIG:
        p = dom.p
        nonzero = st.one_of(st.integers(p - 4, p - 1), st.integers(1, 3))
    else:
        nonzero = st.integers(1, dom.p - 1)
    return st.one_of(st.just(0), nonzero)


def dense(dom, rows, cols):
    return st.lists(st.lists(values(dom), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def reduce(dom, rows):
    return [[dom.coerce(v) for v in row] for row in rows]


def check_invariants(m):
    for c, col in m._cols.items():
        assert 0 <= c < m.cols
        assert col, f"empty column {c}"
        for r, v in col.items():
            assert 0 <= r < m.rows
            assert v != 0, f"stored zero at {(r, c)}"
            if m.dom.p:
                assert 0 <= v < m.dom.p


def as_matrix(dom, rows, cols):
    return Matrix.from_rows(rows, dom, cols=cols)


def agrees(m, rows):
    check_invariants(m)
    assert m.to_dense_rows() == rows


dims = st.integers(0, 4)


@st.composite
def one_matrix(draw):
    dom = draw(st.sampled_from(DOMAINS))
    r, c = draw(dims), draw(dims)
    return dom, r, c, draw(dense(dom, r, c))


@st.composite
def same_shape(draw, count=2):
    dom = draw(st.sampled_from(DOMAINS))
    r, c = draw(dims), draw(dims)
    return dom, r, c, [draw(dense(dom, r, c)) for _ in range(count)]


@settings(max_examples=150)
@given(same_shape())
def test_add_sub_neg(case):
    dom, r, c, (a, b) = case
    ma, mb = as_matrix(dom, a, c), as_matrix(dom, b, c)
    agrees(ma + mb, reduce(dom, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]))
    agrees(ma - mb, reduce(dom, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]))
    agrees(-ma, reduce(dom, [[-x for x in row] for row in a]))
    assert (ma - ma).is_zero()
    assert (ma + (-ma)).is_zero()


@settings(max_examples=100)
@given(one_matrix(), st.integers(-3, 3))
def test_scale(case, k):
    dom, r, c, a = case
    agrees(as_matrix(dom, a, c).scale(k), reduce(dom, [[x * k for x in row] for row in a]))


@settings(max_examples=150)
@given(st.data())
def test_matmul(data):
    dom = data.draw(st.sampled_from(DOMAINS))
    m, k, n = data.draw(dims), data.draw(dims), data.draw(dims)
    a, b = data.draw(dense(dom, m, k)), data.draw(dense(dom, k, n))
    agrees(as_matrix(dom, a, k) @ as_matrix(dom, b, n),
           reduce(dom, dense_matmul(reduce(dom, a), reduce(dom, b), n)))


@settings(max_examples=100)
@given(st.data())
def test_matmul_by_columns_with_one_nonzero(data):
    # face, degeneracy and rotation matrices: every column one signed unit
    dom = data.draw(st.sampled_from(DOMAINS))
    m, k, n = data.draw(dims), data.draw(st.integers(1, 4)), data.draw(dims)
    a = data.draw(dense(dom, m, k))
    picks = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.sampled_from([1, -1, 2])),
                               min_size=n, max_size=n))
    b = [[v if i == row else 0 for i, v in picks] for row in range(k)]
    agrees(as_matrix(dom, a, k) @ as_matrix(dom, b, n),
           reduce(dom, dense_matmul(reduce(dom, a), reduce(dom, b), n)))


@settings(max_examples=100)
@given(st.data())
def test_kron(data):
    dom = data.draw(st.sampled_from(DOMAINS))
    r1, c1, r2, c2 = (data.draw(dims) for _ in range(4))
    a, b = data.draw(dense(dom, r1, c1)), data.draw(dense(dom, r2, c2))
    out = as_matrix(dom, a, c1).kron(as_matrix(dom, b, c2))
    assert out.shape == (r1 * r2, c1 * c2)
    full = reduce(dom, dense_kron(reduce(dom, a), reduce(dom, b)))
    agrees(out, full)
    # any columns of the product, in any order and repeated
    cols = data.draw(st.lists(st.integers(0, c1 * c2 - 1), max_size=6)) if c1 * c2 else []
    picked = as_matrix(dom, a, c1).kron(as_matrix(dom, b, c2), cols)
    assert picked.shape == (r1 * r2, len(cols))
    agrees(picked, [[row[c] for c in cols] for row in full])


@settings(max_examples=100)
@given(one_matrix(), st.data())
def test_columns(case, data):
    dom, r, c, a = case
    cols = data.draw(st.lists(st.integers(0, c - 1), max_size=6)) if c else []
    m = as_matrix(dom, a, c)
    agrees(m.columns(cols), [[row[k] for k in cols] for row in reduce(dom, a)])
    assert m.to_dense_rows() == reduce(dom, a)  # self is left as it was


@settings(max_examples=100)
@given(same_shape(count=4), st.lists(st.sampled_from([1, -1, 2]), min_size=4, max_size=4))
def test_signed_sum(case, signs):
    dom, r, c, mats = case
    got = Matrix.signed_sum(r, c, dom, ((s, as_matrix(dom, m, c)) for s, m in zip(signs, mats)))
    want = [[sum(s * m[i][j] for s, m in zip(signs, mats)) for j in range(c)]
            for i in range(r)]
    agrees(got, reduce(dom, want))
    agrees(Matrix.signed_sum(r, c, dom, []), [[0] * c for _ in range(r)])
    m = as_matrix(dom, mats[0], c)
    assert Matrix.signed_sum(r, c, dom, [(1, m), (-1, m)]).is_zero()


@settings(max_examples=100)
@given(st.data())
def test_from_blocks(data):
    dom = data.draw(st.sampled_from(DOMAINS))
    r, c = data.draw(dims), data.draw(dims)
    br, bc = data.draw(st.integers(0, r)), data.draw(st.integers(0, c))
    row0, col0 = data.draw(st.integers(0, r - br)), data.draw(st.integers(0, c - bc))
    target, block = data.draw(dense(dom, r, c)), data.draw(dense(dom, br, bc))
    blocks = [(0, 0, as_matrix(dom, target, c)), (row0, col0, as_matrix(dom, block, bc))]
    want = [row[:] for row in target]
    for i, row in enumerate(block):
        for j, v in enumerate(row):
            want[row0 + i][col0 + j] += v
    agrees(Matrix.from_blocks(r, c, dom, iter(blocks)), reduce(dom, want))
    # the negated block cancels it, emptying what it filled
    blocks.append((row0, col0, -as_matrix(dom, block, bc)))
    agrees(Matrix.from_blocks(r, c, dom, blocks), reduce(dom, target))


def stored(m):
    """A copy of m's column storage, to compare with after an operation."""
    return {c: dict(col) for c, col in m._cols.items()}


@settings(max_examples=100)
@given(st.data())
def test_no_operation_changes_its_operands(data):
    dom = data.draw(st.sampled_from(DOMAINS))
    r, k, n = data.draw(dims), data.draw(st.integers(1, 4)), data.draw(dims)
    rows_a = data.draw(dense(dom, r, k))
    a, b = as_matrix(dom, rows_a, k), as_matrix(dom, data.draw(dense(dom, r, k)), k)
    e = as_matrix(dom, data.draw(dense(dom, k, n)), n)
    # columns with one nonzero, most of them 1: @ may share them with a
    picks = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.sampled_from([1, 1, -1, 2])),
                               min_size=n, max_size=n))
    u = as_matrix(dom, [[v if i == row else 0 for i, v in picks] for row in range(k)], n)
    cols = data.draw(st.lists(st.integers(0, k - 1), max_size=6))
    kcols = data.draw(st.lists(st.integers(0, k * k - 1), max_size=6))
    vec = [dom.coerce(v) for v in data.draw(st.lists(values(dom), min_size=k, max_size=k))]
    operands = (a, b, e, u)
    before = [stored(m) for m in operands]
    ops = {"+": lambda: a + b, "-": lambda: a - b, "neg": lambda: -a,
           "scale": lambda: a.scale(3), "@": lambda: a @ e, "@ one nonzero": lambda: a @ u,
           "kron": lambda: a.kron(b), "kron cols": lambda: a.kron(b, kcols),
           "columns": lambda: a.columns(cols),
           "signed_sum": lambda: Matrix.signed_sum(r, k, dom, [(1, a), (-1, b), (1, a)]),
           "from_blocks": lambda: Matrix.from_blocks(r, k, dom,
                                                     [(0, 0, a), (0, 0, b), (0, 0, a)]),
           "apply": lambda: a.apply(vec)}
    for name, op in ops.items():
        op()
        assert [stored(m) for m in operands] == before, name
    # sums that start from a result sharing a's columns accumulate elsewhere
    for s in (a.columns(cols), a @ u):
        want = reduce(dom, [[2 * v for v in row] for row in s.to_dense_rows()])
        agrees(Matrix.signed_sum(s.rows, s.cols, dom, [(1, s), (1, s)]), want)
        agrees(Matrix.from_blocks(s.rows, s.cols, dom, [(0, 0, s), (0, 0, s)]), want)
        agrees(a, reduce(dom, rows_a))


@settings(max_examples=100)
@given(one_matrix(), st.data())
def test_apply(case, data):
    dom, r, c, a = case
    vec = data.draw(st.lists(values(dom), min_size=c, max_size=c))
    vec = [dom.coerce(v) for v in vec]
    want = dense_matmul(reduce(dom, a), [[v] for v in vec], 1)
    assert as_matrix(dom, a, c).apply(vec) == [dom.coerce(row[0]) for row in want]


@settings(max_examples=100)
@given(same_shape())
def test_eq(case):
    dom, r, c, (a, b) = case
    ma, mb = as_matrix(dom, a, c), as_matrix(dom, b, c)
    assert (ma == mb) == (reduce(dom, a) == reduce(dom, b))
    assert ma == Matrix.from_rows(ma.to_dense_rows(), dom, cols=c)
    assert ma != Matrix.from_rows(a, Fp(7), cols=c)


def test_big_prime_residues_stay_exact():
    # (p - 1)^2 + (p - 1)^2 overflows int64; residues are Python ints
    p = BIG.p
    m = Matrix.from_rows([[p - 1, p - 1]], BIG)
    col = Matrix.from_rows([[p - 1], [p - 1]], BIG)
    assert (m @ col).to_dense_rows() == [[2]]
    assert (m.kron(m) + m.kron(m)).to_dense_rows() == [[2, 2, 2, 2]]


def test_domain_mismatch():
    a, b = Matrix.identity(2, Q), Matrix.identity(2, Fp(5))
    for op in (lambda: a + b, lambda: a - b, lambda: a @ b, lambda: a.kron(b),
               lambda: Matrix.signed_sum(2, 2, Q, [(1, a), (-1, b)]),
               lambda: Matrix.from_blocks(2, 2, Q, [(0, 0, b)])):
        with pytest.raises(DomainMismatch):
            op()


def test_shape_mismatch():
    a, b = Matrix.zeros(2, 3, Q), Matrix.zeros(3, 2, Q)
    for op in (lambda: a + b, lambda: a - b, lambda: a @ a,
               lambda: Matrix.signed_sum(2, 3, Q, [(1, a), (1, b)])):
        with pytest.raises(ValueError, match="shape"):
            op()


@pytest.mark.parametrize("row0, col0", [(-1, 0), (0, -1), (2, 0), (0, 3), (3, 4)])
def test_add_block_outside_the_target(row0, col0):
    with pytest.raises(IndexError):
        Matrix.from_blocks(3, 4, Q, [(row0, col0, Matrix.identity(2, Q))])


def test_from_rows_sparse_needs_cols():
    for rows in ([{0: 1, 1: 1}], [{3: 1}], [[1, 0], {1: 2}]):
        with pytest.raises(ValueError, match="cols"):
            Matrix.from_rows(rows, Q)
    assert Matrix.from_rows([{3: Fraction(1, 2)}], Q, cols=5).to_dense_rows() == \
        [[0, 0, 0, Fraction(1, 2), 0]]


def test_from_rows_and_from_columns_check_each_index_and_value():
    for build in (lambda: Matrix.from_rows([{5: 1}], Q, cols=5),
                  lambda: Matrix.from_rows([{-1: 1}], Q, cols=5),
                  lambda: Matrix.from_rows([[1, 2, 3]], Q, cols=2),
                  lambda: Matrix.from_columns([{2: 1}], 2, Q),
                  lambda: Matrix.from_columns([[0, 1, 1]], 2, Q)):
        with pytest.raises(IndexError):
            build()
    with pytest.raises(TypeError):
        Matrix.from_columns([[0.5]], 1, Q)
    # residues are reduced, and an entry that vanishes mod p is not stored
    m = Matrix.from_columns([{0: 5, 1: 7}, {1: 10}], 2, Fp(5))
    agrees(m, [[0, 0], [2, 0]])
    assert m == Matrix.from_rows([{}, {0: 7, 1: 10}], Fp(5), cols=2)
