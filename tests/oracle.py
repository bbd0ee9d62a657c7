"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive: dense Gaussian elimination over
Fraction, determinantal-divisor Smith forms, exhaustive searches.  None of
it shares code with the package's optimized paths.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd


def dense_rref(rows, p=None):
    """The nonzero rows of the reduced row echelon form, by plain
    Gauss-Jordan elimination over Q (Fractions), or over F_p (residues)
    when p is given."""
    norm = (lambda x: int(x) % p) if p else Fraction
    a = [[norm(x) for x in row] for row in rows]
    if not a or not a[0]:
        return []
    nr, nc = len(a), len(a[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p) if p else 1 / a[r][c]
        a[r] = [norm(x * inv) for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [norm(x - f * y) for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return a[:r]


def dense_rank(rows):
    """Rank by plain fractional Gaussian elimination."""
    return len(dense_rref(rows))


def dense_rank_modp(rows, p):
    return len(dense_rref(rows, p))


def _det(sub):
    n = len(sub)
    if n == 0:
        return 1
    if n == 1:
        return sub[0][0]
    total = 0
    for j in range(n):
        if sub[0][j]:
            minor = [r[:j] + r[j + 1:] for r in sub[1:]]
            total += (-1) ** j * sub[0][j] * _det(minor)
    return total


def snf_diagonal_by_minors(rows):
    """Smith diagonal via determinantal divisors d_k = gcd(k-minors)."""
    if not rows or not rows[0]:
        return []
    nr, nc = len(rows), len(rows[0])
    divisors = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                g = gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        divisors.append(abs(g))
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


def in_span(vectors, target):
    """Membership test over Q by rank comparison."""
    base = [list(map(Fraction, v)) for v in vectors]
    return dense_rank(base) == dense_rank(base + [list(map(Fraction, target))])


def dense_homology_dim(d_out_rows, d_in_rows, ncols_out, p=None):
    """dim ker(d_out) - rank(d_in) for consecutive boundary matrices.

    d_out maps degree n to n-1 (rows = dim_{n-1}, cols = dim_n = ncols_out);
    d_in maps degree n+1 to n.  Empty row lists mean zero maps.
    """
    rk = (lambda rows: dense_rank_modp(rows, p)) if p else dense_rank
    r_out = rk(d_out_rows) if d_out_rows and d_out_rows[0] else 0
    r_in = rk(d_in_rows) if d_in_rows and d_in_rows[0] else 0
    return ncols_out - r_out - r_in


def dense_matmul(a, b, ncols):
    """The product of dense row lists a (m x k) and b (k x ncols)."""
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(ncols)]
            for row in a]


def dense_kron(a, b):
    """The Kronecker product of dense row lists, row (i, k) at i * len(b) + k."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def hochschild_operators(table, unit, top, p=None):
    """Every operator of the Hochschild module of a structure-constant table,
    built slot by slot from basis tuples, as sparse columns {row: value}.

    Keys: ("d", n, i) faces and ("t", n) signed rotations for n <= top,
    ("s", n, j) degeneracies and ("h", n) the unit inserted in front for
    n < top.  Tuples are ordered slot-major (first slot most significant);
    values are reduced mod p when p is given.
    """
    dim = len(table)

    def index(slots):
        out = 0
        for s in slots:
            out = out * dim + s
        return out

    def build(n, images):
        cols = []
        for x in product(range(dim), repeat=n + 1):
            col = {}
            for y, c in images(x):
                r = index(y)
                col[r] = col.get(r, 0) + c
            if p:
                col = {r: v % p for r, v in col.items()}
            cols.append({r: v for r, v in col.items() if v})
        return cols

    def mul(a, b):
        return [(k, c) for k, c in enumerate(table[a][b]) if c]

    units = [(k, c) for k, c in enumerate(unit) if c]
    ops = {}
    for n in range(top + 1):
        for i in range(n):
            ops[("d", n, i)] = build(n, lambda x, i=i: [
                (x[:i] + (k,) + x[i + 2:], c) for k, c in mul(x[i], x[i + 1])])
        if n:
            ops[("d", n, n)] = build(n, lambda x, n=n: [
                ((k,) + x[1:n], c) for k, c in mul(x[n], x[0])])
        ops[("t", n)] = build(n, lambda x, n=n: [(x[n:] + x[:n], (-1) ** n)])
        if n < top:
            for j in range(n + 1):
                ops[("s", n, j)] = build(n, lambda x, j=j: [
                    (x[:j + 1] + (k,) + x[j + 1:], c) for k, c in units])
            ops[("h", n)] = build(n, lambda x: [((k,) + x, c) for k, c in units])
    return ops


def rebased_table(table, basis, p=None):
    """The structure constants of the same algebra on the basis whose
    vector k has the coordinates basis[k]: each product f_i f_j is
    multiplied out densely in the old basis and solved for by the inverse
    of the basis matrix, from Gauss-Jordan elimination of [P | I] over Q
    (Fractions), or over F_p when p is given."""
    dim = len(table)
    norm = (lambda x: int(x) % p) if p else Fraction
    aug = [[basis[k][i] for k in range(dim)] + [int(i == j) for j in range(dim)]
           for i in range(dim)]
    inv = [row[dim:] for row in dense_rref(aug, p)]

    def times(u, v):
        return [sum(u[a] * v[b] * table[a][b][c] for a in range(dim) for b in range(dim))
                for c in range(dim)]

    return [[[norm(sum(inv[k][m] * w[m] for m in range(dim))) for k in range(dim)]
             for w in (times(basis[i], basis[j]) for j in range(dim))]
            for i in range(dim)]


# sign lists [(i, s)] of face sums, the sum of s d_i, in degree n >= 1: one
# face, the boundary b, b' (b without the last face) and an arbitrary sum
FACE_SUMS = {
    "d_1": lambda n: ((1, 1),),
    "b": lambda n: tuple((i, (-1) ** i) for i in range(n + 1)),
    "b'": lambda n: tuple((i, (-1) ** i) for i in range(n)),
    "d_2 - d_0": lambda n: ((min(2, n), 1), (0, -1)),
}


def face_sum(ops, n, signs, p=None):
    """The sparse columns of the sum of s d_i over the pairs (i, s) of
    signs, added up from the face columns ops[("d", n, i)]."""
    cols = []
    for c in range(len(ops[("d", n, 0)])):
        col = {}
        for i, s in signs:
            for r, v in ops[("d", n, i)][c].items():
                col[r] = col.get(r, 0) + s * v
        cols.append({r: w for r, v in col.items() if (w := v % p if p else v)})
    return cols


def first_nonassociative_triple(table, p=None):
    """The first basis triple (i, j, k), in lexicographic order, with
    (e_i e_j) e_k != e_i (e_j e_k), by dense products of coefficient
    vectors over a structure-constant table (values mod p when p is
    given); None when every triple associates."""
    dim = len(table)

    def mul(u, v):
        out = [sum(u[a] * v[b] * table[a][b][c] for a in range(dim) for b in range(dim))
               for c in range(dim)]
        return [x % p for x in out] if p else out

    basis = [[int(a == i) for a in range(dim)] for i in range(dim)]
    for i, j, k in product(range(dim), repeat=3):
        e_i, e_j, e_k = basis[i], basis[j], basis[k]
        if mul(mul(e_i, e_j), e_k) != mul(e_i, mul(e_j, e_k)):
            return i, j, k
    return None


def argparse_cli_parser():
    """The cychom command line as an ``argparse`` parser: the parser the
    CLI built before it read its arguments from one table.  A parse
    that the CLI accepts gives the same attributes here, and one that it
    rejects exits 2 here (``test_cli``)."""
    import argparse

    DEFAULT_BUDGET = 2 ** 20  # hochschild.DEFAULT_BUDGET
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", help="built-in input name")
    common.add_argument("--input", help="JSON input file")
    common.add_argument("--group", help="group preset, e.g. cyclic:2 or symmetric:3")
    common.add_argument("--domain", default="q",
                        help="scalar domain: q, zp:<p> (prime p <= 3037000493), or z")
    common.add_argument("--max-degree", type=int, required=True)
    norm = common.add_mutually_exclusive_group()
    norm.add_argument("--normalized", dest="mode", action="store_const",
                      const="normalized", default="normalized")
    norm.add_argument("--unnormalized", dest="mode", action="store_const",
                      const="unnormalized")
    common.add_argument("--json", dest="as_json", action="store_true")
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    top = argparse.ArgumentParser(prog="cychom")
    sub = top.add_subparsers(dest="command", required=True)
    sub.add_parser("homology", parents=[common], help="homology of a simplicial set")
    sub.add_parser("hh", parents=[common], help="Hochschild homology of an algebra")
    p_hc = sub.add_parser("hc", parents=[common], help="cyclic homology and its variants")
    p_hc.add_argument("--variant", choices=("cyclic", "negative", "periodic"),
                      default="cyclic")
    p_hc.add_argument("--window", type=int, default=2,
                      help="the CC columns -WINDOW..0, for --variant negative|periodic"
                           " only (--variant cyclic ignores it)")
    p_v = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_v.add_argument("suite", choices=("relations", "sbi", "hkr", "aw-ez",
                                       "adjunction", "exercise-bz"))
    return top
