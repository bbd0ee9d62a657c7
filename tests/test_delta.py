import functools
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cychom.delta import (
    CyclicMorphism,
    MonotoneMap,
    compose_cyclic,
    compose_monotone,
    cyclic_factorize,
    cyclic_from_monotone,
    cyclic_normal_form,
    cyclic_presentation,
    cyclic_to_periodic,
    delta,
    factorize_epi_mono,
    hom_delta,
    hom_delta_c,
    identity_map,
    sigma,
    simplicial_identities,
    tau,
    word_to_map,
)
from cychom.errors import NonComposableWord, ObjectMismatch

# ---------------------------------------------------------------------------
# independent oracle: hom-set closure under composition with generators
# ---------------------------------------------------------------------------

MAXDIM = 4


def _gen_periodic():
    """Generators of the cyclic category as raw value tuples, plus ids."""
    gens = {}  # (m, n) -> set of value tuples for F(0..m), F(0) in 0..n

    def add(m, n, vals):
        gens.setdefault((m, n), set()).add(tuple(vals))

    for n in range(MAXDIM + 1):
        add(n, n, range(n + 1))
        if n >= 1:
            for i in range(n + 1):
                add(n - 1, n, [v if v < i else v + 1 for v in range(n)])
        for j in range(n + 1):
            add(n + 1, n, [v if v <= j else v - 1 for v in range(n + 2)])
        # rotation, with F(0) shifted into range
        add(n, n, [i - 1 + (n + 1) for i in range(n + 1)] if n >= 0 else [])
    return gens


def _compose_vals(fvals, n_f, gvals, m_g):
    # (f . g)(i) = f(g(i)) via periodic extension of f
    size, period = len(fvals), n_f + 1
    raw = [fvals[x % size] + x // size * period for x in gvals]
    shift = (raw[0] // period) * period
    return tuple(v - shift for v in raw)


@functools.cache
def closure_hom_counts():
    """Hom sets (m, n) -> set of value tuples, closed under composition.

    Semi-naive: each round composes only the morphisms new in the last
    round with all the others, on either side.  Cached for the session,
    so callers must treat the result as read-only.
    """
    homs = {k: set(v) for k, v in _gen_periodic().items()}
    new = {k: set(v) for k, v in homs.items()}

    def compose_into(fresh, g_sets, f_sets):
        for (gm, gn), gset in g_sets.items():
            for (fm, fn), fset in f_sets.items():
                if fm != gn or fn > MAXDIM:
                    continue
                known = homs.get((gm, fn), ())
                for g in gset:
                    for f in fset:
                        c = _compose_vals(f, fn, g, gm)
                        if c not in known:
                            fresh.setdefault((gm, fn), set()).add(c)

    while new:
        fresh = {}
        compose_into(fresh, new, homs)
        compose_into(fresh, homs, new)
        for k, v in fresh.items():
            homs.setdefault(k, set()).update(v)
        new = fresh
    return homs


def test_hom_set_closure_matches_normal_forms():
    homs = closure_hom_counts()
    for m in range(4):
        for n in range(4):
            nd = len(hom_delta(m, n))
            assert len(homs[(m, n)]) == (m + 1) * nd
            normal = {cyclic_to_periodic(c).vals for c in hom_delta_c(m, n)}
            assert normal == homs[(m, n)]


def test_hom_delta_count():
    # |Hom([m],[n])| = C(m+n+1, m+1)
    from math import comb
    for m in range(4):
        for n in range(4):
            assert len(hom_delta(m, n)) == comb(m + n + 1, m + 1)


# ---------------------------------------------------------------------------
# simplex category basics
# ---------------------------------------------------------------------------

def test_compose_examples():
    assert compose_monotone(sigma(0, 0), delta(1, 0)).is_identity()
    f = compose_monotone(delta(2, 1), delta(1, 0))
    assert f.images == (2,)
    g = MonotoneMap(2, 3, (0, 1, 3))
    assert compose_monotone(identity_map(3), g) == g
    assert compose_monotone(g, identity_map(2)) == g


def test_compose_object_mismatch():
    with pytest.raises(ObjectMismatch):
        compose_monotone(delta(2, 0), delta(3, 0))


def test_simplicial_relations_on_generators():
    # delta_j delta_i = delta_i delta_{j-1} for i < j
    for n in range(1, 5):
        for j in range(n + 2):
            for i in range(j):
                lhs = compose_monotone(delta(n + 1, j), delta(n, i))
                rhs = compose_monotone(delta(n + 1, i), delta(n, j - 1))
                assert lhs == rhs
    # sigma_j sigma_i = sigma_i sigma_{j+1} for i <= j
    for n in range(4):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = compose_monotone(sigma(n, j), sigma(n + 1, i))
                rhs = compose_monotone(sigma(n, i), sigma(n + 1, j + 1))
                assert lhs == rhs


def test_factorize_generators():
    assert factorize_epi_mono(delta(2, 2)) == ([], [2])
    assert factorize_epi_mono(sigma(0, 0)) == ([0], [])
    assert factorize_epi_mono(MonotoneMap(1, 1, (0, 0))) == ([0], [1])


def test_factorize_round_trip_exhaustive():
    for m in range(4):
        for n in range(4):
            for f in hom_delta(m, n):
                sw, dw = factorize_epi_mono(f)
                assert all(a > b for a, b in zip(sw, sw[1:]))
                assert all(a < b for a, b in zip(dw, dw[1:]))
                assert word_to_map(sw, dw, m, n) == f


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_factorize_respects_composition(m, k, n, data):
    f = data.draw(st.sampled_from(hom_delta(k, n)))
    g = data.draw(st.sampled_from(hom_delta(m, k)))
    h = compose_monotone(f, g)
    sw, dw = factorize_epi_mono(h)
    assert word_to_map(sw, dw, m, n) == h


# ---------------------------------------------------------------------------
# cyclic category
# ---------------------------------------------------------------------------

def test_worked_normal_form_examples():
    nf = cyclic_normal_form([("tau", 1), ("tau", 1)])
    assert nf.phi.is_identity() and nf.rot == 0
    nf = cyclic_normal_form([("tau", 2), ("delta", 0, 2)])
    assert nf == CyclicMorphism(delta(2, 2), 0)


def test_tau_rewrite_rules():
    for n in range(1, 5):
        for i in range(1, n + 1):
            assert cyclic_normal_form([("tau", n), ("delta", i, n)]) == \
                cyclic_normal_form([("delta", i - 1, n), ("tau", n - 1)])
        assert cyclic_normal_form([("tau", n), ("delta", 0, n)]) == \
            cyclic_normal_form([("delta", n, n)])
    for n in range(4):
        for i in range(1, n + 1):
            assert cyclic_normal_form([("tau", n), ("sigma", i, n)]) == \
                cyclic_normal_form([("sigma", i - 1, n), ("tau", n + 1)])
        assert cyclic_normal_form([("tau", n), ("sigma", 0, n)]) == \
            cyclic_normal_form([("sigma", n, n), ("tau", n + 1), ("tau", n + 1)])


def test_tau_has_order_n_plus_one():
    for n in range(6):
        nf = cyclic_normal_form([("tau", n)] * (n + 1))
        assert nf.phi.is_identity() and nf.rot == 0
        if n >= 1:
            nf = cyclic_normal_form([("tau", n)] * n)
            assert nf.rot != 0 or not nf.phi.is_identity()


def test_normal_form_idempotent():
    for m in range(3):
        for n in range(3):
            for c in hom_delta_c(m, n):
                assert cyclic_factorize(cyclic_to_periodic(c)) == c


def test_noncomposable_word():
    with pytest.raises(NonComposableWord):
        cyclic_normal_form([("delta", 0, 2), ("tau", 3)])
    with pytest.raises(NonComposableWord):
        cyclic_normal_form([])


@given(st.data())
def test_cyclic_composition_associative(data):
    dims = st.integers(0, 3)
    a, b, c, d = (data.draw(dims) for _ in range(4))
    f = cyclic_to_periodic(data.draw(st.sampled_from(hom_delta_c(c, d))))
    g = cyclic_to_periodic(data.draw(st.sampled_from(hom_delta_c(b, c))))
    h = cyclic_to_periodic(data.draw(st.sampled_from(hom_delta_c(a, b))))
    assert compose_cyclic(compose_cyclic(f, g), h) == \
        compose_cyclic(f, compose_cyclic(g, h))


def test_delta_embeds_in_cyclic():
    for m in range(3):
        for n in range(3):
            for f in hom_delta(m, n):
                nf = cyclic_factorize(cyclic_from_monotone(f))
                assert nf == CyclicMorphism(f, 0)


def _assert_hold_in_the_cyclic_category(identities):
    # operator words act contravariantly: reversed, each is a morphism word
    for label, n, lhs, rhs in identities:
        forms = [cyclic_normal_form(tuple(reversed(w))) if w
                 else CyclicMorphism(identity_map(n), 0) for w in (lhs, rhs)]
        assert forms[0] == forms[1], (label, n)
        assert forms[0].target == n, (label, n)


@pytest.mark.parametrize("top", range(6))
def test_simplicial_identities_hold_in_the_cyclic_category(top):
    _assert_hold_in_the_cyclic_category(simplicial_identities(top, True))


# ---------------------------------------------------------------------------
# the presentation of the cyclic category by d0, s0 and t
# ---------------------------------------------------------------------------

def _t_normal(word):
    """Merge adjacent powers of t, each taken mod its order, and drop t^0.
    Tokens: ("t", m, power) on degree m; ("delta", 0, m), ("sigma", 0, m)."""
    out = []
    for tok in word:
        if tok[0] == "t":
            if out and out[-1][0] == "t":
                tok = ("t", tok[1], out.pop()[2] + tok[2])
            tok = ("t", tok[1], tok[2] % (tok[1] + 1))
            if not tok[2]:
                continue
        out.append(tok)
    return tuple(out)


def _rewritten(word):
    """The word in d0, s0 and t: d_i out of degree m becomes
    t_(m-1)^i d0 t_m^-i and s_i out of degree m becomes t_(m+1)^i s0 t_m^-i,
    which the rotation relations d_i t = t d_(i-1), s_i t = t s_(i-1) give."""
    out = []
    for tok in word:
        if tok[0] == "tau":
            out.append(("t", tok[1], 1))
        else:
            kind, i, m = tok
            out += [("t", m - 1 if kind == "delta" else m + 1, i), (kind, 0, m), ("t", m, -i)]
    return _t_normal(out)


def _outer(tok):
    """The degree that the operator token lands in."""
    return tok[1] if tok[0] == "tau" else tok[2] + (1 if tok[0] == "sigma" else -1)


def _lead(word):
    return word[0][2] if word and word[0][0] == "t" else 0


def _trail(word):
    return word[-1][2] if word and word[-1][0] == "t" else 0


def _conjugate(p, word, q, outer, n):
    """t^p word t^q, with t^p on degree outer and t^q on degree n."""
    return _t_normal((("t", outer, p),) + word + (("t", n, q),))


@pytest.mark.parametrize("top", range(9))
def test_cyclic_presentation_derives_every_identity(top):
    # every rotation relation and t^(n+1) = id is in the presentation, so
    # the rewriting of _rewritten is derived from it; then each instance of
    # the table, rewritten, is t^p X t^q for a rewritten presentation
    # instance X, which therefore implies it
    table = list(simplicial_identities(top, True))
    presentation = list(cyclic_presentation(top))
    assert set(presentation) <= set(table)
    assert all(rel in presentation for rel in table if rel[2][-1][0] == "tau")
    _assert_hold_in_the_cyclic_category(presentation)
    by_degrees = {}
    for _, n, lhs, rhs in presentation:
        by_degrees.setdefault((n, _outer(lhs[0])), []).append((_rewritten(lhs), _rewritten(rhs)))
    for label, n, lhs, rhs in table:
        outer = _outer(lhs[0])
        left, right = _rewritten(lhs), _rewritten(rhs)
        for x_left, x_right in by_degrees[(n, outer)]:
            p = _lead(left) - _lead(x_left)
            q = _trail(left) - _trail(_conjugate(p, x_left, 0, outer, n))
            if (_conjugate(p, x_left, q, outer, n) == left
                    and _conjugate(p, x_right, q, outer, n) == right):
                break
        else:
            raise AssertionError(f"{label} deg {n} is no t-conjugate of a presentation instance")


def test_cyclic_presentation_is_linear_per_degree():
    # per degree n: t^(n+1) = id; n + 1 rotations d_i t (n >= 1); n
    # relations d0 dk (n >= 2); below top, n + 1 rotations s_i t and the
    # n + 2 relations d0 sk and d1 s0; two below, n + 1 relations s0 sk
    counts = [len(list(cyclic_presentation(top))) for top in (4, 8)]
    assert counts == [58, 196]
    assert [len(list(simplicial_identities(top, True))) for top in (4, 8)] == [98, 532]
