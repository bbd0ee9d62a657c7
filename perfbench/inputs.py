"""Seeded inputs for the benchmark workloads.

Every input is written as a JSON file that the command line reads with
``--input``; the program never sees the seed.  Seed 0 writes the preset
bases unchanged.  A seed s > 0 rewrites each algebra in a random
unimodular integer basis (a new structure table and a new unit) and
relabels each group table by a random permutation.  Both are
isomorphisms, so every homology value the benchmark checks is the same
for every seed.
"""

from __future__ import annotations

import json
import os
import random


def truncpoly(k):
    """K[x]/(x^k) in the basis 1, x, ..., x^(k-1)."""
    table = [[[int(i + j == m) for m in range(k)] for j in range(k)]
             for i in range(k)]
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, k)]
    return {"table": table, "unit": [1] + [0] * (k - 1), "labels": labels}


def productfield(m):
    """K^m in the basis of its primitive idempotents."""
    table = [[[int(i == j == k) for k in range(m)] for j in range(m)]
             for i in range(m)]
    return {"table": table, "unit": [1] * m,
            "labels": [f"p{i}" for i in range(m)]}


def cyclic_group(n):
    return {"table": [[(a + b) % n for b in range(n)] for a in range(n)]}


def _unimodular(rng, n):
    """A random integer basis change P of determinant +-1 and its inverse.

    P = U * S, where U is the fixed unit upper triangular matrix with
    U[i][j] = (-1)^(j-i) and S is a random signed permutation.  Old
    coordinates go to new ones by P^-1 = S^-1 * V, V = I + superdiagonal.
    Only S depends on the seed: a fully random P changes the size of the
    structure constants and the support of the unit, and with them the
    work of exact elimination, by 2-13x between seeds, while a signed
    permutation only reorders and re-signs a fixed presentation.  V maps
    a unit of all ones to a vector with no zero entry, so a separable
    algebra keeps dense degeneracy relations.
    """
    u = [[(-1) ** (j - i) if j >= i else 0 for j in range(n)] for i in range(n)]
    v = [[int(j == i or j == i + 1) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    # S sends new basis vector a to sign[a] * (U-basis vector perm[a])
    p = [[u[i][perm[a]] * signs[a] for a in range(n)] for i in range(n)]
    p_inv = [[v[perm[a]][k] * signs[a] for k in range(n)] for a in range(n)]
    return p, p_inv


def rebase_algebra(alg, rng):
    """The same algebra in the basis given by the columns of a random P."""
    table, unit = alg["table"], alg["unit"]
    n = len(table)
    p, p_inv = _unimodular(rng, n)
    # f_a f_b = sum_ij P_ia P_jb e_i e_j, and e_k = sum_c (P^-1)_ck f_c
    new = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            old = [0] * n
            for i in range(n):
                if p[i][a]:
                    for j in range(n):
                        if p[j][b]:
                            f = p[i][a] * p[j][b]
                            for k in range(n):
                                old[k] += f * table[i][j][k]
            new[a][b] = [sum(p_inv[c][k] * old[k] for k in range(n))
                         for c in range(n)]
    new_unit = [sum(p_inv[c][k] * unit[k] for k in range(n)) for c in range(n)]
    return {"table": new, "unit": new_unit,
            "labels": [f"f{i}" for i in range(n)]}


def relabel_group(grp, rng):
    """The same group with element g renamed sigma(g) for a random sigma."""
    table = grp["table"]
    n = len(table)
    sigma = list(range(n))
    rng.shuffle(sigma)
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return {"table": new}


# name -> (kind, preset builder); the names appear in workload commands
INPUTS = {
    "truncpoly2": ("algebra", lambda: truncpoly(2)),
    "productfield2": ("algebra", lambda: productfield(2)),
    "cyclic3": ("group", lambda: cyclic_group(3)),
}


def make_input(name, seed):
    """The JSON object for one named input under one workload seed."""
    kind, build = INPUTS[name]
    obj = build()
    if seed == 0:
        return obj
    rng = random.Random(f"{name}:{seed}")
    return rebase_algebra(obj, rng) if kind == "algebra" else relabel_group(obj, rng)


def write_inputs(names, seed, directory):
    """Write each named input to <directory>/<name>.json; return the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in names:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as f:
            json.dump(make_input(name, seed), f)
        paths[name] = path
    return paths
