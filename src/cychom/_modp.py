"""Row reduction over F_p on int64 arrays.

This is the one genuinely hot numeric loop in the package (ranks of
large boundary matrices over small prime fields).  Elimination
multiplies two residues in [0, p), so every product fits in an int64
exactly when (p - 1)^2 < 2^63; ``domains`` rejects larger p.
"""

from __future__ import annotations

import numpy as np


def rref_modp(a: np.ndarray, p: int):
    """Reduced row echelon form mod p of an integer array (input is not modified).

    Returns (matrix, pivot column list).
    """
    a = np.asarray(a, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots
