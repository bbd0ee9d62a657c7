"""Row reduction over F_p on sparse rows {col: residue}.

Elimination follows ``linalg._echelon``: rows are read from the matrix's
column dicts and taken sparsest first, and each row is reduced at its
leading column until it leads at a column with no pivot yet.  Over F_p a
new pivot row is scaled to lead with 1, so the row step is
``(w - a*v) % p``.  Residues are Python ints, exact for every p;
``domains`` bounds p only to keep its trial-division primality test fast.
"""

from __future__ import annotations


def _subtract(row: dict, piv: dict, c: int, p: int) -> dict:
    """row - row[c] * piv mod p for a pivot row leading with 1 at c; row is consumed."""
    a = row[c]
    for k, v in piv.items():
        w = (row.get(k, 0) - a * v) % p
        if w:
            row[k] = w
        else:
            del row[k]
    return row


def rref_modp(m, p: int, reduce: bool = True):
    """Reduced row echelon form mod p of a Matrix over F_p (m is not modified).

    Returns (the nonzero rows as sparse dicts {col: residue}, in order of
    their pivots, and the pivot column list).  With reduce=False the rows
    are not back-substituted, which is all a rank needs.
    """
    ech = {}
    for row in sorted(m.sparse_rows(), key=len):
        while row:
            c = min(row)
            piv = ech.get(c)
            if piv is None:
                inv = pow(row[c], -1, p)
                ech[c] = {k: v * inv % p for k, v in row.items()}
                break
            row = _subtract(row, piv, c, p)
    pivots = sorted(ech)
    if reduce:  # back-substitute from the last pivot up, as linalg.rref does over Q
        for pc in reversed(pivots):
            row = ech[pc]
            for c in [c for c in row if c != pc and c in ech]:
                _subtract(row, ech[c], c, p)
    return [ech[pc] for pc in pivots], pivots
