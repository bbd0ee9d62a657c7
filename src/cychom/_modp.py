"""The F_p entry to ``linalg``: ``rref`` and ``rank`` over F_p run through
``rref_modp``, a name of its own because the benchmark's tracer times F_p
elimination by wrapping it."""

from . import linalg


def rref_modp(m, p: int, reduce: bool = True):
    """(rows {col: residue} leading with 1, pivot columns) of the RREF mod p
    of a Matrix over F_p; with reduce=False no rows, and the pivot columns
    of the Markowitz elimination a rank needs, in its order."""
    rows = linalg._sparsest_first(m.sparse_rows(), p)
    if not reduce:
        return [], linalg._markowitz(rows, p)[0]
    ech = linalg._reduced_echelon(rows, p)
    pivots = sorted(ech)
    return [ech[pc] for pc in pivots], pivots
