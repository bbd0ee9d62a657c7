"""The F_p entry to ``linalg``'s one sparse echelon: ``rank`` and ``rref``
over F_p both run through ``rref_modp``.  It stays a name of its own
because the benchmark's tracer times F_p elimination by wrapping it."""

from . import linalg


def rref_modp(m, p: int, reduce: bool = True):
    """(rows {col: residue} leading with 1, pivot columns) of the RREF mod p
    of a Matrix over F_p; with reduce=False the plain echelon a rank needs."""
    rows = linalg._sparsest_first(m.sparse_rows(), p)
    ech = linalg._reduced_echelon(rows, p) if reduce else linalg._echelon(rows, p=p)
    pivots = sorted(ech)
    return [ech[pc] for pc in pivots], pivots
