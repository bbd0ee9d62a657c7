"""Span tracer that wraps cychom's layer functions from outside.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper
that records a span (name, start, end, parent, command id) and, for a
few functions, the sizes of what they were given.  A function bound
elsewhere by ``from ... import`` is replaced in every cychom module
that holds it, so no call escapes its span.  ``Tracer.uninstall`` puts
every original back.  An untraced child never imports this module.

The program itself is not edited: spans sit at the boundaries of the
public functions, so work inside a function that is not wrapped counts
as the self time of its nearest wrapped caller.  ``domains`` is not
wrapped because its calls are too fine-grained to time this way; its
cost shows as self time of its callers and in ``linalg.max_coeff_bits``.
"""

from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction

# (layer, module, attribute, span name).  An attribute "Class.method"
# is patched on the class, which every holder of the class shares.
TARGETS = [
    ("cli", "cychom.cli", "main", "cli.main"),
    # chains: operators, normalization, totalization, self-checks
    ("chains", "cychom.chains", "SimplicialModule.face", "chains.face"),
    ("chains", "cychom.chains", "SimplicialModule.degeneracy", "chains.degeneracy"),
    ("chains", "cychom.chains", "SimplicialModule.t", "chains.t"),
    ("chains", "cychom.chains", "SimplicialModule.boundary", "chains.boundary"),
    ("chains", "cychom.chains", "SimplicialModule.bprime", "chains.bprime"),
    ("chains", "cychom.chains", "SimplicialModule.chain_complex", "chains.complex"),
    ("chains", "cychom.chains", "SimplicialModule.degenerate_relations",
     "chains.relations"),
    ("chains", "cychom.chains", "PresentedModule.__init__", "chains.presented"),
    ("chains", "cychom.chains", "tensor_bicomplex", "chains.tensor_bicomplex"),
    ("chains", "cychom.chains", "total_complex", "chains.total_complex"),
    ("chains", "cychom.chains", "ChainComplex.__init__", "chains.check_d2"),
    ("chains", "cychom.chains", "ChainMap.verify", "chains.check_chain_map"),
    ("chains", "cychom.chains", "Bicomplex.verify", "chains.check_bicomplex"),
    ("chains", "cychom.chains", "check_module_identities", "chains.check_identities"),
    # homology and its representatives loop
    ("homology", "cychom.chains", "homology", "homology.homology"),
    # linalg: elimination, kernels, spans, solves, Smith normal form
    ("linalg", "cychom.linalg", "rref_rows", "linalg.rref_rows"),
    ("linalg", "cychom.linalg", "rank", "linalg.rank"),
    ("linalg", "cychom.linalg", "kernel_vectors", "linalg.kernel_vectors"),
    ("linalg", "cychom.linalg", "rank_kernel_image", "linalg.rank_kernel_image"),
    ("linalg", "cychom.linalg", "SubspaceBasis.from_spanning", "linalg.from_spanning"),
    ("linalg", "cychom.linalg", "SubspaceBasis.contains", "linalg.contains"),
    ("linalg", "cychom.linalg", "solve_in_span", "linalg.solve_in_span"),
    ("linalg", "cychom.linalg", "smith_normal_form", "linalg.smith_normal_form"),
    ("linalg", "cychom.linalg", "integer_kernel_basis", "linalg.integer_kernel_basis"),
    ("linalg", "cychom.linalg", "z_quotient_invariants", "linalg.z_quotient_invariants"),
    # modp: the F_p row reduction kernel
    ("modp", "cychom._modp", "rref_modp", "modp.rref_modp"),
    # matrix: the sparse Matrix
    ("matrix", "cychom.matrix", "Matrix.__matmul__", "matrix.matmul"),
    ("matrix", "cychom.matrix", "Matrix.__add__", "matrix.add"),
    ("matrix", "cychom.matrix", "Matrix.__sub__", "matrix.sub"),
    ("matrix", "cychom.matrix", "Matrix.kron", "matrix.kron"),
    ("matrix", "cychom.matrix", "Matrix.__eq__", "matrix.eq"),
    ("matrix", "cychom.matrix", "Matrix.to_dense_rows", "matrix.to_dense_rows"),
    ("matrix", "cychom.matrix", "Matrix.to_object_array", "matrix.to_object_array"),
    ("matrix", "cychom.matrix", "Matrix.to_int64_array", "matrix.to_int64_array"),
    # compare: cyclic, de Rham/HKR, AW/EZ, induced maps, exactness
    ("compare", "cychom.cyclic", "hc", "compare.hc"),
    ("compare", "cychom.cyclic", "hc_window", "compare.hc_window"),
    ("compare", "cychom.cyclic", "connes_maps", "compare.connes_maps"),
    ("compare", "cychom.cyclic", "cyclic_bicomplex", "compare.cyclic_bicomplex"),
    ("compare", "cychom.cyclic", "one_minus_t", "compare.one_minus_t"),
    ("compare", "cychom.cyclic", "norm_map", "compare.norm_map"),
    ("compare", "cychom.cyclic", "connes_b", "compare.connes_b"),
    ("compare", "cychom.cyclic", "bprime_homotopy_check", "compare.bprime_homotopy"),
    ("compare", "cychom.derham", "derham", "compare.derham"),
    ("compare", "cychom.derham", "omega_power", "compare.omega_power"),
    ("compare", "cychom.derham", "hkr_epsilon", "compare.hkr_epsilon"),
    ("compare", "cychom.derham", "hkr_pi", "compare.hkr_pi"),
    ("compare", "cychom.chains", "aw_map", "compare.aw_map"),
    ("compare", "cychom.chains", "ez_map", "compare.ez_map"),
    ("compare", "cychom.chains", "induced_map", "compare.induced_map"),
    ("compare", "cychom.chains", "exactness_at", "compare.exactness_at"),
]

LAYERS = ("cli", "chains", "homology", "linalg", "modp", "matrix", "compare")
LAYER_OF = {name: layer for layer, _, _, name in TARGETS}

# span record fields
NAME, START, END, PARENT, CMD, INFO = range(6)


def _coeff_bits(rows):
    """Largest bit length of a numerator or denominator in a list of rows."""
    best = 0
    for row in rows:
        for v in row:
            if v:
                if isinstance(v, Fraction):
                    b = max(v.numerator.bit_length(), v.denominator.bit_length())
                else:
                    b = int(v).bit_length()
                if b > best:
                    best = b
    return best


def _info_rref_rows(args, kwargs, result):
    rows = args[0]
    ncols = len(rows[0]) if rows and rows[0] else 0
    nnz = sum(1 for row in rows for v in row if v != 0)
    key = (str(args[1]), tuple(tuple(row) for row in rows))
    return {"rows": len(rows), "cols": ncols, "nnz": nnz, "rank": len(result[1]),
            "key": hash(key),
            "bits": max(_coeff_bits(rows), _coeff_bits(result[0]))}


def _info_rank(args, kwargs, result):
    m = args[0]
    return {"rows": m.rows, "cols": m.cols, "nnz": m.nnz(), "rank": result,
            "key": hash((str(m.dom), tuple(m.items()))),
            "bits": _coeff_bits([[v for _, v in m.items()]])}


def _info_modp(args, kwargs, result):
    rows, cols = args[0].shape
    return {"rows": rows, "cols": cols, "rank": len(result[1])}


def _info_presented(args, kwargs, result):
    # PresentedModule.__init__(self, ambient, relations, dom, ...)
    return {"cells": len(args[2]) * args[1] if args[2] else 0}


def _info_shape(args, kwargs, result):
    return {"cells": args[0].rows * args[0].cols}


def _info_homology(args, kwargs, result):
    kept = 0 if result.dom.kind == "Z" else sum(len(r) for r in result.reps.values())
    return {"kept": kept}


INFO_HOOKS = {
    "linalg.rref_rows": _info_rref_rows,
    "linalg.rank": _info_rank,
    "modp.rref_modp": _info_modp,
    "chains.presented": _info_presented,
    "linalg.smith_normal_form": _info_shape,
    "matrix.to_dense_rows": _info_shape,
    "matrix.to_object_array": _info_shape,
    "matrix.to_int64_array": _info_shape,
    "homology.homology": _info_homology,
}


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.command = 0
        self._stack = []
        self._undo = []
        # time spent in INFO_HOOKS; span clocks skip it, so measuring
        # sizes does not inflate the self time of the caller
        self._hidden = [0.0]

    def _wrap(self, fn, name):
        spans, stack, hidden = self.spans, self._stack, self._hidden
        hook = INFO_HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock() - hidden[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock() - hidden[0]
                stack.pop()
            if hook is not None:
                h0 = clock()
                rec[INFO] = hook(args, kwargs, result)
                hidden[0] += clock() - h0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.perfbench_span = name
        return wrapper

    def install(self):
        """Wrap every target; call `uninstall` to undo."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname in sorted({t[1] for t in TARGETS}):
            importlib.import_module(modname)
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "cychom" or n.startswith("cychom.")) and m is not None]
        for _, modname, attr, name in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []


def _self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - child[i] for i, rec in enumerate(spans)]


def _inclusive(spans, names):
    """Time under spans named in `names`, counting nested ones once."""
    total = 0.0
    for rec in spans:
        if rec[NAME] not in names:
            continue
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            total += rec[END] - rec[START]
    return total


OPERATORS = {"chains.face", "chains.degeneracy", "chains.t", "chains.boundary",
             "chains.bprime", "chains.tensor_bicomplex"}
NORMALIZE = {"chains.relations", "chains.presented"}
CHECKS = {"chains.check_d2", "chains.check_chain_map", "chains.check_bicomplex",
          "chains.check_identities"}
ELIMINATION = {"linalg.rref_rows", "linalg.rank"}


def _info_sum(spans, names, key):
    return sum(rec[INFO][key] for rec in spans if rec[NAME] in names and rec[INFO])


def command_metrics(spans, wall):
    """Per-layer metrics of one command's spans; `wall` is its measured seconds.

    Sums (seconds, counts, cells) add across commands; ratios are formed
    from the sums by `finish`.
    """
    selfs = _self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for i, rec in enumerate(spans):
        m[f"{LAYER_OF[rec[NAME]]}.self_s"] += selfs[i]

    def count(names):
        return sum(1 for rec in spans if rec[NAME] in names)

    elim = [i for i, rec in enumerate(spans) if rec[NAME] in ELIMINATION]
    seen = set()
    repeats = 0
    rows = cells = nnz = rank = bits = 0
    for i in elim:
        info = spans[i][INFO]
        if info is None:
            continue
        rows += info["rows"]
        cells += info["rows"] * info["cols"]
        nnz += info["nnz"]
        rank += info["rank"]
        bits = max(bits, info["bits"])
        repeats += info["key"] in seen
        seen.add(info["key"])
    m["linalg.rref_calls"] = len(elim)
    m["linalg.rref_s"] = sum(selfs[i] for i in elim)
    m["linalg.rref_cells"] = cells
    m["_rref_rows"], m["_rref_nnz"], m["_rref_rank"] = rows, nnz, rank
    m["_rref_repeats"] = repeats
    m["linalg.max_coeff_bits"] = bits

    reps = [rec for rec in spans
            if rec[NAME] == "linalg.rref_rows" and rec[PARENT] >= 0
            and spans[rec[PARENT]][NAME] == "homology.homology"]
    m["homology.reps_s"] = sum(rec[END] - rec[START] for rec in reps)
    m["_reps_attempts"] = len(reps)
    m["_reps_kept"] = _info_sum(spans, {"homology.homology"}, "kept")

    m["linalg.span_s"] = _inclusive(spans, {"linalg.from_spanning", "linalg.contains"})
    m["linalg.solve_calls"] = count({"linalg.solve_in_span"})
    m["linalg.solve_s"] = _inclusive(spans, {"linalg.solve_in_span"})
    # z_quotient_invariants without its own solve_in_span calls, so that
    # solve_s + zquot_s is the whole quotient computation
    zq = 0.0
    for rec in spans:
        if rec[NAME] == "linalg.z_quotient_invariants":
            zq += rec[END] - rec[START]
        elif rec[NAME] == "linalg.solve_in_span" and rec[PARENT] >= 0 \
                and spans[rec[PARENT]][NAME] == "linalg.z_quotient_invariants":
            zq -= rec[END] - rec[START]
    m["linalg.zquot_s"] = zq
    m["linalg.snf_s"] = _inclusive(spans, {"linalg.smith_normal_form"})
    m["linalg.snf_cells"] = _info_sum(spans, {"linalg.smith_normal_form"}, "cells")

    modp = [rec for rec in spans if rec[NAME] == "modp.rref_modp" and rec[INFO]]
    m["modp.rref_calls"] = len(modp)
    m["modp.rref_s"] = _inclusive(spans, {"modp.rref_modp"})
    m["modp.cells"] = sum(r[INFO]["rows"] * r[INFO]["cols"] for r in modp)
    m["modp.ops"] = sum(r[INFO]["rank"] * r[INFO]["rows"] * r[INFO]["cols"] for r in modp)

    m["chains.normalize_s"] = _inclusive(spans, NORMALIZE)
    m["chains.normalize_rel_cells"] = _info_sum(spans, {"chains.presented"}, "cells")
    m["chains.operators_s"] = _inclusive(spans, OPERATORS)
    m["chains.totalize_s"] = _inclusive(spans, {"chains.total_complex"})
    m["chains.checks_s"] = _inclusive(spans, CHECKS)

    m["compare.induced_s"] = _inclusive(spans, {"compare.induced_map"})
    m["compare.exactness_s"] = _inclusive(spans, {"compare.exactness_at"})
    m["compare.sbi_s"] = _inclusive(spans, {"compare.connes_maps"})
    m["compare.window_s"] = _inclusive(spans, {"compare.hc_window"})
    m["compare.aw_ez_s"] = _inclusive(spans, {"compare.aw_map", "compare.ez_map"})

    m["matrix.matmul_calls"] = count({"matrix.matmul"})
    m["matrix.matmul_s"] = _inclusive(spans, {"matrix.matmul"})
    m["matrix.add_s"] = _inclusive(spans, {"matrix.add", "matrix.sub"})
    m["matrix.kron_s"] = _inclusive(spans, {"matrix.kron"})
    dens = {"matrix.to_dense_rows", "matrix.to_object_array", "matrix.to_int64_array"}
    m["matrix.densify_s"] = _inclusive(spans, dens)
    m["matrix.densify_cells"] = _info_sum(spans, dens, "cells")
    m["_wall"] = wall
    return m


def _ratio(a, b):
    return a / b if b else 0.0


def finish(parts):
    """Add per-command metrics into one workload's, and form the ratios."""
    out = {}
    for m in parts:
        for k, v in m.items():
            if k == "linalg.max_coeff_bits":
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
    out["linalg.rref_density"] = _ratio(out.pop("_rref_nnz"), out["linalg.rref_cells"])
    out["linalg.rref_rank_ratio"] = _ratio(out.pop("_rref_rank"), out.pop("_rref_rows"))
    out["linalg.rref_repeat_ratio"] = _ratio(out.pop("_rref_repeats"),
                                             out["linalg.rref_calls"])
    out["homology.reps_useful_ratio"] = _ratio(out.pop("_reps_kept"),
                                               out.pop("_reps_attempts"))
    out["modp.bytes_computed"] = 8 * out["modp.ops"]
    out["chains.checks_share"] = _ratio(out["chains.checks_s"], out.pop("_wall"))
    return out
