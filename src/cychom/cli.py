"""Command-line surface: homology tables, HH/HC, and verification suites.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 resource
limit.  All output is deterministic for a fixed input; human-readable
tables go to stdout, errors to stderr, and --json switches the payload to
the documented schema.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from math import factorial

from .chains import (
    ChainMap,
    aw_map,
    check_module_identities,
    class_coordinates,
    ez_map,
    homology,
    induced_map,
    linearize_module,
)
from .cyclic import connes_maps, hc, hc_window
from .derham import hkr_epsilon, hkr_pi, omega_power
from .domains import parse_domain
from .errors import BudgetExceeded, CychomError, InputFormatError
from .groups import group_from_json, group_from_preset, group_order
from .hochschild import (
    DEFAULT_BUDGET,
    algebra_from_json,
    algebra_from_preset,
    algebra_table_entries,
    hh,
    hochschild_module,
)
from .linalg import rank
from .matrix import Matrix
from .simplicial import (
    check_identities,
    check_map,
    circle,
    circle_to_bz,
    classifying_space,
    cyclic_bar,
    evaluation_map,
    free_cyclic,
    unit_section,
)

EXIT_OK, EXIT_FAIL, EXIT_PARSE, EXIT_RESOURCE = 0, 1, 2, 3

SIMPLICIAL_PRESETS = ("circle", "bg", "cyclicbar", "fcircle", "fbg")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
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

    top = argparse.ArgumentParser(prog="cychom", description=__doc__)
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


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read JSON input {path!r}: {exc}")


def _table_budget_guard(entries, budget):
    # counted from the input itself, so no table is built or checked first
    if entries > budget:
        raise BudgetExceeded(f"the input's tables have {entries} entries (budget {budget})")


def _get_group(args):
    if args.input:
        spec, build = _load_json(args.input), group_from_json
    elif args.group:
        spec, build = args.group, group_from_preset
    else:
        raise InputFormatError("this preset needs --group or --input")
    _table_budget_guard(group_order(spec) ** 2, args.budget)
    return build(spec)


def _get_algebra(args, dom):
    if args.input:
        spec, build = _load_json(args.input), algebra_from_json
    elif args.preset:
        spec, build = args.preset, algebra_from_preset
    else:
        raise InputFormatError("need --preset or --input for an algebra")
    _table_budget_guard(algebra_table_entries(spec), args.budget)
    return build(spec, dom)


def _spec_budget_guard(spec, top, budget):
    # count lazily, so the guard never builds the degree that crosses it
    total = 0
    for n in range(top + 1):
        total += spec.count(n, budget - total + 1)
        if total > budget:
            raise BudgetExceeded(
                f"simplicial set has more than {budget} cells up to degree {top}")


def _simplicial_spec(args, top):
    preset = args.preset
    if preset == "circle":
        return circle(top)
    if preset == "bg":
        G = _get_group(args)
        return classifying_space(G, top, central=G.identity if G.is_abelian() else None)
    if preset == "cyclicbar":
        return cyclic_bar(_get_group(args), top)
    if preset == "fcircle":
        return free_cyclic(circle(top))
    if preset == "fbg":
        G = _get_group(args)
        return free_cyclic(classifying_space(G, top))
    raise InputFormatError(f"unknown simplicial preset {preset!r}")


def _print_homology(res, degrees, as_json):
    if as_json:
        print(json.dumps(res.rows(), sort_keys=True))
        return
    for n in degrees:
        tors = res.torsion.get(n, [])
        line = f"H_{n}: betti {res.betti[n]}"
        if tors:
            line += "  torsion " + " ".join(f"Z/{d}" for d in tors)
        print(line)


def cmd_homology(args) -> int:
    dom = parse_domain(args.domain)
    top = args.max_degree + 1
    spec = _simplicial_spec(args, top)
    _spec_budget_guard(spec, top, args.budget)
    sm = linearize_module(spec, dom)
    res = homology(sm.chain_complex(args.mode), range(args.max_degree + 1))
    _print_homology(res, range(args.max_degree + 1), args.as_json)
    return EXIT_OK


def cmd_hh(args) -> int:
    dom = parse_domain(args.domain)
    A = _get_algebra(args, dom)
    res = hh(A, range(args.max_degree + 1), mode=args.mode, budget=args.budget)
    _print_homology(res, range(args.max_degree + 1), args.as_json)
    return EXIT_OK


def cmd_hc(args) -> int:
    dom = parse_domain(args.domain)
    A = _get_algebra(args, dom)
    degrees = range(args.max_degree + 1)
    if args.variant == "cyclic":
        res = hc(A, degrees, budget=args.budget)
        _print_homology(res, degrees, args.as_json)
        return EXIT_OK
    res, rep = hc_window(args.variant, A, degrees, args.window,
                         budget=args.budget)
    if args.as_json:
        print(json.dumps({"homology": res.rows(), "tower": rep.rows(),
                          "stable": rep.stable}, sort_keys=True))
        return EXIT_OK
    _print_homology(res, degrees, False)
    for row in rep.rows():
        print(f"tower H_{row['degree']}: {row['tower']}"
              f" {'stabilized' if row['stabilized'] else 'open'}")
    print("window flag:", "STABLE" if rep.stable else "UNSTABLE")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_relations(args) -> int:
    dom = parse_domain(args.domain)
    top = args.max_degree
    if args.preset in SIMPLICIAL_PRESETS:
        spec = _simplicial_spec(args, top)
        _spec_budget_guard(spec, top, args.budget)
        mode = "cyclic" if spec.has_cyclic else "simplicial"
        report = check_identities(spec, mode=mode)
        print(f"relations [{mode}]: {report.checked} instances,"
              f" {len(report.violations)} failures")
        for msg in report.violations[:10]:
            print("  fail:", msg, file=sys.stderr)
        return EXIT_OK if report.passed else EXIT_FAIL
    A = _get_algebra(args, dom)
    sm = hochschild_module(A, top, budget=args.budget)
    bad = check_module_identities(sm, top=top)
    print(f"relations [cyclic module]: degrees <= {top},"
          f" {len(bad)} failures")
    for msg in bad[:10]:
        print("  fail:", msg, file=sys.stderr)
    return EXIT_OK if not bad else EXIT_FAIL


def _suite_sbi(args) -> int:
    dom = parse_domain(args.domain)
    A = _get_algebra(args, dom)
    rep = connes_maps(A, range(args.max_degree + 1), budget=args.budget)
    if args.as_json:
        print(json.dumps(rep.rows(), sort_keys=True))
    else:
        for row in rep.rows():
            print(f"{row['node']}: im {row['im_dim']} ker {row['ker_dim']}"
                  f" {'exact' if row['exact'] else 'NOT EXACT'}")
        print(f"sbi: {'pass' if rep.passed else 'FAIL'}")
    return EXIT_OK if rep.passed else EXIT_FAIL


def _suite_hkr(args) -> int:
    dom = parse_domain(args.domain)
    A = _get_algebra(args, dom)
    # HKR takes a commutative algebra in characteristic zero: any other
    # input is refused before a Hochschild module is built
    if not A.commutative:
        raise InputFormatError(f"{A.name or 'algebra'} is not commutative")
    if dom.characteristic:
        raise InputFormatError("antisymmetrization needs characteristic zero")
    # the antisymmetrization writes n! d^(n+1) terms in degree n
    terms = sum(factorial(n) * A.dim ** (n + 1) for n in range(args.max_degree + 1))
    if terms > args.budget:
        raise BudgetExceeded(f"antisymmetrization needs {terms} terms up to degree"
                             f" {args.max_degree} (budget {args.budget})")
    ok = True
    sm = hochschild_module(A, args.max_degree + 1, budget=args.budget)
    hres = homology(sm.chain_complex("unnormalized"), range(args.max_degree + 1))
    for n in range(args.max_degree + 1):
        om = omega_power(sm.algebra, n)
        eps = hkr_epsilon(sm, n, om)
        pi = hkr_pi(sm, n, om)
        section = (pi @ eps) == Matrix.identity(om.dim, dom)
        ok = ok and section
        betti = hres.betti[n]
        # induced maps on homology: eps sends Omega^n to cycles, pi kills
        # boundaries, so ranks against the class basis decide the isos
        eps_classes = class_coordinates(
            hres, n, [eps.column_vector(c) for c in range(eps.cols)])
        iso_eps = betti == om.dim and rank(eps_classes) == om.dim
        pi_classes = Matrix.from_columns(
            [pi.apply(list(r)) for r in hres.reps[n]], om.dim, dom)
        iso_pi = betti == om.dim and rank(pi_classes) == betti
        print(f"degree {n}: omega dim {om.dim}, HH betti {betti},"
              f" pi.eps=id {'pass' if section else 'FAIL'},"
              f" eps iso {iso_eps}, pi iso {iso_pi}")
    print("hkr:", "pass" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def _suite_aw_ez(args) -> int:
    dom = parse_domain(args.domain)
    top = args.max_degree + 1
    S = linearize_module(circle(top), dom)
    H = hochschild_module(algebra_from_preset("truncpoly:2", dom), top,
                          budget=args.budget)
    ok = True
    for name, C, D in (("circle(x)circle", S, S),
                       ("circle(x)truncpoly", S, H)):
        aw = aw_map(C, D, mode="normalized", top=top)
        ez = ez_map(C, D, mode="normalized", top=top)
        retr = all((aw.mat(n) @ ez.mat(n)) ==
                   Matrix.identity(aw.target.rank(n), dom)
                   for n in range(top + 1))
        round_trip = ChainMap(aw.source, aw.source,
                              {n: ez.mat(n) @ aw.mat(n) for n in range(top + 1)},
                              name="EZ.AW")
        h_src = homology(aw.source, range(args.max_degree + 1))
        ident = all(induced_map(round_trip, h_src, h_src, n) ==
                    Matrix.identity(h_src.betti[n], dom)
                    for n in range(args.max_degree + 1))
        print(f"{name}: AW.EZ=id {'pass' if retr else 'FAIL'},"
              f" EZ.AW=id on homology {'pass' if ident else 'FAIL'}")
        ok = ok and retr and ident
    return EXIT_OK if ok else EXIT_FAIL


def _suite_adjunction(args) -> int:
    top = args.max_degree
    X = _simplicial_spec(args, top) if args.preset else circle(top)
    FX = free_cyclic(X)
    # degree n of F(X) has n+1 cells per cell of X, so this bounds X too
    _spec_budget_guard(FX, top, args.budget)
    unit = unit_section(X, FX)
    unit_ok = check_map(unit, mode="simplicial").passed
    counit_ok = True
    tri1_ok = True
    checked = 0
    if X.has_cyclic:
        ev = evaluation_map(X, FX)
        counit_ok = check_map(ev, mode="cyclic").passed
        # triangle: ev_X . unit_X = id elementwise
        for n in range(top + 1):
            for x in X.elements(n):
                checked += 1
                if ev.fn(n, unit.fn(n, x)) != x:
                    tri1_ok = False
    # triangle on the free side: ev_{F(X)} . F(unit) = id
    ev_f = evaluation_map(FX)
    tri2_ok = True
    for n in range(top + 1):
        for (g, y) in FX.elements(n):
            checked += 1
            if ev_f.fn(n, (g, (0, y))) != (g, y):
                tri2_ok = False
    ok = unit_ok and counit_ok and tri1_ok and tri2_ok
    print(f"adjunction: unit map {'pass' if unit_ok else 'FAIL'},"
          f" counit map {'pass' if counit_ok else 'FAIL'},"
          f" triangles {'pass' if tri1_ok and tri2_ok else 'FAIL'}"
          f" ({checked} instances)")
    return EXIT_OK if ok else EXIT_FAIL


def _suite_exercise_bz(args) -> int:
    # the B(Z) closure and check_map make 2n + 3 images (t, n + 1 faces and
    # n + 1 degeneracies) of each of the circle's n + 1 cells of degree n;
    # up to degree N that is k(k + 1)(4k + 5)/6 with k = N + 1
    k = args.max_degree + 1
    images = k * (k + 1) * (4 * k + 5) // 6
    if images > args.budget:
        raise BudgetExceeded(f"circle -> B(Z) makes {images} image cells up to degree"
                             f" {args.max_degree} (budget {args.budget} cells)")
    m = circle_to_bz(args.max_degree)
    rep = check_map(m, mode="cyclic")
    print(f"circle -> BZ: {rep.checked} instances,"
          f" {len(rep.violations)} failures")
    return EXIT_OK if rep.passed else EXIT_FAIL


_SUITES = {
    "relations": _suite_relations,
    "sbi": _suite_sbi,
    "hkr": _suite_hkr,
    "aw-ez": _suite_aw_ez,
    "adjunction": _suite_adjunction,
    "exercise-bz": _suite_exercise_bz,
}


def cmd_verify(args) -> int:
    return _SUITES[args.suite](args)


_COMMANDS = {
    "homology": cmd_homology,
    "hh": cmd_hh,
    "hc": cmd_hc,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_degree", 0) < 0:
        print("error: --max-degree must be nonnegative", file=sys.stderr)
        return EXIT_PARSE
    if getattr(args, "budget", 1) <= 0:
        print("error: --budget must be positive", file=sys.stderr)
        return EXIT_PARSE
    if getattr(args, "window", 1) < 1:
        print("error: --window must be at least 1", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CychomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


# What the import built lives for the whole run.  Frozen, it is walked by
# no later collection; otherwise how much of it the import leaves in the
# young generations decides which command pays for walking all of it.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
