"""Command-line surface: homology tables, HH/HC, and verification suites.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 resource
limit.  All output is deterministic for a fixed input; human-readable
tables go to stdout, errors to stderr, and --json switches the payload to
the documented schema.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from math import factorial
from types import SimpleNamespace

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
    "homology": (cmd_homology, "homology of a simplicial set"),
    "hh": (cmd_hh, "Hochschild homology of an algebra"),
    "hc": (cmd_hc, "cyclic homology and its variants"),
    "verify": (cmd_verify, "run a verification suite"),
}

# ---------------------------------------------------------------------------
# the command line, read by argparse's rules from one table
# ---------------------------------------------------------------------------

_EVERY = tuple(_COMMANDS)
_REQUIRED = object()
# One row per option: its name, the attribute it sets, how its value is read
# (int, str or a tuple of choices; None for a flag, which stores the next
# column), the default (_REQUIRED when it has none), the commands that take
# it and its help.  The suite of verify is its one positional argument.
_OPTIONS = (
    ("--preset", "preset", str, None, None, _EVERY, "built-in input name"),
    ("--input", "input", str, None, None, _EVERY, "JSON input file"),
    ("--group", "group", str, None, None, _EVERY, "group preset, e.g. cyclic:2 or symmetric:3"),
    ("--domain", "domain", str, None, "q", _EVERY,
     "scalar domain: q, zp:<p> (prime p <= 3037000493), or z"),
    ("--max-degree", "max_degree", int, None, _REQUIRED, _EVERY, "N, the highest degree"),
    ("--normalized", "mode", None, "normalized", "normalized", _EVERY,
     "the normalized complex (the default)"),
    ("--unnormalized", "mode", None, "unnormalized", "normalized", _EVERY,
     "the unnormalized complex"),
    ("--json", "as_json", None, True, False, _EVERY, "print JSON"),
    ("--budget", "budget", int, None, DEFAULT_BUDGET, _EVERY,
     "N, a cap on the cells, entries or terms built; past it, exit 3"),
    ("--variant", "variant", ("cyclic", "negative", "periodic"), None, "cyclic", ("hc",),
     "cyclic (the default), or the windowed negative or periodic"),
    ("--window", "window", int, None, 2, ("hc",),
     "WINDOW, the CC columns -WINDOW..0, for --variant negative|periodic"
     " only (--variant cyclic ignores it)"),
)
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read(arg, names):
    """None if arg is a positional, else (the option of names it spells,
    None if none, and the value it carries after = or after -h, or None).
    A long option may be cut to any prefix that no other name shares."""
    if not arg.startswith("-") or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    if arg in names or eq and name in names:
        return name, value if eq else None
    if arg[1] == "-":
        hits = [n for n in names if n.startswith(name)]
        value = value if eq else None
    else:  # -h, the one short option, runs on into its value
        hits, value = [n for n in names if n == arg[:2]], arg[2:]
    if len(hits) > 1:
        raise InputFormatError(f"ambiguous option: {arg} could match {', '.join(hits)}")
    if hits:
        return hits[0], value
    return None if _NEGATIVE_NUMBER.match(arg) or " " in arg else (None, None)


def _parse(argv, command=None):
    """Read the command line as argparse did: the command, then its options
    in any order, as --opt value or --opt=value (the last repeat wins; a
    value starts with - only as a negative number; after -- every argument
    is positional).  Returns a namespace of the attributes the command
    reads, or the help text if -h or --help comes first; raises
    InputFormatError on any argument error."""
    rows = {row[0]: row for row in _OPTIONS if command in row[5]}
    reads = []
    for k, arg in enumerate(argv):
        if arg == "--":
            reads += ["--"] + [None] * (len(argv) - k - 1)
            break
        reads.append(_read(arg, (*_HELP, *rows)))
    ns = {"command": command}
    ns.update((row[1], row[4]) for row in rows.values() if row[4] is not _REQUIRED)
    wanted = "command" if command is None else "suite" if command == "verify" else None
    set_by, extra, i = {}, [], 0
    while i < len(argv):
        read, arg, i = reads[i], argv[i], i + 1
        if read is None or read == "--":
            if wanted == "command":
                if arg not in _COMMANDS:
                    raise InputFormatError(f"unknown command {arg!r}")
                args = _parse(argv[i:], arg)
                if extra and not isinstance(args, str):
                    raise InputFormatError(f"unrecognized arguments: {' '.join(extra)}")
                return args
            # the suite is one positional, with the first -- on either side
            j = i - (read != "--")
            if wanted and j < len(argv) and reads[j] is None:
                if argv[j] not in _SUITES:
                    raise InputFormatError(f"unknown suite {argv[j]!r}")
                ns["suite"], wanted = argv[j], None
                i = j + 1 + (j + 1 < len(argv) and reads[j + 1] == "--")
            else:
                extra.append(arg)
            continue
        option, value = read
        if option is None:
            extra.append(arg)
            continue
        if option in _HELP:
            if value is not None and (option != "-h" or not value or value.strip("h")):
                raise InputFormatError(f"{option} takes no value")
            return _help(command)
        _, attr, kind, const, _, _, _ = rows[option]
        if kind is None:
            if value is not None:
                raise InputFormatError(f"{option} takes no value")
            value = const
        elif value is None:
            if i == len(argv) or reads[i] is not None:
                raise InputFormatError(f"{option} expects a value")
            value, i = argv[i], i + 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise InputFormatError(f"{option} expects an integer, not {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise InputFormatError(f"{option} expects one of {', '.join(kind)}, not {value!r}")
        if set_by.setdefault(attr, option) != option:
            raise InputFormatError(f"{option} is not allowed with {set_by[attr]}")
        ns[attr] = value
    missing = [row[0] for row in rows.values() if row[1] not in ns] + [wanted] * bool(wanted)
    if missing:
        raise InputFormatError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise InputFormatError(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(**ns)


def _usage(command):
    suite = " {" + ",".join(_SUITES) + "}" if command == "verify" else ""
    command = command if command in _COMMANDS else "{" + ",".join(_COMMANDS) + "}"
    return f"usage: cychom {command}{suite} --max-degree N [options]"


def _help(command):
    """What -h and --help print: every command, suite and option, or those
    of one command."""
    about = __doc__.rstrip() if command is None else _COMMANDS[command][1]
    lines = [_usage(command), "", about, ""]
    if command is None:
        lines += [f"  {name:10}{text}" for name, (_, text) in _COMMANDS.items()]
    if command in (None, "verify"):
        lines += ["suites of verify: " + ", ".join(_SUITES), ""]
    lines.append("options (-h, --help: this help):")
    lines += [f"  {option}: {text}" + ("" if command or commands == _EVERY else
                                       f" ({', '.join(commands)} only)")
              for option, _, _, _, _, commands, text in _OPTIONS if command in (None, *commands)]
    return "\n".join(lines)


def main(argv=None) -> int:
    """Run the command that argv (sys.argv[1:] when None) names and
    return its exit code.  Every argument error exits 2 with nothing on
    stdout."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    try:
        args = _parse(argv)
        if isinstance(args, str):  # the help that -h or --help asked for
            print(args)
            return EXIT_OK
        if args.max_degree < 0:
            raise InputFormatError("--max-degree must be nonnegative")
        if args.budget <= 0:
            raise InputFormatError("--budget must be positive")
        if getattr(args, "window", 1) < 1:
            raise InputFormatError("--window must be at least 1")
        return _COMMANDS[args.command][0](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InputFormatError as exc:
        if args is None:  # the arguments did not parse
            print(_usage(argv[0] if argv else None), file=sys.stderr)
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
