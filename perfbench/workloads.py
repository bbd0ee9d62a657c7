"""The benchmark's workloads: commands, inputs, and theorem-backed answers.

Each command is a ``cychom`` argument list whose ``{name}`` fields are
replaced by the paths of generated input files (see ``inputs.py``).
Each expected answer follows from a theorem, or is already checked by a
named tier-1 test, and holds for every seed because the seed only
changes the inputs up to isomorphism.  Why each workload exists, and
why the larger instances are left out, is written in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    argv: tuple
    kind: str       # how the output is read: "betti", "sbi", "window", "aw-ez"
    expect: object  # the answer, in the shape `check` compares against
    reason: str     # the theorem or tier-1 test the answer comes from


def _hh_truncpoly(k, top):
    # char 0 and p = 32003 do not divide k
    return [k] + [k - 1] * top


def _bg_z(n, top):
    # H_0 = Z, H_odd = Z/n, H_even = 0 for the cyclic group of order n
    return [(1, [])] + [(0, [n] if d % 2 else []) for d in range(1, top + 1)]


WORKLOADS = {
    "q-cyclic": [
        Command(("hh", "--input", "{truncpoly2}", "--unnormalized",
                 "--max-degree", "4", "--json"),
                "betti", [(b, []) for b in _hh_truncpoly(2, 4)],
                "HH_n(K[x]/(x^k)) = K^k for n = 0 and K^(k-1) for n >= 1 when "
                "char K does not divide k (tier-1 test_hh_truncpoly)"),
        Command(("verify", "sbi", "--input", "{truncpoly2}", "--max-degree", "3",
                 "--json"),
                "sbi", None,
                "Connes' SBI sequence is exact at every node"),
        Command(("hc", "--input", "{productfield2}", "--variant", "periodic",
                 "--window", "1", "--max-degree", "1", "--json"),
                "window", [(2, []), (0, [])],
                "HP_*(K^2) = K^2 in even and 0 in odd degrees, with a stable "
                "window and every S-tower stabilized (tier-1 test_hc_window_flags)"),
    ],
    "normalized": [
        Command(("hh", "--input", "{productfield2}", "--max-degree", "5", "--json"),
                "betti", [(2, [])] + [(0, [])] * 5,
                "K^2 is separable: HH_0 = K^2 and HH_n = 0 for n >= 1"),
        Command(("verify", "aw-ez", "--max-degree", "3"),
                "aw-ez", 2,
                "Eilenberg-Zilber: AW.EZ = id, and EZ.AW = id on homology"),
        Command(("homology", "--preset", "bg", "--input", "{cyclic3}",
                 "--max-degree", "4", "--json"),
                "betti", [(1, [])] + [(0, [])] * 4,
                "H_*(BZ/3; Q) = Q in degree 0: a finite group has no rational "
                "homology in positive degrees"),
    ],
    "z-fp": [
        Command(("homology", "--preset", "bg", "--input", "{cyclic3}", "--domain",
                 "z", "--unnormalized", "--max-degree", "3", "--json"),
                "betti", _bg_z(3, 3),
                "H_*(BZ/3; Z) = Z, Z/3, 0, Z/3 (tier-1 test_homology_bg_over_z_torsion "
                "checks the case Z/2)"),
        Command(("hh", "--input", "{truncpoly2}", "--domain", "zp:32003",
                 "--unnormalized", "--max-degree", "6", "--json"),
                "betti", [(b, []) for b in _hh_truncpoly(2, 6)],
                "HH of K[x]/(x^k) as above; 32003 does not divide k"),
    ],
}


def input_names(workload):
    """Names of the generated inputs a workload's commands refer to."""
    names = set()
    for cmd in WORKLOADS[workload]:
        for arg in cmd.argv:
            if arg.startswith("{") and arg.endswith("}"):
                names.add(arg[1:-1])
    return sorted(names)


def bind(workload, paths):
    """The workload's argument lists with input names replaced by paths."""
    return [[paths[a[1:-1]] if a.startswith("{") else a for a in cmd.argv]
            for cmd in WORKLOADS[workload]]


def _homology_rows(rows):
    return [(r["betti"], r["torsion"]) for r in sorted(rows, key=lambda r: r["degree"])]


def check(cmd: Command, code: int, out: str) -> str | None:
    """None when the command answered as expected, else what went wrong.

    Exit code 3 (resource budget) and every other nonzero code is a
    failed operation, never a slow one.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        if cmd.kind == "betti":
            got = _homology_rows(json.loads(out))
        elif cmd.kind == "window":
            obj = json.loads(out)
            got = _homology_rows(obj["homology"])
            if obj["stable"] is not True:
                return "window flag is not STABLE"
            if not all(row["stabilized"] for row in obj["tower"]):
                return "an S-tower did not stabilize"
        elif cmd.kind == "sbi":
            nodes = json.loads(out)
            bad = [n["node"] for n in nodes if not n["exact"]]
            return f"not exact at {bad}" if bad or not nodes else None
        elif cmd.kind == "aw-ez":
            lines = out.splitlines()
            ok = [ln for ln in lines if ln.endswith("EZ.AW=id on homology pass")
                  and "AW.EZ=id pass" in ln]
            return None if len(ok) == cmd.expect == len(lines) else f"output {lines}"
        else:
            raise ValueError(f"unknown output kind {cmd.kind!r}")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    got = [(b, list(t)) for b, t in got]
    return None if got == list(cmd.expect) else f"got {got}, expected {list(cmd.expect)}"
