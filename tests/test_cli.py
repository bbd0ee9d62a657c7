"""End-to-end checks of the command-line interface."""

import importlib
import json
import os
import subprocess
import sys
import time

import pytest

from cychom import chains, cli, linalg
from cychom.domains import Q
from cychom.errors import BudgetExceeded
from cychom.hochschild import group_algebra, hh
from cychom.groups import cyclic_group
from cychom.simplicial import SimplicialSetSpec


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_circle(capsys):
    code, out, _ = run(capsys, "homology", "--preset", "circle",
                       "--max-degree", "3")
    assert code == 0
    assert out.splitlines() == [
        "H_0: betti 1", "H_1: betti 1", "H_2: betti 0", "H_3: betti 0"]


def test_homology_bg_over_z_torsion(capsys):
    code, out, _ = run(capsys, "homology", "--preset", "bg", "--group",
                       "cyclic:2", "--domain", "z", "--max-degree", "3")
    assert code == 0
    assert "H_1: betti 0  torsion Z/2" in out
    assert "H_3: betti 0  torsion Z/2" in out


def test_homology_bs3_over_z_has_composite_torsion(capsys):
    # Z, Z/2 (the abelianization), 0 (the Schur multiplier), Z/6, 0
    code, out, _ = run(capsys, "homology", "--preset", "bg", "--group", "symmetric:3",
                       "--domain", "z", "--max-degree", "4", "--json")
    assert code == 0
    assert [(r["betti"], r["torsion"]) for r in json.loads(out)] == [
        (1, []), (0, [2]), (0, []), (0, [6]), (0, [])]


def test_homology_json_round_trip(capsys):
    code, out, _ = run(capsys, "homology", "--preset", "circle",
                       "--max-degree", "2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["betti"] for r in rows] == [1, 1, 0]
    assert all(r["torsion"] == [] for r in rows)


def test_hh_truncpoly(capsys):
    code, out, _ = run(capsys, "hh", "--preset", "truncpoly:2",
                       "--max-degree", "4")
    assert code == 0
    assert [line.split("betti ")[1] for line in out.splitlines()] == \
        ["2", "1", "1", "1", "1"]


def test_hc_of_unit_algebra(capsys):
    code, out, _ = run(capsys, "hc", "--preset", "unit", "--max-degree", "5")
    assert code == 0
    assert [line.split("betti ")[1] for line in out.splitlines()] == \
        ["1", "0", "1", "0", "1", "0"]


def test_hc_windowed_unstable(capsys):
    code, out, _ = run(capsys, "hc", "--preset", "truncpoly:2", "--variant",
                       "periodic", "--window", "1", "--max-degree", "2")
    assert code == 0
    assert "window flag: UNSTABLE" in out
    assert "tower H_0: [2, 1, 1] stabilized" in out


def test_hc_windowed_stable(capsys):
    code, out, _ = run(capsys, "hc", "--preset", "productfield:2",
                       "--variant", "periodic", "--window", "1",
                       "--max-degree", "2")
    assert code == 0
    assert "window flag: STABLE" in out


def test_cyclicbar_agrees_with_hh(capsys):
    # linearized cyclic bar construction of a group computes the
    # Hochschild homology of its group algebra
    code, out, _ = run(capsys, "homology", "--preset", "cyclicbar",
                       "--group", "cyclic:2", "--max-degree", "4")
    assert code == 0
    got = [int(line.split("betti ")[1]) for line in out.splitlines()]
    want = hh(group_algebra(cyclic_group(2), Q), range(5))
    assert got == [want.betti[n] for n in range(5)]
    assert got == [2, 0, 0, 0, 0]


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify", "relations", "--preset", "circle",
                       "--max-degree", "3")
    assert code == 0
    assert "0 failures" in out
    assert run(capsys, "verify", "relations", "--preset", "circle",
               "--max-degree", "5")[1] == "relations [cyclic]: 684 instances, 0 failures\n"
    assert run(capsys, "verify", "relations", "--preset", "bg", "--group", "cyclic:3",
               "--max-degree", "3")[1] == "relations [cyclic]: 542 instances, 0 failures\n"


def test_verify_sbi(capsys):
    code, out, _ = run(capsys, "verify", "sbi", "--preset", "unit",
                       "--max-degree", "3")
    assert code == 0
    assert "pass" in out


def test_verify_hkr(capsys):
    code, out, _ = run(capsys, "verify", "hkr", "--preset", "truncpoly:2",
                       "--max-degree", "2")
    assert code == 0
    assert "hkr: pass" in out


@pytest.mark.parametrize("budget", [[], ["--budget", "600"]], ids=["default", "600"])
def test_verify_hkr_budget_counts_the_antisymmetrization(capsys, budget):
    # n! 2^(n+1) terms in degree n: 1 390 966 up to degree 7, over the
    # default budget of 2^20, refused before anything is built
    code, out, err = run(capsys, "verify", "hkr", "--preset", "truncpoly:2",
                         "--max-degree", "7", *budget)
    assert code == 3 and out == "" and "1390966 terms" in err


def test_verify_hkr_builds_one_module_and_each_boundary_once(capsys, monkeypatch):
    from cychom import hochschild
    built, face_sums = [], []
    real = hochschild.hochschild_module

    def counted(A, N, **kwargs):
        built.append(N)
        sm = real(A, N, **kwargs)
        faces = sm._faces
        sm._faces = lambda n, cols, signs: face_sums.append((n, cols, signs)) or faces(n, cols, signs)
        return sm

    monkeypatch.setattr(hochschild, "hochschild_module", counted)
    monkeypatch.setattr(cli, "hochschild_module", counted)
    code, out, _ = run(capsys, "verify", "hkr", "--preset", "truncpoly:2", "--max-degree", "3")
    assert code == 0 and out.splitlines() == [
        "degree 0: omega dim 2, HH betti 2, pi.eps=id pass, eps iso True, pi iso True",
        "degree 1: omega dim 1, HH betti 1, pi.eps=id pass, eps iso True, pi iso True",
        "degree 2: omega dim 0, HH betti 1, pi.eps=id pass, eps iso False, pi iso False",
        "degree 3: omega dim 0, HH betti 1, pi.eps=id pass, eps iso False, pi iso False",
        "hkr: pass"]
    assert built == [4]
    assert face_sums == [(n, None, tuple((i, (-1) ** i) for i in range(n + 1)))
                         for n in range(1, 5)]


def test_verify_aw_ez_builds_each_diagonal_tensor_once(capsys, monkeypatch):
    built = []
    orig = chains.diagonal_tensor

    def counted(C, D):
        built.append((C.name, D.name))
        return orig(C, D)

    monkeypatch.setattr(chains, "diagonal_tensor", counted)
    code, out, _ = run(capsys, "verify", "aw-ez", "--max-degree", "3")
    assert code == 0
    assert out == ("circle(x)circle: AW.EZ=id pass, EZ.AW=id on homology pass\n"
                   "circle(x)truncpoly: AW.EZ=id pass, EZ.AW=id on homology pass\n")
    assert len(built) == 2  # one per pair, shared by AW and EZ


def test_verify_exercise_bz(capsys):
    code, out, _ = run(capsys, "verify", "exercise-bz", "--max-degree", "4")
    assert code == 0


def test_exit_code_parse_errors(capsys):
    assert run(capsys, "homology", "--preset", "nosuch",
               "--max-degree", "2")[0] == 2
    assert run(capsys, "homology", "--preset", "circle", "--domain", "f1",
               "--max-degree", "2")[0] == 2
    assert run(capsys, "homology", "--preset", "circle",
               "--max-degree", "-1")[0] == 2
    for preset in ("truncpoly:x", "productfield:x"):
        assert run(capsys, "hh", "--preset", preset, "--max-degree", "1")[0] == 2
    for window in ("0", "-1"):
        assert run(capsys, "hc", "--preset", "unit", "--variant", "periodic",
                   "--window", window, "--max-degree", "1")[0] == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_commands_give_the_benchmark_answers(capsys, monkeypatch, tmp_path, seed):
    # every command of every workload in perfbench/, on its own generated
    # inputs, judged by its own checker
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    inputs, workloads = (importlib.import_module(m) for m in ("inputs", "workloads"))
    for name, cmds in workloads.WORKLOADS.items():
        paths = inputs.write_inputs(workloads.input_names(name), seed, tmp_path)
        for cmd, argv in zip(cmds, workloads.bind(name, paths)):
            code, out, _ = run(capsys, *argv)
            assert workloads.check(cmd, code, out) is None, argv


def test_exit_code_budget(capsys):
    code, _, err = run(capsys, "hh", "--preset", "group:symmetric:3",
                       "--max-degree", "6", "--budget", "100")
    assert code == 3


def test_verify_adjunction_respects_budget():
    # F(BZ/30) has 110 761 cells up to degree 3, so the suite must not start
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cychom.cli", "verify", "adjunction", "--preset", "bg",
         "--group", "cyclic:30", "--max-degree", "3", "--budget", "1000"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stdout
    assert proc.stdout == "" and "1000 cells" in proc.stderr


def _cli_process(*argv, timeout=20):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "cychom.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_group_algebra_hh_ranks_its_largest_boundary_quickly():
    # over Q, HH of a group algebra is the sum over conjugacy classes of the
    # homology of centralizers, and a finite group has no rational homology
    # above degree 0; d_5 is 3750 x 18750, where a leftmost-pivot echelon
    # fills in to about 2.4 million entries
    proc = _cli_process("hh", "--preset", "group:symmetric:3", "--max-degree", "4")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["H_0: betti 3"] + [f"H_{n}: betti 0" for n in range(1, 5)]


def test_separable_hh_with_a_dense_unit_normalizes_quickly():
    # K^4 is separable: HH_0 = K^4 and 0 above.  Its unit [1, 1, 1, 1] has
    # four nonzero coordinates; on a basis that starts with it every
    # degeneracy column is one cell, so no relation span of 8 * 4^8 rows is
    # eliminated at degree 8
    proc = _cli_process("hh", "--preset", "productfield:4", "--max-degree", "7", timeout=20)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["H_0: betti 4"] + [f"H_{n}: betti 0" for n in range(1, 8)]


@pytest.mark.parametrize("argv, entries", [
    # the group of order n counts n^2 table entries: 4 000 000 > 2^20
    (("homology", "--preset", "bg", "--group", "cyclic:2000", "--max-degree", "0"), 4000000),
    # the algebra of dimension d counts d^3 structure constants
    (("hh", "--preset", "truncpoly:80", "--max-degree", "0", "--budget", "1000"), 512000),
    # a group algebra counts both: 60^2 + 60^3
    (("hh", "--preset", "group:cyclic:60", "--max-degree", "0", "--budget", "10"), 219600),
], ids=["group", "algebra", "group-algebra"])
def test_budget_counts_tables_before_building_them(argv, entries):
    proc = _cli_process(*argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and f"{entries} entries" in proc.stderr


@pytest.mark.parametrize("command, obj, entries", [
    ("homology", {"preset": "cyclic:2000"}, 4000000),
    ("homology", {"table": [[0] * 1100] * 1100}, 1210000),
    ("hh", {"preset": "truncpoly", "params": {"k": 110}}, 1331000),
    ("hh", {"preset": "group", "params": {"group": "cyclic:102"}}, 102 ** 2 + 102 ** 3),
    ("hh", {"table": [[[0] * 110] * 110] * 110}, 1331000),
], ids=["group-preset", "group-table", "algebra-preset", "group-algebra", "algebra-table"])
def test_budget_counts_json_tables_before_building_them(tmp_path, command, obj, entries):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    preset = ("--preset", "bg") if command == "homology" else ()
    proc = _cli_process(command, *preset, "--input", str(path), "--max-degree", "0")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and f"{entries} entries" in proc.stderr


@pytest.mark.parametrize("argv, stdout", [
    # 10^6 group table entries: Light's test checks associativity in
    # O(n^2 log n), not on all n^3 triples
    (("homology", "--preset", "bg", "--group", "cyclic:1000", "--max-degree", "0"),
     "H_0: betti 1\n"),
    # 10^6 structure constants: the sparse products make the check d^3 steps
    (("hh", "--preset", "truncpoly:100", "--max-degree", "0"), "H_0: betti 100\n"),
], ids=["group", "algebra"])
def test_table_validation_costs_about_the_budgeted_entries(argv, stdout):
    proc = _cli_process(*argv, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout


def test_verify_exercise_bz_respects_budget():
    # the B(Z) closure has 161 * 162 / 2 = 13 041 cells up to degree 160
    proc = _cli_process("verify", "exercise-bz", "--max-degree", "160", "--budget", "10")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and "10 cells" in proc.stderr


@pytest.mark.parametrize("degree, code", [(1446, 3), (60, 0)])
def test_verify_exercise_bz_counts_the_images_it_makes(degree, code):
    # up to degree N the closure and the check make sum (n + 1)(2n + 3)
    # images: 2 022 969 668 at N = 1446, past the default budget of 2^20,
    # and 156 953 at N = 60, which still runs
    proc = _cli_process("verify", "exercise-bz", "--max-degree", str(degree), timeout=20)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stdout == "" and "2022969668 image cells" in proc.stderr
    else:
        assert proc.stdout == "circle -> BZ: 153231 instances, 0 failures\n"


def test_verify_adjunction_shares_one_free_cyclic_set(capsys, monkeypatch):
    checked = []
    real = cli.check_map

    def recorded(m, mode):
        checked.append(m)
        return real(m, mode=mode)

    monkeypatch.setattr(cli, "check_map", recorded)
    code, out, _ = run(capsys, "verify", "adjunction", "--preset", "bg", "--group",
                       "cyclic:3", "--max-degree", "2")
    assert code == 0 and "triangles pass" in out
    unit, ev = checked
    assert unit.target is ev.source


def test_main_reuses_one_parser(capsys):
    argvs = [
        ("homology", "--preset", "circle", "--max-degree", "2", "--json"),
        ("hh", "--preset", "truncpoly:2", "--unnormalized", "--max-degree", "2"),
        ("hc", "--preset", "unit", "--variant", "periodic", "--window", "1",
         "--max-degree", "1"),
        ("verify", "relations", "--preset", "bg", "--group", "cyclic:2",
         "--max-degree", "2"),
        ("homology", "--preset", "circle", "--max-degree", "2"),
        ("hh", "--preset", "truncpoly:2", "--domain", "zp:5", "--max-degree", "1",
         "--budget", "3"),
    ]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [run(capsys, *argv) for argv in argvs] == fresh
    assert cli._build_parser() is cli._build_parser()


def test_budget_guard_counts_lazily():
    # the guard must not enumerate the degree that crosses the budget
    yielded = [0]

    def elements(n):
        for x in range(10 ** n):
            yielded[0] += 1
            yield x

    spec = SimplicialSetSpec(6, elements, None, None)
    with pytest.raises(BudgetExceeded):
        cli._spec_budget_guard(spec, 6, 500)
    assert yielded[0] <= 501


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_budget_guard_counts_free_cyclic_lazily():
    # degree 3 of F(BZ/60) has 864 000 cells; counting it must build neither
    # that degree nor the 216 000 of BZ/60 it is made from
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    # VmHWM is the peak RSS of this process image; ru_maxrss would carry
    # over the peak of the test process that forked it
    script = ("import cychom.cli\n"
              "code = cychom.cli.main(['homology', '--preset', 'fbg', '--group', 'cyclic:60',"
              " '--max-degree', '2', '--budget', '20000'])\n"
              "peak = [l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')]\n"
              "print(code, *peak)\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 3, proc.stderr
    assert peak_kb < 30 * 1024


def test_exit_code_nonassociative_group_json(capsys, tmp_path):
    # a loop of order 5: a two-sided identity and inverses, but no group
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                                          [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]}))
    code, out, err = run(capsys, "homology", "--preset", "bg", "--input", str(path),
                         "--max-degree", "0")
    assert code == 2 and out == "" and "associativity fails" in err


def test_exit_code_integral_algebra_without_unit(capsys, tmp_path):
    # over Z the unit cannot be solved for, so it is part of the input
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"table": [[[1]]]}))
    code, out, err = run(capsys, "hh", "--input", str(path), "--domain", "z",
                         "--max-degree", "1")
    assert code == 2 and out == "" and "'unit'" in err


def test_exit_code_verification_failure(capsys, tmp_path):
    # a nonunital multiplication table cannot support the machinery
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"table": [[[0]]]}))
    code, _, err = run(capsys, "hh", "--input", str(bad), "--max-degree", "1")
    assert code == 1

    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"table": {"dim": 1}}))
    assert run(capsys, "hh", "--input", str(malformed),
               "--max-degree", "1")[0] == 2


def test_exit_code_bad_input_file(capsys, tmp_path):
    missing = tmp_path / "none.json"
    assert run(capsys, "hh", "--input", str(missing),
               "--max-degree", "1")[0] == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(capsys, "hh", "--input", str(garbled),
               "--max-degree", "1")[0] == 2
    code, _, err = run(capsys, "hh", "--input", str(tmp_path), "--max-degree", "1")
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("domain", ["q", "zp:5"])
@pytest.mark.parametrize("obj", [
    {"preset": "truncpoly", "params": {"k": 2.7}},
    {"preset": "truncpoly", "params": {"k": None}},
    {"preset": "productfield", "params": {"m": True}},
    {"preset": "truncpoly", "params": [2]},
    {"preset": "group", "params": {}},
    {"table": [[[1]]], "unit": [1.5]},
    {"table": [[[1.0]]]},
    {"table": [[["1"]]], "unit": [1]},
])
def test_exit_code_non_integer_json_numbers(capsys, tmp_path, domain, obj):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "hh", "--input", str(path), "--domain", domain,
                         "--max-degree", "1")
    assert code == 2 and out == "" and "must be" in err


@pytest.mark.parametrize("obj", [
    {"preset": 3},
    {"preset": ["cyclic:2"]},
    {"table": [[True, False], [False, True]]},
    {"table": [[0, 1], [1, False]]},
    {"table": 5},
    {"table": [5]},
    {"table": [[0, 1], [1, 0]], "name": 5},
])
def test_exit_code_malformed_group_json(capsys, tmp_path, obj):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "homology", "--preset", "bg", "--input", str(path),
                         "--max-degree", "1")
    assert code == 2 and out == "" and "must be" in err


@pytest.mark.parametrize("domain, obj", [
    ("q", {"table": []}),
    ("q", {"table": [[[1]]], "unit": [1, 5]}),
    ("z", {"table": [[[1]]], "unit": [1, 5]}),
    ("q", {"table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], "unit": [1]}),
    ("q", {"table": [[[1]]], "unit": [1], "labels": ["a", "b"]}),
    ("q", {"table": [[[1]]], "unit": [1], "labels": "a"}),
    ("q", {"table": [[[1]]], "unit": [1], "dim": True}),
    ("q", {"table": [[[1]]], "unit": [1], "name": ["x"]}),
    ("q", {"table": [[[1]]], "unit": [1], "name": 5}),
])
@pytest.mark.parametrize("command", [["hh"], ["hc"], ["verify", "sbi"]], ids=" ".join)
def test_exit_code_malformed_algebra_json(capsys, tmp_path, command, domain, obj):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *command, "--input", str(path), "--domain", domain,
                         "--max-degree", "2")
    assert code == 2 and out == "" and "must be" in err


def test_cli_does_not_import_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = ("import sys, cychom.cli\n"
              "code = cychom.cli.main(['hh', '--preset', 'truncpoly:2', '--domain', 'zp:5',"
              " '--max-degree', '2'])\n"
              "assert code == 0, code\n"
              "assert 'numpy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_importing_cychom_does_not_import_numpy():
    # every module of the package, in a fresh interpreter: a numpy import
    # there would be paid by every command before it starts
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = ("import importlib, pkgutil, sys, cychom, cychom.cli\n"
              "for mod in pkgutil.iter_modules(cychom.__path__):\n"
              "    importlib.import_module('cychom.' + mod.name)\n"
              "assert 'numpy' not in sys.modules, 'numpy imported'\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_internal_value_error_is_not_reported_as_bad_input(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "hh", broken)
    with pytest.raises(ValueError, match="internal"):
        cli.main(["hh", "--preset", "unit", "--max-degree", "0"])


@pytest.mark.parametrize("p", [2 ** 40 + 15, 2 ** 61 - 1])
def test_exit_code_prime_too_large_for_int64_kernel(capsys, p):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "hh", "--preset", "unit", "--domain", f"zp:{p}",
                       "--max-degree", "0")
    assert code == 2 and "too large" in err
    assert time.perf_counter() - t0 < 1


def test_integral_homology_builds_no_cycle_basis(capsys, monkeypatch):
    # the CLI prints only Betti numbers and torsion, which need no kernel
    # basis; every Smith form it takes is of a remainder with no unit entry
    argv = ["homology", "--preset", "bg", "--group", "cyclic:2", "--domain", "z",
            "--max-degree", "3"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0 and "torsion Z/2" in expected

    def forbidden(m):
        raise AssertionError("integral kernel basis built")

    smith_args = []
    real_snf = linalg.smith_normal_form

    def recorded_snf(m):
        smith_args.append(m)
        return real_snf(m)

    monkeypatch.setattr(chains, "integer_kernel_basis", forbidden)
    monkeypatch.setattr(linalg, "integer_kernel_basis", forbidden)
    monkeypatch.setattr(linalg, "smith_normal_form", recorded_snf)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out == expected and not err
    assert smith_args and not any(v in (1, -1) for m in smith_args for row in m.sparse_rows()
                                  for v in row.values())


def test_exit_code_rank_disagrees_with_bases(capsys, monkeypatch):
    # a Betti number from a wrong rank is caught when the SBI maps read bases
    real = chains.rank
    monkeypatch.setattr(chains, "rank", lambda m: real(m) + 1)
    code, out, err = run(capsys, "verify", "sbi", "--preset", "truncpoly:2",
                         "--max-degree", "2")
    assert code == 1 and "has rank" in err and not out


@pytest.mark.parametrize("argv", [
    ("verify", "sbi", "--preset", "truncpoly:2"),
    ("verify", "aw-ez"),
    ("hc", "--preset", "truncpoly:2", "--variant", "negative"),
    ("hc", "--preset", "truncpoly:2", "--variant", "periodic"),
], ids=["sbi", "aw-ez", "negative", "periodic"])
def test_induced_maps_over_z_exit_cleanly(capsys, argv):
    # classes over Z have no boundary basis to solve against
    code, out, err = run(capsys, *argv, "--domain", "z", "--max-degree", "2")
    assert (code, out, err) == (1, "", "error: Z is not a field\n")


def test_hc_over_z_has_torsion(capsys):
    code, out, _ = run(capsys, "hc", "--preset", "truncpoly:3", "--domain", "z",
                       "--max-degree", "3")
    assert code == 0
    assert out.splitlines() == ["H_0: betti 3", "H_1: betti 0  torsion Z/6",
                                "H_2: betti 3", "H_3: betti 0  torsion Z/6 Z/60"]


def test_hc_over_z_answers_where_hh_answers(capsys, tmp_path):
    # a rebased K^2 with unit [2, 3], no +-1 coordinate: over Z both build on
    # a unimodular basis that starts with the unit, K^2 being separable
    path = tmp_path / "k2.json"
    path.write_text(json.dumps({"table": [[[5, 6], [-3, -4]], [[-3, -4], [2, 3]]],
                                "unit": [2, 3]}))
    argv = ("--input", str(path), "--domain", "z", "--max-degree", "3")
    assert run(capsys, "hh", *argv) == (
        0, "H_0: betti 2\nH_1: betti 0\nH_2: betti 0\nH_3: betti 0\n", "")
    assert run(capsys, "hc", *argv) == (
        0, "H_0: betti 2\nH_1: betti 0\nH_2: betti 2\nH_3: betti 0\n", "")


# stdout and exit code of each command, byte for byte; a change that alters
# one on purpose edits its entry here and says so in CHANGES.md
GOLDEN = [
    ('homology --preset bg --group symmetric:3 --domain z --max-degree 3', 0, [
        'H_0: betti 1',
        'H_1: betti 0  torsion Z/2',
        'H_2: betti 0',
        'H_3: betti 0  torsion Z/6',
    ]),
    ('homology --preset fcircle --domain zp:2 --unnormalized --max-degree 2', 0, [
        'H_0: betti 1',
        'H_1: betti 2',
        'H_2: betti 1',
    ]),
    ('homology --preset cyclicbar --group cyclic:2 --max-degree 3', 0, [
        'H_0: betti 2',
        'H_1: betti 0',
        'H_2: betti 0',
        'H_3: betti 0',
    ]),
    ('hh --preset truncpoly:3 --max-degree 4', 0, [
        'H_0: betti 3',
        'H_1: betti 2',
        'H_2: betti 2',
        'H_3: betti 2',
        'H_4: betti 2',
    ]),
    ('hh --preset truncpoly:2 --domain z --unnormalized --max-degree 3', 0, [
        'H_0: betti 2',
        'H_1: betti 1  torsion Z/2',
        'H_2: betti 1',
        'H_3: betti 1  torsion Z/2',
    ]),
    ('hh --preset group:symmetric:3 --domain zp:3 --max-degree 2 --json', 0, [
        '[{"betti": 3, "degree": 0, "domain": "F3", "torsion": []}, {"betti": 1,'
        ' "degree": 1, "domain": "F3", "torsion": []}, {"betti": 1, "degree": 2,'
        ' "domain": "F3", "torsion": []}]',
    ]),
    # F_p commands whose relation spans need real elimination
    ('hh --preset productfield:3 --domain zp:5 --max-degree 3', 0, [
        'H_0: betti 3',
        'H_1: betti 0',
        'H_2: betti 0',
        'H_3: betti 0',
    ]),
    ('hh --preset truncpoly:3 --domain zp:3 --max-degree 4', 0, [
        'H_0: betti 3',
        'H_1: betti 3',
        'H_2: betti 3',
        'H_3: betti 3',
        'H_4: betti 3',
    ]),
    ('hc --preset productfield:2 --domain zp:3 --max-degree 3', 0, [
        'H_0: betti 2',
        'H_1: betti 0',
        'H_2: betti 2',
        'H_3: betti 0',
    ]),
    ('verify sbi --preset truncpoly:2 --domain zp:3 --max-degree 3', 0, [
        'HH_0: im 0 ker 0 exact',
        'HC_0: im 2 ker 2 exact',
        'HH_1: im 1 ker 1 exact',
        'HC_1: im 0 ker 0 exact',
        'HH_2: im 0 ker 0 exact',
        'HC_2: im 1 ker 1 exact',
        'HC_0: im 1 ker 1 exact',
        'HH_3: im 0 ker 0 exact',
        'HC_3: im 1 ker 1 exact',
        'HC_1: im 0 ker 0 exact',
        'sbi: pass',
    ]),
    ('homology --preset bg --group symmetric:3 --domain zp:3 --max-degree 3', 0, [
        'H_0: betti 1',
        'H_1: betti 0',
        'H_2: betti 0',
        'H_3: betti 1',
    ]),
    ('hc --preset truncpoly:2 --domain z --max-degree 3', 0, [
        'H_0: betti 2',
        'H_1: betti 0  torsion Z/2',
        'H_2: betti 2',
        'H_3: betti 0  torsion Z/2 Z/6',
    ]),
    ('hc --preset truncpoly:3 --variant periodic --window 3 --max-degree 2', 0, [
        'H_0: betti 3',
        'H_1: betti 0',
        'H_2: betti 3',
        'tower H_0: [3, 1, 1] stabilized',
        'tower H_1: [0, 0] stabilized',
        'tower H_2: [3, 1] open',
        'window flag: UNSTABLE',
    ]),
    ('hc --preset group:cyclic:2 --domain zp:2 --variant negative --window 2'
     ' --max-degree 2 --json',
     0, [
        '{"homology": [{"betti": 3, "degree": 0, "domain": "F2", "torsion": []},'
        ' {"betti": 3, "degree": 1, "domain": "F2", "torsion": []}, {"betti": 3,'
        ' "degree": 2, "domain": "F2", "torsion": []}], "stable": false,'
        ' "tower": [{"degree": 0, "stabilized": true, "tower": [2, 1, 1]}, {"degree": 1,'
        ' "stabilized": true, "tower": [1, 1]}, {"degree": 2, "stabilized": false,'
        ' "tower": [3, 2]}]}',
    ]),
    ('verify sbi --preset truncpoly:3 --max-degree 3', 0, [
        'HH_0: im 0 ker 0 exact',
        'HC_0: im 3 ker 3 exact',
        'HH_1: im 2 ker 2 exact',
        'HC_1: im 0 ker 0 exact',
        'HH_2: im 0 ker 0 exact',
        'HC_2: im 2 ker 2 exact',
        'HC_0: im 1 ker 1 exact',
        'HH_3: im 2 ker 2 exact',
        'HC_3: im 0 ker 0 exact',
        'HC_1: im 0 ker 0 exact',
        'sbi: pass',
    ]),
    ('verify relations --preset truncpoly:2 --max-degree 3', 0, [
        'relations [cyclic module]: degrees <= 3, 0 failures',
    ]),
    ('verify relations --preset cyclicbar --group cyclic:2 --max-degree 2', 0, [
        'relations [cyclic]: 110 instances, 0 failures',
    ]),
    ('verify hkr --preset truncpoly:2 --max-degree 2', 0, [
        'degree 0: omega dim 2, HH betti 2, pi.eps=id pass, eps iso True, pi iso True',
        'degree 1: omega dim 1, HH betti 1, pi.eps=id pass, eps iso True, pi iso True',
        'degree 2: omega dim 0, HH betti 1, pi.eps=id pass, eps iso False, pi iso False',
        'hkr: pass',
    ]),
    ('verify aw-ez --max-degree 3', 0, [
        'circle(x)circle: AW.EZ=id pass, EZ.AW=id on homology pass',
        'circle(x)truncpoly: AW.EZ=id pass, EZ.AW=id on homology pass',
    ]),
    # F_p representatives, reduced by the echelon that rref shares with Q
    ('verify aw-ez --domain zp:5 --max-degree 3', 0, [
        'circle(x)circle: AW.EZ=id pass, EZ.AW=id on homology pass',
        'circle(x)truncpoly: AW.EZ=id pass, EZ.AW=id on homology pass',
    ]),
    ('verify adjunction --preset bg --group cyclic:3 --max-degree 2', 0, [
        'adjunction: unit map pass, counit map pass, triangles pass (47 instances)',
    ]),
    ('verify exercise-bz --max-degree 3', 0, [
        'circle -> BZ: 53 instances, 0 failures',
    ]),
    # K^2 with unit [-2, 1]: the module is built on the basis f0 = -2e0 + e1, f1 = e0
    ('hh --input tests/data/k2_unit_m2_1.json --domain z --max-degree 3', 0, [
        'H_0: betti 2',
        'H_1: betti 0',
        'H_2: betti 0',
        'H_3: betti 0',
    ]),
    ('hc --input tests/data/k2_unit_m2_1.json --domain z --max-degree 3', 0, [
        'H_0: betti 2',
        'H_1: betti 0',
        'H_2: betti 2',
        'H_3: betti 0',
    ]),
    # K^2 with unit [2, 3]: over Z the module is built on the basis f0 = 2e0 + 3e1,
    # f1 = e0 + e1, found by Euclid's algorithm on the unit's coordinates
    ('hh --input tests/data/k2_unit_2_3.json --domain z --max-degree 3', 0, [
        'H_0: betti 2',
        'H_1: betti 0',
        'H_2: betti 0',
        'H_3: betti 0',
    ]),
    ('hc --input tests/data/k2_unit_2_3.json --domain z --max-degree 3', 0, [
        'H_0: betti 2',
        'H_1: betti 0',
        'H_2: betti 2',
        'H_3: betti 0',
    ]),
    # K[x]/(x^2) in the basis 1 + x, x: Omega is built on the module's basis,
    # so every line is that of verify hkr --preset truncpoly:2 --max-degree 3
    ('verify hkr --input tests/data/truncpoly2_unit_1_m1.json --max-degree 3', 0, [
        'degree 0: omega dim 2, HH betti 2, pi.eps=id pass, eps iso True, pi iso True',
        'degree 1: omega dim 1, HH betti 1, pi.eps=id pass, eps iso True, pi iso True',
        'degree 2: omega dim 0, HH betti 1, pi.eps=id pass, eps iso False, pi iso False',
        'degree 3: omega dim 0, HH betti 1, pi.eps=id pass, eps iso False, pi iso False',
        'hkr: pass',
    ]),
]


@pytest.mark.parametrize("command, code, lines", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_stdout(capsys, monkeypatch, command, code, lines):
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert run(capsys, *command.split())[:2] == (code, "".join(line + "\n" for line in lines))
