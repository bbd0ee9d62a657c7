"""End-to-end checks of the command-line interface."""

import json
import os
import subprocess
import sys
import time

import pytest

from cychom import chains, cli
from cychom.domains import Q
from cychom.hochschild import group_algebra, hh
from cychom.groups import cyclic_group


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


def test_exit_code_budget(capsys):
    code, _, err = run(capsys, "hh", "--preset", "group:symmetric:3",
                       "--max-degree", "6", "--budget", "100")
    assert code == 3


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
])
def test_exit_code_malformed_group_json(capsys, tmp_path, obj):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "homology", "--preset", "bg", "--input", str(path),
                         "--max-degree", "1")
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


def test_exit_code_internal_failure(capsys, monkeypatch):
    # a kernel basis that is not saturated puts boundaries outside its lattice
    real = chains.integer_kernel_basis
    monkeypatch.setattr(chains, "integer_kernel_basis",
                        lambda m: [[3 * x for x in v] for v in real(m)])
    code, _, err = run(capsys, "homology", "--preset", "bg", "--group", "cyclic:2",
                       "--domain", "z", "--max-degree", "2")
    assert code == 1 and "saturated" in err
