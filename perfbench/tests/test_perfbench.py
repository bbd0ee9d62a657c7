"""Self-tests of the benchmark: tracer wrapping, seeded inputs, answer checks.

    python3 -m pytest -q perfbench/tests
"""

import importlib
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

child.load_cli(ROOT)

from cychom.domains import Fp, Q, Z  # noqa: E402
from cychom.groups import cyclic_group, group_from_json  # noqa: E402
from cychom.hochschild import (  # noqa: E402
    algebra_from_json,
    product_field,
    truncated_polynomial,
)

MODULES = ("chains", "cyclic", "cli", "hochschild", "derham", "linalg", "matrix", "_modp")


def _bindings():
    """Every (namespace, key) -> object that a tracer target could replace."""
    out = {}
    for _, modname, attr, _ in tracer.TARGETS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            out[(cls, meth)] = cls.__dict__[meth]
            continue
        orig = getattr(mod, attr)
        for short in MODULES:
            m = importlib.import_module(f"cychom.{short}")
            for key, val in vars(m).items():
                if val is orig:
                    out[(m, key)] = val
    return out


def test_tracer_wraps_every_binding_and_undoes_it():
    before = _bindings()
    # the from-imports the tracer must follow, not just the home module
    names = {(owner.__name__, key) for owner, key in before if hasattr(owner, "__file__")}
    for needed in [("cychom.cli", "homology"), ("cychom.cyclic", "homology"),
                   ("cychom.hochschild", "homology"), ("cychom.chains", "solve_in_span"),
                   ("cychom.cyclic", "rank"), ("cychom.cli", "rank"),
                   ("cychom.cli", "aw_map"), ("cychom.cli", "hkr_epsilon"),
                   ("cychom.cyclic", "induced_map"), ("cychom.chains", "rank_kernel_image")]:
        assert needed in names, needed
    t = tracer.Tracer()
    t.install()
    try:
        for (owner, key), orig in before.items():
            now = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            if isinstance(now, classmethod):
                now = now.__func__
            assert getattr(now, "perfbench_span", None), (owner, key)
            assert getattr(now, "__wrapped__", None) is \
                (orig.__func__ if isinstance(orig, classmethod) else orig)
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_run_sees_original_functions():
    before = _bindings()
    report = child.run_plan({"root": ROOT, "trace": False, "commands": [
        ["homology", "--preset", "circle", "--max-degree", "1"]]})
    assert report["commands"][0]["code"] == 0
    assert "layers" not in report
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "perfbench_span") for v in after.values())


def test_traced_run_records_every_layer_it_reaches():
    before = _bindings()
    report = child.run_plan({"root": ROOT, "trace": True, "commands": [
        ["hh", "--preset", "truncpoly:2", "--domain", "zp:5", "--max-degree", "2"],
        ["verify", "sbi", "--preset", "truncpoly:2", "--max-degree", "1"]]})
    assert [c["code"] for c in report["commands"]] == [0, 0]
    fp, sbi = report["layers"]
    for m in (fp, sbi):
        assert m["cli.self_s"] > 0 and m["homology.self_s"] > 0
        assert m["linalg.rref_calls"] > 0 and m["matrix.matmul_calls"] > 0
    assert fp["chains.normalize_rel_cells"] > 0 and fp["chains.normalize_s"] > 0
    assert fp["modp.rref_calls"] > 0 and fp["modp.ops"] > 0
    assert sbi["compare.sbi_s"] > 0 and sbi["compare.induced_s"] > 0
    total = tracer.finish([fp, sbi])
    assert 0 < total["linalg.rref_rank_ratio"] <= 1
    assert 0 < total["linalg.rref_density"] <= 1
    assert all(_bindings()[k] is before[k] for k in before)


def test_seed_zero_writes_the_presets():
    for name, preset in (("truncpoly2", truncated_polynomial(2, Q)),
                         ("productfield2", product_field(2, Q))):
        obj = inputs.make_input(name, 0)
        assert (obj["table"], obj["unit"], obj["labels"]) == \
            (preset.table, preset.unit, preset.labels)
    assert inputs.make_input("cyclic3", 0)["table"] == cyclic_group(3).table


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 1000])
def test_generated_inputs_pass_program_validation(seed):
    for name, (kind, _) in inputs.INPUTS.items():
        obj = inputs.make_input(name, seed)
        assert obj == inputs.make_input(name, seed)
        if kind == "group":
            assert group_from_json(obj).order == len(obj["table"])
            continue
        for dom in (Q, Z, Fp(32003)):
            assert algebra_from_json(obj, dom).dim == len(obj["table"])
        if seed:
            assert obj["table"] != inputs.make_input(name, 0)["table"]


def test_dense_unit_stays_dense():
    for seed in range(1, 20):
        assert all(inputs.make_input("productfield2", seed)["unit"])


def test_reference_job_is_fixed():
    assert child.reference_job() == 32


def test_checker_counts_wrong_answers_and_budget_exits():
    cmd = workloads.WORKLOADS["z-fp"][0]
    good = '[{"degree": 0, "betti": 1, "torsion": [], "domain": "Z"},' \
        '{"degree": 1, "betti": 0, "torsion": [3], "domain": "Z"},' \
        '{"degree": 2, "betti": 0, "torsion": [], "domain": "Z"},' \
        '{"degree": 3, "betti": 0, "torsion": [3], "domain": "Z"}]'
    assert workloads.check(cmd, 0, good) is None
    assert workloads.check(cmd, 0, good.replace("[3]", "[9]", 1)) is not None
    assert workloads.check(cmd, 3, good) == "exit code 3"
    assert workloads.check(cmd, 0, "not json") is not None
