"""The benchmark's commands give the answers its checker expects.

Every command of every workload in ``perfbench/workloads.py`` runs once
through ``cli.main`` on the inputs ``perfbench/inputs.py`` makes at seeds
0 (the presets) and 1 (a rebased basis); ``perfbench`` is only read.
"""

import importlib.util
import json
import os
import sys

import pytest

from cychom import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


inputs, workloads = _load("inputs"), _load("workloads")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_benchmark_command_gives_the_expected_answer(capsys, tmp_path, workload, seed):
    paths = {}
    for name in workloads.input_names(workload):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as f:
            json.dump(inputs.make_input(name, seed), f)
    for cmd, argv in zip(workloads.WORKLOADS[workload], workloads.bind(workload, paths)):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert workloads.check(cmd, code, out) is None, argv
