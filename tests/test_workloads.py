"""The benchmark's workloads call the library through its public names and
the CLI's kernel text; each must still build, run and pass the benchmark's
own correctness gate."""

import importlib.util
import pathlib
import random
import sys

import pytest

import windwalk
from windwalk.cli import main

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up by name while it is being defined.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_warmup_inputs_build_and_meet_their_reference(workloads):
    for name in workloads.WORKLOADS:
        spec = workloads.make_workload(name, 0, str(WORKLOADS.parent)).warmup_spec()
        kernel = workloads.build_kernel(spec["kernel"])
        metric = workloads.build_metric(spec["metric"], kernel.n_windows)
        constants = windwalk.compute_limits(kernel, metric)
        check = workloads.check_constants(spec["kernel"], spec["metric"], constants.gamma,
                                          constants.sigma2)
        assert check.ok, (name, check.detail)


@pytest.mark.parametrize("family", ["asymmetric", "one_parameter", "symmetric"])
def test_cli_cold_op_passes_its_gate_in_process(capsys, workloads, family):
    ops = workloads.CliCold(0, str(WORKLOADS.parent)).cycle(random.Random(0), 0)
    assert {op["kernel"].split(":")[0] for op in ops} == set(workloads.CliCold.FAMILIES)
    spec = next(op for op in ops if op["kernel"].split(":")[0] == family)
    assert main(workloads.CliCold.argv(spec)) == 0
    check = workloads.CliCold.check_payload(spec, capsys.readouterr().out)
    assert check.ok, check.detail
