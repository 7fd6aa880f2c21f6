"""The benchmark's contract with the program: one pass of each workload at
the default seed, through perfbench's own op list, runner and checker,
against its recorded outputs.  An API or output change that would make the
benchmark count its ops as failed fails here first.  perfbench/ is only
read."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    # perfbench imports its modules by bare name; load workloads.py under a
    # name of its own so that nothing on sys.path is shadowed, and write no
    # bytecode cache into perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves the module by name
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_matches_the_recorded_outputs(workload):
    checker = workloads.Checker(json.loads((PERFBENCH / "expected.json").read_text()))
    failures = []
    for op in workloads.build_ops(workload, workloads.DEFAULT_SEED):
        reason = checker.check(op, workloads.run_op(op))
        if reason is not None:
            failures.append(f"{op.name}: {reason}")
    assert failures == []
