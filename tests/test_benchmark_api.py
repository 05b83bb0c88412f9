"""The package API that the benchmark harness in ``benchmarks/`` reads.

The harness traces the functions named in ``spans.SPANS`` by name, and a name
that no longer resolves is skipped and reports 0 instead of failing. Its
workloads build inputs and expected outputs in-process, reading a sequence's
per-frame ``frames`` view, its ``frame_index`` and ``BodyTemplate.joint_offsets``.
These tests import the harness modules unchanged and run each workload small.
"""

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import skelcal.cli
from skelcal import JOINT_COUNT

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
spans = importlib.import_module("spans")
workloads = importlib.import_module("workloads")


@pytest.mark.parametrize(
    "module,function", [*spans.SPANS, ("perspective", "joint_perspective_degree")]
)
def test_traced_names_resolve_to_functions(module, function):
    assert inspect.isfunction(getattr(importlib.import_module(f"skelcal.{module}"), function, None))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks_small(name, tmp_path):
    workload = dataclasses.replace(
        workloads.WORKLOADS[name], frames=60, gaits=min(workloads.WORKLOADS[name].gaits, 3)
    )
    case = workloads.prepare(workload, workloads.DEFAULT_SEED, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert skelcal.cli.main(case.argv) == 0
    finally:
        tracer.uninstall()
    assert workloads.check_output(case) is None
    # the tracer counts rows through the per-frame view
    assert tracer.metrics()["fileio.read_capture.rows"] == workload.input_frames * JOINT_COUNT
