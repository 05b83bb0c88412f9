"""The package API that the benchmark harness in ``benchmarks/`` reads.

The harness traces the functions named in ``spans.SPANS`` by name, and a name
that no longer resolves is skipped and reports 0 instead of failing. Its
workloads build inputs and expected outputs in-process, reading a sequence's
per-frame ``frames`` view, its ``frame_index`` and ``BodyTemplate.joint_offsets``.
These tests import the harness modules unchanged and run each workload small,
with the capture reader's line parser made to fail: every capture a workload
reads must take the reader's numpy kernel.
"""

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path
from unittest import mock

import pytest

import skelcal.cli
from skelcal import JOINT_COUNT, fileio

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
spans = importlib.import_module("spans")
workloads = importlib.import_module("workloads")


@pytest.mark.parametrize("module,function", spans.SPANS)
def test_traced_names_resolve_to_functions(module, function):
    assert inspect.isfunction(getattr(importlib.import_module(f"skelcal.{module}"), function, None))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks_small(name, tmp_path):
    workload = dataclasses.replace(
        workloads.WORKLOADS[name], frames=60, gaits=min(workloads.WORKLOADS[name].gaits, 3)
    )
    _run_and_check(workload, tmp_path)


def test_apply_workload_checks_across_blocks(tmp_path):
    """The harness's byte check of the corrected capture, over parts that ``apply`` writes in turn."""
    workload = dataclasses.replace(workloads.WORKLOADS["apply-9000"], frames=600)
    assert workload.frames > 2 * fileio.BLOCK_FRAMES
    _run_and_check(workload, tmp_path)


def _run_and_check(workload, tmp_path):
    # every capture that a workload reads, in prepare or in the CLI, takes the reader's kernel
    off_the_kernel = AssertionError("a benchmark input was read by the line parser")
    with mock.patch.object(fileio, "_parse_lines", side_effect=off_the_kernel):
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
