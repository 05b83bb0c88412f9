#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs.

    python3 benchmarks/selftest.py            # check the harness (under a minute)
    python3 benchmarks/selftest.py --record   # rewrite fingerprints.json

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, with and without tracing; that the traced self times add up
to the ``cli.main`` root; that a deliberately corrupted input is counted as a
failed operation without crashing the harness; and that the default seed's
inputs still match fingerprints.json. Exits nonzero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run

TINY_SECONDS = 0.1


def tiny(workload):
    """The workload at a size that runs in about a second."""
    return dataclasses.replace(workload, gaits=min(workload.gaits, 3), frames=60)


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def corrupt_first_input(case) -> None:
    """Move the first joint of the first capture the CLI reads up by 0.5 m."""
    path = case.inputs["gait00" if "gait00" in case.inputs else "capture"]
    header, first, rest = path.read_text().split("\n", 2)
    fields = first.split(",")
    fields[3] = f"{float(fields[3]) + 0.5:.9f}"
    path.write_text("\n".join([header, ",".join(fields), rest]))


def default_digests(workloads) -> dict[str, dict[str, str]]:
    """SHA-256 of every workload's inputs at the default seed."""
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = run.ROOT / ".bench_work" / f"fingerprint-{name}"
        try:
            inputs, _ = workloads.write_inputs(workload, workloads.DEFAULT_SEED, workdir)
            digests[name] = {n: workloads.sha256_file(p) for n, p in sorted(inputs.items())}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return digests


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import spans
    import workloads

    if "--record" in sys.argv[1:]:
        run.FINGERPRINTS.write_text(json.dumps(default_digests(workloads), indent=2) + "\n")
        print(f"wrote {run.FINGERPRINTS}")
        return 0

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(set(spec_w["name"] for spec_w in spec["workloads"]) == set(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name, workload in workloads.WORKLOADS.items():
        small = tiny(workload)
        for trace in (0, 1):
            report = run.run(small, workloads.DEFAULT_SEED, TINY_SECONDS, trace)
            got = {k: m["unit"] for k, m in report["metrics"].items()}
            expect(got == wanted[trace], f"{name} trace={trace}: metrics/units {got} != {wanted[trace]}")
            # the tiny inputs are not the fingerprinted ones: only those checks may fail
            others = [f for f in report["failures"] if not f.startswith("input '")]
            expect(not others, f"{name} trace={trace}: unexpected failures {others}")
            if trace:
                m = report["metrics"]
                self_sum = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
                root = m[f"{spans.ROOT}.total_s"]["value"]
                expect(abs(self_sum - root) <= 1e-6 * max(1.0, root),
                       f"{name}: span self times {self_sum} do not add up to the root {root}")
                expect(m[f"{spans.ROOT}.calls"]["value"] == 1, f"{name}: cli.main not traced once")

        report = run.run(small, workloads.DEFAULT_SEED, TINY_SECONDS, 0, corrupt=corrupt_first_input)
        runs_failed = [f for f in report["failures"] if not f.startswith("input '")]
        expect(len(runs_failed) >= report["runs"],
               f"{name}: corrupted input not counted as failed: {report['failures']}")
        expect(report["fail_ratio"] > 0, f"{name}: fail_ratio is 0 with a corrupted input")
        print(f"ok {name}: metrics and units, span accounting, corrupted input counted "
              f"({report['failed']}/{report['attempted']} failed)")

    recorded = json.loads(run.FINGERPRINTS.read_text())
    expect(default_digests(workloads) == recorded, "default-seed inputs differ from fingerprints.json")
    print("ok: default-seed inputs match fingerprints.json")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
