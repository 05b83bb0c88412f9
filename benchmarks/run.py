#!/usr/bin/env python3
"""skelcal benchmark: the real CLI on seeded synthetic captures.

    python3 benchmarks/run.py --workload apply-9000 --seed 3 --seconds 25 --trace 0

Run from anywhere inside a checkout that holds ``src/skelcal``; the program is
run from those sources, not from an installed copy.

``--trace 0`` drives ``python -c "from skelcal.cli import main; ..."`` (what
the installed ``skelcal`` script does) in a closed loop with one client: one
process at a time, each started after the previous one exited, as a user
drives the tool from a shell. Every run is timed from spawn to exit, numpy
import included. Beside each one, a fresh ``python -c "import skelcal.cli"``
is timed as the set-up cost, and ``reference.py`` measures the host's current
speed; the reported times are scaled by it. ``--trace 1`` instead calls
``skelcal.cli.main`` in-process, alternating untraced and traced calls, and
reports the per-module spans of ``spans.py``.

Every output is checked against an in-process computation and against the
synthetic ground truth. Generating the inputs is not timed. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. See GLOSSARY.md for every workload and metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FINGERPRINTS = HERE / "fingerprints.json"
REFERENCE = HERE / "reference.py"

#: Host-speed anchor: times are reported as if reference.py took this long,
#: about its median on a quiet 2-CPU Xeon host where the benchmark was defined.
REFERENCE_NOMINAL_S = 0.5

#: How long launcher.py may take to finish its child and exit at the end.
LAUNCHER_EXIT_S = 90.0

#: Units of the end-to-end metrics reported with ``--trace 0``.
END_TO_END_UNITS = {
    "wall_s": "s",
    "frames_per_s": "frames/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="also write the full report (environment, "
                   "quartiles, failure reasons) to this JSON file")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


# -- environment -------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "skelcal").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "loadavg_start": _read("/proc/loadavg").split()[:3],
    }


# -- timing the CLI ------------------------------------------------------------


class Launcher:
    """Client of launcher.py, which spawns and times children from a small process."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], stderr_path: Path) -> dict:
        """Run one child to completion; its exit code, wall time, CPU time and peak RSS."""
        self._proc.stdin.write(json.dumps({"cmd": cmd, "stderr": str(stderr_path)}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py exited early")
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=LAUNCHER_EXIT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _fresh_output(case) -> None:
    shutil.rmtree(case.output, ignore_errors=True)
    case.output.mkdir(parents=True)


def measure_cli(case, seconds: float, check) -> tuple[dict[str, list[float]], list[str]]:
    """Closed loop of CLI runs for ``seconds``; samples per metric and failure reasons.

    The reference work runs before every import probe and CLI run, and once
    more after the last, so each sample sits between two reference samples.
    """
    cli = [sys.executable, "-c", "import sys; from skelcal.cli import main; sys.exit(main())"]
    cli += case.argv
    probe = [sys.executable, "-c", "import skelcal.cli"]
    err = case.workdir / "stderr.txt"
    samples: dict[str, list[float]] = {
        k: [] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "reference_wall_s", "reference_cpu_s")
    }
    failures = []
    with Launcher() as launcher:
        deadline = time.monotonic() + seconds
        while True:
            _run_reference(launcher, samples, err)
            # a failing import also fails the CLI run below, which counts it
            samples["setup_s"].append(launcher.run(probe, err)["wall_s"])
            _fresh_output(case)
            done = launcher.run(cli, err)
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                samples[key].append(done[key])
            reason = f"exit {done['rc']}: {_tail(err)}" if done["rc"] != 0 else check(case)
            if reason:
                failures.append(reason)
            if time.monotonic() >= deadline:
                break
        _run_reference(launcher, samples, err)
    return samples, failures


def _run_reference(launcher: Launcher, samples: dict[str, list[float]], err: Path) -> None:
    ref = launcher.run([sys.executable, str(REFERENCE)], err)
    if ref["rc"] != 0:
        raise RuntimeError(f"reference work failed: {_tail(err)}")
    samples["reference_wall_s"].append(ref["wall_s"])
    samples["reference_cpu_s"].append(ref["cpu_s"])


def host_scaled(values: list[float], reference: list[float]) -> float:
    """Median of the samples, each scaled by the reference runs just before and after it.

    ``reference`` has one more entry than ``values``. Each sample is
    multiplied by REFERENCE_NOMINAL_S over the mean of its two neighbours.
    """
    return statistics.median(
        v * 2.0 * REFERENCE_NOMINAL_S / (reference[i] + reference[i + 1]) for i, v in enumerate(values)
    )


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


# -- traced in-process runs -----------------------------------------------------


def _call_main(argv: list[str]) -> int:
    import skelcal.cli

    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return skelcal.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def _timed_main(case, check, tracer=None) -> tuple[float, str | None]:
    """One in-process ``cli.main`` call on a fresh heap; its wall time and failure reason."""
    _fresh_output(case)
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        rc = _call_main(case.argv)
    except Exception as exc:  # a crash is one failed operation; keep measuring
        rc = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return wall, (f"cli.main returned {rc}" if rc != 0 else check(case))


def measure_traced(case, seconds: float, check) -> tuple[list[dict], list[float], list[float], list[str]]:
    """Alternate untraced and traced in-process ``cli.main`` calls for ``seconds``.

    Returns the traced calls' span metrics, the traced and untraced wall
    times, and the failure reasons of every call, the warm-up call included.
    """
    import skelcal.cli  # noqa: F401  (loaded before the tracer patches it)
    import spans

    traced_runs, traced_walls, plain_walls = [], [], []
    _, reason = _timed_main(case, check)  # warm-up: the first call in a process grows its heap
    failures = [reason] if reason else []
    deadline = time.monotonic() + seconds
    while True:
        # alternate which goes first, so neither always runs right after the warm-up's heap
        for traced in (False, True) if len(plain_walls) % 2 == 0 else (True, False):
            tracer = spans.Tracer() if traced else None
            wall, reason = _timed_main(case, check, tracer)
            if reason:
                failures.append(reason)
            if traced:
                traced_walls.append(wall)
                traced_runs.append(tracer.metrics())
            else:
                plain_walls.append(wall)
        if time.monotonic() >= deadline:
            return traced_runs, traced_walls, plain_walls, failures


# -- fingerprints ----------------------------------------------------------------


def default_seed_digests(workload, case) -> dict[str, str]:
    """SHA-256 of every input of ``workload`` at the default seed.

    Computed from ``case`` when it is the default seed. Otherwise the inputs
    are generated once per version of the generating code and cached under
    .bench_work/, because every run of a checkout would regenerate the same
    files.
    """
    import numpy
    import workloads

    if case.seed == workloads.DEFAULT_SEED:
        inputs = case.inputs
    else:
        key = hashlib.sha256(
            (src_digest() + numpy.__version__ + platform.python_version()).encode()
            + Path(workloads.__file__).read_bytes()
        ).hexdigest()[:16]
        cache = ROOT / ".bench_work" / f"fingerprints-{workload.name}-{key}.json"
        if cache.is_file():
            return json.loads(cache.read_text())
        inputs, _ = workloads.write_inputs(workload, workloads.DEFAULT_SEED, case.workdir / "default-seed")
    digests = {name: workloads.sha256_file(path) for name, path in sorted(inputs.items())}
    if case.seed != workloads.DEFAULT_SEED:
        tmp = cache.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests))
        os.replace(tmp, cache)
    return digests


def check_fingerprints(workload, case) -> tuple[int, list[str]]:
    """Compare the default seed's inputs with fingerprints.json; one operation per input."""
    import workloads

    recorded = json.loads(FINGERPRINTS.read_text()).get(workload.name, {})
    actual = default_seed_digests(workload, case)
    names = sorted(set(recorded) | set(actual))
    failures = [
        f"input '{name}' for seed {workloads.DEFAULT_SEED}: sha256 {actual.get(name)} "
        f"!= recorded {recorded.get(name)}"
        for name in names
        if recorded.get(name) != actual.get(name)
    ]
    return len(names), failures


# -- summary ----------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


def run(workload, seed: int, seconds: float, trace: int, corrupt=None) -> dict:
    """Prepare, measure and check one workload; returns the full report.

    ``corrupt``, if given, is called on the prepared case before measuring.
    """
    import workloads

    env = environment()
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        case = workloads.prepare(workload, seed, workdir)
        fp_ops, fp_failures = check_fingerprints(workload, case)
        prepare_s = time.perf_counter() - t0
        if corrupt is not None:
            corrupt(case)
        if trace:
            traced, traced_walls, plain_walls, failures = measure_traced(case, seconds, workloads.check_output)
            runs = len(traced_walls) + len(plain_walls) + 1  # and the warm-up call
        else:
            samples, failures = measure_cli(case, seconds, workloads.check_output)
            runs = len(samples["wall_s"])
        accuracy, accuracy_failures = workloads.accuracy(case)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures += fp_failures + accuracy_failures
    attempted = runs + fp_ops + 1  # and the ground-truth accuracy check
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "runs": runs, "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
        "accuracy": accuracy, "prepare_s": prepare_s,
        "environment": dict(env, loadavg_end=_read("/proc/loadavg").split()[:3]),
    }
    if trace:
        import spans

        # the traced call with the median root time, whole, so its self times add up
        ordered = sorted(traced, key=lambda r: r[f"{spans.ROOT}.total_s"])
        metrics = dict(ordered[(len(ordered) - 1) // 2])
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
        report["traced_wall_s"] = summary(traced_walls)
        report["untraced_wall_s"] = summary(plain_walls)
        units = spans.units()
    else:
        report["distributions"] = {k: summary(v) for k, v in samples.items()}
        report["samples"] = samples
        ref_wall, ref_cpu = samples["reference_wall_s"], samples["reference_cpu_s"]
        wall = host_scaled(samples["wall_s"], ref_wall)
        metrics = {
            "wall_s": wall,
            "frames_per_s": workload.input_frames / wall,
            "cpu_s": host_scaled(samples["cpu_s"], ref_cpu),
            "setup_s": host_scaled(samples["setup_s"], ref_wall),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        units = END_TO_END_UNITS
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return report


def print_report(report: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"runs={report['runs']} attempted={report['attempted']} failed={report['failed']} "
          f"fail_ratio={report['fail_ratio']:.4f}")
    dist = report.get("distributions", {})
    for name, m in report["metrics"].items():
        n = dist.get("wall_s" if name == "frames_per_s" else name, {}).get("n")
        print(f"{name:58s} {m['value']:>14.6g} {m['unit']}" + (f"  (median of {n})" if n else ""))
    for key, value in report["accuracy"].items():
        print(f"{'accuracy.' + key:58s} {value:>14.6g}")
    for name, d in report.get("distributions", {}).items():
        print(f"{'raw.' + name:58s} {d['median']:>14.6g}  (n={d['n']}, p25 {d['p25']:.4g}, "
              f"p75 {d['p75']:.4g}, min {d['min']:.4g}, max {d['max']:.4g})")
    for reason in report["failures"]:
        print(f"FAILED: {reason}")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skelcal" / "cli.py").is_file():
        print(f"error: no skelcal sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    reports = []
    for name in names:
        report = run(workloads.WORKLOADS[name], args.seed, args.seconds, args.trace)
        reports.append(report)
        print_report(report)
        print(json.dumps({
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["metrics"],
        }))
    if args.out is not None:
        args.out.write_text(json.dumps(reports[0] if len(reports) == 1 else reports, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
