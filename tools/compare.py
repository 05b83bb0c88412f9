#!/usr/bin/env python3
"""Paired benchmark comparison of two git revisions of this repository.

    python3 tools/compare.py PARENT CHANGE [--workload all] [--pairs 10] [--seconds S]

Each revision is exported with ``git archive`` into ``parent/`` and
``change/``, two sibling directories of one temporary directory: both trees
sit at paths of equal length, since a checkout's path alone moves the
metrics, and neither holds a ``__pycache__``. Every child runs under
``PYTHONDONTWRITEBYTECODE=1``, so both sides pay for compiling the package on
every run, as a fresh checkout does. For pair k = 0 .. N-1 it runs each tree's
own ``benchmarks/run.py --workload W --seed k --seconds S``, the parent first
on odd seeds and the change first on even ones.

It prints three Markdown tables: each run's end-to-end metrics and operations,
parent → change; per workload and end-to-end metric of ``BENCHMARK.json``
the parent's median (quartiles) → the change's median, the pairs the change
won and one verdict (see ``verdict``); and per workload the median of each
value of the reports' ``accuracy``, parent → change, with no verdict, so a
change to results shows beside its cost. Its last line counts each tree's
``src/**/*.py`` lines, ``src/: <parent> → <change> lines (<delta>)``. It exits 1 on
any REGRESSION, or when the change side failed more operations than the parent
on some workload.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: The end-to-end metrics of the per-run table, in its column order.
PER_RUN = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def quartiles(values: list[float]) -> tuple[float, float]:
    """The 25th and 75th percentiles of ``values``, as ``benchmarks/run.py`` reports them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs_won(parent: list[float], change: list[float], better: str) -> int:
    """How many pairs ``(parent[k], change[k])`` the change wins; a tie counts for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(
    parent: list[float], change: list[float], better: str, bound: float, parent_failed: int, change_failed: int
) -> str:
    """The verdict on one metric of one workload, from the paired runs ``parent[k]`` and ``change[k]``.

    ``better`` ("lower" or "higher") and ``bound`` (a share of the parent's
    median) are the metric's in ``BENCHMARK.json``; ``*_failed`` are the
    operations each side failed over all its runs of the workload.

    - REGRESSION: the change's median is worse than the parent's by more than the bound.
    - GAIN: the change is better in at least 9/10 of the pairs, its median beats the
      parent's by more than the parent's quartile spread, and it failed no more operations.
    - UNRESOLVED: the parent's quartile spread is wider than the bound, unless every
      change run beats every parent run.
    - NO SETBACK: every other case.
    """
    sign = 1 if better == "higher" else -1
    base = statistics.median(parent)
    ahead = sign * (statistics.median(change) - base)
    p25, p75 = quartiles(parent)
    if -ahead > bound * abs(base):
        return "REGRESSION"
    if 10 * pairs_won(parent, change, better) >= 9 * len(parent) and ahead > p75 - p25 and (
        change_failed <= parent_failed
    ):
        return "GAIN"
    if p75 - p25 > bound * abs(base) and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "UNRESOLVED"
    return "NO SETBACK"


def first(seed: int) -> str:
    """The side that runs first in the pair on ``seed``: the parent on odd seeds."""
    return "parent" if seed % 2 else "change"


def _fmt(value: float, unit: str) -> str:
    return f"{value:,.0f}" if unit == "frames/s" else f"{value:.2f}" if unit == "MB" else f"{value:.3f}"


def tables(pairs: list[dict[str, dict[str, dict]]], spec: dict) -> tuple[list[str], int]:
    """The per-run, verdict and accuracy tables of ``pairs``, and the exit status.

    ``pairs[k][side][workload]`` is the report that ``benchmarks/run.py --out``
    wrote for that workload on seed k; ``spec`` is ``BENCHMARK.json``.
    """
    metrics = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    workloads = list(pairs[0]["parent"])
    lines = [
        "| workload | seed | first | " + " | ".join(PER_RUN) + " | ops (failed) |",
        "|---" * (len(PER_RUN) + 4) + "|",
    ]
    for workload in workloads:
        for seed, pair in enumerate(pairs):
            p, c = (pair[side][workload] for side in SIDES)
            cells = [
                f"{_fmt(p['metrics'][n]['value'], units[n])} → {_fmt(c['metrics'][n]['value'], units[n])}"
                for n in PER_RUN
            ]
            ops = f"{p['attempted']} ({p['failed']}) → {c['attempted']} ({c['failed']})"
            lines.append(f"| {workload} | {seed} | {first(seed)} | " + " | ".join(cells) + f" | {ops} |")
    lines += [
        "",
        "| workload | metric | parent median (p25–p75) → change median | change won | verdict |",
        "|---|---|---|---|---|",
    ]
    status, footer, accuracy = 0, [], ["", "| workload | accuracy | parent median → change median |", "|---|---|---|"]
    for workload in workloads:
        runs = {side: [pair[side][workload] for pair in pairs] for side in SIDES}
        failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
        attempted = {side: sum(r["attempted"] for r in runs[side]) for side in SIDES}
        status |= failed["change"] > failed["parent"]
        for m in metrics:
            values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES}
            said = verdict(*values.values(), m["better"], m["bound"], *failed.values())
            status |= said == "REGRESSION"
            p25, p75 = quartiles(values["parent"])
            unit = m["unit"]
            medians = (
                f"{_fmt(statistics.median(values['parent']), unit)} ({_fmt(p25, unit)}–{_fmt(p75, unit)}) → "
                f"{_fmt(statistics.median(values['change']), unit)} {unit}"
            )
            won = pairs_won(values["parent"], values["change"], m["better"])
            lines.append(f"| {workload} | {m['name']} | {medians} | {won}/{len(pairs)} | {said} |")
        for name in runs["parent"][0]["accuracy"]:
            parent, change = (statistics.median(r["accuracy"][name] for r in runs[side]) for side in SIDES)
            accuracy.append(f"| {workload} | {name} | {parent:.4g} → {change:.4g} |")
        footer.append(
            f"{workload}: failed operations, parent {failed['parent']} of {attempted['parent']}, "
            f"change {failed['change']} of {attempted['change']}"
        )
    return [*lines, *accuracy, "", *footer], status


def export(rev: str, dest: Path) -> None:
    """Write the files that git holds at ``rev`` into ``dest``."""
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True)
    if done.returncode != 0:
        raise SystemExit(f"error: git archive {rev}: {done.stderr.decode(errors='replace').strip()}")
    with tarfile.TarFile(fileobj=io.BytesIO(done.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):  # PEP 706's filters, from Python 3.10.12 and 3.11.4
            tar.extractall(dest, filter="data")
        else:  # this repository's own archive, extracted as before PEP 706
            tar.extractall(dest)


def src_lines(tree: Path) -> int:
    """The lines of ``tree``'s ``src/**/*.py`` files, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in tree.glob("src/**/*.py"))


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, dict]:
    """Run ``tree``'s own benchmark once; its reports by workload name."""
    out = tree.parent / f"{tree.name}-{seed}.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # run.py finds the package beside it
    cmd = [sys.executable, str(tree / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
    if subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode != 0:
        raise SystemExit(f"error: {tree.name}: benchmarks/run.py failed on seed {seed}")
    reports = json.loads(out.read_text(encoding="utf-8"))
    return {r["workload"]: r for r in (reports if isinstance(reports, list) else [reports])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="the git revision to compare against")
    p.add_argument("change", help="the git revision to measure")
    p.add_argument("--workload", default="all", help="a workload name, or 'all' (default)")
    p.add_argument("--pairs", type=int, default=10, help="parent/change pairs, on seeds 0 .. N-1 (default 10)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help=f"measuring time per run and workload (default {spec['run_seconds']})")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    with tempfile.TemporaryDirectory(prefix="skelcal-compare-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            export(rev, trees[side])
        lines = {side: src_lines(trees[side]) for side in SIDES}
        pairs = []
        for seed in range(args.pairs):
            order = SIDES if first(seed) == "parent" else SIDES[::-1]
            print(f"pair {seed + 1}/{args.pairs}: {order[0]} first", file=sys.stderr, flush=True)
            pairs.append({side: run_side(trees[side], args.workload, seed, args.seconds) for side in order})
    table, status = tables(pairs, spec)
    delta = lines["change"] - lines["parent"]
    print("\n".join([*table, "", f"src/: {lines['parent']:,} → {lines['change']:,} lines ({delta:+,})"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
