"""The paired benchmark comparison in ``tools/compare.py``: its verdicts, its exit status and one short run."""

import json
import re
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
#: Ten parent runs of wall_s, 1.00 to 1.09 s: a quartile spread of 0.05 s, under the 25% bound.
PARENT = [1.0 + 0.01 * k for k in range(10)]


def wall_s(parent, change, parent_failed=0, change_failed=0):
    return compare.verdict(parent, change, "lower", METRICS["wall_s"]["bound"], parent_failed, change_failed)


class TestVerdict:
    def test_gain_in_every_pair(self):
        assert wall_s(PARENT, [p - 0.1 for p in PARENT]) == "GAIN"

    def test_gain_in_nine_pairs_and_one_tie(self):
        assert wall_s(PARENT, [PARENT[0], *(p - 0.1 for p in PARENT[1:])]) == "GAIN"

    def test_eight_wins_and_two_ties_are_no_gain(self):
        change = [*PARENT[:2], *(p - 0.1 for p in PARENT[2:])]
        assert compare.pairs_won(PARENT, change, "lower") == 8
        assert wall_s(PARENT, change) == "NO SETBACK"

    def test_a_gain_within_the_parents_spread_is_no_gain(self):
        assert wall_s(PARENT, [p - 0.01 for p in PARENT]) == "NO SETBACK"

    def test_regression_past_the_bound(self):
        assert wall_s(PARENT, [p * 1.3 for p in PARENT]) == "REGRESSION"
        assert wall_s(PARENT, [p * 1.2 for p in PARENT]) == "NO SETBACK"

    def test_unresolved_when_the_parents_spread_exceeds_the_bound(self):
        parent = [1.0, 2.0] * 5
        assert wall_s(parent, parent[::-1]) == "UNRESOLVED"

    def test_a_change_that_beats_every_parent_run_is_resolved(self):
        assert wall_s([1.0, 2.0] * 5, [0.9] * 10) == "NO SETBACK"

    def test_frames_per_s_is_higher_is_better(self):
        fps = METRICS["frames_per_s"]
        assert fps["better"] == "higher"
        parent = [40_000 + 100 * k for k in range(10)]
        assert compare.verdict(parent, [p * 1.2 for p in parent], "higher", fps["bound"], 0, 0) == "GAIN"
        assert compare.verdict(parent, [p * 0.7 for p in parent], "higher", fps["bound"], 0, 0) == "REGRESSION"

    def test_more_failed_operations_block_a_gain(self):
        assert wall_s(PARENT, [p - 0.1 for p in PARENT], parent_failed=1, change_failed=2) == "NO SETBACK"
        assert wall_s(PARENT, [p - 0.1 for p in PARENT], parent_failed=2, change_failed=2) == "GAIN"


def _report(workload, wall, failed=0, y_rmse_m=0.009):
    metrics = {m: {"value": wall, "unit": METRICS[m]["unit"]} for m in METRICS}
    metrics["frames_per_s"]["value"] = 9000 / wall
    accuracy = {"drift_max_m": 0.04, "y_rmse_m": y_rmse_m}
    return {"workload": workload, "attempted": 20, "failed": failed, "metrics": metrics, "accuracy": accuracy}


class TestTables:
    def test_status_is_1_when_the_change_fails_more_operations(self):
        pairs = [{"parent": {"w": _report("w", 1.0)}, "change": {"w": _report("w", 0.5, failed=k)}} for k in (0, 1)]
        lines, status = compare.tables(pairs, SPEC)
        assert status == 1
        assert "w: failed operations, parent 0 of 40, change 1 of 40" in lines
        assert all(not line.endswith("| GAIN |") for line in lines)

    def test_accuracy_medians_parent_to_change(self):
        pairs = [
            {"parent": {"w": _report("w", 1.0, y_rmse_m=p)}, "change": {"w": _report("w", 1.0, y_rmse_m=c)}}
            for p, c in ((0.009, 0.005), (0.008, 0.004), (0.0095, 0.0049))
        ]
        lines, status = compare.tables(pairs, SPEC)
        table = lines[lines.index("| workload | accuracy | parent median → change median |") + 2:]
        assert table[:2] == ["| w | drift_max_m | 0.04 → 0.04 |", "| w | y_rmse_m | 0.009 → 0.0049 |"]
        assert status == 0  # accuracy has no verdict

    def test_status_is_1_on_a_regression_and_0_otherwise(self):
        for change, status in ((1.5, 1), (1.0, 0)):
            pairs = [{"parent": {"w": _report("w", 1.0)}, "change": {"w": _report("w", change)}}]
            assert compare.tables(pairs, SPEC)[1] == status


def test_head_against_head_prints_every_verdict():
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare.py"), "HEAD", "HEAD",
         "--workload", "calibrate-10x900", "--pairs", "1", "--seconds", "0.05"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode in (0, 1), done.stderr
    verdicts = re.findall(
        r"^\| calibrate-10x900 \| (\w+) \| [^|]+ \| [01]/1 \| (?:GAIN|REGRESSION|UNRESOLVED|NO SETBACK) \|$",
        done.stdout,
        re.MULTILINE,
    )
    assert sorted(verdicts) == sorted(METRICS)
    assert re.search(r"^calibrate-10x900: failed operations, parent 0 of \d+, change 0 of \d+$", done.stdout, re.M)
    accuracy = re.findall(r"^\| calibrate-10x900 \| (\w+) \| ([\d.e+-]+) → \2 \|$", done.stdout, re.M)
    assert [name for name, _ in accuracy] == ["tilt_err_deg", "drift_max_m", "y_rmse_m"]
    assert re.fullmatch(r"src/: ([\d,]+) → \1 lines \(\+0\)", done.stdout.splitlines()[-1])


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "notes.txt").write_text("not python\n")
    (tmp_path / "tools.py").write_text("outside src\n")
    assert compare.src_lines(tmp_path) == 4


def test_export_without_extraction_filters(tmp_path, monkeypatch):
    """Python before 3.10.12 and 3.11.4 has no ``tarfile.data_filter``, and its ``extractall`` takes no filter."""
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    extracted = []

    def extractall(self, path=".", members=None, *, numeric_owner=False):
        extracted.append(path)

    monkeypatch.delattr(tarfile, "data_filter", raising=False)
    monkeypatch.setattr(tarfile.TarFile, "extractall", extractall)
    compare.export("HEAD", tmp_path / "tree")
    assert extracted == [tmp_path / "tree"]
