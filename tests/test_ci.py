"""The CI workflow tests the floors that pyproject.toml declares.

Both files are read with regular expressions: Python 3.10, the declared
floor, has no tomllib, and the tests need no YAML parser.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_floors(pyproject: str) -> tuple[str, str]:
    """The Python and numpy floors of ``pyproject``'s requires-python and dependencies."""
    python = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M).group(1)
    numpy = re.search(r'^\s+"numpy>=([\d.]+)",?$', pyproject, re.M).group(1)
    return python, numpy


def job(workflow: str, name: str) -> str:
    """The body of the job ``name`` of ``workflow``: the lines below its key, up to the next key at its indent."""
    match = re.search(rf"^  {name}:\n((?:(?:   .*)?\n)*)", workflow, re.M)
    return match.group(1) if match else ""


def floor_mismatches(pyproject: str, workflow: str) -> list[str]:
    """What the floors job and the tier1 matrix of ``workflow`` miss of the floors ``pyproject`` declares."""
    python, numpy = declared_floors(pyproject)
    floors, tier1 = job(workflow, "floors"), job(workflow, "tier1")
    missing = []
    if not re.search(rf'^\s+python-version: "{re.escape(python)}"$', floors, re.M):
        missing.append(f"the floors job does not set up Python {python}")
    if not re.search(rf'pip install "numpy=={re.escape(numpy)}\.\*"', floors):
        missing.append(f"the floors job does not install numpy {numpy}")
    matrix = re.search(r"^\s+python-version: \[(.*)\]$", tier1, re.M)
    if not matrix or f'"{python}"' not in [v.strip() for v in matrix.group(1).split(",")]:
        missing.append(f"the tier1 matrix does not include Python {python}")
    return missing


def test_the_workflow_tests_the_declared_floors():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert declared_floors(pyproject) == ("3.10", "1.24")
    assert floor_mismatches(pyproject, workflow) == []


def test_floor_mismatches_finds_each_floor_the_workflow_misses():
    pyproject = 'requires-python = ">=3.10"\ndependencies = [\n    "numpy>=1.24",\n]\n'
    workflow = (
        "jobs:\n"
        "  tier1:\n"
        "    strategy:\n"
        "      matrix:\n"
        '        python-version: ["3.11", "3.12"]\n'
        "\n"
        "  floors:\n"
        "    steps:\n"
        "      - uses: actions/setup-python@v5\n"
        "        with:\n"
        '          python-version: "3.11"\n'
        '      - run: pip install "numpy==1.26.*" -e ".[test]"\n'
    )
    assert floor_mismatches(pyproject, workflow) == [
        "the floors job does not set up Python 3.10",
        "the floors job does not install numpy 1.24",
        "the tier1 matrix does not include Python 3.10",
    ]
    fixed = workflow.replace('"3.11"\n', '"3.10"\n').replace("1.26", "1.24").replace('["3.11"', '["3.10", "3.11"')
    assert floor_mismatches(pyproject, fixed) == []
