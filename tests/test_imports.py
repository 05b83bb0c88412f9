"""Every name a module imports is used in it, in the package, its tests and ``tools/``,
every private name a package module defines at module level is read in it,
every exception class of ``skelcal.errors`` is raised or subclassed in the package,
every package dataclass checks or compares its own fields, every public
property of the package is read in the package or the benchmarks, ``fileio``
imports nothing of ``diagnostics``, every text file the package and ``tools/`` open
names its encoding, and every package module parses at the oldest Python that
``pyproject.toml`` supports."""

import ast
import re
from pathlib import Path

import pytest

import skelcal

PACKAGE = sorted(Path(skelcal.__file__).parent.glob("*.py"))
BENCHMARKS = sorted((Path(__file__).parents[1] / "benchmarks").glob("*.py"))
TOOLS = sorted((Path(__file__).parents[1] / "tools").glob("*.py"))
MODULES = sorted([*PACKAGE, *TOOLS, *Path(__file__).parent.glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """The (line, name) of each name that ``source`` imports and never reads or writes."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nimport sys\nfrom a import b as c, d\nsys.exit(d)\n"
    assert unused_imports(source) == [(2, "os"), (4, "c")]


def unread_private_names(source: str) -> list[tuple[int, str]]:
    """The (line, name) of each private name that ``source`` binds at module level and never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(
        (line, name)
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_private_module_name_is_read(path):
    assert unread_private_names(path.read_text()) == []


def test_an_unread_private_name_is_found():
    source = "_A, _B = 1, 2\n_C: int = _A\ndef _f():\n    _D = 3\nclass _K:\n    pass\n__all__ = []\nPUBLIC = 4\n"
    assert unread_private_names(source) == [(1, "_B"), (2, "_C"), (3, "_f"), (5, "_K")]


def _name(node: ast.expr) -> str | None:
    """The name that ``node`` reads: ``X`` of ``X`` and of ``module.X``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """The classes that ``errors_source`` defines and that no module of ``sources`` raises or subclasses."""
    defined = [node.name for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)]
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.add(_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
            elif isinstance(node, ast.ClassDef):
                used.update(_name(base) for base in node.bases)
    return [name for name in defined if name not in used]


def test_every_error_is_raised_or_subclassed():
    errors = Path(skelcal.__file__).parent / "errors.py"
    assert unraised_errors(errors.read_text(), [path.read_text() for path in PACKAGE]) == []


def test_an_unraised_error_is_found():
    errors = "class A(Exception):\n    pass\nclass B(A):\n    pass\nclass C(A):\n    pass\nclass D(A):\n    pass\n"
    sources = [
        errors,
        "import e\nraise e.B('x') from None\n",
        "from e import C\nclass E(C):\n    pass\n",
        "from e import D\ntry:\n    pass\nexcept D:\n    raise\n",
    ]
    assert unraised_errors(errors, sources) == ["D"]


def plain_dataclasses(source: str) -> list[str]:
    """The classes that ``source`` decorates with ``dataclass`` and that define none of
    ``__post_init__``, ``__init__`` and ``__eq__``: plain records, which are named tuples."""
    own = {"__post_init__", "__init__", "__eq__"}
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list)
        and not own & {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_dataclass_checks_or_compares_its_fields(path):
    assert plain_dataclasses(path.read_text()) == []


def test_a_plain_dataclass_is_found():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n"
        "@dataclasses.dataclass\nclass B:\n    x: int\n    def size(self):\n        return 1\n"
        "@dataclass(frozen=True)\nclass C:\n    x: int\n    def __post_init__(self):\n        pass\n"
        "@dataclass(eq=False)\nclass D:\n    x: int\n    def __eq__(self, other):\n        return True\n"
        "class E:\n    x: int\n"
    )
    assert plain_dataclasses(source) == ["A", "B"]


def unread_properties(source: str, readers: list[str]) -> list[tuple[int, str]]:
    """The (line, name) of each public ``@property`` that ``source`` defines and no module of ``readers``
    reads as an attribute."""
    read = {
        node.attr
        for reader in readers
        for node in ast.walk(ast.parse(reader))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and any(_name(d) == "property" for d in node.decorator_list)
        and not node.name.startswith("_")
        and node.name not in read
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_public_property_is_read_outside_the_tests(path):
    """A property that only tests read is a second implementation of what the package computes elsewhere."""
    readers = [module.read_text(encoding="utf-8") for module in [*PACKAGE, *BENCHMARKS]]
    assert unread_properties(path.read_text(encoding="utf-8"), readers) == []


def test_an_unread_property_is_found():
    source = (
        "class A:\n    @property\n    def read(self):\n        return 1\n"
        "    @property\n    def unread(self):\n        return 2\n"
        "    @property\n    def _private(self):\n        return 3\n"
        "    def method(self):\n        return self.read\n"
    )
    assert unread_properties(source, [source, "a.unread = 1\nprint(unread)\n"]) == [(6, "unread")]


def imports_of(source: str, module: str) -> list[tuple[int, str]]:
    """The (line, name) of each import in ``source``, under ``if TYPE_CHECKING:`` too,
    of the module ``module`` or of a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if module in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            found += [(node.lineno, a.name) for a in node.names if module in path or a.name == module]
    return sorted(found)


def test_fileio_imports_nothing_of_diagnostics():
    """The report writers take arrays: the file formats do not read the diagnostics' record types."""
    fileio = Path(skelcal.__file__).parent / "fileio.py"
    assert imports_of(fileio.read_text(), "diagnostics") == []


def test_an_import_of_another_module_is_found():
    source = (
        "from typing import TYPE_CHECKING\nimport numpy\nif TYPE_CHECKING:\n    from .stats import Series\n"
        "from . import stats\nimport pkg.stats as s\nfrom .statistics import mean\n"
    )
    assert imports_of(source, "stats") == [(4, "Series"), (5, "stats"), (6, "pkg.stats")]


#: The positional indices of the mode (None: text only) and of the encoding of each call that may open a text file.
_TEXT_CALLS = {"TextIOWrapper": (None, 1), "read_text": (None, 0), "write_text": (None, 1)}


def unnamed_encodings(source: str) -> list[tuple[int, str]]:
    """The (line, name) of each call in ``source`` that opens a text file and leaves its encoding to the
    locale: builtin, ``io.`` or ``Path.open`` in a mode without ``b``, ``TextIOWrapper``, ``read_text`` and
    ``write_text``. A mode that is not a string literal counts as text; ``os.open`` opens no text file."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name, owner = _name(node.func), _name(getattr(node.func, "value", None))
        if name == "open" and owner != "os":
            mode_at, encoding_at = (1, 3) if isinstance(node.func, ast.Name) or owner == "io" else (0, 2)
        elif name in _TEXT_CALLS:
            mode_at, encoding_at = _TEXT_CALLS[name]
        else:
            continue
        given = {keyword.arg: keyword.value for keyword in node.keywords}
        for key, at in (("mode", mode_at), ("encoding", encoding_at)):
            if at is not None and len(node.args) > at:
                given[key] = node.args[at]
        mode = given.get("mode")
        if not (isinstance(mode, ast.Constant) and "b" in str(mode.value)) and "encoding" not in given:
            found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", [*PACKAGE, *TOOLS], ids=lambda path: path.name)
def test_every_text_file_names_its_encoding(path):
    """A file read or written in the locale's encoding would read differently from one machine to the next."""
    assert unnamed_encodings(path.read_text(encoding="utf-8")) == []


def test_a_text_file_without_an_encoding_is_found():
    source = (
        "import io, os\nfrom io import TextIOWrapper\nfrom pathlib import Path\n"
        "open(p)\nopen(p, 'rb')\nopen(p, mode='xb')\nopen(p, 'r', -1, 'utf-8')\nopen(p, encoding='ascii')\n"
        "io.open(p, 'w')\nos.open(p, os.O_RDONLY)\nPath(p).open('rb')\nPath(p).open()\n"
        "Path(p).open('r', -1, 'utf-8')\nopen(p, m)\nio.TextIOWrapper(fh)\nTextIOWrapper(fh, 'utf-8-sig')\n"
        "p.read_text()\np.read_text('utf-8')\np.write_text(s)\np.write_text(s, encoding='ascii')\n"
    )
    assert unnamed_encodings(source) == [
        (4, "open"), (9, "open"), (12, "open"), (14, "open"),
        (15, "TextIOWrapper"), (17, "read_text"), (19, "write_text"),
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_module_parses_at_the_oldest_python(path):
    # read with a regex, since Python 3.10 has no ``tomllib``
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r"""^requires-python\s*=\s*["']>=\s*(\d+)\.(\d+)""", pyproject, re.MULTILINE)
    assert floor, "pyproject.toml gives no requires-python floor of the form '>=X.Y'"
    ast.parse(path.read_text(), feature_version=(int(floor[1]), int(floor[2])))


def test_newer_syntax_is_refused_at_an_older_version():
    source = "match x:\n    case 1:\n        pass\n"
    ast.parse(source, feature_version=(3, 10))
    with pytest.raises(SyntaxError, match="Pattern matching"):
        ast.parse(source, feature_version=(3, 9))
