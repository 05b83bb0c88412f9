"""Start-up behaviour, each check in a fresh interpreter.

``import skelcal`` loads no submodule (and so no numpy) until a public name is
read. ``skelcal.cli`` starts numpy with a single-threaded OpenBLAS unless the
caller chose a thread count, loads only the modules its subcommands share, and
freezes the heap it imported; the library freezes nothing. The in-process CLI
tests set the OpenBLAS default in the test process itself, so every child here
gets an environment built explicitly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skelcal

SRC = str(Path(skelcal.__file__).resolve().parent.parent)


def child(code: str, **env: str):
    """Run ``code`` in a fresh interpreter and return the JSON it prints."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestLazyNamespace:
    def test_import_loads_no_numpy(self):
        assert child("import json, sys, skelcal; print(json.dumps('numpy' in sys.modules))") is False

    def test_every_public_name_is_the_submodules_object(self):
        wrong = child(
            "import importlib, json, skelcal\n"
            "print(json.dumps([n for n in skelcal.__all__ if getattr(skelcal, n) is not\n"
            "    getattr(importlib.import_module('skelcal.' + skelcal._EXPORTS[n]), n)]))"
        )
        assert wrong == []

    def test_dir_lists_every_public_name(self):
        missing = child("import json, skelcal; print(json.dumps(sorted(set(skelcal.__all__) - set(dir(skelcal)))))")
        assert missing == []

    def test_star_import_binds_every_public_name(self):
        missing = child(
            "import json, skelcal\n"
            "ns = {}\n"
            "exec('from skelcal import *', ns)\n"
            "print(json.dumps(sorted(set(skelcal.__all__) - set(ns))))"
        )
        assert missing == []

    def test_unknown_name_raises_attribute_error(self):
        assert child(
            "import json, skelcal\n"
            "try:\n"
            "    skelcal.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(json.dumps(str(exc)))"
        ) == "module 'skelcal' has no attribute 'no_such_name'"
        with pytest.raises(AttributeError):
            skelcal.no_such_name


THREADS = (
    "import json, os, sys, skelcal.cli, numpy\n"
    "threads = None\n"
    "if sys.platform == 'linux':\n"
    "    with open('/proc/self/status') as f:\n"
    "        threads = int(next(l for l in f if l.startswith('Threads:')).split()[1])\n"
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))"
)


class TestOpenBlasDefault:
    def test_cli_starts_numpy_single_threaded(self):
        value, threads = child(THREADS)
        assert value == "1"
        if sys.platform != "linux":
            pytest.skip("thread count read from /proc/self/status")
        assert threads == 1

    def test_caller_setting_wins(self):
        value, _ = child(THREADS, OPENBLAS_NUM_THREADS="2")
        assert value == "2"


class TestCliStartup:
    """The CLI loads only what a subcommand runs and freezes its import-time heap."""

    def test_cli_import_loads_numpy_but_no_unused_subcommand_module(self):
        loaded = child(
            "import json, sys, skelcal.cli\n"
            "names = ('numpy', 'skelcal.synthetic', 'skelcal.diagnostics')\n"
            "print(json.dumps([m in sys.modules for m in names]))"
        )
        assert loaded == [True, False, False]

    def test_cli_import_freezes_the_heap(self):
        assert child("import gc, json, skelcal.cli; print(json.dumps(gc.get_freeze_count()))") > 0

    def test_library_imports_freeze_nothing(self):
        assert child(
            "import gc, json, skelcal, skelcal.pipeline, skelcal.fileio\n"
            "print(json.dumps(gc.get_freeze_count()))"
        ) == 0

    def test_every_subcommand_runs_in_one_process(self, tmp_path):
        codes = child(
            "import contextlib, io, json, sys\n"
            "from skelcal.cli import main\n"
            f"d = {str(tmp_path)!r}\n"
            "runs = [\n"
            "    ['synth', '--direction', 'horizontal', '--frames', '40', '--out-truth', d + '/t.csv',\n"
            "     '--out-raw', d + '/r.csv'],\n"
            "    ['synth', '--frames', '40', '--tilt-deg', '4', '--sensor-height', '0.8',\n"
            "     '--beta-coeffs', '2,-1', '--out-truth', d + '/vt.csv', '--out-raw', d + '/v.csv'],\n"
            "    ['calibrate', d + '/v.csv', '--sensor-height', '0.8', '--out-profile', d + '/p.json'],\n"
            "    ['apply', '--profile', d + '/p.json', '--in', d + '/r.csv', '--out', d + '/c.csv',\n"
            "     '--direction', 'horizontal'],\n"
            "    ['diagnose', '--in', d + '/r.csv', '--profile', d + '/p.json', '--report', 'both',\n"
            "     '--direction', 'horizontal', '--out', d + '/rep.csv'],\n"
            "]\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    codes = [main(argv) for argv in runs]\n"
            "    help_text = io.StringIO()\n"
            "    with contextlib.redirect_stdout(help_text):\n"
            "        try:\n"
            "            main(['synth', '--help'])\n"
            "        except SystemExit as exc:\n"
            "            codes.append(exc.code)\n"
            "print(json.dumps([codes, '{shear,rotation}' in help_text.getvalue()]))"
        )
        assert codes == [[0, 0, 0, 0, 0, 0], True]
        for name in ("t.csv", "r.csv", "v.csv", "p.json", "c.csv", "rep_ydiff.csv", "rep_bones.csv"):
            assert (tmp_path / name).stat().st_size > 0

    def test_apply_loads_no_masked_arrays(self, tmp_path):
        loaded = child(
            "import contextlib, io, json, sys\n"
            "from skelcal.cli import main\n"
            f"d = {str(tmp_path)!r}\n"
            "runs = [\n"
            "    ['synth', '--frames', '40', '--tilt-deg', '4', '--sensor-height', '0.8',\n"
            "     '--out-truth', d + '/t.csv', '--out-raw', d + '/r.csv'],\n"
            "    ['calibrate', d + '/r.csv', '--sensor-height', '0.8', '--out-profile', d + '/p.json'],\n"
            "    ['apply', '--profile', d + '/p.json', '--in', d + '/r.csv', '--out', d + '/c.csv'],\n"
            "]\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    codes = [main(argv) for argv in runs]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))"
        )
        assert loaded == [[0, 0, 0], False]
