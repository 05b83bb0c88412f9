"""Start-up behaviour, each check in a fresh interpreter.

``import skelcal`` loads no submodule (and so no numpy) until a public name is
read. ``skelcal.cli`` starts numpy with a single-threaded OpenBLAS unless the
caller chose a thread count. The in-process CLI tests set that default in the
test process itself, so every child here gets an environment built explicitly.
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
