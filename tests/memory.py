"""The one tracemalloc probe of the tests' memory bounds."""

from __future__ import annotations

import contextlib
import tracemalloc
from typing import Any, Callable, NamedTuple
from unittest import mock

from skelcal import fileio


class Traced(NamedTuple):
    value: Any
    peak: int


def traced(fn: Callable[[], Any], *, after_read: bool = False) -> Traced:
    """``fn()`` and the tracemalloc peak of its call, in bytes.

    With ``after_read`` the peak is reset at the end of each ``fileio.read_capture``
    the call makes, so it counts from there with the read capture in it: the
    reader's own peak is not that of what follows it.
    """
    read = fileio.read_capture

    def read_then_reset_peak(*args):
        seq = read(*args)
        tracemalloc.reset_peak()
        return seq

    tracemalloc.start()
    try:
        with mock.patch.object(fileio, "read_capture", read_then_reset_peak) if after_read else contextlib.nullcontext():
            value = fn()
        return Traced(value, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
