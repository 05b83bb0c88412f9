"""In-process tracing of skelcal's module boundaries, from outside the package.

Each span wraps one public module-level function. The wrapper replaces every
binding of that function object in the loaded ``skelcal.*`` modules, so a
call goes through it whether the caller wrote ``fileio.read_capture(...)`` or
imported the name. Nothing inside the package changes.

A span's self time is its duration minus the durations of the spans opened
directly inside it, so the self times of one run add up to the root span's
duration. Garbage-collector pauses, timed through ``gc.callbacks``, go to the
span that was innermost when the collector ran; they are part of its self
time.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from collections import defaultdict

from skelcal.skeleton import JOINT_COUNT

#: (module, function) pairs traced as spans; ``cli.main`` is the root.
SPANS = (
    ("cli", "main"),
    ("fileio", "read_capture"),
    ("fileio", "write_capture"),
    ("fileio", "read_profile"),
    ("fileio", "write_profile"),
    ("skeleton", "validate_sequence"),
    ("pipeline", "calibrate"),
    ("pipeline", "apply_profile"),
    ("tilt", "gait_inclination"),
    ("tilt", "aggregate_inclination"),
    ("tilt", "tilt_correct_sequence"),
    ("perspective", "mean_perspective_degrees"),
    ("perspective", "fit_beta_model"),
    ("perspective", "perspective_correct_sequence"),
    ("numerics", "polyfit_least_squares"),
    ("diagnostics", "y_diff_to_last"),
    ("diagnostics", "bone_length_stability"),
)

#: Counters kept beside the spans, each with its unit.
COUNTS = {
    "fileio.read_capture.rows": "count",
    "fileio.read_capture.bytes": "bytes",
    "fileio.write_capture.bytes": "bytes",
    "tilt.gait_inclination.frames_used_ratio": "ratio",
    "perspective.mean_perspective_degrees.pairs_used_ratio": "ratio",
    "python.gc.collections": "count",
}

ROOT = "cli.main"


class Tracer:
    """Spans and counts of one traced run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.gc_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self._stack: list[list] = []  # [name, start, time covered by child spans]
        self._gc_start = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration

    def _span(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self.gc_s[self._stack[-1][0] if self._stack else "<outside>"] += pause
        self.counts["python.gc.collections"] += 1

    # -- counters ------------------------------------------------------------

    def _after_read_capture(self, seq, path, *args, **kwargs):
        self.counts["fileio.read_capture.rows"] += len(seq.frames) * JOINT_COUNT
        self.counts["fileio.read_capture.bytes"] += os.stat(path).st_size

    def _after_write_capture(self, result, seq, path, *args, **kwargs):
        self.counts["fileio.write_capture.bytes"] += os.stat(path).st_size

    def _after_gait_inclination(self, result, seq, *args, **kwargs):
        self.counts["frames_used"] += len(result.per_frame_rad)
        self.counts["frames_seen"] += len(seq.frames)

    def _count_pairs(self, fn):
        def counted(*args, **kwargs):
            self.counts["pairs_tried"] += 1
            result = fn(*args, **kwargs)
            self.counts["pairs_used"] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "fileio.read_capture": self._after_read_capture,
            "fileio.write_capture": self._after_write_capture,
            "tilt.gait_inclination": self._after_gait_inclination,
        }
        for module, function in SPANS:
            name = f"{module}.{function}"
            original = getattr(sys.modules.get(f"skelcal.{module}"), function, None)
            if original is not None:
                self._rebind(original, self._span(name, original, hooks.get(name)))
        perspective = sys.modules.get("skelcal.perspective")
        original = getattr(perspective, "joint_perspective_degree", None)
        if original is not None:
            self._rebind(original, self._count_pairs(original))
        gc.callbacks.append(self._on_gc)

    def _rebind(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "skelcal" and not module_name.startswith("skelcal."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every span's self time, GC time and call count, plus the counters."""
        out: dict[str, float] = {}
        for module, function in SPANS:
            name = f"{module}.{function}"
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.gc_s"] = self.gc_s[name]
        out[f"{ROOT}.total_s"] = self.root_s
        c = self.counts
        out["fileio.read_capture.rows"] = c["fileio.read_capture.rows"]
        out["fileio.read_capture.bytes"] = c["fileio.read_capture.bytes"]
        out["fileio.write_capture.bytes"] = c["fileio.write_capture.bytes"]
        out["tilt.gait_inclination.frames_used_ratio"] = _ratio(c["frames_used"], c["frames_seen"])
        out["perspective.mean_perspective_degrees.pairs_used_ratio"] = _ratio(
            c["pairs_used"], c["pairs_tried"]
        )
        out["python.gc.collections"] = c["python.gc.collections"]
        return out


def _ratio(used: float, seen: float) -> float:
    """used / seen, or 0 when the layer did not run (its ``.calls`` is then 0)."""
    return used / seen if seen else 0.0


def units() -> dict[str, str]:
    """Unit of every metric ``Tracer.metrics`` returns, plus the tracing overhead."""
    out = {}
    for module, function in SPANS:
        name = f"{module}.{function}"
        out[f"{name}.self_s"] = "s"
        out[f"{name}.calls"] = "count"
        out[f"{name}.gc_s"] = "s"
    out[f"{ROOT}.total_s"] = "s"
    out.update(COUNTS)
    out["trace.overhead_s"] = "s"
    return out
