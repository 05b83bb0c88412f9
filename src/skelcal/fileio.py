"""Capture CSV and profile JSON file formats.

Capture files are CSV with header ``frame,joint,x,y,z``, one row per joint per
frame, rows sorted by (frame, joint), coordinates printed with 9 fractional
digits so a write/read round trip is lossless to well under 1e-9 m and a
read/write round trip is byte-identical. Profiles are a strict JSON document
(schema_version 1); unknown or malformed fields are rejected by name.

All writes are atomic (temp file in the target directory, then rename) and
deterministic: the same data always produces a byte-identical file with LF
line endings.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from itertools import cycle, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .diagnostics import DiffSeries, StabilityReport
from .errors import (
    EmptySequenceError,
    IoFailureError,
    MissingJointError,
    ParseError,
    SchemaError,
)
from .numerics import Polynomial
from .perspective import BetaModel, BetaPoint
from .pipeline import CalibrationProfile
from .skeleton import (
    JOINT_COUNT,
    CaptureSequence,
    GaitDirection,
    JointIndex,
    validate_sequence,
)
from .tilt import TiltParams

CAPTURE_HEADER = "frame,joint,x,y,z"
PROFILE_SCHEMA_VERSION = 1

_PROFILE_FIELDS = (
    "schema_version",
    "alpha_g_rad",
    "h_k_m",
    "beta_degree",
    "beta_coeffs",
    "gait_count",
    "beta_points",
    "created_label",
)
_BETA_POINT_FIELDS = ("joint", "height_y_m", "beta_rad")

#: Frame indices are stored as int64.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


#: Frames parsed or formatted per bulk step. It bounds the field strings of a
#: block in memory: one bulk pass over a whole 9,000-frame file doubles the
#: read's peak memory.
_BLOCK_FRAMES = 100
_BLOCK_ROWS = _BLOCK_FRAMES * JOINT_COUNT
#: One capture row; ``{:.9f}`` is the formatter of ``_fmt``.
_format_row = "{},{},{:.9f},{:.9f},{:.9f}\n".format


def _atomic_write(path: str | Path, chunks: str | Iterable[str]) -> None:
    """Write ``chunks`` (one string or an iterable of them) to a temp file, then rename it.

    The temp file is created with mode 0666 so that the umask applies, as for
    ``open(path, "w")``.
    """
    path = Path(path)
    if isinstance(chunks, str):
        chunks = (chunks,)
    tmp = path.with_name(f"{path.name}{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


def _fmt(value: float) -> str:
    return f"{value:.9f}"


def write_capture(seq: CaptureSequence, path: str | Path) -> None:
    _atomic_write(path, _capture_chunks(seq))


def _capture_chunks(seq: CaptureSequence) -> Iterator[str]:
    """The capture CSV as the header and then one string per block of frames."""
    yield CAPTURE_HEADER + "\n"
    for start in range(0, len(seq), _BLOCK_FRAMES):
        index = seq.frame_index[start : start + _BLOCK_FRAMES]
        x, y, z = seq.xyz[start : start + _BLOCK_FRAMES].reshape(-1, 3).T.tolist()
        index = np.repeat(index, JOINT_COUNT).tolist()
        yield "".join(map(_format_row, index, cycle(range(JOINT_COUNT)), x, y, z))


def read_capture(
    path: str | Path,
    direction: GaitDirection,
    nominal_fps: float = 30.0,
    label: str | None = None,
) -> CaptureSequence:
    """Parse a capture CSV; malformed rows are reported with their line number.

    Files in the canonical layout (joints 0-24 of each frame in order, one row
    per line) are parsed in blocks of frames; any other file goes through the
    line-by-line parser, which accepts the other valid layouts and names the
    first bad line.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc

    if not lines or lines[0].strip() != CAPTURE_HEADER:
        raise ParseError(1, f"expected header '{CAPTURE_HEADER}'")
    xyz, frame_indices = _parse_blocks(lines) or _parse_lines(lines)

    if not len(frame_indices):
        raise EmptySequenceError(f"{path} contains no data rows")
    seq = CaptureSequence.from_arrays(
        xyz,
        frame_indices,
        direction,
        nominal_fps,
        label if label is not None else path.stem,
    )
    return validate_sequence(seq)


def _parse_blocks(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Bulk parse of the canonical layout, or None if ``lines`` are not in it.

    Every field goes through the same ``int``/``float`` as in ``_parse_lines``,
    so the values are the same; the checks below accept exactly the files that
    ``_parse_lines`` reads without skipping a line or reordering a joint.
    """
    rows = len(lines) - 1
    if rows == 0 or rows % JOINT_COUNT:
        return None
    index = np.empty(rows, np.int64)
    xyz = np.empty((rows, 3))
    for start in range(0, rows, _BLOCK_ROWS):
        block = lines[1 + start : 1 + start + _BLOCK_ROWS]
        n = len(block)
        if set(map(str.count, block, repeat(","))) != {4}:
            return None
        fields = ",".join(block).split(",")
        try:
            index[start : start + n] = np.fromiter(map(int, fields[0::5]), np.int64, n)
            joints = np.fromiter(map(int, fields[1::5]), np.int64, n)
            for axis in range(3):
                column = np.fromiter(map(float, fields[2 + axis :: 5]), np.float64, n)
                xyz[start : start + n, axis] = column
        except (ValueError, OverflowError):
            return None
        if not (joints.reshape(-1, JOINT_COUNT) == np.arange(JOINT_COUNT)).all():
            return None
    index = index.reshape(-1, JOINT_COUNT)
    frame_index = index[:, 0]
    if not ((index == frame_index[:, None]).all() and (frame_index[1:] > frame_index[:-1]).all()):
        return None
    return xyz.reshape(-1, JOINT_COUNT, 3), frame_index


def _parse_lines(lines: list[str]) -> tuple[np.ndarray, list[int]]:
    """Line-by-line parse of any valid layout; raises naming the first bad line."""
    frame_indices: list[int] = []
    coords = array("d")  # x, y, z of joints 0-24 of each complete frame, in order
    current_index: int | None = None
    current_joints: dict[int, tuple[float, float, float]] = {}

    def flush():
        if current_index is None:
            return
        for j in range(JOINT_COUNT):
            if j not in current_joints:
                raise MissingJointError(current_index, j)
            coords.extend(current_joints[j])
        frame_indices.append(current_index)

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ParseError(lineno, f"expected 5 comma-separated fields, got {len(parts)}")
        try:
            frame_index = int(parts[0])
            joint = int(parts[1])
            x, y, z = (float(v) for v in parts[2:])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
        if not 0 <= joint < JOINT_COUNT:
            raise ParseError(lineno, f"joint index {joint} out of range 0-24")
        if frame_index != current_index:
            flush()
            if current_index is not None and frame_index < current_index:
                raise ParseError(lineno, f"frame {frame_index} out of order after {current_index}")
            if not _INT64_MIN <= frame_index <= _INT64_MAX:
                raise ParseError(lineno, f"frame index {frame_index} out of the 64-bit range")
            current_index = frame_index
            current_joints = {}
        if joint in current_joints:
            raise ParseError(lineno, f"duplicate joint {joint} in frame {frame_index}")
        current_joints[joint] = (x, y, z)
    flush()
    return np.frombuffer(coords).reshape(-1, JOINT_COUNT, 3), frame_indices


def write_ydiff_report(seq: CaptureSequence, series: Sequence[DiffSeries], path: str | Path) -> None:
    """Plot-ready CSV: one row per frame, its index and each joint's y - y_last."""
    lines = ["frame," + ",".join(s.joint.name.lower() for s in series)]
    rows = zip(*(s.per_frame_diff for s in series))
    for index, diffs in zip(seq.frame_index.tolist(), rows):
        lines.append(",".join([str(index), *map(_fmt, diffs)]))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_bone_report(report: StabilityReport, path: str | Path) -> None:
    """CSV with one row per skeleton edge: its joints and its length statistics."""
    lines = ["parent,child,parent_name,child_name,mean_m,std_m,max_abs_dev_m"]
    for e in report.per_edge:
        lines.append(
            f"{int(e.edge.parent)},{int(e.edge.child)},"
            f"{e.edge.parent.name.lower()},{e.edge.child.name.lower()},"
            f"{_fmt(e.mean_length_m)},{_fmt(e.std_length_m)},{_fmt(e.max_abs_dev_m)}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_profile(profile: CalibrationProfile, path: str | Path) -> None:
    doc = {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "alpha_g_rad": profile.tilt.tilt_rad,
        "h_k_m": profile.tilt.sensor_height_m,
        "beta_degree": profile.beta.fit_degree,
        "beta_coeffs": list(profile.beta.poly.coefficients),
        "gait_count": profile.gait_count,
        "beta_points": [
            {"joint": int(p.joint), "height_y_m": p.height_y_m, "beta_rad": p.beta_rad}
            for p in profile.beta.source_points
        ],
        "created_label": profile.created_label,
    }
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")


def _require(doc: dict, field: str, kind, context: str = "profile"):
    if field not in doc:
        raise SchemaError(field, f"missing from {context}")
    value = doc[field]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(field, f"expected a number, got {type(value).__name__}")
        if not math.isfinite(float(value)):
            raise SchemaError(field, "must be finite")
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise SchemaError(field, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def read_profile(path: str | Path) -> CalibrationProfile:
    """Parse and schema-validate a profile document (strict: unknown fields rejected)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<document>", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("<document>", "top level must be an object")

    for key in doc:
        if key not in _PROFILE_FIELDS:
            raise SchemaError(key, "unknown field")
    version = _require(doc, "schema_version", int)
    if version != PROFILE_SCHEMA_VERSION:
        raise SchemaError("schema_version", f"unsupported version {version}")

    alpha = _require(doc, "alpha_g_rad", float)
    h_k = _require(doc, "h_k_m", float)
    degree = _require(doc, "beta_degree", int)
    coeffs = _require(doc, "beta_coeffs", list)
    if len(coeffs) != degree + 1:
        raise SchemaError(
            "beta_coeffs", f"expected {degree + 1} coefficients for degree {degree}, got {len(coeffs)}"
        )
    if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs):
        raise SchemaError("beta_coeffs", "coefficients must be numbers")
    gait_count = _require(doc, "gait_count", int)
    raw_points = _require(doc, "beta_points", list)
    label = _require(doc, "created_label", str)

    points = []
    for i, entry in enumerate(raw_points):
        if not isinstance(entry, dict):
            raise SchemaError(f"beta_points[{i}]", "expected an object")
        for key in entry:
            if key not in _BETA_POINT_FIELDS:
                raise SchemaError(f"beta_points[{i}].{key}", "unknown field")
        joint = _require(entry, "joint", int, context=f"beta_points[{i}]")
        if not 0 <= joint < JOINT_COUNT:
            raise SchemaError(f"beta_points[{i}].joint", f"joint {joint} out of range 0-24")
        height = _require(entry, "height_y_m", float, context=f"beta_points[{i}]")
        beta = _require(entry, "beta_rad", float, context=f"beta_points[{i}]")
        try:
            points.append(BetaPoint(JointIndex(joint), height, beta))
        except ValueError as exc:
            raise SchemaError(f"beta_points[{i}].beta_rad", str(exc)) from exc

    try:
        tilt = TiltParams(alpha, h_k)
        beta_model = BetaModel(Polynomial(tuple(float(c) for c in coeffs)), degree, tuple(points))
        return CalibrationProfile(tilt, beta_model, gait_count, label)
    except ValueError as exc:
        raise SchemaError("<document>", str(exc)) from exc
