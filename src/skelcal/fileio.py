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
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

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

if TYPE_CHECKING:  # annotations only: the other subcommands never load diagnostics
    from .diagnostics import DiffSeries, StabilityReport

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


#: Frames formatted per bulk step of the writer. Small blocks keep its
#: temporary arrays (130 KB at most) in the CPU cache and in memory that the
#: allocator reuses: the first 9,000-frame write of a process took 0.13 s with
#: 64-frame blocks and 0.19 s with 1,000-frame ones (2-CPU Xeon).
_BLOCK_FRAMES = 64
#: Below this magnitude a coordinate times 1e9 is below 2**52, where the
#: writer's kernel rounds it exactly; its whole part has at most 7 digits.
_FAST_MAX = 2.0**22
#: ``_DIGIT_PAIRS[k]`` is the 2 ASCII digits of k < 100 as a little-endian
#: word, the first digit in the lowest byte ("00" is 0x3030).
_DIGIT_PAIRS = np.arange(100, dtype="<u4") // 10 + np.arange(100, dtype="<u4") % 10 * 256 + 0x3030
#: ``_DIGITS4[k]`` is the 4 ASCII digits of k < 10**4, leading zeros included,
#: in the same way.
_DIGITS4 = (_DIGIT_PAIRS[:, None] | _DIGIT_PAIRS << 16).ravel()
#: A whole part below _FAST_MAX has 1 plus as many digits as it reaches of these.
_DIGIT_STEPS = 10 ** np.arange(1, 7)
#: One ``,{v:.9f}`` field as 20 bytes, ``,-dddddddd.ddddddddd``, in which a 0
#: byte is no character: so are a plus sign and leading zeros of the whole part.
_FIELD = np.dtype(
    [("comma", "u1"), ("sign", "u1"), ("whole", "<u8"), ("dot", "u1"), ("tenths", "u1"), ("rest", "<u8")]
)
#: A frame index in decimal, at most 20 characters, padded with 0 bytes.
_FRAME_WIDTH = 20
#: ``,j`` for each joint j, padded with 0 bytes.
_JOINT_FIELDS = np.array([f",{j}" for j in range(JOINT_COUNT)], "S3").view(np.uint8).reshape(-1, 3)

#: Bytes the reader's kernel parses per step, cut at a newline; it bounds the
#: size of the kernel's temporary arrays.
_CHUNK_BYTES = 1 << 18
_HEADER_BYTES = (CAPTURE_HEADER + "\n").encode()
#: The separators and dots of one row, in order.
_ROW_MARKS = np.frombuffer(b",,.,.,.\n", np.uint8)
#: ``_KEEP[n]`` keeps the last ``n`` bytes of a little-endian 8-byte word.
_KEEP = np.array([(2**64 - 1) ^ (2 ** (64 - 8 * n) - 1) for n in range(9)], np.uint64)
_POW10 = 10 ** np.arange(17, dtype=np.uint64)
_POW10_F = _POW10.astype(np.float64)
_EXACT_INT_MAX = np.uint64(2**53)
_INT64_MAX_U = np.uint64(_INT64_MAX)
#: Eight ASCII digits in a little-endian word to their value, in three steps.
#: Each merges neighbouring lanes of 8, 16 and then 32 bits into one lane of
#: twice the width that holds 10, 100 or 10000 times the earlier lane plus the
#: later one; the first mask also maps "0"-"9" to 0-9.
_SWAR_STEPS = tuple(
    (np.uint64(mask), np.uint64(scale << bits | 1), np.uint64(bits))
    for mask, scale, bits in (
        (0x0F0F0F0F0F0F0F0F, 10, 8),
        (0x00FF00FF00FF00FF, 100, 16),
        (0x0000FFFF0000FFFF, 10000, 32),
    )
)


def _atomic_write(path: str | Path, chunks: bytes | Iterable[bytes]) -> None:
    """Write ``chunks`` (bytes or an iterable of them) to a temp file, then rename it.

    The temp file is created with mode 0666 so that the umask applies, as for
    ``open(path, "w")``.
    """
    path = Path(path)
    if isinstance(chunks, bytes):
        chunks = (chunks,)
    tmp = path.with_name(f"{path.name}{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


def _csv_rows(head: np.ndarray, values: np.ndarray) -> bytes:
    """CSV rows: row r is ``head[r]``, then ``",{:.9f}".format(v)`` for each v in ``values[r]``, then LF.

    ``head`` is a (rows, width) uint8 array of ASCII text in which 0 bytes are
    no character; ``values`` is (rows, k) float64. The bytes are those of the
    format calls. ``.9f`` prints |v| * 1e9 rounded to an integer N, half to
    even, with the sign of v. For finite |v| < _FAST_MAX, y = |v| * 1e9 is
    below 2**52 and within y * 2**-53 of the exact product, so rint(y) is N
    unless the fraction of y lies within y * 2**-51 of 1/2; such near-ties
    (exact ties among them) take N from ``"{:.9f}".format``. N is written as
    its whole part and 9 fraction digits, four digits per lookup in
    _DIGITS4, into a fixed-width record per row whose 0 bytes are then
    dropped. If any value is NaN, infinite or at least _FAST_MAX in
    magnitude, every row is formatted by ``"{:.9f}".format`` instead.
    """
    magnitude = np.abs(values)
    if not (magnitude < _FAST_MAX).all():  # False for NaN
        return b"".join(
            h[h != 0].tobytes() + "".join(map(",{:.9f}".format, row)).encode() + b"\n"
            for h, row in zip(head, values.tolist())
        )
    rows, k = values.shape
    table = np.zeros(rows, [("head", np.uint8, head.shape[1]), ("fields", _FIELD, k), ("lf", np.uint8)])
    table["head"] = head
    table["lf"] = ord("\n")
    fields = table["fields"]
    fields["comma"] = ord(",")
    fields["dot"] = ord(".")
    fields["sign"] = np.signbit(values) * np.uint8(ord("-"))

    y = magnitude * 1e9
    nanos = np.rint(y).astype(np.int64)
    near_tie = np.abs(y - np.floor(y) - 0.5) <= y * 2.0**-51
    if near_tie.any():
        exact = map("{:.9f}".format, magnitude[near_tie].tolist())
        nanos[near_tie] = [int(text.replace(".", "")) for text in exact]

    whole, fraction = np.divmod(nanos, 10**9)
    high, low = np.divmod(whole, 10**4)
    digits = np.searchsorted(_DIGIT_STEPS, whole, "right") + 1
    fields["whole"] = (_DIGITS4[high] | _DIGITS4[low].astype(np.uint64) << 32) & _KEEP[digits]
    tenths, rest = np.divmod(fraction, 10**8)
    fields["tenths"] = tenths + ord("0")
    high, low = np.divmod(rest, 10**4)
    fields["rest"] = _DIGITS4[high] | _DIGITS4[low].astype(np.uint64) << 32
    text = table.view(np.uint8)
    return text[text != 0].tobytes()


def _frame_fields(frame_index: np.ndarray) -> np.ndarray:
    """(frames, _FRAME_WIDTH) uint8: each frame index in decimal, padded with 0 bytes."""
    return frame_index.astype(f"S{_FRAME_WIDTH}").view(np.uint8).reshape(-1, _FRAME_WIDTH)


def write_capture(seq: CaptureSequence, path: str | Path) -> None:
    _atomic_write(path, _capture_chunks(seq))


def _capture_chunks(seq: CaptureSequence) -> Iterator[bytes]:
    """The capture CSV as the header and then the rows of each block of frames."""
    yield _HEADER_BYTES
    width = _FRAME_WIDTH + _JOINT_FIELDS.shape[1]
    for start in range(0, len(seq), _BLOCK_FRAMES):
        block = slice(start, start + _BLOCK_FRAMES)
        frames = _frame_fields(seq.frame_index[block])
        head = np.empty((len(frames), JOINT_COUNT, width), np.uint8)
        head[..., :_FRAME_WIDTH] = frames[:, None]
        head[..., _FRAME_WIDTH:] = _JOINT_FIELDS
        yield _csv_rows(head.reshape(-1, width), seq.xyz[block].reshape(-1, 3))


def read_capture(path: str | Path, direction: GaitDirection) -> CaptureSequence:
    """Parse a capture CSV, labelled with the file's stem; malformed rows are
    reported with their line number.

    Files as ``write_capture`` writes them are parsed from their bytes by
    ``_parse_bytes``, and so are such files with CRLF line ends, once each
    CRLF is made an LF; any other file is decoded as ``Path.read_text`` would
    and goes through the line-by-line parser, which accepts the other valid
    layouts and names the first bad line.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc

    parsed = _parse_bytes(data)
    if parsed is None and b"\r\n" in data:
        parsed = _parse_bytes(data.replace(b"\r\n", b"\n"))
    if parsed is None:
        lines = _decode_text(data).splitlines()
        if not lines or lines[0].strip() != CAPTURE_HEADER:
            raise ParseError(1, f"expected header '{CAPTURE_HEADER}'")
        parsed = _parse_lines(lines)
    xyz, frame_indices = parsed

    if not len(frame_indices):
        raise EmptySequenceError(f"{path} contains no data rows")
    return validate_sequence(CaptureSequence(xyz, frame_indices, direction, path.stem))


def _decode_text(data: bytes) -> str:
    r"""``data`` decoded in the locale encoding, as ``Path.read_text`` decodes it.

    ``read_text`` also turns ``\r\n`` and ``\r`` into ``\n``, which gives the
    same ``splitlines()``. A byte that does not decode is a ParseError naming
    its line.
    """
    import locale  # only files outside the kernel's grammar need it

    encoding = locale.getpreferredencoding(False)
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode(encoding, "replace") + "x").splitlines())
        raise ParseError(line, f"not valid {encoding} text: {exc.reason}") from exc


def _parse_bytes(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    r"""Numpy parse of a capture file's bytes, or None if they are outside its grammar.

    It accepts the header line, then rows ``I,J,X,Y,Z``, each ending in
    ``\n``, the last one too. The integer fields ``I`` and ``J`` are
    ``-?[0-9]{1,19}`` within int64. The coordinates are ``-?[0-9]*\.[0-9]*``
    with 1 to 16 digits, whose digits read as one integer N <= 2**53. The rows
    must be in the canonical layout: joints 0-24 of each frame in order, one
    index per frame, strictly increasing frames. Such a file is ASCII, which
    decodes alike in every locale encoding; every field is valid for
    ``int``/``float``, and ``float64(N) / 10**fraction_digits`` is one
    correctly rounded division of two exactly represented numbers, so it
    equals ``float()`` of the field: the values are those of ``_parse_lines``.
    """
    rows = data.count(b"\n") - 1
    if not data.startswith(_HEADER_BYTES) or rows <= 0 or rows % JOINT_COUNT:
        return None
    raw = np.frombuffer(data, np.uint8)
    # the little-endian 8-byte word at every byte offset of the file
    words = np.ndarray((len(data) - 7,), "<u8", buffer=data, strides=(1,))
    index = np.empty(rows, np.int64)
    joint = np.empty(rows, np.int64)
    xyz = np.empty((rows, 3))
    start, row = len(_HEADER_BYTES), 0
    while start < len(data):
        stop = data.rfind(b"\n", start, start + _CHUNK_BYTES) + 1
        fields = _parse_chunk(raw, words, start, stop) if stop > start else None
        if fields is None:
            return None
        (index_part, joint_part), coords = fields
        n = len(index_part)
        index[row : row + n], joint[row : row + n] = index_part, joint_part
        xyz[row : row + n] = coords.T
        start, row = stop, row + n

    frames = index.reshape(-1, JOINT_COUNT)
    frame_index = frames[:, 0]
    if not (
        (joint.reshape(-1, JOINT_COUNT) == np.arange(JOINT_COUNT)).all()
        and (frames == frame_index[:, None]).all()
        and (frame_index[1:] > frame_index[:-1]).all()
    ):
        return None
    return xyz.reshape(-1, JOINT_COUNT, 3), frame_index


def _parse_chunk(
    raw: np.ndarray, words: np.ndarray, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The (2, rows) int64 and (3, rows) float64 fields of the rows in ``raw[start:stop]``."""
    b = raw[start:stop]
    # every byte below "-" (which must be a "," or a "\n"), and the dots
    marks = np.flatnonzero((b < 45) | (b == 46))
    minus = np.count_nonzero(b == 45)
    rows = len(marks) // 8
    # marks, minus signs and digits must be all the bytes
    if len(marks) != 8 * rows or len(marks) + minus + np.count_nonzero((b - 48) < 10) != len(b):
        return None
    if not (b[marks].reshape(rows, 8) == _ROW_MARKS).all():
        return None
    # byte offsets in the file, one row per field: its end, its first byte, its dot
    marks = (marks + start).reshape(rows, 8).T
    end, dot = marks[[0, 1, 3, 5, 7]], marks[[2, 4, 6]]
    first = np.empty_like(end)
    first[0, 0] = start
    first[0, 1:] = end[4, :-1] + 1
    first[1:] = end[:4] + 1
    neg = raw[first] == 45
    if np.count_nonzero(neg) != minus:  # a minus sign that does not start its field
        return None
    first += neg
    int_len, coord_len = end[:2] - first[:2], end[2:] - first[2:] - 1
    if int_len.min() < 1 or int_len.max() > 19 or coord_len.min() < 1 or coord_len.max() > 16:
        return None

    ints = _digit_runs(words, first[:2], end[:2])
    if (ints > _INT64_MAX_U + neg[:2]).any():
        return None
    np.negative(ints, out=ints, where=neg[:2])
    frac_len = end[2:] - dot - 1
    mantissa = _digit_runs(words, first[2:], dot) * _POW10[frac_len]
    mantissa += _digit_runs(words, dot + 1, end[2:])
    if (mantissa > _EXACT_INT_MAX).any():
        return None
    coords = mantissa.astype(np.float64) / _POW10_F[frac_len]
    np.negative(coords, out=coords, where=neg[2:])
    return ints.view(np.int64), coords


def _digit_runs(words: np.ndarray, run_start: np.ndarray, run_stop: np.ndarray) -> np.ndarray:
    """The value of each run of 0 to 19 decimal digits ``data[run_start:run_stop]``, as uint64.

    Eight digits at a time, from the right: the word that ends at a group's
    last digit, with the bytes before the run cleared (so they read as
    leading zeros), is converted by a SWAR multiply-shift-mask sequence.
    """
    length = run_stop - run_start
    value = np.zeros(length.shape, np.uint64)
    for k in range(-(-int(length.max()) // 8)):
        # a group that is empty contributes 0 wherever its word starts
        w = words[np.maximum(run_stop - 8 * (k + 1), 0)]
        w &= _KEEP[np.minimum(np.maximum(length - 8 * k, 0), 8)]
        for mask, multiplier, shift in _SWAR_STEPS:
            w &= mask
            w *= multiplier
            w >>= shift
        w *= _POW10[8 * k]
        value += w
    return value


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
    header = "frame," + ",".join(s.joint.name.lower() for s in series) + "\n"
    diffs = np.array([s.per_frame_diff for s in series]).T
    body = _csv_rows(_frame_fields(seq.frame_index), diffs) if series else b""
    _atomic_write(path, (header.encode(), body))


def write_bone_report(report: StabilityReport, path: str | Path) -> None:
    """CSV with one row per skeleton edge: its joints and its length statistics."""
    lines = ["parent,child,parent_name,child_name,mean_m,std_m,max_abs_dev_m"]
    for e in report.per_edge:
        lines.append(
            f"{int(e.edge.parent)},{int(e.edge.child)},"
            f"{e.edge.parent.name.lower()},{e.edge.child.name.lower()},"
            f"{e.mean_length_m:.9f},{e.std_length_m:.9f},{e.max_abs_dev_m:.9f}"
        )
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


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
    _atomic_write(path, (json.dumps(doc, indent=2) + "\n").encode())


def _require(doc: dict, field: str, kind, context: str = "profile"):
    if field not in doc:
        raise SchemaError(field, f"missing from {context}")
    value = doc[field]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(field, f"expected a number, got {type(value).__name__}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise SchemaError(field, "must be finite")
        return number
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
    except UnicodeDecodeError as exc:
        raise SchemaError("<document>", f"not valid text: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
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
    except (ValueError, OverflowError) as exc:  # OverflowError: a coefficient beyond the float range
        raise SchemaError("<document>", str(exc)) from exc
