"""Capture CSV and profile JSON file formats.

Capture files are CSV with header ``frame,joint,x,y,z``, one row per joint per
frame, rows sorted by (frame, joint), coordinates printed with 9 fractional
digits so a write/read round trip is lossless to well under 1e-9 m and a
read/write round trip is byte-identical. Profiles are a strict JSON document
(schema_version 1); unknown or malformed fields are rejected by their path.
Both readers decode UTF-8, whatever the locale, and skip a byte-order mark.

All writes are atomic (temp file in the target directory, then rename) and
deterministic: the same data always produces a byte-identical file with LF
line endings.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import warnings
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptySequenceError, IoFailureError, MissingJointError, ParseError, SchemaError, tagged
from .numerics import Polynomial
from .perspective import BetaModel, BetaPoint
from .pipeline import CalibrationProfile
from .skeleton import JOINT_COUNT, SKELETON_EDGES, CaptureSequence, GaitDirection, JointIndex, check_increasing
from .tilt import TiltParams

CAPTURE_HEADER = "frame,joint,x,y,z"
PROFILE_SCHEMA_VERSION = 1

#: Profile JSON v1, in the order ``write_profile`` prints it: each field with its type. ``float``
#: is any finite number, ``[t]`` a list of ``t``, and a table an object of exactly its fields.
_BETA_POINT = {"joint": int, "height_y_m": float, "beta_rad": float}
_PROFILE = {
    "schema_version": int,
    "alpha_g_rad": float,
    "h_k_m": float,
    "beta_degree": int,
    "beta_coeffs": [float],
    "gait_count": int,
    "beta_points": [_BETA_POINT],
    "created_label": str,
}

#: Frame indices are stored as int64.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


#: Capture frames formatted per bulk step of the writer: at most 80, so that a
#: block's record table, its ``tobytes()`` copy and the ``replace`` result stay
#: below glibc's 128 KiB mmap threshold even for the widest records (63 bytes a
#: row, 1,575 a frame). The allocator then reuses them from the heap whatever the
#: process freed before the write. In a warm process, whose frees had raised the
#: threshold, 256-frame blocks wrote the 9,000-frame capture's rows in 47 ms
#: against 50 (best of 7); but a fresh ``skelcal apply`` took 5.6k to 16.4k minor
#: page faults with them, by its checkout's path and whether it compiled its
#: modules, against 5.4k with 64 in every case (2-CPU Xeon).
BLOCK_FRAMES = 64
#: The smallest double that prints as 10.000000000 (the double nearest
#: 9.9999999995 lies below the half and prints as 9.999999999): the writer's
#: kernel formats a block whose values are all below it, so print one whole digit.
_FAST_MAX = 9.999999999500002
#: ``_DIGITS4[k]`` is the 4 ASCII digits of k < 10**4, leading zeros included,
#: as a little-endian word, the first digit in the lowest byte ("0000" is 0x30303030).
_DIGITS4 = sum(np.arange(10**4, dtype=np.uint64) // 10 ** (3 - i) % 10 << 8 * i for i in range(4)) + 0x30303030
#: ``_LEAD[t + 100 * negative]``, for t < 100, is ``,`` then ``-`` if negative
#: (else a 0 byte), the digit t // 10, ``.`` and the digit t % 10, in a
#: little-endian word: a coordinate with whole part t // 10 and first fraction
#: digit t % 10 starts with these 5 bytes.
_LEAD = np.frombuffer(
    b"".join(b",%s%d.%d\0\0\0" % (sign, t // 10, t % 10) for sign in (b"\0", b"-") for t in range(100)), "<u8"
)
#: A coordinate: its _LEAD word, then its other 8 fraction digits over that word's last 3 bytes.
_COORDINATE = np.dtype({"names": ["lead", "tail"], "formats": ["<u8", "<u8"], "offsets": [0, 5], "itemsize": 13})
#: ``,j`` for each joint j, padded with 0 bytes.
_JOINT_FIELDS = np.array([f",{j}" for j in range(JOINT_COUNT)], "S3").view(np.uint8).reshape(-1, 3)
#: The one, empty label of a report row, which has no joint field.
_NO_LABELS = np.empty((1, 0), np.uint8)

_HEADER_BYTES = (CAPTURE_HEADER + "\n").encode()
_NOT_ASCII = "not ASCII text: ordinal not in range(128)"
#: Rows per ``np.loadtxt`` call of the reader, 256 whole frames. With the call's
#: result and temporaries beside the arrays it fills, a 9,000-frame read's traced
#: peak is 1.142 times its ``xyz``, against 1.21 at 12,800 rows a call and 1.40 at 25,600.
_CHUNK_ROWS = 256 * JOINT_COUNT
#: A capture row as ``np.loadtxt`` reads it.
_ROW = np.dtype([("frame", "i8"), ("joint", "i8"), ("xyz", "f8", 3)])


def _atomic_write(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a temp file, then rename it."""
    path = Path(path)
    tmp = path.with_name(f".{os.urandom(8).hex()}.tmp")  # fixed length: any name the target can have fits
    try:
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


@contextmanager
def _reading(path: Path) -> Iterator[BinaryIO]:
    """The file ``path``, open in binary: a CalibrationError raised on its contents names the file
    in its ``path``, and an OSError becomes an IoFailureError that names it in its message only."""
    try:
        with open(path, "rb") as fh, tagged(path=str(path)):
            yield fh
    except OSError as exc:  # outside tagged, which would set the IoFailureError's path
        raise IoFailureError(f"cannot read {path}: {exc}") from exc


def _csv_rows(frame_index: np.ndarray, labels: np.ndarray, values: np.ndarray) -> bytes:
    """CSV rows: for each frame f and each row r of ``labels``, ``frame_index[f]``,
    then ``labels[r]``, then ``",{:.9f}".format(v)`` for each v in ``values[f, r]``, then LF.

    ``labels`` is a (per_frame, width) uint8 array of ASCII text in which 0
    bytes are no character; ``values`` is (frames, per_frame, k) float64. The
    bytes are those of the format calls. ``.9f`` prints |v| * 1e9 rounded to
    an integer N, half to even, with the sign of v. For finite
    |v| < _FAST_MAX, y = |v| * 1e9 is below 2**52 and within y * 2**-53 of the
    exact product, so rint(y) is N unless the fraction of y lies within
    y * 2**-51 of 1/2; such near-ties (exact ties among them) take N from
    ``"{:.9f}".format``. If any value is NaN or |v| >= _FAST_MAX (a whole
    part of two or more digits), every row is formatted by ``"{:.9f}".format``
    instead.

    Each row is first a record sized to the block's widest frame index, with
    a _COORDINATE per value; its 0 bytes (no plus sign, the padding of a
    label or of a shorter index) are then dropped.
    """
    magnitude = np.abs(values)
    if not (magnitude < _FAST_MAX).all():  # also for NaN
        texts = [label[label != 0].tobytes() for label in labels]
        return b"".join(
            b"%d%s%s\n" % (index, text, "".join(map(",{:.9f}".format, row)).encode())
            for index, rows in zip(frame_index.tolist(), values.tolist())
            for text, row in zip(texts, rows)
        )

    y = magnitude * 1e9
    nanos = np.rint(y).astype(np.int64)
    near_tie = np.abs(y - np.floor(y) - 0.5) <= y * 2.0**-51
    if near_tie.any():
        exact = map("{:.9f}".format, magnitude[near_tie].tolist())
        nanos[near_tie] = [int(text.replace(".", "")) for text in exact]
    lead = nanos // 10**8  # the whole digit, then the first fraction digit
    frame_width = max(len(str(frame_index.min())), len(str(frame_index.max())))
    record = [
        ("frame", f"S{frame_width}"),
        ("label", "u1", labels.shape[1:]),
        ("coordinates", _COORDINATE, values.shape[2:]),
        ("lf", "u1"),
    ]
    table = np.empty(values.shape[:2], record)
    table["frame"] = frame_index.astype(f"S{frame_width}")[:, None]
    table["label"] = labels
    table["lf"] = ord("\n")
    coordinates = table["coordinates"]
    coordinates["lead"] = _LEAD[lead + 100 * np.signbit(values)]
    coordinates["tail"] = _digits8(nanos - lead * 10**8)
    # bytes.replace finds the 0 bytes with memchr: 29% less time than text[text != 0] for 9,000 frames
    return table.tobytes().replace(b"\0", b"")


def _digits8(n: np.ndarray) -> np.ndarray:
    """The 8 ASCII digits of each n < 10**8, leading zeros included, as little-endian words."""
    high = n // 10**4  # numpy divides by a constant without a division instruction; % takes one
    return _DIGITS4[high] | _DIGITS4[n - high * 10**4] << 32


def write_capture(parts: CaptureSequence | Iterable[CaptureSequence], path: str | Path) -> None:
    """Write a capture CSV, which ``read_capture`` reads back: every ``CaptureSequence`` is valid.

    ``parts`` is one sequence or consecutive parts of one, such as its slices
    ``seq[a:b]`` in order, which may come from a generator: each part is
    written before the next is taken. Any split of a sequence writes the
    bytes of the whole. No parts raise EmptySequenceError, and a part whose
    first frame index does not pass the previous part's last raises
    NonMonotonicFrameIndexError; either leaves no file, as does an error
    raised by the generator.
    """
    _atomic_write(path, _capture_chunks([parts] if isinstance(parts, CaptureSequence) else parts))


def _capture_chunks(parts: Iterable[CaptureSequence]) -> Iterator[bytes]:
    """The capture CSV as the header and then the rows of each block of each part's frames."""
    yield _HEADER_BYTES
    last = None
    for part in parts:
        if last is not None:
            check_increasing(last, int(part.frame_index[0]))
        last = int(part.frame_index[-1])
        yield from _block_rows(part.frame_index, _JOINT_FIELDS, part.xyz)
    if last is None:
        raise EmptySequenceError("no parts to write")


def _block_rows(frame_index: np.ndarray, labels: np.ndarray, values: np.ndarray) -> Iterator[bytes]:
    """``_csv_rows`` per block of as many frames as fit the widest record table of BLOCK_FRAMES capture frames."""

    def widest_frame(labels: np.ndarray, k: int) -> int:  # a frame's bytes at 20-character frame indices
        return len(labels) * (20 + labels.shape[1] + k * _COORDINATE.itemsize + 1)

    frames = BLOCK_FRAMES * widest_frame(_JOINT_FIELDS, 3) // widest_frame(labels, values.shape[2])
    for start in range(0, len(frame_index), frames):
        block = slice(start, start + frames)
        yield _csv_rows(frame_index[block], labels, values[block])


def read_capture(path: str | Path, direction: GaitDirection) -> CaptureSequence:
    """Parse a capture CSV, labelled with the file's stem; malformed rows are
    reported with their line number, and every error names the file.

    A file of LF or CRLF rows in the canonical layout takes numpy's C parser (``_parse_stream``), whatever
    digits its fields have. Any other, such as one with a byte-order mark, a blank line, a lone CR or no final
    line end, goes through the slower line-by-line parser, which streams the open file, accepts the other
    valid layouts and names the first bad line; it decodes UTF-8 after any byte-order mark and reads ASCII only.
    A 9,000-frame read's traced peak is 1.14 times its ``xyz`` on the fast path and 1.26 on the slow one.
    """
    path = Path(path)
    with _reading(path) as fh:
        if not fh.seekable():  # a pipe, which the two passes cannot rewind
            fh = io.BytesIO(fh.read())
        parsed = _parse_stream(fh)
        if parsed is None:
            fh.seek(0)
            # universal newlines end a line at LF, CRLF and a lone CR; utf-8-sig skips a leading byte-order mark
            with io.TextIOWrapper(fh, "utf-8-sig", "surrogateescape", newline=None) as text:
                parsed = _parse_lines(text)
        xyz, frame_indices = parsed
        return CaptureSequence.adopt(xyz, frame_indices, direction, path.stem)


def _parse_stream(fh: BinaryIO) -> tuple[np.ndarray, np.ndarray] | None:
    r"""``np.loadtxt``'s parse of the capture in the seekable binary file ``fh``, or None if
    the fast path does not take it.

    The file must be the header line, then rows ``I,J,X,Y,Z`` that each end in
    ``\n`` or ``\r\n``, in the canonical layout: joints 0-24 of each frame in
    order, one index per frame, strictly increasing frames. numpy reads an
    int64 field as ``int`` and a float64 one as ``float`` does, but refuses
    ``_`` as ``_parse_lines`` does, so the values are those of ``_parse_lines``.
    A field that numpy refuses, a byte that is not ASCII, a blank line, a lone
    CR, or rows that differ in number between the two passes over ``fh`` (one
    to count them, one to parse them _CHUNK_ROWS at a time) give None.
    """
    header = fh.readline(len(_HEADER_BYTES) + 1)
    if header.replace(b"\r\n", b"\n") != _HEADER_BYTES:
        return None
    rows = 0
    for chunk in iter(lambda: fh.read(1 << 16), b""):
        rows += np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10)  # a fourth of the time of chunk.count
    if rows == 0 or rows % JOINT_COUNT:
        return None

    fh.seek(len(header))
    frame_index = np.empty(rows // JOINT_COUNT, np.int64)
    xyz = np.empty((rows, 3))
    text = io.TextIOWrapper(fh, encoding="ascii", newline="\n")  # numpy ends a row at a CRLF, refuses a lone CR
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # such as numpy's on a blank line, which it would skip
            for start in range(0, rows, _CHUNK_ROWS):
                stop = min(start + _CHUNK_ROWS, rows)
                chunk = np.loadtxt(text, _ROW, delimiter=",", comments=None, max_rows=stop - start)
                if len(chunk) < stop - start:  # the file shrank
                    return None
                frames = chunk.reshape(-1, JOINT_COUNT)  # whole frames: JOINT_COUNT divides start and stop
                index = frames["frame"]
                if not ((frames["joint"] == range(JOINT_COUNT)).all() and (index == index[:, :1]).all()):
                    return None
                xyz[start:stop] = chunk["xyz"]
                frame_index[start // JOINT_COUNT : stop // JOINT_COUNT] = index[:, 0]
            if text.read(1):  # a row beyond the counted ones
                return None
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    finally:
        text.detach()  # leaves fh open
    if not (frame_index[1:] > frame_index[:-1]).all():
        return None
    return xyz.reshape(-1, JOINT_COUNT, 3), frame_index


def _parse_lines(lines: Iterable[str]) -> tuple[np.ndarray, list[int]]:
    """Line-by-line parse of any valid layout from the capture's lines, header first; raises naming the
    first bad line. A line that is not ASCII is bad, and the header is checked before ``strip`` drops Unicode
    spaces; ``read_capture`` decodes UTF-8, and a byte that is not UTF-8 to a lone surrogate."""
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

    lines = iter(lines)
    header = next(lines, "")  # an empty file has one empty line
    if not header.isascii() or header.strip() != CAPTURE_HEADER:
        raise ParseError(1, _NOT_ASCII if not header.isascii() else f"expected header '{CAPTURE_HEADER}'")
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if not line.isascii():
            raise ParseError(lineno, _NOT_ASCII)
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ParseError(lineno, f"expected 5 comma-separated fields, got {len(parts)}")
        if "_" in line:  # which int and float read as a digit separator
            raise ParseError(lineno, "'_' in a number")
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


def write_ydiff_report(
    frame_index: np.ndarray, joints: Sequence[JointIndex | int], diffs: np.ndarray, path: str | Path
) -> None:
    """Plot-ready CSV: one row per frame, its index and each joint's y - y_last, from the
    (frames, joints) array ``diffs`` whose column k is the series of ``joints[k]``."""
    header = "frame," + ",".join(JointIndex(j).name.lower() for j in joints) + "\n"
    body = _block_rows(frame_index, _NO_LABELS, diffs[:, None]) if len(joints) else ()
    _atomic_write(path, itertools.chain((header.encode(),), body))


def write_bone_report(stats: np.ndarray, path: str | Path) -> None:
    """CSV with one row per skeleton edge: its joints and its length statistics, from the
    (edges, 3) array ``stats`` of each ``SKELETON_EDGES`` bone's mean, std and largest |deviation|."""
    lines = ["parent,child,parent_name,child_name,mean_m,std_m,max_abs_dev_m"]
    for (parent, child), (mean, std, max_dev) in zip(SKELETON_EDGES, stats.tolist()):
        lines.append(
            f"{int(parent)},{int(child)},{parent.name.lower()},{child.name.lower()},"
            f"{mean:.9f},{std:.9f},{max_dev:.9f}"
        )
    _atomic_write(path, [("\n".join(lines) + "\n").encode()])


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
    _atomic_write(path, [(json.dumps(doc, indent=2) + "\n").encode()])


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a field given twice is a SchemaError, not a silent overwrite."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SchemaError(key, "given more than once")
        doc[key] = value
    return doc


def read_profile(path: str | Path) -> CalibrationProfile:
    """Parse and schema-validate a profile document, UTF-8 after any byte-order mark whatever
    the locale (strict: unknown fields rejected); every error names the file."""
    with _reading(Path(path)) as fh:
        return _parse_profile(fh.read())


def _parse_profile(data: bytes) -> CalibrationProfile:
    try:
        doc = json.loads(data.decode("utf-8-sig"), object_pairs_hook=_unique_fields)
    except UnicodeDecodeError as exc:
        raise SchemaError("<document>", f"not valid text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an int past int_max_str_digits, nested too deep
        raise SchemaError("<document>", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("<document>", "top level must be an object")
    version = _field(doc, "schema_version", int, "")
    if version != PROFILE_SCHEMA_VERSION:  # before the other fields: another version may have other fields
        raise SchemaError("schema_version", f"unsupported version {version}")
    fields = _fields(doc, _PROFILE, "")
    degree, coeffs = fields["beta_degree"], fields["beta_coeffs"]
    if len(coeffs) != degree + 1:
        raise SchemaError("beta_coeffs", f"expected {degree + 1} coefficients for degree {degree}, got {len(coeffs)}")
    points = []
    for i, point in enumerate(fields["beta_points"]):
        if not 0 <= point["joint"] < JOINT_COUNT:
            raise SchemaError(f"beta_points[{i}].joint", f"joint {point['joint']} out of range 0-24")
        try:
            points.append(BetaPoint(**point))
        except ValueError as exc:
            raise SchemaError(f"beta_points[{i}].beta_rad", str(exc)) from exc

    try:
        tilt = TiltParams(fields["alpha_g_rad"], fields["h_k_m"])
        beta_model = BetaModel(Polynomial(tuple(coeffs)), degree, tuple(points))
        return CalibrationProfile(tilt, beta_model, fields["gait_count"], fields["created_label"])
    except ValueError as exc:
        raise SchemaError("<document>", str(exc)) from exc


def _fields(obj: dict, table: dict, at: str) -> dict:
    """The fields of the JSON object ``obj``, each checked against ``table`` and named ``at + key``."""
    for key in obj:
        if key not in table:
            raise SchemaError(at + key, "unknown field")
    return {key: _field(obj, key, kind, at) for key, kind in table.items()}


def _field(obj: dict, key: str, kind, at: str):
    if key not in obj:
        raise SchemaError(at + key, "missing")
    return _value(obj[key], kind, at + key)


def _value(value, kind, path: str):
    """``value`` if it has the type ``kind``, else a SchemaError that names ``path``. A number
    comes back as a float; a list names its numbers by itself and its objects by their index."""
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(path, f"expected a number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise SchemaError(path, "must be finite")
        return value
    shape = kind if isinstance(kind, type) else type(kind)  # int, str, list or dict
    if not isinstance(value, shape) or isinstance(value, bool):
        expected = "an object" if shape is dict else shape.__name__
        raise SchemaError(path, f"expected {expected}, got {type(value).__name__}")
    if shape is dict:
        return _fields(value, kind, path + ".")
    if shape is list:
        (item,) = kind
        return [_value(v, item, f"{path}[{i}]" if isinstance(item, dict) else path) for i, v in enumerate(value)]
    return value
