"""Capture CSV and profile JSON file formats.

Capture files are CSV with header ``frame,joint,x,y,z``, one row per joint per
frame, rows sorted by (frame, joint), coordinates printed with 9 fractional
digits so a write/read round trip is lossless to well under 1e-9 m and a
read/write round trip is byte-identical. Profiles are a strict JSON document
(schema_version 1); unknown or malformed fields are rejected by their path.

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
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptySequenceError, IoFailureError, MissingJointError, ParseError, SchemaError, tagged
from .numerics import Polynomial
from .perspective import BetaModel, BetaPoint
from .pipeline import CalibrationProfile
from .skeleton import JOINT_COUNT, CaptureSequence, GaitDirection, check_increasing
from .tilt import TiltParams

if TYPE_CHECKING:  # annotations only: the other subcommands never load diagnostics
    from .diagnostics import DiffSeries, StabilityReport

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

#: Bytes of the reader's buffer, whose whole rows its kernel parses per step.
#: For the writer's rows the kernel's temporary arrays (about 100 KB) then
#: stay under glibc's 128 KiB mmap threshold, so the allocator recycles them:
#: reading the ten 900-frame gaits of the calibration benchmark took 2,355
#: minor page faults with 64 KiB chunks and 10,023 with 256 KiB ones (2-CPU Xeon).
_CHUNK_BYTES = 1 << 16
#: Bytes before the reader's data in its buffer: the 8-byte word that ends at
#: a row's first mark then starts within the buffer.
_PAD = 8
_HEADER_BYTES = (CAPTURE_HEADER + "\n").encode()
#: The separators and dots of one row, in order, as a little-endian word.
_ROW_MARKS = np.frombuffer(b",,.,.,.\n", "<u8")[0]
#: Added to the byte offsets of a row's marks: each dot's becomes that of the digit after it.
_DOT_STEP = np.array([0, 0, 1, 0, 1, 0, 1, 0])[:, None]
#: ``_KEEP[n]`` keeps the last ``n`` bytes of a little-endian 8-byte word.
_KEEP = np.array([(2**64 - 1) ^ (2 ** (64 - 8 * n) - 1) for n in range(9)], np.uint64)
_POW10 = 10 ** np.arange(10, dtype=np.uint64)
#: 10**k, then -(10**k), for k < 10: a field with k fraction digits, and a
#: minus sign if ``negative``, is float64(N) / _SIGNED_POW10_F[k + 10 * negative].
_SIGNED_POW10_F = np.concatenate([_POW10, -_POW10.astype(np.int64)]).astype(np.float64)
_EXACT_INT_MAX = np.uint64(2**53)
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

    Files as ``write_capture`` writes them, with LF or CRLF line ends, are
    parsed by ``_parse_stream`` through one small buffer. Any other file, such
    as one with 9 or more digits in a frame index, is read whole, decoded as
    ``Path.read_text`` would, and goes through the slower line-by-line parser,
    which accepts the other valid layouts and names the first bad line.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():  # a pipe, which the two passes cannot rewind
                fh = io.BytesIO(fh.read())
            parsed = _parse_stream(fh)
            if parsed is None:
                fh.seek(0)
                data = fh.read()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc

    with tagged(path=str(path)):
        if parsed is None:
            lines = _decode_text(data).splitlines()
            if not lines or lines[0].strip() != CAPTURE_HEADER:
                raise ParseError(1, f"expected header '{CAPTURE_HEADER}'")
            parsed = _parse_lines(lines)
        xyz, frame_indices = parsed
        return CaptureSequence.adopt(xyz, frame_indices, direction, path.stem)


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


def _parse_stream(fh: BinaryIO) -> tuple[np.ndarray, np.ndarray] | None:
    r"""Numpy parse of a capture file read from ``fh``, or None if it is outside the grammar.

    The file must be the header line, then rows ``I,J,X,Y,Z``, each ending in
    ``\n`` or ``\r\n``, the last one too. The integer fields ``I`` and ``J`` are
    ``-?[0-9]{1,8}``. The coordinates are ``-?[0-9]{0,7}\.[0-9]{1,9}``, whose
    digits read as one integer N <= 2**53: the layout ``write_capture``
    prints, with short frame indices and values below 2**22. The rows
    must be in the canonical layout: joints 0-24 of each frame in order, one
    index per frame, strictly increasing frames. Such a file is ASCII, which
    decodes alike in every locale encoding; every field is valid for
    ``int``/``float``, and ``float64(N) / 10**fraction_digits`` is one
    correctly rounded division of two exactly represented numbers, so it
    equals ``float()`` of the field: the values are those of ``_parse_lines``.

    ``fh`` is read twice through one _CHUNK_BYTES buffer: once to count the
    rows, then to parse the whole rows in each fill of it, each CRLF first
    made an LF in place, the partial row at its end (a CR that may pair with
    the next fill's LF among it) carried to its front. Each fill's rows go to
    an array of exactly that many rows of coordinates, and each frame's index,
    once its rows are checked against it, to one of that many frames. Beside
    those arrays and the buffer it holds one fill's temporaries. A row longer
    than the buffer, or a file that changed between the two passes, also
    gives None. Each fill is one ``readinto``, which fills the buffer unless
    the file ends when ``fh`` is a buffered file or a ``BytesIO``.
    """
    buf = bytearray(_PAD + _CHUNK_BYTES)
    raw = np.frombuffer(buf, np.uint8)
    data = memoryview(buf)[_PAD:]
    filled = fh.readinto(data)
    header_end = buf.find(b"\n", _PAD, _PAD + filled) + 1
    if buf[_PAD:header_end].replace(b"\r\n", b"\n") != _HEADER_BYTES:
        return None
    rows = -1  # the header's line end
    while filled:
        # a fifth of the time of bytes.count(b"\n")
        rows += np.count_nonzero(raw[_PAD : _PAD + filled] == 10)
        filled = fh.readinto(data)
    if rows <= 0 or rows % JOINT_COUNT:
        return None

    fh.seek(header_end - _PAD)
    # the little-endian 8-byte word at every byte offset of the buffer
    words = np.ndarray((len(buf) - 7,), "<u8", buffer=buf, strides=(1,))
    frame_index = np.empty(rows // JOINT_COUNT, np.int64)
    xyz = np.empty((rows, 3))
    row = carry = 0
    while filled := carry + fh.readinto(data[carry:]):
        # the carried bytes hold no LF: a CR that ends them may pair with one that starts the new ones
        end = _crlf_to_lf(buf, _PAD, _PAD + filled)
        stop = buf.rfind(b"\n", _PAD, end) + 1
        if not stop:  # a row longer than the buffer, or no line end at the end of the file
            return None
        fields = _parse_chunk(raw, words, _PAD, stop, xyz[row:])
        if fields is None:
            return None
        first = -(-row // JOINT_COUNT)  # the first frame that starts in this fill
        starts = fields[0, first * JOINT_COUNT - row :: JOINT_COUNT]
        frame_index[first : first + len(starts)] = starts
        # each row's frame and joint in the canonical layout
        frame, joint = np.divmod(np.arange(row, row + fields.shape[1]), JOINT_COUNT)
        if not ((fields[1] == joint).all() and (fields[0] == frame_index[frame]).all()):
            return None
        row += fields.shape[1]
        carry = end - stop
        raw[_PAD : _PAD + carry] = raw[stop:end]
    if not (row == rows and (frame_index[1:] > frame_index[:-1]).all()):
        return None
    return xyz.reshape(-1, JOINT_COUNT, 3), frame_index


def _crlf_to_lf(buf: bytearray, start: int, end: int) -> int:
    """Turn each CRLF in ``buf[start:end]`` into an LF in place; the new end of the bytes."""
    if buf.find(b"\r", start, end) < 0:
        return end
    lf = buf[start:end].replace(b"\r\n", b"\n")
    buf[start : start + len(lf)] = lf
    return start + len(lf)


def _parse_chunk(
    raw: np.ndarray, words: np.ndarray, start: int, stop: int, xyz: np.ndarray
) -> np.ndarray | None:
    """The (2, rows) int64 fields of the rows in ``raw[start:stop]``, their
    coordinates written to ``xyz[:rows]``; None if the rows are outside the
    grammar or ``xyz`` has fewer.

    An integer field has 1 to 8 digits and is one masked word. A coordinate
    has 0 to 7 whole digits and 1 to 9 fraction digits, as the writer prints
    every value below 2**22 (from its kernel below _FAST_MAX, or from
    ``"{:.9f}".format``), and is two words: its whole digits and first
    fraction digit, then its other fraction digits.
    """
    b = raw[start:stop]
    # every byte below "-" (which must be a "," or a "\n"), and the dots
    marks = np.flatnonzero((b < 45) | (b == 46))
    minus = np.count_nonzero(b == 45)
    rows = len(marks) // 8
    if rows > len(xyz):
        return None
    # marks, minus signs and digits must be all the bytes
    if len(marks) != 8 * rows or len(marks) + minus + np.count_nonzero((b - 48) < 10) != len(b):
        return None
    if not (b[marks].view("<u8") == _ROW_MARKS).all():
        return None
    # byte offsets in the file, one row per mark, each dot moved on to the digit after it:
    # the ends of I and J, then per coordinate its first fraction digit and its end
    marks = np.add(marks.reshape(rows, 8).T, _DOT_STEP + start, out=np.empty((8, rows), np.int64))
    first = np.empty((5, rows), np.int64)  # each field's first byte
    first[0, 0] = start
    first[0, 1:] = marks[7, :-1] + 1
    first[1] = marks[0] + 1
    first[2:] = marks[1:7:2] + 1
    neg = raw[first] == 45
    if np.count_nonzero(neg) != minus:  # a minus sign that does not start its field
        return None
    first += neg
    frac_len = marks[3::2] - marks[2::2]
    # the digits in each field's words: I, J, then per coordinate whole + 1 and fraction - 1
    lens = np.empty((8, rows), np.int64)
    np.subtract(marks[:2], first[:2], out=lens[:2])
    np.subtract(marks[2::2], first[2:], out=lens[2::2])
    tail_len = np.subtract(frac_len, 1, out=lens[3::2])
    if lens.max() > 8 or lens[:2].min() < 1 or tail_len.min() < 0:
        return None

    # the word that ends before each mark, with the digit after each dot over the dot
    w = words[marks - 8]
    w.view(np.uint8).reshape(8, rows, 8)[2::2, :, 7] = raw[marks[2::2]]
    w &= _KEEP[lens]
    ints = _swar(w)[:2]
    np.negative(ints, out=ints, where=neg[:2])
    mantissa = w[2::2] * _POW10[tail_len]
    mantissa += w[3::2]
    if (mantissa > _EXACT_INT_MAX).any():
        return None
    # numpy converts each N <= 2**53 to float64 exactly
    np.divide(mantissa, _SIGNED_POW10_F[frac_len + 10 * neg[2:]], out=xyz[:rows].T)
    return ints.view(np.int64)


def _swar(w: np.ndarray) -> np.ndarray:
    """``w``, little-endian words of eight ASCII digits or 0 bytes, made their values in place."""
    for mask, multiplier, shift in _SWAR_STEPS:
        w &= mask
        w *= multiplier
        w >>= shift
    return w


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


def write_ydiff_report(frame_index: np.ndarray, series: Sequence[DiffSeries], path: str | Path) -> None:
    """Plot-ready CSV: one row per frame, its index and each joint's y - y_last."""
    header = "frame," + ",".join(s.joint.name.lower() for s in series) + "\n"
    diffs = np.array([s.per_frame_diff for s in series]).T
    body = _block_rows(frame_index, _NO_LABELS, diffs[:, None]) if series else ()
    _atomic_write(path, itertools.chain((header.encode(),), body))


def write_bone_report(report: StabilityReport, path: str | Path) -> None:
    """CSV with one row per skeleton edge: its joints and its length statistics."""
    lines = ["parent,child,parent_name,child_name,mean_m,std_m,max_abs_dev_m"]
    for e in report.per_edge:
        lines.append(
            f"{int(e.edge.parent)},{int(e.edge.child)},"
            f"{e.edge.parent.name.lower()},{e.edge.child.name.lower()},"
            f"{e.mean_length_m:.9f},{e.std_length_m:.9f},{e.max_abs_dev_m:.9f}"
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
    """Parse and schema-validate a profile document (strict: unknown fields
    rejected); every error names the file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        with tagged(path=str(path)):
            raise SchemaError("<document>", f"not valid text: {exc}") from exc
    with tagged(path=str(path)):
        return _parse_profile(text)


def _parse_profile(text: str) -> CalibrationProfile:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_fields)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
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
