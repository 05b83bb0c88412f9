import codecs
import dataclasses
import functools
import io
import json
import math
import os
import re
import stat
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from skelcal import (
    CalibrationProfile,
    DistortionSpec,
    GaitDirection,
    JointIndex,
    Polynomial,
    apply_distortion,
    calibrate,
    generate_truth_capture,
    read_capture,
    read_profile,
    validate_sequence,
    write_capture,
    write_profile,
)
from skelcal import CaptureSequence, JOINT_COUNT, bone_length_stability, y_diff_to_last
from skelcal import fileio
from skelcal.cli import main
from skelcal.fileio import write_bone_report, write_ydiff_report
from skelcal.errors import (
    CalibrationError,
    EmptySequenceError,
    IoFailureError,
    MissingJointError,
    NonFiniteCoordinateError,
    NonMonotonicFrameIndexError,
    ParseError,
    SchemaError,
)


@pytest.fixture
def short_walk(template):
    return generate_truth_capture(template, GaitDirection.VERTICAL, 3, 4.5, 1.5)


@pytest.fixture
def profile(truth_walk):
    spec = DistortionSpec(
        tilt_rad=math.radians(7), sensor_height_m=0.75, beta_poly=Polynomial((0.02, -0.01))
    )
    return calibrate([apply_distortion(truth_walk, spec) for _ in range(3)], 0.75, created_label="fixture")


class TestCaptureRoundTrip:
    def test_write_read_within_tolerance(self, short_walk, tmp_path):
        path = tmp_path / "walk.csv"
        write_capture(short_walk, path)
        back = read_capture(path, GaitDirection.VERTICAL)
        assert len(back) == len(short_walk)
        assert back.frame_index.tolist() == short_walk.frame_index.tolist()
        assert np.abs(back.xyz - short_walk.xyz).max() <= 1e-9

    def test_read_write_byte_identical(self, short_walk, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_capture(short_walk, first)
        write_capture(read_capture(first, GaitDirection.VERTICAL), second)
        assert first.read_bytes() == second.read_bytes()

    def test_writes_are_deterministic(self, short_walk, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_capture(short_walk, a)
        write_capture(short_walk, b)
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings_and_header(self, short_walk, tmp_path):
        path = tmp_path / "walk.csv"
        write_capture(short_walk, path)
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.startswith(b"frame,joint,x,y,z\n")

    def test_label_defaults_to_stem(self, short_walk, tmp_path):
        path = tmp_path / "session7.csv"
        write_capture(short_walk, path)
        assert read_capture(path, GaitDirection.VERTICAL).label == "session7"


class TestCaptureErrors:
    def test_missing_joint_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["frame,joint,x,y,z"]
        for j in range(24):  # joint 24 absent
            lines.append(f"0,{j},0.1,1.0,2.0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MissingJointError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.frame_index == 0
        assert err.value.joint == 24

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("frame,joint,x,y,z\n")
        with pytest.raises(EmptySequenceError, match=f"^{path}: capture has no frames$"):
            read_capture(path, GaitDirection.VERTICAL)

    def test_errors_name_the_file_and_keep_their_fields(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [f"3,{j},0.1,{'inf' if j == 7 else 1.0},2.0\n" for j in range(JOINT_COUNT)]
        path.write_text("frame,joint,x,y,z\n" + "".join(rows))
        with pytest.raises(NonFiniteCoordinateError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert (err.value.frame_index, err.value.joint, err.value.field) == (3, 7, "y")
        assert str(err.value) == f"{path}: non-finite coordinate at frame 3, joint 7, field y"

    def test_empty_capture_not_written(self, tmp_path):
        with pytest.raises(EmptySequenceError):  # no capture of no frames can be built
            empty = CaptureSequence(np.zeros((0, JOINT_COUNT, 3)), [], GaitDirection.VERTICAL)
            write_capture(empty, tmp_path / "empty.csv")
        assert list(tmp_path.iterdir()) == []  # neither the file nor a temp file

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["frame,joint,x,y,z"] + [f"0,{j},0.1,1.0,2.0" for j in range(25)]
        rows[3] = "0,2,0.1,not_a_number,2.0"  # file line 4 (header is line 1)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "frames, extra, message",
        [
            ([0], "0,25,0.1,1.0,2.0", "joint index 25 out of range 0-24"),
            ([1], "0,0,0.1,1.0,2.0", "frame 0 out of order after 1"),
        ],
    )
    def test_line_parser_errors_name_the_line(self, tmp_path, frames, extra, message):
        path = tmp_path / "bad.csv"
        rows = ["frame,joint,x,y,z"] + [f"{f},{j},0.1,1.0,2.0" for f in frames for j in range(25)] + [extra]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=f"line 27: {message}$") as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 27

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,joint,x,y,z\n0,0,0.1,1.0\n")
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 2

    def test_duplicate_joint_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["frame,joint,x,y,z"] + [f"0,{j},0.1,1.0,2.0" for j in range(25)]
        rows.append("0,5,0.1,1.0,2.0")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError):
            read_capture(path, GaitDirection.VERTICAL)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            read_capture(tmp_path / "nope.csv", GaitDirection.VERTICAL)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,0.1,1.0,2.0\n")
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 1


class TestProfileRoundTrip:
    def test_field_for_field_equal(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        write_profile(profile, path)
        back = read_profile(path)
        assert back == profile

    def test_write_deterministic(self, profile, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_profile(profile, a)
        write_profile(profile, b)
        assert a.read_bytes() == b.read_bytes()

    def test_written_fields_are_the_reader_tables(self, profile, tmp_path):
        """The reader's tables state the format: the writer prints exactly their fields, in their order."""
        path = tmp_path / "profile.json"
        write_profile(profile, path)
        doc = json.loads(path.read_text())
        assert list(doc) == list(fileio._PROFILE)
        assert doc["beta_points"]
        for point in doc["beta_points"]:
            assert list(point) == list(fileio._BETA_POINT)


def valid_profile_doc():
    return {
        "schema_version": 1,
        "alpha_g_rad": 0.12,
        "h_k_m": 0.75,
        "beta_degree": 1,
        "beta_coeffs": [0.02, -0.01],
        "gait_count": 10,
        "beta_points": [
            {"joint": 3, "height_y_m": 1.6, "beta_rad": 0.005},
            {"joint": 0, "height_y_m": 0.9, "beta_rad": 0.012},
        ],
        "created_label": "test",
    }


def long_integer_doc(field):
    """``valid_profile_doc`` as JSON text, with ``field`` a 5,000-digit integer: past Python's limit of 4,300
    digits for a decimal string to ``int``, which ``json.dumps`` cannot write either."""
    return json.dumps({**valid_profile_doc(), field: 0}).replace(f'"{field}": 0', f'"{field}": {"1" * 5000}')


class TestProfileSchema:
    def write(self, tmp_path, doc):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        return path

    def test_valid_document_accepted(self, tmp_path):
        profile = read_profile(self.write(tmp_path, valid_profile_doc()))
        assert profile.tilt.tilt_rad == 0.12
        assert profile.beta.poly.coefficients == (0.02, -0.01)
        assert profile.gait_count == 10

    def test_coefficient_count_mismatch(self, tmp_path):
        doc = valid_profile_doc()
        doc["beta_coeffs"] = [0.02, -0.01, 0.003]
        with pytest.raises(SchemaError) as err:
            read_profile(self.write(tmp_path, doc))
        assert err.value.field == "beta_coeffs"

    def test_unsupported_schema_version(self, tmp_path):
        doc = valid_profile_doc()
        doc["schema_version"] = 2
        with pytest.raises(SchemaError) as err:
            read_profile(self.write(tmp_path, doc))
        assert err.value.field == "schema_version"

    def test_unknown_field_rejected(self, tmp_path):
        doc = valid_profile_doc()
        doc["comment"] = "hello"
        with pytest.raises(SchemaError) as err:
            read_profile(self.write(tmp_path, doc))
        assert err.value.field == "comment"

    def test_missing_field_rejected(self, tmp_path):
        doc = valid_profile_doc()
        del doc["h_k_m"]
        with pytest.raises(SchemaError) as err:
            read_profile(self.write(tmp_path, doc))
        assert err.value.field == "h_k_m"

    def test_wrong_type_rejected(self, tmp_path):
        doc = valid_profile_doc()
        doc["alpha_g_rad"] = "0.12"
        with pytest.raises(SchemaError):
            read_profile(self.write(tmp_path, doc))

    def test_unknown_beta_point_field_rejected(self, tmp_path):
        doc = valid_profile_doc()
        doc["beta_points"][0]["extra"] = 1
        with pytest.raises(SchemaError):
            read_profile(self.write(tmp_path, doc))

    def test_duplicate_field_rejected(self, tmp_path):
        # the last copy of a field used to win: this profile applied a 99 m sensor height
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(valid_profile_doc())[:-1] + ', "h_k_m": 99.0}')
        with pytest.raises(SchemaError) as err:
            read_profile(path)
        assert err.value.field == "h_k_m"
        assert "more than once" in str(err.value)

    def test_duplicate_beta_point_field_rejected(self, tmp_path):
        # ... and a second joint relabelled the point
        path = tmp_path / "profile.json"
        text = json.dumps(valid_profile_doc())
        path.write_text(text.replace('"beta_rad": 0.005}', '"beta_rad": 0.005, "joint": 7}', 1))
        with pytest.raises(SchemaError) as err:
            read_profile(path)
        assert err.value.field == "joint"

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("beta_coeffs", lambda doc: doc.update(beta_coeffs=[0.02, "-0.01"])),
            ("beta_points[0]", lambda doc: doc["beta_points"].insert(0, 1)),
            ("beta_points[0].joint", lambda doc: doc["beta_points"][0].update(joint=25)),
            ("beta_points[0].beta_rad", lambda doc: doc["beta_points"][0].update(beta_rad=2.0)),
            pytest.param("beta_points[1].joint", lambda doc: doc["beta_points"][1].update(joint="0"), id="joint-str"),
            pytest.param("beta_points[1].height_y_m", lambda doc: doc["beta_points"][1].pop("height_y_m"),
                         id="height-missing"),
            pytest.param("beta_points[1].height_y_m", lambda doc: doc["beta_points"][1].update(height_y_m=math.nan),
                         id="height-nan"),
            pytest.param("beta_points[1].height_y_m", lambda doc: doc["beta_points"][1].update(height_y_m=10**400),
                         id="height-beyond-float"),
            pytest.param("beta_points[1].beta_rad", lambda doc: doc["beta_points"][1].update(beta_rad="x"),
                         id="beta-str"),
            pytest.param("beta_coeffs", lambda doc: doc.update(beta_coeffs=[0.02, math.nan]), id="coeff-nan"),
            pytest.param("beta_coeffs", lambda doc: doc.update(beta_coeffs=[0.02, -(10**400)]),
                         id="coeff-beyond-float"),
            # the version is read before the fields it decides
            pytest.param("schema_version", lambda doc: doc.update(schema_version=2, tilt_model="shear"),
                         id="version-2-with-a-new-field"),
        ],
    )
    def test_bad_value_names_its_field(self, tmp_path, field, edit):
        doc = valid_profile_doc()
        edit(doc)
        with pytest.raises(SchemaError) as err:
            read_profile(self.write(tmp_path, doc))
        assert err.value.field == field

    def test_missing_profile(self, tmp_path):
        with pytest.raises(IoFailureError, match="^cannot read .*nope.json: "):
            read_profile(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            read_profile(path)

    @pytest.mark.parametrize("field", ["h_k_m", "gait_count"])
    def test_an_integer_past_the_digit_limit_is_not_valid_json(self, tmp_path, short_walk, capsys, field):
        """``json.loads`` refuses it with a plain ValueError, which named no file."""
        path = tmp_path / "profile.json"
        path.write_text(long_integer_doc(field))
        with pytest.raises(SchemaError, match="not valid JSON") as err:
            read_profile(path)
        assert (err.value.field, err.value.path) == ("<document>", str(path))
        capture = tmp_path / "walk.csv"
        write_capture(short_walk, capture)
        assert main(["apply", "--profile", str(path), "--in", str(capture), "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: SchemaError: {path}: field '<document>': not valid JSON")


#: Any JSON value, nested a little.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_profile_texts(draw):
    """A valid profile document with one field replaced, removed or added, one character edited, or one number
    made an integer of more than 4,300 digits."""
    doc = valid_profile_doc()
    kind = draw(st.sampled_from(("replace", "remove", "add", "point", "edit", "digits")))
    if kind == "replace":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JSON_VALUES)
    elif kind == "remove":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "add":
        doc[draw(st.text(max_size=8))] = draw(_JSON_VALUES)
    elif kind == "point":
        point = draw(st.sampled_from(doc["beta_points"]))
        point[draw(st.sampled_from(sorted(point) + ["extra"]))] = draw(_JSON_VALUES)
    text = json.dumps(doc, indent=draw(st.sampled_from((None, 2))))
    if kind == "edit":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(max_size=2)) + text[at + draw(st.integers(0, 2)) :]
    elif kind == "digits":  # written into the text: json.dumps cannot write such an integer
        number = draw(st.sampled_from(list(re.finditer(r"-?\d[\d.e+-]*", text))))
        text = text[: number.start()] + "9" * draw(st.integers(4301, 5000)) + text[number.end() :]
    return text


class TestProfileFuzz:
    """Any text yields a profile or a CalibrationError, never another exception."""

    def read(self, fuzz_dir, text):
        path = fuzz_dir / "profile.json"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        try:
            assert isinstance(read_profile(path), CalibrationProfile)
        except CalibrationError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, fuzz_dir, text):
        self.read(fuzz_dir, text)

    @example("[" * 100_000)
    @example(json.dumps({**valid_profile_doc(), "h_k_m": 10**400}))
    @example(json.dumps({**valid_profile_doc(), "beta_coeffs": [0.02, -(10**400)]}))
    @example(long_integer_doc("h_k_m"))
    @example(long_integer_doc("gait_count"))
    @settings(max_examples=300, deadline=None)
    @given(mutated_profile_texts())
    def test_mutated_profile(self, fuzz_dir, text):
        self.read(fuzz_dir, text)


class TestArrayBackedIo:
    def test_frame_index_beyond_int64_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["frame,joint,x,y,z"] + [f"{2**63},{j},0.1,1.0,2.0" for j in range(25)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 2

    def test_ydiff_report_rows_carry_frame_indices(self, tmp_path):
        xyz = np.zeros((3, JOINT_COUNT, 3))
        xyz[..., 1] = np.array([1.3, 1.7, 1.9])[:, None]
        xyz[..., 2] = 2.0
        seq = CaptureSequence(xyz, [3, 7, 9], GaitDirection.VERTICAL)
        path = tmp_path / "ydiff.csv"
        write_ydiff_report(seq.frame_index, *_ydiff_columns(y_diff_to_last(seq, [JointIndex.HEAD])), path)
        assert path.read_text() == "frame,head\n3,-0.600000000\n7,-0.200000000\n9,0.000000000\n"


def _per_value_capture_bytes(seq):
    """The capture CSV as the original per-value writer printed it."""
    lines = ["frame,joint,x,y,z"]
    for index, joints in zip(seq.frame_index.tolist(), seq.xyz.tolist()):
        for j, (x, y, z) in enumerate(joints):
            lines.append(f"{index},{j},{x:.9f},{y:.9f},{z:.9f}")
    return ("\n".join(lines) + "\n").encode()


def _per_value_rows(frame_index, labels, values):
    """The bytes of ``fileio._csv_rows`` as the original per-value writers printed them, for any values."""
    return "".join(
        f"{index}{label}" + "".join(f",{v:.9f}" for v in row) + "\n"
        for index, rows in zip(frame_index.tolist(), values.tolist())
        for label, row in zip(labels, rows)
    ).encode()


_JOINT_LABELS = [f",{j}" for j in range(JOINT_COUNT)]


class TestBlockCodec:
    def test_writer_matches_per_value_format(self, template, tmp_path):
        walk = generate_truth_capture(template, GaitDirection.VERTICAL, 250, 4.5, 1.5)
        spec = DistortionSpec(
            tilt_rad=math.radians(7), sensor_height_m=0.75, beta_poly=Polynomial((0.05, -0.02)),
            noise_std_m=0.005, seed=11,
        )
        noisy = apply_distortion(walk, spec)
        xyz = noisy.xyz.copy()
        # -0.0, a negative value that rounds to -0, a half-even tie at the
        # 10th decimal, 5e-10, a large value and the smallest subnormal
        xyz[0, 0] = (-0.0, -1e-12, 1 / 1024)
        xyz[99, 24] = (5e-10, 1e6, 2.0**-1074)
        xyz[249, 24] = (-1 / 1024, -5e-10, -1e6)
        frames = np.arange(250) * 3 - 400  # gaps and negative indices
        seq = CaptureSequence(xyz, frames, GaitDirection.VERTICAL)

        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_capture(seq, first)
        assert first.read_bytes() == _per_value_capture_bytes(seq)
        assert b"\n-400,0,-0.000000000,-0.000000000,0.000976562\n" in first.read_bytes()
        write_capture(read_capture(first, GaitDirection.VERTICAL), second)
        assert first.read_bytes() == second.read_bytes()

    def test_outputs_get_umask_permissions(self, short_walk, profile, tmp_path):
        reference = tmp_path / "reference.txt"
        with open(reference, "w") as fh:
            fh.write("x\n")
        expected = stat.S_IMODE(reference.stat().st_mode)
        write_capture(short_walk, tmp_path / "walk.csv")
        write_profile(profile, tmp_path / "profile.json")
        write_capture(short_walk, tmp_path / "walk.csv")  # replaces the file
        assert stat.S_IMODE((tmp_path / "walk.csv").stat().st_mode) == expected
        assert stat.S_IMODE((tmp_path / "profile.json").stat().st_mode) == expected
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["profile.json", "reference.txt", "walk.csv"]  # no temp file left

    def test_a_name_of_244_characters_is_written(self, short_walk, tmp_path):
        path = tmp_path / f"{'w' * 240}.csv"
        write_capture(short_walk, path)
        back = read_capture(path, GaitDirection.VERTICAL)
        assert back.label == "w" * 240
        assert np.abs(back.xyz - short_walk.xyz).max() <= 1e-9
        assert list(tmp_path.iterdir()) == [path]  # no temp file left

    def test_the_temp_file_is_created_exclusively(self, short_walk, tmp_path):
        """A file already at the temp name is neither written through nor removed."""
        tmp = tmp_path / f".{'00' * 8}.tmp"
        tmp.write_bytes(b"sentinel")
        target = tmp_path / "walk.csv"
        with mock.patch.object(fileio.os, "urandom", return_value=bytes(8)):
            with pytest.raises(IoFailureError, match=f"^cannot write {target}: "):
                write_capture(short_walk, target)
        assert tmp.read_bytes() == b"sentinel"
        assert list(tmp_path.iterdir()) == [tmp]

    def test_a_failed_rename_leaves_no_temp_file(self, short_walk, tmp_path):
        target = tmp_path / "walk.csv"
        target.mkdir()  # a file cannot replace a directory
        with pytest.raises(IoFailureError, match=f"^cannot write {target}: "):
            write_capture(short_walk, target)
        assert list(tmp_path.iterdir()) == [target]


def _float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Coordinates the writer's kernel formats (finite, below 2**22 in magnitude):
#: signed values that print as zero, binary ties and decimal half-ties at the
#: 10th digit among them.
_KERNEL_COORDINATES = st.one_of(
    st.floats(-(2.0**22), 2.0**22, exclude_min=True, exclude_max=True),
    st.floats(-1e-9, 1e-9),
    st.builds(lambda k, m: (k + 0.5) / 2**m, st.integers(-(2**52), 2**52), st.integers(31, 80)),
    st.integers(-4 * 10**15, 4 * 10**15).map(lambda k: (k + 0.5) / 1e9),
)
#: Any coordinate: those and any float64 bit pattern (NaN and infinities
#: included), and values on both sides of the kernel's magnitude bound.
_COORDINATES = st.one_of(
    _KERNEL_COORDINATES,
    st.builds(
        lambda sign, exponent, mantissa: _float_from_bits(sign << 63 | exponent << 52 | mantissa),
        st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1),
    ),
    st.floats(-(2.0**23), 2.0**23),
)


@st.composite
def odd_blocks(draw):
    """Frame indices and coordinates of one block of 1-3 frames, NaN and infinities among them."""
    frames = draw(st.integers(1, 3))
    pool = draw(st.sampled_from((_KERNEL_COORDINATES, _COORDINATES)))
    values = draw(st.lists(pool, min_size=1, max_size=3 * JOINT_COUNT))
    index = sorted(draw(st.sets(st.integers(-(2**63), 2**63 - 1), min_size=frames, max_size=frames)))
    xyz = np.resize(np.array(values), (frames, JOINT_COUNT, 3))  # the values repeated in turn
    return np.array(index, np.int64), xyz


#: Values at the edges of the writer's kernel: exact binary ties, decimal
#: half-ties that rint rounds the wrong way, the largest value below the
#: magnitude bound, the smallest subnormal and values that print as zero.
_KERNEL_VALUES = [
    1 / 1024, 3 / 2**11, 2.5 / 2**33, (2**40 + 0.5) / 2**41, 0.9999999995, 1.0000000005, 2.5e-9,
    1.5e-9, 4194303.9999999995, np.nextafter(2.0**22, 0), 2.0**-1074, 0.0, 1e-12, 5e-10,
]
_KERNEL_VALUES += [-v for v in _KERNEL_VALUES]
#: Finite values outside the kernel: the bound and above.
_OUTSIDE_VALUES = [2.0**22, np.nextafter(2.0**22, 2.0**23), 9999999.9999999995, 2.0**52 + 1, 1e300]
_OUTSIDE_VALUES += [-v for v in _OUTSIDE_VALUES]
#: Values that are not finite, which no capture holds: the writers' rows take them value by value.
_NON_FINITE_VALUES = [math.nan, math.inf, -math.nan, -math.inf]


def _per_value_ydiff_bytes(seq, series):
    """The ydiff report as the original per-value writer printed it."""
    lines = ["frame," + ",".join(s.joint.name.lower() for s in series)]
    for index, diffs in zip(seq.frame_index.tolist(), zip(*(s.per_frame_diff for s in series))):
        lines.append(",".join([str(index), *(f"{d:.9f}" for d in diffs)]))
    return ("\n".join(lines) + "\n").encode()


def _ydiff_columns(series):
    """``write_ydiff_report``'s joints and (frames, joints) array, from ``y_diff_to_last``'s series."""
    return [s.joint for s in series], np.stack([s.per_frame_diff for s in series], axis=1)


def _bone_stats(report):
    """``write_bone_report``'s (edges, 3) array, from ``bone_length_stability``'s report."""
    return np.array([[e.mean_length_m, e.std_length_m, e.max_abs_dev_m] for e in report.per_edge])


def _per_value_bone_bytes(report):
    """The bone report as the original per-value writer printed it."""
    lines = ["parent,child,parent_name,child_name,mean_m,std_m,max_abs_dev_m"]
    for e in report.per_edge:
        lines.append(
            f"{int(e.edge.parent)},{int(e.edge.child)},"
            f"{e.edge.parent.name.lower()},{e.edge.child.name.lower()},"
            f"{e.mean_length_m:.9f},{e.std_length_m:.9f},{e.max_abs_dev_m:.9f}"
        )
    return ("\n".join(lines) + "\n").encode()


class TestWriterKernel:
    """Every CSV the writers print has the bytes of ``format(v, ".9f")`` per value."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(odd_blocks())
    def test_any_float64_bit_pattern(self, fuzz_dir, block):
        index, xyz = block
        assert fileio._csv_rows(index, fileio._JOINT_FIELDS, xyz) == _per_value_rows(index, _JOINT_LABELS, xyz)
        if np.isfinite(xyz).all():  # the values a capture can hold
            seq = CaptureSequence(xyz, index, GaitDirection.VERTICAL)
            path = fuzz_dir / "odd.csv"
            write_capture(seq, path)
            assert path.read_bytes() == _per_value_capture_bytes(seq)

    @pytest.mark.parametrize("outside", [False, True])
    @pytest.mark.parametrize("frames", [1, fileio.BLOCK_FRAMES, 2 * fileio.BLOCK_FRAMES + 1, 256, 513])
    def test_edge_values_across_blocks(self, frames, outside, tmp_path):
        xyz = np.random.default_rng(frames).normal(0.0, 2.0, (frames, JOINT_COUNT, 3))
        flat = xyz.reshape(-1)
        # a run of the kernel's edge values at the start of the file and
        # across every boundary between blocks
        n = len(_KERNEL_VALUES)
        for at in range(0, len(flat), 3 * JOINT_COUNT * fileio.BLOCK_FRAMES):
            start = min(max(at - n // 2, 0), len(flat) - n)
            flat[start : start + n] = _KERNEL_VALUES
        if outside:  # the last block is then formatted value by value
            flat[-len(_OUTSIDE_VALUES) :] = _OUTSIDE_VALUES
        index = np.arange(frames) * 7 - 2**62
        index[0], index[-1] = -(2**63), 2**63 - 1
        seq = CaptureSequence(xyz, index, GaitDirection.VERTICAL)
        path = tmp_path / "edges.csv"
        write_capture(seq, path)
        assert path.read_bytes() == _per_value_capture_bytes(seq)
        if outside:  # the last block with values that are not finite, given to the rows writer directly
            block = slice((frames - 1) // fileio.BLOCK_FRAMES * fileio.BLOCK_FRAMES, None)
            rows = xyz[block].copy()
            rows.reshape(-1)[: len(_NON_FINITE_VALUES)] = _NON_FINITE_VALUES
            text = fileio._csv_rows(index[block], fileio._JOINT_FIELDS, rows)
            assert text == _per_value_rows(index[block], _JOINT_LABELS, rows)

    @pytest.mark.parametrize("values", [_KERNEL_VALUES, _KERNEL_VALUES + _OUTSIDE_VALUES])
    def test_reports_match_per_value_format(self, template, values, tmp_path):
        walk = generate_truth_capture(template, GaitDirection.HORIZONTAL, 120, 4.5, 1.5)
        spec = DistortionSpec(noise_std_m=0.005, seed=4)
        xyz = apply_distortion(walk, spec).xyz.copy()
        xyz[: len(values), JointIndex.HEAD, 1] = values
        xyz[-1, JointIndex.HEAD, 1] = 0.0  # so the head's y - y_last are the values
        seq = CaptureSequence(xyz, np.arange(120) - 60, GaitDirection.HORIZONTAL)
        series = y_diff_to_last(seq, [JointIndex.HEAD, JointIndex.SPINE_BASE, JointIndex.FOOT_LEFT])
        write_ydiff_report(seq.frame_index, *_ydiff_columns(series), tmp_path / "ydiff.csv")
        assert (tmp_path / "ydiff.csv").read_bytes() == _per_value_ydiff_bytes(seq, series)
        # the report's rows with values that are not finite, given to the rows writer directly
        diffs = np.array([s.per_frame_diff for s in series]).T[:, None]
        diffs[: len(_NON_FINITE_VALUES), 0, 0] = _NON_FINITE_VALUES
        text = fileio._csv_rows(seq.frame_index, fileio._NO_LABELS, diffs)
        assert text == _per_value_rows(seq.frame_index, [""], diffs)
        report = bone_length_stability(apply_distortion(walk, spec))
        write_bone_report(_bone_stats(report), tmp_path / "bones.csv")
        assert (tmp_path / "bones.csv").read_bytes() == _per_value_bone_bytes(report)


def _small_values(frames, seed):
    """(frames, 25, 3) coordinates whose whole parts all have one digit."""
    return np.random.default_rng(seed).uniform(-9.5, 9.5, (frames, JOINT_COUNT, 3))


@st.composite
def split_captures(draw):
    """A capture across up to three writer blocks, perhaps with a value that
    takes the per-value path, and the ends of its parts in order."""
    frames = draw(st.integers(1, 3 * fileio.BLOCK_FRAMES + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xyz = rng.uniform(-9.5, 9.5, (frames, JOINT_COUNT, 3))
    if draw(st.booleans()):
        xyz.reshape(-1)[draw(st.integers(0, xyz.size - 1))] = draw(st.sampled_from([fileio._FAST_MAX, -12.5, 1e6]))
    index = np.cumsum(rng.integers(1, 4, frames)) - draw(st.integers(0, 10**6))
    ends = draw(st.lists(st.integers(1, frames - 1), unique=True, max_size=12)) if frames > 1 else []
    return CaptureSequence(xyz, index, GaitDirection.VERTICAL), sorted(ends) + [frames]


def _split_across_blocks():
    """1-frame parts and parts across each block boundary, one of them with a two-digit value."""
    block = fileio.BLOCK_FRAMES
    xyz = _small_values(2 * block + 3, 9)
    xyz[block + 44, 4, 1] = 12.5  # its block takes the per-value path
    ends = [1, 2, block - 1, block + 1, block + 44, 2 * block, 2 * block + 1, 2 * block + 2, 2 * block + 3]
    return CaptureSequence(xyz, np.arange(len(xyz)), GaitDirection.VERTICAL), ends


def _parts(seq, ends):
    return [seq[a:b] for a, b in zip([0] + ends[:-1], ends)]


class TestCaptureParts:
    """``write_capture`` of consecutive parts writes the bytes of the whole, or nothing."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(split_captures())
    @example(_split_across_blocks())
    def test_any_split_writes_the_whole(self, fuzz_dir, split):
        seq, ends = split
        whole, parts = fuzz_dir / "whole.csv", fuzz_dir / "parts.csv"
        write_capture(seq, whole)
        write_capture(iter(_parts(seq, ends)), parts)
        assert parts.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("order", ["swapped", "overlapping", "repeated"])
    def test_parts_out_of_order_leave_no_file(self, order, tmp_path):
        seq = CaptureSequence(_small_values(6, 7), np.arange(6) * 2, GaitDirection.VERTICAL)
        parts = {"swapped": [seq[3:], seq[:3]], "overlapping": [seq[:4], seq[3:]], "repeated": [seq, seq]}[order]
        previous, current = parts[0].frame_index[-1], parts[1].frame_index[0]
        with pytest.raises(NonMonotonicFrameIndexError, match=f"^frame index {current} does not increase after {previous}$"):
            write_capture(parts, tmp_path / "walk.csv")
        assert list(tmp_path.iterdir()) == []  # neither the file nor a temp file

    @pytest.mark.parametrize("parts", [[], iter(())], ids=["list", "generator"])
    def test_no_parts_leave_no_file(self, parts, tmp_path):
        with pytest.raises(EmptySequenceError):
            write_capture(parts, tmp_path / "walk.csv")
        assert list(tmp_path.iterdir()) == []

    def test_an_error_in_a_late_part_keeps_the_old_file(self, short_walk, tmp_path):
        path = tmp_path / "walk.csv"
        path.write_bytes(b"old\n")

        def parts():
            yield short_walk[:2]
            raise NonFiniteCoordinateError(2, 0, "x")

        with pytest.raises(NonFiniteCoordinateError):
            write_capture(parts(), path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old\n"


class TestRecordWidths:
    """Frame indices and whole parts narrower or wider than their block's others."""

    @pytest.mark.parametrize("at_edge", [False, True])
    @pytest.mark.parametrize("first_of_width", [10, 100, -9, 0])
    def test_frame_width_changes(self, first_of_width, at_edge, tmp_path):
        # the frame first_of_width starts the second block, or lies inside the first
        row = fileio.BLOCK_FRAMES if at_edge else fileio.BLOCK_FRAMES // 2
        index = np.arange(2 * fileio.BLOCK_FRAMES) + first_of_width - row
        seq = CaptureSequence(_small_values(len(index), 1), index, GaitDirection.VERTICAL)
        write_capture(seq, tmp_path / "widths.csv")
        assert (tmp_path / "widths.csv").read_bytes() == _per_value_capture_bytes(seq)

    @pytest.mark.parametrize("frame", [0, 1])
    @pytest.mark.parametrize("value", [9.9999999995, 9.99999999951, -99.9999999996])
    def test_value_rounds_into_a_wider_whole_part(self, value, frame, tmp_path):
        xyz = _small_values(fileio.BLOCK_FRAMES, 2)
        xyz[-frame, -frame, -frame] = value  # the block's first or its last value
        xyz[1, 7] = (9.4999999995, -9.9999999994, 0.9999999996)  # these stay one digit wide
        seq = CaptureSequence(xyz, np.arange(len(xyz)), GaitDirection.VERTICAL)
        write_capture(seq, tmp_path / "round.csv")
        assert (tmp_path / "round.csv").read_bytes() == _per_value_capture_bytes(seq)

    @pytest.mark.parametrize("wide_block", [0, 1])
    def test_one_digit_block_beside_the_widest(self, wide_block, tmp_path):
        xyz = _small_values(2 * fileio.BLOCK_FRAMES, 3)
        wide = xyz[wide_block * fileio.BLOCK_FRAMES : (wide_block + 1) * fileio.BLOCK_FRAMES]
        wide[-1, -1, 1] = 4194303.9999999995
        wide[0, 0, 0] = -12.5
        seq = CaptureSequence(xyz, np.arange(len(xyz)) * 3 + 5, GaitDirection.VERTICAL)
        write_capture(seq, tmp_path / "blocks.csv")
        text = (tmp_path / "blocks.csv").read_bytes()
        assert text == _per_value_capture_bytes(seq)
        assert b",4194304.000000000," in text

    def test_widest_blocks_stay_below_the_mmap_threshold(self, tmp_path):
        """Each block's record table holds at most the 100,800 bytes of BLOCK_FRAMES
        capture frames of the widest records, 20-character frame indices and negative
        values, and its rows stay below glibc's 128 KiB mmap threshold: in captures and
        in reports of 1, 2 and 25 joints."""
        frames = 4801  # blocks sized by value count gave a 1-joint report 4,800 frames of 34 bytes
        xyz = np.random.default_rng(3).uniform(-9.5, -0.5, (frames, JOINT_COUNT, 3))
        xyz[-1, :, 1] = -0.25  # every y - y_last is negative too, but the last
        index = np.arange(frames) - 2**62  # 20 characters each
        index[0], index[-1] = -(2**63), 2**63 - 1
        seq = CaptureSequence(xyz, index, GaitDirection.VERTICAL)
        capture_frame = JOINT_COUNT * (20 + 3 + 3 * 13 + 1)  # records of an index, a joint field and 3 coordinates
        table_bytes = fileio.BLOCK_FRAMES * capture_frame
        assert table_bytes == 100_800
        csv_rows, writers = fileio._csv_rows, [(functools.partial(write_capture, seq), capture_frame)]
        for joints in ([JointIndex.HEAD], [JointIndex.HEAD, JointIndex.FOOT_LEFT], list(JointIndex)):
            write = functools.partial(write_ydiff_report, seq.frame_index, *_ydiff_columns(y_diff_to_last(seq, joints)))
            writers.append((write, 20 + len(joints) * 13 + 1))
        for write, frame_bytes in writers:
            blocks = []

            def spy(frame_index, labels, values):
                rows = csv_rows(frame_index, labels, values)
                blocks.append((len(frame_index), len(rows)))
                return rows

            with mock.patch.object(fileio, "_csv_rows", spy):
                write(tmp_path / "widest.csv")
            block_frames = table_bytes // frame_bytes
            assert [n for n, _ in blocks] == [block_frames] * (frames // block_frames) + [frames % block_frames]
            for n, size in blocks:
                assert n * frame_bytes <= table_bytes
                assert size < 128 * 1024

    @pytest.mark.parametrize("start", [-12, -3, 95, 995])
    def test_ydiff_report_frame_width_changes(self, start, tmp_path):
        seq = CaptureSequence(_small_values(10, 4), np.arange(10) + start, GaitDirection.VERTICAL)
        series = y_diff_to_last(seq, [JointIndex.HEAD, JointIndex.FOOT_LEFT])
        write_ydiff_report(seq.frame_index, *_ydiff_columns(series), tmp_path / "ydiff.csv")
        assert (tmp_path / "ydiff.csv").read_bytes() == _per_value_ydiff_bytes(seq, series)


#: The edge values that print with one whole digit, which the writer's kernel
#: formats: -0.0, -1e-12, +-1/1024, +-5e-10, the smallest subnormal, binary
#: ties and decimal near-ties among them, and the largest values below the bound.
_ONE_DIGIT_VALUES = [v for v in _KERNEL_VALUES if abs(v) < 10]
_ONE_DIGIT_VALUES += [9.9999999995, -9.9999999995, np.nextafter(fileio._FAST_MAX, 0), 9.4999999995]
#: Coordinates that print with one whole digit, binary ties and decimal
#: half-ties at the 10th digit among them.
_ONE_DIGIT_COORDINATES = st.one_of(
    st.floats(-9.9999999995, 9.9999999995),
    st.floats(-1e-9, 1e-9),
    st.builds(lambda k, m: (k + 0.5) / 2**m, st.integers(-(2**31), 2**31 - 1), st.integers(28, 80)),
    st.integers(-(10**10), 10**10 - 2).map(lambda k: (k + 0.5) / 1e9),
)


@pytest.fixture
def digits8_spy():
    """``fileio._digits8``, which only the writer's kernel calls, recording its calls."""
    with mock.patch.object(fileio, "_digits8", wraps=fileio._digits8) as spy:
        yield spy


class TestOneDigitKernel:
    """Blocks of one-digit values take the writer's kernel and print as ``format(v, ".9f")``."""

    def test_bound_is_the_first_double_printed_with_two_whole_digits(self):
        assert format(fileio._FAST_MAX, ".9f") == "10.000000000"
        assert format(np.nextafter(fileio._FAST_MAX, 0), ".9f") == "9.999999999"

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(1, 3), st.lists(_ONE_DIGIT_COORDINATES, min_size=1, max_size=3 * JOINT_COUNT))
    def test_any_one_digit_values(self, fuzz_dir, frames, values):
        xyz = np.resize(np.array(values), (frames, JOINT_COUNT, 3))
        seq = CaptureSequence(xyz, np.arange(frames) - 1, GaitDirection.VERTICAL)
        with mock.patch.object(fileio, "_digits8", wraps=fileio._digits8) as spy:
            write_capture(seq, fuzz_dir / "one_digit.csv")
        assert spy.call_count == 1
        assert (fuzz_dir / "one_digit.csv").read_bytes() == _per_value_capture_bytes(seq)

    @pytest.mark.parametrize("frames", [1, fileio.BLOCK_FRAMES, 2 * fileio.BLOCK_FRAMES + 1, 256, 513])
    def test_edge_values_across_blocks(self, frames, digits8_spy, tmp_path):
        xyz = _small_values(frames, frames)
        flat = xyz.reshape(-1)
        n = len(_ONE_DIGIT_VALUES)
        for at in range(0, len(flat), 3 * JOINT_COUNT * fileio.BLOCK_FRAMES):
            start = min(max(at - n // 2, 0), len(flat) - n)
            flat[start : start + n] = _ONE_DIGIT_VALUES
        index = np.arange(frames) * 7 - 2**62
        index[0], index[-1] = -(2**63), 2**63 - 1
        seq = CaptureSequence(xyz, index, GaitDirection.VERTICAL)
        write_capture(seq, tmp_path / "edges.csv")
        assert digits8_spy.call_count == -(-frames // fileio.BLOCK_FRAMES)  # every block
        assert (tmp_path / "edges.csv").read_bytes() == _per_value_capture_bytes(seq)

    def test_ydiff_report(self, template, digits8_spy, tmp_path):
        walk = generate_truth_capture(template, GaitDirection.HORIZONTAL, 120, 4.5, 1.5)
        xyz = apply_distortion(walk, DistortionSpec(noise_std_m=0.005, seed=4)).xyz.copy()
        xyz[: len(_ONE_DIGIT_VALUES), JointIndex.HEAD, 1] = _ONE_DIGIT_VALUES
        xyz[-1, JointIndex.HEAD, 1] = 0.0  # so the head's y - y_last are the values
        seq = CaptureSequence(xyz, np.arange(120) - 60, GaitDirection.HORIZONTAL)
        series = y_diff_to_last(seq, [JointIndex.HEAD, JointIndex.SPINE_BASE, JointIndex.FOOT_LEFT])
        write_ydiff_report(seq.frame_index, *_ydiff_columns(series), tmp_path / "ydiff.csv")
        assert digits8_spy.call_count == 1
        assert (tmp_path / "ydiff.csv").read_bytes() == _per_value_ydiff_bytes(seq, series)

    def test_ydiff_report_in_blocks(self, digits8_spy, tmp_path):
        # a 2-joint report's block: as many frames as fit a capture block's widest record table
        block = fileio.BLOCK_FRAMES * JOINT_COUNT * (20 + 3 + 3 * 13 + 1) // (20 + 2 * 13 + 1)
        xyz = _small_values(2 * block + 1, 6) / 2  # every y - y_last below 9.5
        xyz[block + 44, JointIndex.HEAD, 1] = 15.0  # the second block's y - y_last has two whole digits
        seq = CaptureSequence(xyz, np.arange(len(xyz)) - 300, GaitDirection.VERTICAL)
        series = y_diff_to_last(seq, [JointIndex.HEAD, JointIndex.FOOT_LEFT])
        write_ydiff_report(seq.frame_index, *_ydiff_columns(series), tmp_path / "ydiff.csv")
        assert digits8_spy.call_count == 2  # the first and the last block
        assert (tmp_path / "ydiff.csv").read_bytes() == _per_value_ydiff_bytes(seq, series)

    def test_ydiff_report_blocks_hold_as_many_values_as_capture_blocks(self, tmp_path):
        """A block holds as many frames as fit a capture block's widest record table:
        as many bytes of a record table, not as many values."""
        seq = CaptureSequence(_small_values(9000, 7) / 2, np.arange(9000), GaitDirection.VERTICAL)
        series = y_diff_to_last(seq)  # 9 joints: 138 bytes a frame in the widest table, 730 frames a block
        with mock.patch.object(fileio, "_csv_rows", wraps=fileio._csv_rows) as spy:
            write_ydiff_report(seq.frame_index, *_ydiff_columns(series), tmp_path / "ydiff.csv")
        assert spy.call_count == -(-9000 // (fileio.BLOCK_FRAMES * JOINT_COUNT * (20 + 3 + 3 * 13 + 1) // 138)) == 13
        diffs = np.array([s.per_frame_diff for s in series]).T[:, None]
        rows = fileio._csv_rows(seq.frame_index, fileio._NO_LABELS, diffs)
        assert (tmp_path / "ydiff.csv").read_bytes().partition(b"\n")[2] == rows

    @pytest.mark.parametrize("value", [fileio._FAST_MAX, -fileio._FAST_MAX, math.nan])
    def test_block_at_the_bound_is_formatted_per_value(self, value, digits8_spy, tmp_path):
        xyz = _small_values(2 * fileio.BLOCK_FRAMES, 5)
        xyz[-1, -1, -1] = value  # in the second block only
        index = np.arange(len(xyz))
        if math.isnan(value):  # no capture holds a NaN: its blocks go to the rows writer directly
            blocks = (slice(0, fileio.BLOCK_FRAMES), slice(fileio.BLOCK_FRAMES, None))
            text = b"".join(fileio._csv_rows(index[b], fileio._JOINT_FIELDS, xyz[b]) for b in blocks)
        else:
            write_capture(CaptureSequence(xyz, index, GaitDirection.VERTICAL), tmp_path / "bound.csv")
            text = (tmp_path / "bound.csv").read_bytes().removeprefix(fileio._HEADER_BYTES)
        assert digits8_spy.call_count == 1  # the first block
        assert text == _per_value_rows(index, _JOINT_LABELS, xyz)


class TestCrlfCaptures:
    def crlf_pair(self, template, tmp_path):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        write_capture(_pin_capture(template), lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        return lf, crlf

    def test_crlf_read_equals_lf_read(self, template, tmp_path):
        lf, crlf = self.crlf_pair(template, tmp_path)
        a, b = read_capture(lf, GaitDirection.VERTICAL), read_capture(crlf, GaitDirection.VERTICAL)
        assert a.xyz.tobytes() == b.xyz.tobytes()
        assert a.frame_index.tolist() == b.frame_index.tolist()

    def test_crlf_read_takes_the_kernel(self, template, tmp_path):
        _, crlf = self.crlf_pair(template, tmp_path)
        with mock.patch.object(fileio, "_parse_lines", side_effect=AssertionError("line parser used")):
            assert len(read_capture(crlf, GaitDirection.VERTICAL)) == 250

    @pytest.mark.parametrize("cr_at", [-1, 0, 1])  # the CR's offset from the last byte of the first fill
    def test_crlf_split_between_two_fills(self, cr_at):
        """A CR that ends one read of the reader's text wrapper pairs with the LF that
        starts the next, and the rows go on across numpy's calls."""
        rows = _FILL // (JOINT_COUNT * 31) * JOINT_COUNT
        # whole frames of rows that, with a CR before each LF, end at the first fill's last byte + 1 + cr_at
        first = _rows_of_length(_FILL + 1 + cr_at - rows)
        assert first.count(b"\n") == rows
        lf = _HEADER + first + _rows_of_length(_CHUNK_SIZE, first_frame=rows // JOINT_COUNT)
        assert lf.count(b"\n") > fileio._CHUNK_ROWS
        crlf = lf.replace(b"\n", b"\r\n")
        fill_end = len(_HEADER) + 1 + _FILL
        assert crlf[fill_end - 1 + cr_at : fill_end + 1 + cr_at] == b"\r\n"
        got, expected = _stream(crlf), _stream(lf)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tolist() == expected[1].tolist()

    @pytest.mark.parametrize("cr_at", [2, 50_000, -2])
    def test_lone_cr_is_read_by_the_line_parser(self, cr_at, tmp_path):
        """A CR not followed by an LF in a CRLF file: before the header's line end, a middle row's or the last row's."""
        crlf = (_HEADER + _rows_of_length(3000)).replace(b"\n", b"\r\n")
        at = crlf.index(b"\n", cr_at % len(crlf))
        assert_read_by_the_line_parser(crlf[:at] + b"\r" + crlf[at:], tmp_path / "lone_cr.csv")


def _pin_capture(template):
    """The 250-frame noisy capture of the writer pin, with its special values."""
    walk = generate_truth_capture(template, GaitDirection.VERTICAL, 250, 4.5, 1.5)
    spec = DistortionSpec(
        tilt_rad=math.radians(7), sensor_height_m=0.75, beta_poly=Polynomial((0.05, -0.02)),
        noise_std_m=0.005, seed=11,
    )
    xyz = apply_distortion(walk, spec).xyz.copy()
    xyz[0, 0] = (-0.0, -1e-12, 1 / 1024)
    xyz[99, 24] = (5e-10, 1e6, 2.0**-1074)
    xyz[249, 24] = (-1 / 1024, -5e-10, -1e6)
    return CaptureSequence(xyz, np.arange(250) * 3 - 400, GaitDirection.VERTICAL)


def _coordinate_texts():
    """75 coordinate fields with 0 to 16 fraction digits, whose digits read as integers up to 2**53."""
    rng = np.random.default_rng(5)
    texts = []
    for frac in range(17):
        n = "9007199254740992"  # 2**53
        texts.append(f"{n[:16 - frac]}.{n[16 - frac:]}")
        digits = "".join(map(str, rng.integers(0, 10, 16)))
        digits = str(int(digits[0]) % 9) + digits[1:]  # below 9e15 < 2**53
        texts.append(f"-{digits[:16 - frac]}.{digits[16 - frac:]}")
        short = "".join(map(str, rng.integers(0, 10, max(frac, 1))))
        texts.append(f".{short}" if frac else f"{short}.")
    texts += ["-0.000000000", "0.", "-.0", ".5", "-5.", "0000000000000.25", "-.0000000000000001"]
    return (texts * 2)[: 3 * JOINT_COUNT]


def _stream(data, stream_type=io.BytesIO):
    """The fast path's parse of a file holding ``data``."""
    return fileio._parse_stream(stream_type(data))


def assert_fast_path_equals_line_parser(data, stream_type=io.BytesIO):
    got = _stream(data, stream_type)
    expected = fileio._parse_lines(data.decode().splitlines())
    assert got is not None
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1].tolist() == list(expected[1])


def assert_read_by_the_line_parser(data, path):
    """The fast path leaves ``data`` to the line parser, and ``read_capture`` of it gives the line parser's arrays."""
    assert _stream(data) is None
    path.write_bytes(data)
    got = read_capture(path, GaitDirection.VERTICAL)
    expected = fileio._parse_lines(data.decode().splitlines())
    assert got.xyz.tobytes() == expected[0].tobytes()
    assert got.frame_index.tolist() == expected[1]
    return got


class TestFastPathExactness:
    """What the writer writes, and any valid field beyond it, takes the fast path with the line parser's values."""

    def test_pin_capture_as_written(self, template, tmp_path):
        path = tmp_path / "pin.csv"
        write_capture(_pin_capture(template), path)
        assert_fast_path_equals_line_parser(path.read_bytes())

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sets(st.integers(-(10**8) + 1, 10**8 - 1), min_size=1, max_size=3),
        st.sampled_from((_ONE_DIGIT_COORDINATES, _KERNEL_COORDINATES)).flatmap(
            lambda pool: st.lists(pool, min_size=1, max_size=3 * JOINT_COUNT)
        ),
    )
    def test_any_capture_the_writer_writes(self, fuzz_dir, index, values):
        """Frame indices of at most 8 digits and finite values below 2**22, from
        either of the writer's paths, take the fast path."""
        xyz = np.resize(np.array(values), (len(index), JOINT_COUNT, 3))  # the values repeated in turn
        path = fuzz_dir / "written.csv"
        write_capture(CaptureSequence(xyz, sorted(index), GaitDirection.VERTICAL), path)
        assert_fast_path_equals_line_parser(path.read_bytes())

    @pytest.mark.parametrize("index", [2**63 - 1, -(2**63)])
    def test_extreme_index_and_coordinate_digits(self, index):
        coords = iter(_coordinate_texts())
        rows = [f"{index},{j},{next(coords)},{next(coords)},{next(coords)}" for j in range(JOINT_COUNT)]
        data = _text(["frame,joint,x,y,z"] + rows).encode()
        assert_fast_path_equals_line_parser(data)
        assert _stream(data)[1].tolist() == [index]

    @pytest.mark.parametrize("y", ["1.0", "1e0"])  # the writer's layout, then another
    def test_frame_indices_whose_difference_overflows(self, y, tmp_path):
        rows = [f"{i},{j},0.1,{y},2.0" for i in (-1, 2**63 - 1) for j in range(JOINT_COUNT)]
        path = tmp_path / "far_apart.csv"
        path.write_text(_text(["frame,joint,x,y,z"] + rows))
        assert read_capture(path, GaitDirection.VERTICAL).frame_index.tolist() == [-1, 2**63 - 1]


class TestRecorderLayouts:
    """9,000-frame captures in layouts that recorders write and ``write_capture`` does not:
    each takes the fast path and reads as the line parser reads it, bit for bit."""

    @pytest.fixture(scope="class")
    def capture(self):
        xyz = np.random.default_rng(31).normal(0.0, 2.0, (9000, JOINT_COUNT, 3))
        return CaptureSequence(xyz, np.arange(9000) * 33, GaitDirection.VERTICAL)

    def test_ten_digit_frame_indices(self, capture, tmp_path):
        path = tmp_path / "timestamps.csv"
        write_capture(CaptureSequence(capture.xyz, capture.frame_index + 1_700_000_000, GaitDirection.VERTICAL), path)
        self.assert_read_as_by_the_line_parser(path)

    def test_repr_floats(self, capture, tmp_path):
        path = tmp_path / "repr.csv"
        rows = zip(np.repeat(capture.frame_index, JOINT_COUNT).tolist(), capture.xyz.reshape(-1, 3).tolist())
        path.write_text("frame,joint,x,y,z\n" + "".join(
            f"{i},{r % JOINT_COUNT},{x!r},{y!r},{z!r}\n" for r, (i, (x, y, z)) in enumerate(rows)
        ))
        self.assert_read_as_by_the_line_parser(path)

    def test_savetxt_18e(self, capture, tmp_path):
        path = tmp_path / "savetxt.csv"
        rows = np.column_stack([
            np.repeat(capture.frame_index, JOINT_COUNT), np.tile(np.arange(JOINT_COUNT), len(capture)),
            capture.xyz.reshape(-1, 3),
        ])
        np.savetxt(path, rows, fmt=["%d", "%d"] + ["%.18e"] * 3, delimiter=",", header="frame,joint,x,y,z", comments="")
        assert b"e+00," in path.read_bytes()
        self.assert_read_as_by_the_line_parser(path)

    def assert_read_as_by_the_line_parser(self, path):
        with mock.patch.object(fileio, "_parse_lines", side_effect=AssertionError("line parser used")):
            got = read_capture(path, GaitDirection.VERTICAL)  # on the fast path
        expected = fileio._parse_lines(path.read_text().splitlines())
        assert got.xyz.tobytes() == expected[0].tobytes()
        assert got.frame_index.tolist() == expected[1]
        assert len(got) == 9000


def _one_frame_bytes(index="7", y="1.0"):
    rows = [f"{index},{j},0.1,{y if j == 3 else '1.0'},2.0" for j in range(JOINT_COUNT)]
    return _text(["frame,joint,x,y,z"] + rows).encode()


class TestKernelGrammar:
    """Fields at the edges of the layout ``write_capture`` prints, and beyond it: the fast
    path reads each field that the line parser reads, exactly, and leaves it the others."""

    @pytest.mark.parametrize("index, y", [
        ("-0", "1.0"), ("99999999", "1.0"), ("-99999999", "1.0"), ("00000007", "1.0"),
        ("7", "-.5"), ("7", "007.5"), ("7", "9007199.254740992"), ("7", "-9007199.254740992"),
        ("7", "1234567.1"), ("7", ".123456789"), ("7", "-0.000000001"),
    ])
    def test_inside_the_grammar(self, index, y):
        data = _one_frame_bytes(index, y)
        got = _stream(data)
        expected = fileio._parse_lines(data.decode().splitlines())
        assert got is not None
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tolist() == expected[1] == [int(index)]

    @pytest.mark.parametrize("index, y", [
        ("-9223372036854775808", "1.0"), ("0000000000000000007", "1.0"), ("100000000", "1.0"),
        ("-000000007", "1.0"), ("7", "5."), ("7", "-0."), ("7", ".0000000000000001"),
        ("7", "9007199254740992."), ("7", "-.9007199254740992"), ("7", "12345678.5"),
        ("7", "1.1234567891"),
    ])
    def test_valid_outside_the_grammar(self, index, y):
        """Indices of 9 or more digits, coordinates of 8 or more whole digits or with
        0 or 10 or more fraction digits, which the writer does not print: the fast path reads them."""
        data = _one_frame_bytes(index, y)
        assert_fast_path_equals_line_parser(data)
        assert _stream(data)[1].tolist() == [int(index)]

    @pytest.mark.parametrize("index, y", [
        ("9223372036854775808", "1.0"), ("-9223372036854775809", "1.0"),
        ("99999999999999999999", "1.0"), ("00000000000000000007", "1.0"), ("7.", "1.0"),
        ("1-2", "1.0"), ("-", "1.0"), ("+7", "1.0"),
        ("7", "1-2.0"), ("7", "1.0-"), ("7", "--1.0"), ("7", "1e-3"), ("7", "-"), ("7", "."),
        ("7", "-."), ("7", "+1.0"), ("7", "1..5"), ("7", "1.2.3"), ("7", "15"),
        ("7", ".00000000000000001"), ("7", "1.2345678901234567"), ("7", "90071992547409.93"),
        ("7", "9007199.254740993"),
    ])
    def test_outside_the_grammar(self, index, y):
        """Other fields that the writer does not print: the fast path reads those that ``int``
        or ``float`` reads, such as ``+7`` and ``1e-3``, and refuses the others."""
        data = _one_frame_bytes(index, y)
        try:
            fileio._parse_lines(data.decode().splitlines())
        except ParseError:
            assert _stream(data) is None
        else:
            assert_fast_path_equals_line_parser(data)

    def test_marks_out_of_order(self, tmp_path):
        """A row with the eight marks of one, a dot where its second comma belongs: the
        fast path refuses it, and the line parser names its line."""
        lines = _one_frame_bytes().decode().splitlines()
        lines[4] = "7,3.0,1,1.0,2.0"
        data = _text(lines).encode()
        assert _stream(data) is None
        path = tmp_path / "one_frame.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 5

    def test_line_ends_outside_the_grammar(self):
        data = _one_frame_bytes()
        assert _stream(data) is not None
        assert _stream(data[:-1]) is None
        assert _stream(data.replace(b"\n", b"\r")) is None
        assert _stream(data.replace(b"\n", b"\r\r\n")) is None
        assert _stream(data.replace(b"\n", b"\r\n")[:-1]) is None  # a lone CR at the end
        assert _stream(data + b"\n") is None

    def test_ten_fraction_digits_in_the_last_chunk(self, tmp_path):
        """Chunks in the writer's layout, then a last chunk holding a 10-digit
        fraction: numpy's calls read the whole file exactly."""
        rng = np.random.default_rng(10)
        frames = 5 * fileio._CHUNK_ROWS // (2 * JOINT_COUNT)
        xyz = rng.uniform(-3.0, 3.0, (frames, JOINT_COUNT, 3))
        path = tmp_path / "chunks.csv"
        write_capture(CaptureSequence(xyz, np.arange(frames) * 7, GaitDirection.VERTICAL), path)
        written = path.read_bytes()
        data = written[: written.rindex(b",")] + b",0.1234567891\n"
        assert data.count(b"\n") > 2 * fileio._CHUNK_ROWS
        assert_fast_path_equals_line_parser(data)


def _rows_of_length(size, first_frame=0):
    """Whole frames of rows in the writer's layout, ``size`` bytes in all.

    Each coordinate is 0.5, 1.5 or 2.5 with up to 8 more zeros, as needed.
    """
    frames = size // (JOINT_COUNT * 30)
    rows = [[f"{i},{j}", "0.5", "1.5", "2.5"] for i in range(first_frame, first_frame + frames)
            for j in range(JOINT_COUNT)]
    missing = size - sum(len(",".join(r)) + 1 for r in rows)
    for r, k in ((r, k) for r in rows for k in (1, 2, 3)):
        zeros = min(missing, 8)
        r[k] += "0" * zeros
        missing -= zeros
    assert missing == 0
    return "".join(",".join(r) + "\n" for r in rows).encode()


class _ShortReads(io.BytesIO):
    """A raw file that returns at most ``limit`` bytes per read."""

    def __init__(self, data, limit):
        super().__init__(data)
        self.limit = limit

    def readinto(self, b):
        return super().readinto(memoryview(b)[: self.limit])


class _ChangedOnRewind(io.BytesIO):
    """A file whose bytes become ``after`` when the reader seeks for its second pass."""

    def __init__(self, before, after):
        super().__init__(before)
        self.after = after

    def seek(self, pos, whence=io.SEEK_SET):
        if self.after is not None:
            self.truncate(0)
            super().seek(0)
            self.write(self.after)
            self.after = None
        return super().seek(pos, whence)


_HEADER = b"frame,joint,x,y,z\n"
#: Bytes of each read of the reader's text wrapper.
_FILL = io.TextIOWrapper(io.BytesIO())._CHUNK_SIZE
#: Bytes of _rows_of_length's rows that make one numpy call of the fast path.
_CHUNK_SIZE = fileio._CHUNK_ROWS * 30


class TestStreamReader:
    """The fast path reads the file twice: once to count the rows, then to parse
    them, _CHUNK_ROWS rows per numpy call, through one text wrapper."""

    def test_row_split_across_two_fills(self):
        data = _HEADER + _rows_of_length(3 * _CHUNK_SIZE + 100)
        assert data[len(_HEADER) + _FILL - 1] != ord("\n")
        assert_fast_path_equals_line_parser(data)

    @pytest.mark.parametrize("fills", [1, 2])
    def test_body_of_whole_buffers(self, fills):
        """Each numpy call ends with a frame, and the last one at the end of the file."""
        body = _rows_of_length(fills * _CHUNK_SIZE)
        assert body.count(b"\n") == fills * fileio._CHUNK_ROWS
        assert_fast_path_equals_line_parser(_HEADER + body)

    def test_row_longer_than_64_kib(self):
        rows = _rows_of_length(3000).decode().splitlines()
        rows[30] = rows[30].replace(",0.5", ",0" + "0" * (1 << 16) + ".5", 1)
        assert_fast_path_equals_line_parser(_text(["frame,joint,x,y,z"] + rows).encode())

    @pytest.mark.parametrize("change", ["grown", "shrunk"])
    def test_file_changed_between_the_passes(self, change):
        data = _HEADER + _rows_of_length(2 * _CHUNK_SIZE)
        rows = data.splitlines(keepends=True)
        frame = int(rows[-1].split(b",", 1)[0]) + 1
        after = {
            "grown": data + b"".join(b"%d,%d,0.5,1.5,2.5\n" % (frame, j) for j in range(JOINT_COUNT)),
            "shrunk": b"".join(rows[:-JOINT_COUNT]),
        }[change]
        assert _stream(data) is not None and _stream(after) is not None
        assert _stream(data, lambda d: _ChangedOnRewind(d, after)) is None

    @pytest.mark.parametrize("where", ["within_a_fill", "first_row_of_a_fill"])
    def test_a_row_with_another_frame_index_than_its_frame(self, where):
        """The fast path keeps one index per frame: a row whose index differs from
        that of its frame's first row, within a numpy call or in the first
        frame of the next one, is left to the line parser."""
        data = _HEADER + _rows_of_length(2 * _CHUNK_SIZE)
        rows = data.splitlines(keepends=True)
        r = 3 if where == "within_a_fill" else 2 + fileio._CHUNK_ROWS  # rows[0] is the header
        index, rest = rows[r].split(b",", 1)
        assert not rest.startswith(b"0,")
        rows[r] = b"%d,%s" % (int(index) + 1, rest)
        assert _stream(data) is not None
        assert _stream(b"".join(rows)) is None

    @pytest.mark.parametrize("limit", [7, 1000])
    def test_short_reads_still_take_the_kernel(self, limit):
        """``read_capture`` reads through a buffered file, which returns short raw reads as they come."""
        data = _HEADER + _rows_of_length(_CHUNK_SIZE + 5000)
        assert_fast_path_equals_line_parser(data, lambda d: io.BufferedReader(_ShortReads(d, limit)))

    def test_pipe_is_read_whole(self):
        data = _HEADER + _rows_of_length(3000)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)  # within the pipe's buffer
            os.close(write_end)
            seq = read_capture(f"/dev/fd/{read_end}", GaitDirection.VERTICAL)
        finally:
            os.close(read_end)
        expected = fileio._parse_lines(data.decode().splitlines())
        assert seq.xyz.tobytes() == expected[0].tobytes()
        assert seq.frame_index.tolist() == expected[1]

    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_peak_memory_below_the_file_size(self, line_end, tmp_path):
        """Beside its result, a read holds one frame index per frame, one buffer
        and one fill's temporaries, whatever its line ends."""
        frames = 9000
        xyz = np.random.default_rng(14).uniform(-3.0, 3.0, (frames, JOINT_COUNT, 3))
        path = tmp_path / "long.csv"
        write_capture(CaptureSequence(xyz, np.arange(frames), GaitDirection.VERTICAL), path)
        path.write_bytes(path.read_bytes().replace(b"\n", line_end))
        tracemalloc.start()
        try:
            seq = read_capture(path, GaitDirection.VERTICAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seq) == frames
        assert peak < 1.25 * seq.xyz.nbytes < path.stat().st_size

    @pytest.mark.parametrize("layout", ["lone_cr", "blank_line"])
    def test_line_parser_peak_memory_below_the_file_size(self, layout, tmp_path):
        """The line parser reads the open file a line at a time: beside its
        result it holds one frame's fields and one index per frame."""
        frames = 9000
        xyz = np.random.default_rng(14).uniform(-3.0, 3.0, (frames, JOINT_COUNT, 3))
        path = tmp_path / "long.csv"
        write_capture(CaptureSequence(xyz, np.arange(frames), GaitDirection.VERTICAL), path)
        written, data = read_capture(path, GaitDirection.VERTICAL), path.read_bytes()
        path.write_bytes(data.replace(b"\n", b"\r") if layout == "lone_cr" else data + b"\n")
        with mock.patch.object(fileio, "_parse_lines", wraps=fileio._parse_lines) as line_parser:
            tracemalloc.start()
            try:
                seq = read_capture(path, GaitDirection.VERTICAL)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert line_parser.called
        assert seq == written
        assert peak < 1.5 * seq.xyz.nbytes < path.stat().st_size


class TestLoadtxtContract:
    """What the fast path relies on in ``np.loadtxt``, so that a numpy without it fails here by name."""

    def test_max_rows_stops_right_after_its_rows(self):
        text = io.TextIOWrapper(io.BytesIO(b"1,0,0.5,1.5,2.5\r\n2,0,0.5,1.5,2.5\n3,0,0.5,1.5,2.5\n"), newline="\n")
        rows = np.loadtxt(text, fileio._ROW, delimiter=",", comments=None, max_rows=2)
        assert rows["frame"].tolist() == [1, 2]
        assert text.readline() == "3,0,0.5,1.5,2.5\n"

    def test_a_blank_line_under_max_rows_warns(self):
        text = io.TextIOWrapper(io.BytesIO(b"1,0,0.5,1.5,2.5\n\n2,0,0.5,1.5,2.5\n"), newline="\n")
        with pytest.warns(UserWarning):
            np.loadtxt(text, fileio._ROW, delimiter=",", comments=None, max_rows=2)


class TestUndecodableFiles:
    def test_capture_names_the_line_of_the_bad_byte(self, tmp_path):
        rows = [f"7,{j},0.1,1.0,2.0" for j in range(JOINT_COUNT)]
        rows[1] = "7,1,0.1,\xff1.0,2.0"
        path = tmp_path / "bad.csv"
        path.write_bytes("\r\n".join(["frame,joint,x,y,z"] + rows).encode("latin-1") + b"\r\n")
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 3

    def test_the_first_bad_line_is_named_before_a_later_byte_that_is_not_ascii(self, tmp_path):
        lines = ["frame,joint,x,y,z"] + [f"{i},{j},0.1,1.0,2.0" for i in (7, 8) for j in range(JOINT_COUNT)]
        lines[3] = lines[3].replace("2.0", "x")  # the last field, whose line end the message leaves out
        lines[40] = lines[40].replace("0.1", "0.\u00e9")
        path = tmp_path / "bad.csv"
        path.write_bytes(_text(lines).encode("utf-8"))
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 4
        assert "could not convert string to float: 'x'" in str(err.value)

    @pytest.mark.parametrize("data, message", [
        (b"", "expected header 'frame,joint,x,y,z'"),
        (b"\xef\xbb\xbf", "expected header 'frame,joint,x,y,z'"),
        ("frame,joint,x,y,z\u00e9\n7,0,0.1,1.0,2.0\n".encode(), "not ASCII text: ordinal not in range(128)"),
    ], ids=["empty", "byte_order_mark_only", "header_not_ascii"])
    def test_a_bad_header_is_line_1(self, tmp_path, data, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 1
        assert message in str(err.value)

    def test_profile_is_a_schema_error(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_bytes(json.dumps(valid_profile_doc()).encode()[:-1] + b', "x": "\xff"}')
        with pytest.raises(SchemaError) as err:
            read_profile(path)
        assert err.value.field == "<document>"


class TestProfileText:
    """A profile is UTF-8 whatever the locale, after any byte-order mark."""

    def test_utf8_label_reads_under_an_ascii_locale(self, profile, tmp_path):
        path, back = tmp_path / "profile.json", tmp_path / "back.json"
        write_profile(profile, path)
        doc = json.loads(path.read_bytes())
        doc["created_label"] = "Caf\u00e9"
        path.write_bytes(json.dumps(doc, indent=2, ensure_ascii=False).encode("utf-8"))
        code = (
            "import locale, sys\nfrom skelcal import read_profile, write_profile\n"
            "write_profile(read_profile(sys.argv[1]), sys.argv[2])\nprint(locale.getpreferredencoding(False))\n"
        )
        src = str(Path(fileio.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code, str(path), str(back)], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert codecs.lookup(done.stdout.strip()).name == "ascii"  # the child's locale could not decode the label
        assert read_profile(back) == dataclasses.replace(profile, created_label="Caf\u00e9")

    def test_byte_order_mark_is_skipped(self, profile, short_walk, tmp_path):
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        write_profile(profile, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_profile(marked) == profile
        capture = tmp_path / "walk.csv"
        write_capture(short_walk, capture)
        for path in (plain, marked):
            out = path.with_suffix(".csv")
            assert main(["apply", "--profile", str(path), "--in", str(capture), "--out", str(out)]) == 0
        assert marked.with_suffix(".csv").read_bytes() == plain.with_suffix(".csv").read_bytes()

    def test_a_byte_that_is_not_utf8_is_not_valid_text(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_bytes(json.dumps(valid_profile_doc()).encode().replace(b'"test"', b'"te\xffst"'))
        with pytest.raises(SchemaError, match="not valid text") as err:
            read_profile(path)
        assert err.value.field == "<document>"


class TestCaptureText:
    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_byte_order_mark_is_skipped(self, tmp_path, short_walk, line_end):
        path = tmp_path / "walk.csv"
        write_capture(short_walk, path)
        marked = tmp_path / "marked" / "walk.csv"  # the same stem, so the same label
        marked.parent.mkdir()
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", line_end))
        assert read_capture(marked, GaitDirection.VERTICAL) == read_capture(path, GaitDirection.VERTICAL)

    @pytest.mark.parametrize("mark, line_end", [(b"", b"\n"), (b"", b"\r\n"), (b"\xef\xbb\xbf", b"\r\n")],
                             ids=["lf", "crlf", "bom_crlf"])
    def test_no_line_end_after_the_last_row(self, template, tmp_path, mark, line_end):
        """As an editor may leave a capture: the line parser reads it as it was written."""
        path = tmp_path / "walk.csv"
        write_capture(_pin_capture(template), path)
        edited = tmp_path / "edited" / "walk.csv"  # the same stem, so the same label
        edited.parent.mkdir()
        edited.write_bytes(mark + path.read_bytes().replace(b"\n", line_end).removesuffix(line_end))
        assert read_capture(edited, GaitDirection.VERTICAL) == read_capture(path, GaitDirection.VERTICAL)

    def test_a_form_feed_keeps_the_line_numbers(self, tmp_path):
        """``str.splitlines`` also breaks at a form feed; the line parser counts line ends only."""
        lines = ["frame,joint,x,y,z"] + [f"{i},{j},0.1,1.0,2.0" for i in (7, 8) for j in range(JOINT_COUNT)]
        lines[2] += "\x0c"
        lines[40] = lines[40].replace("0.1", "x")
        path = tmp_path / "form_feed.csv"
        path.write_text(_text(lines))
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 41

    def test_a_byte_that_is_not_ascii_after_a_form_feed(self, tmp_path):
        lines = ["frame,joint,x,y,z"] + [f"7,{j},0.1,1.0,2.0" for j in range(JOINT_COUNT)]
        lines[2] += "\x0c"
        lines[4] = lines[4].replace("0.1", "0.\xff")
        path = tmp_path / "form_feed.csv"
        path.write_bytes(_text(lines).encode("latin-1"))
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 5

    # NEL, no-break space, line separator and ideographic space: spaces to str.strip, not ASCII to the format
    @pytest.mark.parametrize("space", ["\u0085", "\u00a0", "\u2028", "\u3000"], ids=["nel", "nbsp", "ls", "ideo"])
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_a_unicode_space_around_the_header_is_not_ascii(self, tmp_path, space, before):
        header = space + "frame,joint,x,y,z" if before else "frame,joint,x,y,z" + space
        path = tmp_path / "spaced.csv"
        path.write_bytes(_text([header] + [f"7,{j},0.1,1.0,2.0" for j in range(JOINT_COUNT)]).encode("utf-8"))
        with pytest.raises(ParseError, match="not ASCII text") as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 1

    def test_a_second_byte_order_mark_is_not_ascii(self, tmp_path):
        path = tmp_path / "marked.csv"
        rows = [f"7,{j},0.1,1.0,2.0" for j in range(JOINT_COUNT)]
        path.write_bytes(b"\xef\xbb\xbf" * 2 + _text(["frame,joint,x,y,z"] + rows).encode())
        with pytest.raises(ParseError, match="not ASCII text") as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 1

    def test_a_byte_order_mark_inside_the_file_names_its_line(self, tmp_path):
        lines = ["frame,joint,x,y,z"] + [f"7,{j},0.1,1.0,2.0" for j in range(JOINT_COUNT)]
        lines[5] = "\ufeff" + lines[5]
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbf" + _text(lines).encode("utf-8"))
        with pytest.raises(ParseError, match="not ASCII text") as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 6

    # a digit separator, Arabic-Indic digits and fullwidth digits: numbers to Python, not to the format
    @pytest.mark.parametrize("field", ["1_0.5", "\u0661.\u0665", "\uff11.\uff15"])
    def test_only_ascii_numbers_are_read(self, tmp_path, field):
        rows = [f"7,{j},{field if j == 0 else 0.1},1.0,2.0" for j in range(JOINT_COUNT)]
        path = tmp_path / "bad.csv"
        path.write_bytes("\n".join(["frame,joint,x,y,z"] + rows + [""]).encode("utf-8"))
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 2


MUTATIONS = (
    "none", "blank_line", "permute_joints", "field_variant", "nan", "drop_row",
    "duplicate_row", "swap_frames", "repeat_index", "extra_comma", "non_numeric", "index_2_63",
    "control_char", "crlf", "no_final_newline", "number_form", "leading_zeros", "digit_count",
    "misplaced_mark", "long_index",
)


@st.composite
def capture_texts(draw):
    """A valid capture's text and a mutation of it; returns (text, mutation)."""
    frames = draw(st.sampled_from((1, 99, 100, 101, 250)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # indices of up to 8 digits, as the writer prints short ones, or up to 10, as sensor
    # timestamps are; "long_index" makes them longer
    digits = draw(st.sampled_from((8, 10)))
    index = np.cumsum(rng.integers(1, 4, frames)) + draw(st.integers(-(10**digits) + 1, 10**digits - 1 - 3 * frames))
    index = index.tolist()
    # the writer's layout, repr's, np.savetxt's "%.18e" and "%e", perhaps with signs or leading spaces
    number = draw(st.sampled_from(("{:.9f}", "{!r}", "{:.18e}", "{:e}", "{:+.9f}", "{:+e}")))
    lead = draw(st.sampled_from(("", " ", "  ")))
    index_form = draw(st.sampled_from(("{}", "{:+d}", " {}")))
    # the parsers treat every coordinate alike, so rows draw theirs from a pool
    pool = [",".join(lead + number.format(v) for v in xyz) for xyz in rng.normal(0.0, 2.0, (64, 3)).tolist()]
    picks = iter(rng.integers(0, len(pool), frames * JOINT_COUNT).tolist())
    lines = ["frame,joint,x,y,z"] + [
        f"{index_form.format(i)},{j},{pool[next(picks)]}" for i in index for j in range(JOINT_COUNT)
    ]
    mutation = draw(st.sampled_from(MUTATIONS))
    # the first and last rows of the file and of each 2,500-row block, or any row
    edges = {1, len(lines) - 1} | {b + d for b in range(2500, len(lines) - 1, 2500) for d in (0, 1)}
    row = draw(st.sampled_from(sorted(edges)) | st.integers(1, len(lines) - 1))
    frame = (row - 1) // JOINT_COUNT
    frame_rows = slice(1 + frame * JOINT_COUNT, 1 + (frame + 1) * JOINT_COUNT)
    fields = lines[row].split(",")
    field = draw(st.integers(0, 4))
    if mutation == "blank_line":
        lines.insert(row, draw(st.sampled_from(("", " ", "\t", "  \t "))))
    elif mutation == "permute_joints":
        lines[frame_rows] = draw(st.permutations(lines[frame_rows]))
    elif mutation == "field_variant":
        value = fields[field]
        variants = (" 1", "+1", "1_0", f" {value}", f"+{value}", f"{value[:1]}_{value[1:]}")
        fields[field] = draw(st.sampled_from(variants))
        lines[row] = ",".join(fields)
    elif mutation == "nan":
        fields[field] = "nan"
        lines[row] = ",".join(fields)
    elif mutation == "drop_row":
        del lines[row]
    elif mutation == "duplicate_row":
        lines.insert(row, lines[row])
    elif mutation == "swap_frames" and frames > 1:
        other = draw(st.integers(0, frames - 1))
        other_rows = slice(1 + other * JOINT_COUNT, 1 + (other + 1) * JOINT_COUNT)
        lines[frame_rows], lines[other_rows] = lines[other_rows], lines[frame_rows]
    elif mutation == "repeat_index" and frame > 0:
        previous = lines[frame_rows.start - 1].split(",", 1)[0]
        for r in range(frame_rows.start, frame_rows.stop) if draw(st.booleans()) else (row,):
            lines[r] = previous + "," + lines[r].split(",", 1)[1]
    elif mutation == "extra_comma":
        at = draw(st.integers(0, len(lines[row])))
        lines[row] = lines[row][:at] + "," + lines[row][at:]
    elif mutation == "non_numeric":
        fields[field] = draw(st.sampled_from(("", "x", "0x1", "1.0.0")))
        lines[row] = ",".join(fields)
    elif mutation == "index_2_63":
        for r in range(frame_rows.start, frame_rows.stop) if draw(st.booleans()) else (row,):
            lines[r] = f"{2**63}," + lines[r].split(",", 1)[1]
    elif mutation == "control_char":
        at = draw(st.integers(0, len(lines[row])))
        lines[row] = lines[row][:at] + draw(st.sampled_from(("\x0c", "\x85"))) + lines[row][at:]
    elif mutation == "crlf":
        lines[row] += "\r"
    elif mutation == "number_form":
        forms = ("1e-3", "-", ".", "-.5", "5.", "-0.", "-.0", "0.5e0", "inf")
        fields[draw(st.integers(2, 4))] = draw(st.sampled_from(forms))
        lines[row] = ",".join(fields)
    elif mutation == "leading_zeros":
        value = fields[field]
        sign = "-" if value.startswith("-") else ""
        fields[field] = sign + "0" * draw(st.integers(1, 8)) + value.lstrip("-")
        lines[row] = ",".join(fields)
    elif mutation == "digit_count":
        # 17 digits; N = 2**53 + 1; N = 2**53; 16 digits without a dot
        forms = ("1.2345678901234567", "-12345678.901234567", "90071992547409.93",
                 "-.9007199254740993", "900719925474099.2", "-9007199254740992.",
                 "1234567890123456")
        fields[draw(st.integers(2, 4))] = draw(st.sampled_from(forms))
        lines[row] = ",".join(fields)
    elif mutation == "long_index":  # up to 19 digits: shifted by up to 2**40, the last perhaps 2**63 - 1
        shift = draw(st.integers(-(2**40), 2**40))
        index = [i + shift for i in index]
        if draw(st.booleans()):
            index[-1] = 2**63 - 1
        lines[1:] = [f"{index[r // JOINT_COUNT]},{line.split(',', 1)[1]}" for r, line in enumerate(lines[1:])]
    elif mutation == "misplaced_mark":
        kind = draw(st.sampled_from(("minus_inside", "dot_in_integer", "two_dots")))
        if kind == "minus_inside":
            value = fields[field]
            at = draw(st.integers(1, len(value)))
            fields[field] = value[:at] + "-" + value[at:]
        elif kind == "dot_in_integer":
            at = draw(st.integers(0, 1))
            fields[at] = draw(st.sampled_from((f"{fields[at]}.", f".{fields[at]}", f"{fields[at]}.0")))
        else:
            coord = draw(st.integers(2, 4))
            fields[coord] = draw(st.sampled_from((f"{fields[coord]}.", f".{fields[coord]}", "1..5")))
        lines[row] = ",".join(fields)
    return _text(lines, final_newline=mutation != "no_final_newline"), mutation


def _text(lines, final_newline=True):
    return "\n".join(lines) + ("\n" if final_newline else "")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _outcome(path):
    try:
        return read_capture(path, GaitDirection.VERTICAL)
    except CalibrationError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


_ONE_FRAME = ["frame,joint,x,y,z"] + [f"7,{j},0.1,1.0,2.0" for j in range(JOINT_COUNT)]


class TestBlockReaderFuzz:
    @example((_text(_ONE_FRAME[:-1] + [_ONE_FRAME[-1] + ","]), "extra_comma"))
    @example((_text(_ONE_FRAME + _ONE_FRAME[1:]), "repeat_index"))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(capture_texts())
    def test_block_reader_equals_line_parser(self, fuzz_dir, case):
        text, mutation = case
        path = fuzz_dir / "capture.csv"
        path.write_text(text)
        if mutation == "none":
            assert _stream(path.read_bytes()) is not None
        got = _outcome(path)
        with mock.patch.object(fileio, "_parse_stream", return_value=None):
            expected = _outcome(path)
        if isinstance(expected, CaptureSequence):
            assert isinstance(got, CaptureSequence)
            assert got.xyz.tobytes() == expected.xyz.tobytes()
            assert got.frame_index.tolist() == expected.frame_index.tolist()
            assert (got.direction, got.label) == (expected.direction, expected.label)
        else:
            assert got == expected


#: Text made of what capture rows are made of, so that the parsers get past the header.
_CSV_TEXT = st.text(alphabet="0123456789,.-+eEinaf \r\n", max_size=400)


class TestCaptureFuzz:
    """Any bytes or text yield a validated capture or a CalibrationError, never another exception."""

    def read(self, fuzz_dir, data, header):
        path = fuzz_dir / "any.csv"
        path.write_bytes((b"frame,joint,x,y,z\n" if header else b"") + data)
        try:
            seq = read_capture(path, GaitDirection.VERTICAL)
        except CalibrationError:
            return
        assert validate_sequence(seq) is seq
        assert seq.xyz.shape == (len(seq), JOINT_COUNT, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(), st.booleans())
    def test_arbitrary_bytes(self, fuzz_dir, data, header):
        self.read(fuzz_dir, data, header)

    @example("\n".join(_ONE_FRAME[1:]) + "\n", True)
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.text(), _CSV_TEXT), st.booleans())
    def test_arbitrary_text(self, fuzz_dir, text, header):
        self.read(fuzz_dir, text.encode("utf-8", "surrogatepass"), header)
