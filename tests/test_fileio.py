import json
import math
import stat
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from skelcal import (
    BetaModel,
    BetaPoint,
    CalibrationProfile,
    DistortionSpec,
    GaitDirection,
    JointIndex,
    Polynomial,
    TiltParams,
    apply_distortion,
    calibrate,
    generate_truth_capture,
    read_capture,
    read_profile,
    write_capture,
    write_profile,
)
from skelcal import CaptureSequence, JOINT_COUNT, Point3, SkeletonFrame, y_diff_to_last
from skelcal import fileio
from skelcal.fileio import write_ydiff_report
from skelcal.errors import (
    CalibrationError,
    EmptySequenceError,
    IoFailureError,
    MissingJointError,
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
        assert len(back.frames) == len(short_walk.frames)
        for fa, fb in zip(back.frames, short_walk.frames):
            assert fa.frame_index == fb.frame_index
            for a, b in zip(fa.joints, fb.joints):
                assert abs(a.x - b.x) <= 1e-9
                assert abs(a.y - b.y) <= 1e-9
                assert abs(a.z - b.z) <= 1e-9

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
        with pytest.raises(EmptySequenceError):
            read_capture(path, GaitDirection.VERTICAL)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["frame,joint,x,y,z"] + [f"0,{j},0.1,1.0,2.0" for j in range(25)]
        rows[3] = "0,2,0.1,not_a_number,2.0"  # file line 4 (header is line 1)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 4

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

    def test_not_json(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            read_profile(path)


class TestArrayBackedIo:
    def test_frame_index_beyond_int64_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["frame,joint,x,y,z"] + [f"{2**63},{j},0.1,1.0,2.0" for j in range(25)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            read_capture(path, GaitDirection.VERTICAL)
        assert err.value.line == 2

    def test_ydiff_report_rows_carry_frame_indices(self, tmp_path):
        frames = [
            SkeletonFrame(k, tuple(Point3(0.0, y, 2.0) for _ in range(JOINT_COUNT)))
            for k, y in ((3, 1.3), (7, 1.7), (9, 1.9))
        ]
        seq = CaptureSequence(frames, GaitDirection.VERTICAL)
        path = tmp_path / "ydiff.csv"
        write_ydiff_report(seq, y_diff_to_last(seq, [JointIndex.HEAD]), path)
        assert path.read_text() == "frame,head\n3,-0.600000000\n7,-0.200000000\n9,0.000000000\n"


def _per_value_capture_bytes(seq):
    """The capture CSV as the original per-value writer printed it."""
    lines = ["frame,joint,x,y,z"]
    for index, joints in zip(seq.frame_index.tolist(), seq.xyz.tolist()):
        for j, (x, y, z) in enumerate(joints):
            lines.append(f"{index},{j},{x:.9f},{y:.9f},{z:.9f}")
    return ("\n".join(lines) + "\n").encode()


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
        seq = CaptureSequence.from_arrays(xyz, frames, GaitDirection.VERTICAL)

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


MUTATIONS = (
    "none", "blank_line", "permute_joints", "field_variant", "nan", "drop_row",
    "duplicate_row", "swap_frames", "repeat_index", "extra_comma", "non_numeric", "index_2_63",
    "control_char",
)


@st.composite
def capture_texts(draw):
    """A valid capture's lines and a mutation of them; returns (lines, mutation)."""
    frames = draw(st.sampled_from((1, 99, 100, 101, 250)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index = np.cumsum(rng.integers(1, 4, frames)) + draw(st.integers(-(2**40), 2**40))
    index = index.tolist()
    if draw(st.booleans()):
        index[-1] = 2**63 - 1
    # the parsers treat every coordinate alike, so rows draw theirs from a pool
    pool = [f"{x:.9f},{y:.9f},{z:.9f}" for x, y, z in rng.normal(0.0, 2.0, (64, 3)).tolist()]
    picks = iter(rng.integers(0, len(pool), frames * JOINT_COUNT).tolist())
    lines = ["frame,joint,x,y,z"] + [
        f"{i},{j},{pool[next(picks)]}" for i in index for j in range(JOINT_COUNT)
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
    return lines, mutation


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
    @example((_ONE_FRAME[:-1] + [_ONE_FRAME[-1] + ","], "extra_comma"))
    @example((_ONE_FRAME + _ONE_FRAME[1:], "repeat_index"))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(capture_texts())
    def test_block_reader_equals_line_parser(self, fuzz_dir, case):
        lines, mutation = case
        path = fuzz_dir / "capture.csv"
        path.write_text("\n".join(lines) + "\n")
        if mutation == "none":
            assert fileio._parse_blocks(path.read_text().splitlines()) is not None
        got = _outcome(path)
        with mock.patch.object(fileio, "_parse_blocks", return_value=None):
            expected = _outcome(path)
        if isinstance(expected, CaptureSequence):
            assert isinstance(got, CaptureSequence)
            assert got.xyz.tobytes() == expected.xyz.tobytes()
            assert got.frame_index.tolist() == expected.frame_index.tolist()
            assert (got.direction, got.nominal_fps, got.label) == (
                expected.direction, expected.nominal_fps, expected.label
            )
        else:
            assert got == expected
