"""The benchmark's workloads: seeded inputs, the CLI call, and output checks.

Inputs come from ``skelcal.synthetic``: a 7 degree shear tilt, sensor height
0.75 m, perspective angle beta(y) = 3 deg - 0.02 rad/m * y and 5 mm Gaussian
noise on every coordinate. Vertical walks go from 4.5 m to 1.5 m; the
horizontal walk crosses the view at 3 m depth over the same 3 m path.

Each check returns ``None`` on success or a one-line reason on failure, so a
bad output is counted, never raised.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from skelcal import fileio
from skelcal.diagnostics import bone_length_stability, y_diff_to_last
from skelcal.errors import CalibrationError
from skelcal.numerics import Polynomial, polyeval
from skelcal.perspective import DEFAULT_BETA_JOINTS, BetaModel, BetaPoint
from skelcal.pipeline import CalibrationProfile, PipelineConfig, apply_profile, calibrate
from skelcal.skeleton import CaptureSequence, GaitDirection, JointIndex
from skelcal.synthetic import (
    DistortionSpec,
    TiltModel,
    apply_distortion,
    default_template,
    generate_truth_capture,
)
from skelcal.tilt import TiltParams

TILT_RAD = math.radians(7.0)
SENSOR_HEIGHT_M = 0.75
BETA_POLY = Polynomial((math.radians(3.0), -0.02))
NOISE_STD_M = 0.005
Z_START_M, Z_END_M = 4.5, 1.5
CALIBRATION_DEGREE = 2

#: Seed whose generated inputs are fingerprinted in fingerprints.json.
DEFAULT_SEED = 0

#: Diagnose reports print 9 decimals; values must match in-process results to this.
REPORT_TOL = 1e-9

#: Accepted probability that a correct program fails an accuracy check by
#: chance under the noise model; it sets how many standard deviations the
#: ground-truth bounds allow.
FALSE_ALARM_P = 1e-6

#: Per-gait estimates the calibration averages are checked to this many
#: standard errors.
STANDARD_ERRORS = 5.0

#: What the spine-segment estimator recovers from a shear tilt of TILT_RAD:
#: the raw spine leans by atan(sin a), not by a.
EXPECTED_TILT_RAD = math.atan(math.sin(TILT_RAD))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    direction: GaitDirection
    gaits: int
    frames: int
    why: str

    @property
    def input_frames(self) -> int:
        """Frames the CLI reads in one run."""
        return self.gaits * self.frames


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "calibrate-10x900", "calibrate", GaitDirection.VERTICAL, 10, 900,
            "estimation path: reads 10 vertical 900-frame gaits, tilt-corrects them, "
            "fits the height polynomial, writes a 1 KB profile",
        ),
        Workload(
            "apply-9000", "apply", GaitDirection.VERTICAL, 1, 9000,
            "correction path: applies a fixed profile to a 9000-frame vertical capture "
            "and writes a 10 MB capture; no estimation",
        ),
        Workload(
            "diagnose-9000h", "diagnose", GaitDirection.HORIZONTAL, 1, 9000,
            "same read and correct layers as apply on a horizontal walk, plus the "
            "diagnostics module; writes small reports instead of a capture",
        ),
    )
}


@dataclass
class Case:
    """One workload's generated inputs, its CLI arguments and what to expect."""

    workload: Workload
    seed: int
    workdir: Path
    argv: list[str]
    inputs: dict[str, Path]
    truth_y: np.ndarray
    expected: dict

    @property
    def output(self) -> Path:
        return self.workdir / "out"

    @property
    def truth_drift_m(self) -> float:
        return y_drift(self.truth_y)


def noise_seed(seed: int, gait: int) -> int:
    return seed * 1000 + gait


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def all_y(seq: CaptureSequence) -> np.ndarray:
    """(frames, 25) array of every joint's Y."""
    return np.array([[p.y for p in f.joints] for f in seq.frames])


def y_drift(y: np.ndarray) -> float:
    """Largest |y - y_last| over DEFAULT_BETA_JOINTS and all frames."""
    ys = y[:, [int(j) for j in DEFAULT_BETA_JOINTS]]
    return float(np.abs(ys - ys[-1]).max())


def y_rmse(y: np.ndarray, truth_y: np.ndarray) -> float:
    """Root mean square of corrected minus ground-truth Y over every joint and frame."""
    return float(np.sqrt(np.mean((y - truth_y) ** 2)))


def truth_profile() -> CalibrationProfile:
    """The profile that inverts the injected distortion exactly."""
    template = default_template()
    heights = [template.pelvis_height_m + template.joint_offsets[j].y for j in DEFAULT_BETA_JOINTS]
    points = tuple(
        BetaPoint(JointIndex(j), h, polyeval(BETA_POLY, h)) for j, h in zip(DEFAULT_BETA_JOINTS, heights)
    )
    beta = BetaModel(BETA_POLY, BETA_POLY.degree, points)
    return CalibrationProfile(TiltParams(TILT_RAD, SENSOR_HEIGHT_M), beta, 1, "ground truth")


def write_inputs(workload: Workload, seed: int, indir: Path) -> tuple[dict[str, Path], CaptureSequence]:
    """Generate and write the workload's inputs; also returns the ground truth.

    The calibration workload gets one extra held-out gait, read only by the
    accuracy check after timing ends.
    """
    indir.mkdir(parents=True, exist_ok=True)
    truth = generate_truth_capture(
        default_template(), workload.direction, workload.frames, Z_START_M, Z_END_M
    )
    inputs: dict[str, Path] = {}
    if workload.command == "calibrate":
        names = [f"gait{i:02d}" for i in range(workload.gaits)] + ["heldout"]
    else:
        names = ["capture"]
        fileio.write_profile(truth_profile(), indir / "profile.json")
        inputs["profile"] = indir / "profile.json"
    for i, name in enumerate(names):
        spec = DistortionSpec(
            TiltModel.SHEAR_INVERSE, TILT_RAD, SENSOR_HEIGHT_M, BETA_POLY, NOISE_STD_M,
            noise_seed(seed, i),
        )
        inputs[name] = indir / f"{name}.csv"
        fileio.write_capture(apply_distortion(truth, spec), inputs[name])
    return inputs, truth


def prepare(workload: Workload, seed: int, workdir: Path) -> Case:
    """Write the inputs for ``seed`` and compute the expected outputs in-process."""
    inputs, truth = write_inputs(workload, seed, workdir / "in")
    truth_y = all_y(truth)
    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    d = workload.direction
    if workload.command == "calibrate":
        gaits = [inputs[n] for n in sorted(inputs) if n.startswith("gait")]
        argv = ["calibrate", "--sensor-height", str(SENSOR_HEIGHT_M),
                "--degree", str(CALIBRATION_DEGREE), "--out-profile", str(out / "profile.json")]
        argv += [str(p) for p in gaits]
        profile = calibrate(
            [fileio.read_capture(p, d) for p in gaits], SENSOR_HEIGHT_M,
            PipelineConfig(beta_degree=CALIBRATION_DEGREE),
        )
        expected = {"profile": profile}
    elif workload.command == "apply":
        argv = ["apply", "--profile", str(inputs["profile"]), "--in", str(inputs["capture"]),
                "--out", str(out / "corrected.csv"), "--direction", d.value]
        corrected = apply_profile(fileio.read_capture(inputs["capture"], d), truth_profile())
        ref = workdir / "expected.csv"
        fileio.write_capture(corrected, ref)
        expected = {"sha256": sha256_file(ref), "y": all_y(corrected)}
        ref.unlink()
    else:
        argv = ["diagnose", "--profile", str(inputs["profile"]), "--in", str(inputs["capture"]),
                "--direction", d.value, "--report", "both", "--out", str(out / "report.csv")]
        corrected = apply_profile(fileio.read_capture(inputs["capture"], d), truth_profile())
        series = y_diff_to_last(corrected, DEFAULT_BETA_JOINTS)
        bones = bone_length_stability(corrected).per_edge
        expected = {
            "frames": [f.frame_index for f in corrected.frames],
            "ydiff": np.array([s.per_frame_diff for s in series]).T,
            "edges": [(int(e.edge.parent), int(e.edge.child)) for e in bones],
            "bones": np.array([(e.mean_length_m, e.std_length_m, e.max_abs_dev_m) for e in bones]),
            "y": all_y(corrected),
        }
    return Case(workload, seed, workdir, argv, inputs, truth_y, expected)


def check_output(case: Case) -> str | None:
    """Compare what the CLI wrote against the in-process result."""
    out = case.output
    command = case.workload.command
    try:
        if command == "calibrate":
            if fileio.read_profile(out / "profile.json") != case.expected["profile"]:
                return "profile differs from in-process calibrate()"
            return None
        if command == "apply":
            if sha256_file(out / "corrected.csv") != case.expected["sha256"]:
                return "corrected capture is not byte-identical to in-process apply_profile()"
            return None
        return _check_reports(case, out / "report_ydiff.csv", out / "report_bones.csv")
    except (OSError, CalibrationError, ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _check_reports(case: Case, ydiff_path: Path, bones_path: Path) -> str | None:
    exp = case.expected
    rows = _rows(ydiff_path)
    if len(rows) != len(exp["frames"]):
        return f"ydiff report has {len(rows)} rows, expected {len(exp['frames'])}"
    if [int(r[0]) for r in rows] != exp["frames"]:
        return "ydiff report frame column differs"
    got = np.array([[float(v) for v in r[1:]] for r in rows])
    if got.shape != exp["ydiff"].shape or not np.allclose(got, exp["ydiff"], rtol=0, atol=REPORT_TOL):
        return "ydiff report values differ from in-process y_diff_to_last()"
    rows = _rows(bones_path)
    if len(rows) != len(exp["edges"]):
        return f"bone report has {len(rows)} rows, expected {len(exp['edges'])}"
    if [(int(r[0]), int(r[1])) for r in rows] != exp["edges"]:
        return "bone report edges differ"
    got = np.array([[float(v) for v in r[4:]] for r in rows])
    if got.shape != exp["bones"].shape or not np.allclose(got, exp["bones"], rtol=0, atol=REPORT_TOL):
        return "bone report values differ from in-process bone_length_stability()"
    return None


def _tails(n: int) -> float:
    """Standard deviations that the largest of n Gaussian samples stays within,
    except with probability FALSE_ALARM_P (union bound)."""
    return math.sqrt(2.0 * math.log(2.0 * n / FALSE_ALARM_P))


def noise_gain() -> float:
    """How much the two corrections amplify coordinate noise in Y, at most.

    Noise e on (y, z) reaches corrected Y as e_y*((1+s^2)A + sT) + e_z*(sA + T)
    with s = sin(tilt), T = tan(beta) and A = 1 + z*beta'(y)*sec^2(beta),
    taken at their largest over the walk.
    """
    s = math.sin(TILT_RAD)
    beta_max = max(abs(polyeval(BETA_POLY, y)) for y in (0.0, 2.0))
    slope = abs(BETA_POLY.coefficients[1])
    a = 1.0 + Z_START_M * slope / math.cos(beta_max) ** 2
    t = math.tan(beta_max)
    return math.hypot((1 + s * s) * a + s * t, s * a + t)


def profile_error_bound(case: Case) -> float:
    """Largest Y error, in m, that an estimated profile adds to the correction.

    Zero for the fixed ground-truth profile. For a calibrated one: the tilt
    estimator's known bias (it recovers atan(sin a), not a) plus
    STANDARD_ERRORS standard errors of a per-joint perspective angle averaged
    over the gaits, each turned into Y at the farthest depth.
    """
    if case.workload.command != "calibrate":
        return 0.0
    sigma = NOISE_STD_M * noise_gain()
    bias = abs(math.sin(TILT_RAD) - math.sin(EXPECTED_TILT_RAD))
    angle_se = sigma * math.sqrt(2.0) / (Z_START_M - Z_END_M) / math.sqrt(case.workload.gaits)
    return Z_START_M * (bias + STANDARD_ERRORS * angle_se)


def drift_bound(case: Case) -> float:
    """Largest max |y - y_last| a correct program produces on the case.

    Ground-truth drift (gait motion), plus noise on the worst frame and on
    the last frame, plus twice the profile's error.
    """
    sigma = NOISE_STD_M * noise_gain()
    n = case.truth_y.shape[0] * len(DEFAULT_BETA_JOINTS)
    return case.truth_drift_m + 2.0 * (_tails(n) * sigma + profile_error_bound(case))


def rmse_bound(case: Case) -> float:
    """Largest Y RMSE against ground truth a correct program produces on the case.

    The noise's RMS, which stays within STANDARD_ERRORS relative standard
    errors of 1/sqrt(2n) of its deviation, plus the profile's error.
    """
    sigma = NOISE_STD_M * noise_gain()
    return sigma * (1.0 + STANDARD_ERRORS / math.sqrt(2.0 * case.truth_y.size)) + profile_error_bound(case)


def tilt_bound_deg(workload: Workload) -> float:
    """STANDARD_ERRORS standard errors of the tilt estimate, in degrees.

    Each frame's angle is the spine's depth difference over its rise; both
    ends carry noise, and the estimate averages every frame of every gait.
    """
    template = default_template()
    rise = template.joint_offsets[JointIndex.SPINE_MID].y - template.joint_offsets[JointIndex.SPINE_BASE].y
    per_frame = NOISE_STD_M * math.sqrt(2.0) / rise
    return math.degrees(STANDARD_ERRORS * per_frame / math.sqrt(workload.input_frames))


def accuracy(case: Case) -> tuple[dict[str, float], list[str]]:
    """Ground-truth accuracy of the outputs, and the bounds they broke.

    All bounds together are one operation, so at most one failure comes back.

    On the calibration workload the produced profile corrects the held-out
    gait. The other workloads' outputs were checked to match the in-process
    correction made with the case, so that correction is measured.
    """
    failures = []
    if case.workload.command == "calibrate":
        try:
            profile = fileio.read_profile(case.output / "profile.json")
        except CalibrationError:  # the run already failed its output check
            profile = case.expected["profile"]
        heldout = apply_profile(fileio.read_capture(case.inputs["heldout"], case.workload.direction), profile)
        y = all_y(heldout)
        tilt_err = abs(math.degrees(profile.tilt.tilt_rad - EXPECTED_TILT_RAD))
        if tilt_err > tilt_bound_deg(case.workload):
            failures.append(f"tilt error {tilt_err:.4f} deg > {tilt_bound_deg(case.workload):.4f} deg")
        values = {"tilt_err_deg": tilt_err}
    else:
        y = case.expected["y"]
        values = {}
    values.update(drift_max_m=y_drift(y), y_rmse_m=y_rmse(y, case.truth_y))
    for name, bound in (("drift_max_m", drift_bound(case)), ("y_rmse_m", rmse_bound(case))):
        if values[name] > bound:
            failures.append(f"{name} {values[name]:.4f} m > {bound:.4f} m")
    return values, ["; ".join(failures)] if failures else []
