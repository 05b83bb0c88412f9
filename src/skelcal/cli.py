"""Command-line interface: synthesize fixtures, calibrate, apply, diagnose.

Angles cross the CLI boundary in degrees for human convenience; profile files
and all internal computation use radians. Every subcommand exits nonzero on
error, printing the structured error to stderr and never to the data output.

Each run is a short process, so importing this module sets it up to start
quickly: numpy gets one OpenBLAS thread unless the caller chose a count, and
``gc.freeze()`` after the imports keeps the collector from traversing the
import-time heap again, during the run or at exit. A program that imports
``skelcal.cli`` in-process freezes its own heap too: what is alive then is
never collected. Each subcommand imports only what it runs (``synthetic`` for
``synth``, ``diagnostics`` for ``diagnose``).

``apply`` and ``diagnose`` correct a capture one part of ``_PART_FRAMES`` frames
at a time and keep of each corrected part only what they write or measure, so
neither holds the corrected capture whole; ``diagnose`` drops the raw one before
its reports. The writer formats each part in its own, smaller blocks.
"""

from __future__ import annotations

import os

# before numpy loads: skelcal's one BLAS call is a tiny lstsq, and OpenBLAS threads cost ~60 ms a run
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import math
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from . import fileio
from .errors import CalibrationError, tagged
from .perspective import DEFAULT_BETA_JOINTS
from .pipeline import CalibrationProfile, PipelineConfig, apply_profile, calibrate
from .numerics import Polynomial
from .skeleton import CaptureSequence, GaitDirection, JointIndex
from .tilt import TiltModel

# these modules live until exit: spare them the full collections of the run and of exit
gc.freeze()


def _beta_poly_from_degrees(text: str) -> Polynomial:
    try:
        return Polynomial(tuple(math.radians(float(v)) for v in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list '{text}': {exc}")


def _joint_list(text: str) -> tuple[JointIndex, ...]:
    try:
        return tuple(JointIndex(int(v)) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad joint list '{text}': {exc}")


_DIRECTIONS = [d.value for d in GaitDirection]
_TILT_MODELS = [m.value for m in TiltModel]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelcal",
        description="Calibrate depth-sensor skeleton captures: estimate sensor tilt "
        "and height-dependent perspective distortion from recorded walks, correct "
        "captures, and report consistency diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic truth capture and its distorted raw twin")
    p.add_argument("--direction", choices=_DIRECTIONS, default=GaitDirection.VERTICAL.value)
    p.add_argument("--frames", dest="frame_count", metavar="FRAMES", type=int, default=90)
    p.add_argument("--z-start", type=float, default=4.5, help="walk start depth, m")
    p.add_argument("--z-end", type=float, default=1.5, help="walk end depth, m")
    p.add_argument("--tilt-deg", type=float, default=0.0, help="injected sensor tilt, degrees")
    p.add_argument("--tilt-model", choices=_TILT_MODELS, default=TiltModel.SHEAR_INVERSE.value)
    p.add_argument("--sensor-height", type=float, default=0.0, help="sensor height above ground, m")
    p.add_argument(
        "--beta-coeffs",
        type=_beta_poly_from_degrees,
        default=Polynomial((0.0,)),
        metavar="c0,c1,...",
        help="perspective polynomial in height (degrees per m^k), ascending",
    )
    p.add_argument("--noise-std", type=float, default=0.0, help="Gaussian noise std, m")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-truth", type=Path, required=True)
    p.add_argument("--out-raw", type=Path, required=True)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("calibrate", help="estimate a calibration profile from vertical gait captures")
    p.add_argument("captures", nargs="+", type=Path, metavar="CAPTURE")
    p.add_argument("--sensor-height", type=float, required=True, help="measured sensor height, m")
    p.add_argument("--degree", type=int, default=2, help="perspective polynomial degree (1-6)")
    p.add_argument("--joints", type=_joint_list, default=DEFAULT_BETA_JOINTS,
                   metavar="J0,J1,...", help="joint indices for perspective estimation")
    p.add_argument("--label", default="", help="free-text provenance label")
    p.add_argument("--out-profile", type=Path, required=True)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("apply", help="apply a calibration profile to a capture")
    p.add_argument("--profile", type=Path, required=True)
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--direction", choices=_DIRECTIONS, default=GaitDirection.VERTICAL.value,
                   help="the walk's direction; does not change the output")
    p.set_defaults(handler=cmd_apply)

    p = sub.add_parser("diagnose", help="emit plot-ready consistency reports for a capture")
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--profile", type=Path, help="correct with this profile before reporting")
    p.add_argument("--report", choices=["ydiff", "bones", "both"], default="ydiff")
    p.add_argument("--joints", type=_joint_list, default=DEFAULT_BETA_JOINTS,
                   metavar="J0,J1,...", help="joints for the ydiff report")
    p.add_argument("--direction", choices=_DIRECTIONS, default=GaitDirection.VERTICAL.value,
                   help="the walk's direction; does not change the output")
    p.add_argument("--out", type=Path, required=True,
                   help="output CSV; with --report both, writes <out>_ydiff.csv and <out>_bones.csv")
    p.set_defaults(handler=cmd_diagnose)

    return parser


def cmd_synth(args) -> int:
    from .synthetic import DistortionSpec, apply_distortion, default_template, generate_truth_capture

    truth = generate_truth_capture(
        default_template(), GaitDirection(args.direction), args.frame_count, args.z_start, args.z_end
    )
    spec = DistortionSpec(
        tilt_model=args.tilt_model,
        tilt_rad=math.radians(args.tilt_deg),
        sensor_height_m=args.sensor_height,
        beta_poly=args.beta_coeffs,
        noise_std_m=args.noise_std,
        seed=args.seed,
    )
    raw = apply_distortion(truth, spec)
    fileio.write_capture(truth, args.out_truth)
    fileio.write_capture(raw, args.out_raw)
    print(f"wrote {args.out_truth} and {args.out_raw} ({args.frame_count} frames)", file=sys.stderr)
    return 0


def cmd_calibrate(args) -> int:
    config = PipelineConfig(beta_degree=args.degree, beta_joints=args.joints)
    # calibrate reads each gait as it gets to it, keeps only what it estimates from, and names its file in an error
    gaits = (fileio.read_capture(path, GaitDirection.VERTICAL) for path in args.captures)
    profile = calibrate(gaits, args.sensor_height, config, created_label=args.label)
    fileio.write_profile(profile, args.out_profile)
    print(
        f"profile: tilt {math.degrees(profile.tilt.tilt_rad):.4f} deg, "
        f"sensor height {profile.tilt.sensor_height_m:.3f} m, "
        f"{profile.gait_count} gaits -> {args.out_profile}",
        file=sys.stderr,
    )
    return 0


def cmd_apply(args) -> int:
    profile = fileio.read_profile(args.profile)
    seq = fileio.read_capture(args.input, GaitDirection(args.direction))
    raw_foot_y = _median(seq.xyz[:, _FEET, 1])
    corrected_feet = []  # of each corrected part, only its feet's heights are kept

    def parts():
        for part in _corrected_parts(seq, profile):
            corrected_feet.append(part.xyz[:, _FEET, 1])
            yield part

    fileio.write_capture(parts(), args.out)
    # correction brings a raw capture's feet to y = 0 and a corrected one's to +h_k
    if abs(raw_foot_y) < abs(_median(np.concatenate(corrected_feet))):
        print(
            f"warning: {args.input} looks already calibrated (its feet lie nearer "
            "y = 0 than after this correction); applying a profile twice re-adds "
            "the sensor height",
            file=sys.stderr,
        )
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


#: Frames per part that ``apply`` and ``diagnose`` correct. It is not the writer's
#: block: each part has a fixed cost, and 64-frame parts took ``diagnose`` 4% more CPU time.
_PART_FRAMES = 256


def _corrected_parts(seq: CaptureSequence, profile: CalibrationProfile | None) -> Iterator[CaptureSequence]:
    """``seq`` one part of ``_PART_FRAMES`` frames at a time, in order, each corrected with
    ``profile``, or raw without one: the corrected capture is never held whole."""
    for start in range(0, len(seq), _PART_FRAMES):
        part = seq[start : start + _PART_FRAMES]
        yield part if profile is None else apply_profile(part, profile)


_FEET = [JointIndex.FOOT_LEFT, JointIndex.FOOT_RIGHT]


def _median(y: np.ndarray) -> float:
    """``np.median(y)`` for an even count of finite values: the mean of the two middle ranks.

    ``np.median`` would also import ``numpy.ma`` for its NaN check. The mean
    of two values near the float64 limit is inf, without a numpy warning.
    """
    y = y.ravel()
    half = len(y) // 2
    low, high = np.partition(y, (half - 1, half))[half - 1 : half + 1]
    with np.errstate(over="ignore"):
        return float((low + high) / 2)


def cmd_diagnose(args) -> int:
    from .diagnostics import diff_to_last, edge_lengths, length_stability

    profile = None if args.profile is None else fileio.read_profile(args.profile)
    seq = fileio.read_capture(args.input, GaitDirection(args.direction))
    ydiff, bones = args.report != "bones", args.report != "ydiff"
    heights, lengths = [], []  # of each corrected part, only what the reports read is kept
    for part in _corrected_parts(seq, profile):
        if ydiff:
            heights.append(part.xyz[:, args.joints, 1])
        if bones:
            lengths.append(edge_lengths(part.xyz))
    frame_index = seq.frame_index
    del seq, part  # only the frame indices outlive the loop: a raw part, too, is a view of the raw capture

    # every report is built before any is written, so a failure leaves no partial output
    with tagged(stage="diagnostics"):
        diffs = diff_to_last(np.concatenate(heights), frame_index, args.joints) if ydiff else None
        stats = length_stability(np.concatenate(lengths, axis=1), frame_index) if bones else None
    del heights, lengths  # nor are the parts' lengths held while the reports are written
    stem = args.out.with_suffix("")
    if ydiff:
        path = Path(f"{stem}_ydiff.csv") if bones else args.out
        fileio.write_ydiff_report(frame_index, args.joints, diffs, path)
        print(f"ydiff report -> {path} (max |y - y_last| = {np.abs(diffs).max():.4f} m)", file=sys.stderr)
    if bones:
        path = Path(f"{stem}_bones.csv") if ydiff else args.out
        fileio.write_bone_report(stats, path)
        print(f"bone report -> {path} (max std = {stats[:, 1].max():.6f} m)", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CalibrationError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
