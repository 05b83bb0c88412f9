"""skelcal: calibration and correction of depth-sensor skeleton captures.

The public names below are loaded lazily (PEP 562): ``import skelcal`` runs
no submodule, and so no numpy, until a name is first read.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "CalibrationError": "errors",
    "CaptureSequence": "skeleton",
    "GaitDirection": "skeleton",
    "JOINT_COUNT": "skeleton",
    "JointIndex": "skeleton",
    "Point3": "skeleton",
    "SKELETON_EDGES": "skeleton",
    "SkeletonEdge": "skeleton",
    "SkeletonFrame": "skeleton",
    "validate_sequence": "skeleton",
    "Polynomial": "numerics",
    "arithmetic_mean": "numerics",
    "geometric_mean": "numerics",
    "polyeval": "numerics",
    "polyfit_least_squares": "numerics",
    "GaitInclination": "tilt",
    "TiltModel": "tilt",
    "TiltParams": "tilt",
    "aggregate_inclination": "tilt",
    "distort_tilt": "tilt",
    "estimate_tilt": "tilt",
    "frame_inclination": "tilt",
    "gait_inclination": "tilt",
    "tilt_correct_point": "tilt",
    "tilt_correct_sequence": "tilt",
    "BetaModel": "perspective",
    "BetaPoint": "perspective",
    "beta_points": "perspective",
    "DEFAULT_BETA_JOINTS": "perspective",
    "distort_perspective": "perspective",
    "fit_beta_model": "perspective",
    "joint_perspective_degree": "perspective",
    "mean_perspective_degrees": "perspective",
    "perspective_correct_point": "perspective",
    "perspective_correct_sequence": "perspective",
    "CalibrationProfile": "pipeline",
    "PipelineConfig": "pipeline",
    "apply_profile": "pipeline",
    "calibrate": "pipeline",
    "BodyTemplate": "synthetic",
    "DistortionSpec": "synthetic",
    "add_noise": "synthetic",
    "apply_distortion": "synthetic",
    "default_template": "synthetic",
    "generate_truth_capture": "synthetic",
    "DiffSeries": "diagnostics",
    "EdgeStability": "diagnostics",
    "StabilityReport": "diagnostics",
    "bone_length_stability": "diagnostics",
    "bone_lengths": "diagnostics",
    "max_y_diff": "diagnostics",
    "y_diff_to_last": "diagnostics",
    "read_capture": "fileio",
    "read_profile": "fileio",
    "write_capture": "fileio",
    "write_profile": "fileio",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
