"""Exception hierarchy for capture validation, calibration, and file handling."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class CalibrationError(Exception):
    """Base class for all skelcal errors.

    ``stage`` names the calibration stage an error propagated out of, and
    ``path`` the file whose contents it came from; ``tagged`` sets both, so
    callers see where a run failed without losing the concrete exception type.
    """

    stage: str | None = None
    path: str | None = None

    def __str__(self) -> str:
        base = super().__str__()
        if self.path is not None:
            base = f"{self.path}: {base}"
        if self.stage:
            return f"[stage: {self.stage}] {base}"
        return base


@contextmanager
def tagged(*, stage: str | None = None, path: str | None = None) -> Iterator[None]:
    """Set the given ``stage`` or ``path`` on any CalibrationError raised in the block, and re-raise it."""
    try:
        yield
    except CalibrationError as exc:
        if stage is not None:
            exc.stage = stage
        if path is not None:
            exc.path = path
        raise


# -- sequence validation ----------------------------------------------------

class EmptySequenceError(CalibrationError):
    pass


class NonFiniteCoordinateError(CalibrationError):
    def __init__(self, frame_index: int, joint: int, field: str):
        super().__init__(
            f"non-finite coordinate at frame {frame_index}, joint {joint}, field {field}"
        )
        self.frame_index = frame_index
        self.joint = joint
        self.field = field


class NonMonotonicFrameIndexError(CalibrationError):
    pass


class TooFewFramesError(CalibrationError, ValueError):
    """A capture too short for a measure; a ValueError too, for callers that catch that."""


# -- numerics ----------------------------------------------------------------

class EmptyInputError(CalibrationError):
    pass


class NonPositiveValueError(CalibrationError):
    pass


class InsufficientPointsError(CalibrationError):
    pass


class DegenerateSystemError(CalibrationError):
    pass


# -- tilt estimation ---------------------------------------------------------

class NoUsableFramesError(CalibrationError):
    pass


class MixedSignAnglesError(CalibrationError):
    pass


class ZeroAngleError(CalibrationError):
    pass


# -- perspective estimation --------------------------------------------------

class WrongDirectionError(CalibrationError):
    pass


class BetaOutOfRangeError(CalibrationError):
    pass


class NoUsableGaitsError(CalibrationError):
    def __init__(self, joint: int):
        super().__init__(f"no gait provides usable depth travel for joint {joint}")
        self.joint = joint


# -- diagnostics -------------------------------------------------------------

class MeasureOverflowError(CalibrationError):
    """A diagnostic measure of finite coordinates that is beyond float64's range."""


# -- synthetic generation ----------------------------------------------------

class InvalidScenarioError(CalibrationError):
    pass


class FixedPointDivergenceError(CalibrationError):
    pass


# -- file I/O ----------------------------------------------------------------

class ParseError(CalibrationError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MissingJointError(CalibrationError):
    def __init__(self, frame_index: int, joint: int):
        super().__init__(f"frame {frame_index} is missing joint {joint}")
        self.frame_index = frame_index
        self.joint = joint


class IoFailureError(CalibrationError):
    pass


class SchemaError(CalibrationError):
    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field
