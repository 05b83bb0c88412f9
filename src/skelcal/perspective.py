"""Height-dependent perspective estimation, the Y-coordinate correction and its inverse.

As a subject approaches the sensor, each joint's apparent Y drifts by an
amount proportional to depth; the drift angle depends on the joint's height.
Its tangent is estimated as one polynomial in Y from every frame of the
tilt-corrected walks toward the sensor, in one robust solve; it is read at
each joint's height and fitted as a polynomial in height. Correction adds
z * tan(angle) back to each Y, with the angle read from the polynomial at
the point's incoming Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BetaOutOfRangeError,
    DegenerateSystemError,
    FixedPointDivergenceError,
    MeasureOverflowError,
    WrongDirectionError,
)
from .numerics import Polynomial, polyeval, polyfit_least_squares
from .skeleton import CaptureSequence, GaitDirection, JointIndex

#: Huber's tuning constant (Huber 1964, Ann. Math. Stat. 35:73): a residual beyond it, in scales, weighs less.
HUBER_K = 1.345
#: Median |x| of a standard normal: a median absolute residual over it estimates the noise's SD.
MAD_PER_SD = 0.6745
#: Huber-weighted solves after the first, unweighted one.
HUBER_PASSES = 3
#: Largest |angle| a BetaPoint or a correction accepts: tan grows without bound toward pi/2.
MAX_ABS_BETA_RAD = math.pi / 2 - 1e-6
#: Iteration cap and convergence step of distort_perspective's fixed-point solve.
FIXED_POINT_ITERATIONS = 50
FIXED_POINT_TOLERANCE = 1e-10

#: Default joint subset for estimation: torso chain, head, knees, ankles —
#: stable landmarks spanning the body's height top to bottom.
DEFAULT_BETA_JOINTS: tuple[JointIndex, ...] = (
    JointIndex.HEAD,
    JointIndex.NECK,
    JointIndex.SPINE_SHOULDER,
    JointIndex.SPINE_MID,
    JointIndex.SPINE_BASE,
    JointIndex.KNEE_LEFT,
    JointIndex.KNEE_RIGHT,
    JointIndex.ANKLE_LEFT,
    JointIndex.ANKLE_RIGHT,
)


@dataclass(frozen=True)
class BetaPoint:
    """Mean perspective angle of one joint at its representative height; |angle| < MAX_ABS_BETA_RAD."""

    joint: JointIndex
    height_y_m: float
    beta_rad: float

    def __post_init__(self):
        object.__setattr__(self, "joint", JointIndex(self.joint))  # a ValueError outside 0-24
        if not math.isfinite(self.height_y_m):
            raise ValueError(f"height must be finite: {self.height_y_m}")
        if not abs(self.beta_rad) < MAX_ABS_BETA_RAD:
            raise BetaOutOfRangeError(f"perspective angle out of range: {self.beta_rad}")


@dataclass(frozen=True)
class BetaModel:
    """Fitted polynomial mapping height (m) to perspective angle (rad)."""

    poly: Polynomial
    fit_degree: int
    source_points: tuple[BetaPoint, ...]

    def __post_init__(self):
        if not isinstance(self.source_points, tuple):
            object.__setattr__(self, "source_points", tuple(self.source_points))
        if self.fit_degree != self.poly.degree:
            raise ValueError(
                f"fit_degree {self.fit_degree} != polynomial degree {self.poly.degree}"
            )
        if len(self.source_points) <= self.fit_degree:
            raise ValueError("need more source points than the fit degree")


def mean_perspective_degrees(
    seqs: Sequence[CaptureSequence],
    joints: Sequence[JointIndex | int] = DEFAULT_BETA_JOINTS,
    degree: int = 2,
) -> list[BetaPoint]:
    """Per-joint perspective angles from the vertical calibration gaits:
    ``beta_points`` of the vertical gaits' ``xyz[:, joints]``."""
    joints = [JointIndex(j) for j in joints]
    return beta_points([s.xyz[:, joints] for s in seqs if s.direction is GaitDirection.VERTICAL], joints, degree)


def beta_points(slices: Sequence[np.ndarray], joints: Sequence[JointIndex], degree: int) -> list[BetaPoint]:
    """Per-joint perspective angles from tilt-corrected vertical gaits' slices ``xyz[:, joints]``.

    Every frame of every slice enters one solve of y = c_gj - z*t(y): t = tan(angle) is a polynomial of
    ``degree`` in y, and c_gj one height per gait g and joint j, removed by weighted centring within its
    gait and joint. The first solve weighs every point alike; HUBER_PASSES more take Huber weights at a
    scale of the median over gaits of each gait's median |residual|, over MAD_PER_SD (a scale of 0 keeps
    unit weights). A joint's point lies at its mean c_gj, with the angle atan(t) there. Points come back
    ordered top to bottom by height.

    No slice at all raises WrongDirectionError: no gait is vertical. Too little depth travel to determine
    t raises DegenerateSystemError, a sum beyond float64's range MeasureOverflowError, and an angle no
    correction accepts BetaOutOfRangeError.
    """
    if not slices:
        raise WrongDirectionError("no vertical gait among the calibration sequences")
    with np.errstate(all="ignore"):  # an overflow leaves inf or NaN, which the checks refuse
        t, heights = _solve(slices, degree)
        for _ in range(HUBER_PASSES):
            scale = _median([_median(np.abs(_residuals(s[..., 1], s[..., 2], t, c))) for s, c in zip(slices, heights)])
            if not math.isfinite(scale):
                raise MeasureOverflowError("a perspective residual overflows float64")
            t, heights = _solve(slices, degree, t, heights, HUBER_K * (scale / MAD_PER_SD))
        height = np.mean(heights, axis=0)
        if not np.isfinite(height).all():
            raise MeasureOverflowError("a joint's mean height overflows float64")
        beta = np.arctan(polyeval(t, height))
    return sorted(map(BetaPoint, joints, height.tolist(), beta.tolist()), key=lambda p: (-p.height_y_m, int(p.joint)))


def _residuals(y: np.ndarray, z: np.ndarray, t: Polynomial, c: np.ndarray) -> np.ndarray:
    """y + z*t(y) - c, elementwise: what the model y = c - z*t(y) leaves of each point."""
    return y + z * polyeval(t, y) - c


def _median(values) -> float:
    """np.median of ``values``, by np.partition: np.median imports numpy.ma."""
    values = np.ravel(values)
    middle = [(len(values) - 1) // 2, len(values) // 2]
    return float(np.partition(values, middle)[middle].mean())


def _solve(
    slices: Sequence[np.ndarray],
    degree: int,
    t: Polynomial | None = None,
    heights: list[np.ndarray] | None = None,
    bound: float = 0.0,
) -> tuple[Polynomial, list[np.ndarray]]:
    """One solve for t's coefficients, summed one gait at a time; returns t and each gait's heights c_gj.

    With ``bound`` 0 every point weighs 1. Otherwise a point whose residual under the previous ``t`` and
    ``heights`` exceeds ``bound`` weighs ``bound`` over that residual.
    """
    normal, rhs, means = np.zeros((degree + 1, degree + 1)), np.zeros(degree + 1), []
    for k, xyz in enumerate(slices):
        # y, then z*y**d for d = 0 .. degree, in C order whatever the slice's layout: every sum adds in one order
        data = np.empty((degree + 2, *xyz.shape[:2]))
        data[0], data[1] = xyz[..., 1], xyz[..., 2]
        for d in range(1, degree + 1):
            np.multiply(data[d], data[0], out=data[d + 1])
        if bound:
            w = bound / np.maximum(np.abs(_residuals(data[0], data[1], t, heights[k])), bound)
        else:
            w = np.ones(data[0].shape)
        # centred about each joint's first frame, then its weighted mean: a constant centres to exactly 0
        first = data[:, 0].copy()
        data -= first[:, None]
        mean = (data * w).sum(axis=1) / w.sum(axis=0)
        data -= mean[:, None]
        weighted = data[1:] * w
        normal += np.tensordot(weighted, data[1:], ((1, 2), (1, 2)))
        rhs -= np.tensordot(weighted, data[0], 2)
        means.append(first + mean)
    if not (np.isfinite(normal).all() and np.isfinite(rhs).all()):  # LAPACK would print its refusal to fd 1
        raise MeasureOverflowError("the perspective system overflows float64")
    size = np.sqrt(normal.diagonal())  # each column scaled to 1; one with no depth travel anywhere stays 0
    outer = np.outer(size, size)
    scaled = np.divide(normal, outer, out=np.zeros_like(normal), where=outer > 0)
    rank = np.linalg.matrix_rank(scaled)
    if rank < degree + 1:
        raise DegenerateSystemError(
            f"too little depth travel to fit a degree-{degree} perspective angle: rank {rank} < {degree + 1}"
        )
    coefficients = np.linalg.solve(scaled, rhs / size) / size
    if not np.isfinite(coefficients).all():
        raise MeasureOverflowError("the perspective angle's coefficients overflow float64")
    return Polynomial(tuple(coefficients.tolist())), [m[0] + coefficients @ m[1:] for m in means]


def fit_beta_model(points: Sequence[BetaPoint], degree: int) -> BetaModel:
    """Fit the height -> perspective angle polynomial over the given points."""
    fit = polyfit_least_squares([p.height_y_m for p in points], [p.beta_rad for p in points], degree)
    return BetaModel(fit, degree, tuple(points))


def _check_angles(beta: np.ndarray, y: np.ndarray, z: np.ndarray) -> None:
    """Raise BetaOutOfRangeError at the first angle that no correction accepts."""
    # the extremes skip NaN and build no array the size of beta
    highest = np.fmax.reduce(beta, None, initial=-np.inf)
    lowest = np.fmin.reduce(beta, None, initial=np.inf)
    if highest >= MAX_ABS_BETA_RAD or lowest <= -MAX_ABS_BETA_RAD:
        k = np.flatnonzero(np.abs(beta) >= MAX_ABS_BETA_RAD)[0]
        raise BetaOutOfRangeError(
            f"angle {beta.flat[k]} rad too close to pi/2 at y={y.flat[k]}, z={z.flat[k]}"
        )


def perspective_correct_xyz(xyz: np.ndarray, model: BetaModel) -> np.ndarray:
    """y += z * tan(the model's angle at y) for every ``(x, y, z)`` of ``xyz``, in place; returns ``xyz``.

    Raises before ``xyz`` is written if any angle is out of range.
    """
    y, z = xyz[..., 1], xyz[..., 2]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves inf or NaN, which validation reports
        beta = polyeval(model.poly, y)
        _check_angles(beta, y, z)
        # y + z * tan(beta), with tan(beta) and its product with z computed in place
        shift = np.tan(beta, out=beta)
        shift *= z
        y += shift
    return xyz


def perspective_correct_sequence(seq: CaptureSequence, model: BetaModel) -> CaptureSequence:
    """perspective_correct_xyz applied to a copy of every joint of every frame."""
    return seq.with_xyz(perspective_correct_xyz(seq.xyz.copy(), model))


# math.tan per element: np.tan may differ in the last bit, and generated captures are pinned by SHA-256
_tan = np.vectorize(math.tan, otypes=[float])


def distort_perspective(seq: CaptureSequence, beta_poly: Polynomial) -> CaptureSequence:
    """Simulate height-dependent perspective drift of Y.

    Solves y_raw = y_true - z*tan(beta(y_raw)) per point by fixed-point
    iteration, sampling the angle at the *raw* height so the perspective
    correction with the same polynomial inverts this exactly. A point keeps
    the first iterate within FIXED_POINT_TOLERANCE of the one before it, and
    an angle that no correction accepts raises BetaOutOfRangeError.
    """
    x, y, z = seq.xyz[..., 0], seq.xyz[..., 1], seq.xyz[..., 2]
    y_raw = y
    pending = np.ones(y.shape, dtype=bool)
    # a runaway iterate may overflow, silently as it does in Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(FIXED_POINT_ITERATIONS):
            beta = polyeval(beta_poly, y_raw)
            beta[np.isinf(beta)] = np.nan  # a NaN never converges; math.tan raises a ValueError on inf
            y_next = y - z * _tan(beta)
            converged = np.abs(y_next - y_raw) < FIXED_POINT_TOLERANCE
            y_raw = np.where(pending, y_next, y_raw)
            pending &= ~converged
            if not pending.any():
                break
        else:
            k = np.flatnonzero(pending)[0]
            raise FixedPointDivergenceError(
                f"no convergence after {FIXED_POINT_ITERATIONS} iterations at y={y.flat[k]}, z={z.flat[k]}"
            )
        beta = polyeval(beta_poly, y_raw)
    _check_angles(beta, y, z)
    return seq.with_xyz(np.stack((x, y_raw, z), axis=-1))
