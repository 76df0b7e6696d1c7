"""Weak limit of the rescaled walk position and its empirical verification.

Rescaled by time, the walker's position converges in distribution to a
mixture: a point mass of weight 1/3 at the origin (the trapped fraction)
plus 2/3 spread by the arcsine-type density 2 sqrt(2) / (3 pi (1 - x^2)
sqrt(1 - 3 x^2)) on |x| < 1/sqrt(3).

Empirical checks build the distribution of X_t / t under the uniform
mixture of the three pure chirality initial states and compare its CDF
against the limit CDF in the Kolmogorov (sup) metric.

``EmpiricalRescaled`` is a frozen slotted record, built by its own
constructor, which checks the table and stores read-only copies.
"""

from __future__ import annotations

import math

import numpy as np

from . import stationary, walk
from .walk import QubitState, _count, _Record

__all__ = [
    "SUPPORT_EDGE",
    "EmpiricalRescaled",
    "density",
    "continuous_mass",
    "localization_mass",
    "limit_cdf",
    "empirical_rescaled",
    "cdf_distance",
]

#: Edge of the continuous support of the limit density.
SUPPORT_EDGE = 1.0 / math.sqrt(3.0)

#: Weight of the point mass at the origin.
POINT_MASS = 1.0 / 3.0

#: Weight of the continuous part.
_CONTINUOUS = 2.0 * POINT_MASS


def density(x: float) -> float:
    """Continuous part of the limit density at ``x``; 0 off |x| < ``SUPPORT_EDGE``.

    The point mass at 0 is never folded into this value; it is reported
    separately by ``localization_mass``. Raises ``ValueError`` if ``x`` lies
    outside [-1, 1] (the rescaled position cannot).
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError("rescaled position must lie in [-1, 1]")
    if abs(x) >= SUPPORT_EDGE:
        return 0.0
    return _CONTINUOUS * math.sqrt(2.0) / (math.pi * (1.0 - x * x) * math.sqrt(1.0 - 3.0 * x * x))


def _continuous_cdf(x: float | np.ndarray) -> np.ndarray:
    """Mass of ``density`` on (-inf, x]: 0 below the support, 2/3 above.

    Closed form (2/3) (1/2 + arctan(sqrt(2) x / sqrt(1 - 3 x^2)) / pi) inside
    the support; differentiating recovers the density. The clip comes first:
    at the edge, 1 - 3 x^2 rounds to about 1e-16 instead of 0 and the arctan
    falls short of pi/2 by about 2e-8. Strictly inside, it stays positive. A
    float gives a 0-d array, an array the same values bit for bit:
    ``math.atan`` per point, as ``np.arctan`` is 1 ulp off at some.
    """
    a = np.asarray(x, dtype=float)
    if np.isnan(a).any():
        raise ValueError("rescaled position is NaN")
    inside, cdf = abs(a) < SUPPORT_EDGE, np.where(a >= SUPPORT_EDGE, _CONTINUOUS, 0.0)
    y = a[inside]
    atan = [math.atan(s) for s in (math.sqrt(2.0) * y / np.sqrt(1.0 - 3.0 * y * y)).tolist()]
    cdf[inside] = 0.5 * _CONTINUOUS + _CONTINUOUS * (1.0 / math.pi) * np.array(atan)
    return cdf


def continuous_mass(lower: float = -SUPPORT_EDGE, upper: float = SUPPORT_EDGE) -> float:
    """Continuous mass on [lower, upper], clipped to the support; 0 if empty or reversed."""
    if lower >= upper:
        return 0.0
    return float(_continuous_cdf(upper) - _continuous_cdf(lower))


def localization_mass() -> float:
    """Weight of the point mass at 0: the mean localized mass of the three pure states.

    The masses are added left to right; the builtin ``sum`` of floats is
    compensated from Python 3.12.
    """
    left, zero, right = (
        stationary.total_mass(QubitState(*components))
        for components in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    return (left + zero + right) / 3.0


def limit_cdf(x: float | np.ndarray) -> float | np.ndarray:
    """CDF of the limit distribution, point mass included as a jump at 0.

    The continuous part has total mass 2/3, and the jump adds 1/3 for
    x >= 0. A float gives a float, an array an array of the same values.
    """
    cdf = _continuous_cdf(x) + np.where(np.asarray(x) >= 0.0, POINT_MASS, 0.0)
    return cdf if cdf.ndim else float(cdf)


class EmpiricalRescaled(_Record):
    """Distribution of X_t / t under the uniform mixture of pure initial states."""

    __slots__ = ("time", "positions", "masses")

    def __init__(self, time: int, positions: np.ndarray, masses: np.ndarray) -> None:
        time = _count(time, 1)
        positions = np.array(positions, dtype=float)
        masses = np.array(masses, dtype=float)
        if positions.shape != masses.shape or positions.ndim != 1:
            raise ValueError("positions and masses must be matching 1-d arrays")
        if not np.all(np.diff(positions) > 0.0):  # NaN fails too
            raise ValueError("positions must be strictly increasing")
        # Each pure state's total drifts by at most walk.STEP_ROUNDOFF per step
        # from an exact start, so the mixture's does too. NaN and inf fail the
        # sum; an empty table fails it before min, which has nothing to reduce.
        try:
            bound = (time + 1) * walk.STEP_ROUNDOFF
        except OverflowError:  # time + 1 beyond float range: every finite total is within the bound
            bound = np.finfo(float).max
        if not (abs(float(masses.sum()) - 1.0) <= bound and masses.min() >= 0.0):
            raise ValueError("atom masses must be non-negative and sum to 1")
        if not (-1.0 <= positions[0] and positions[-1] <= 1.0):  # NaN fails too
            raise ValueError("rescaled support must lie within [-1, 1]")
        for a in (positions, masses):
            a.setflags(write=False)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "masses", masses)


def empirical_rescaled(t: int) -> EmpiricalRescaled:
    """Evolve the three pure states for ``t`` steps and rescale the mixture.

    The mixture is the plain average of the three independent evolutions
    (equivalent to evolving the mixed density operator, and cheaper). Sound
    for any t >= 1; the weak-limit comparison is meaningful from t of order
    a few hundred.
    """
    t = _count(t, 1)
    # Row i of the evolved buffer holds the pure state i; each state's sum comes
    # first, as in three separate evolutions.
    mixture = (walk._evolve(np.eye(3), 2 * t + 1, t, "line state") ** 2).sum(axis=1).sum(axis=0) / 3.0
    positions = np.arange(-t, t + 1, dtype=float) / t
    return EmpiricalRescaled(time=t, positions=positions, masses=mixture)


def cdf_distance(e: EmpiricalRescaled) -> float:
    """Kolmogorov distance between the empirical CDF and the limit CDF.

    The empirical CDF is a step function and the limit CDF is continuous
    except for one jump at 0, so the supremum is attained at an atom
    location (from the left or the right) or at the jump point; all those
    candidates are evaluated explicitly.
    """
    limit_right = limit_cdf(e.positions)
    limit_left = limit_right - np.where(e.positions == 0.0, POINT_MASS, 0.0)
    empirical_right = np.cumsum(e.masses)
    empirical_left = empirical_right - e.masses
    gap = float(max(np.abs(empirical_right - limit_right).max(), np.abs(empirical_left - limit_left).max()))
    # The jump point, in case 0 is not among the atoms.
    below = float(e.masses[e.positions < 0.0].sum())
    at = float(e.masses[e.positions <= 0.0].sum())
    return max(gap, abs(below - POINT_MASS), abs(at - 2.0 * POINT_MASS))
