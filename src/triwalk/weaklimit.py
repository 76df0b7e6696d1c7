"""Weak limit of the rescaled walk position and its empirical verification.

Rescaled by time, the walker's position converges in distribution to a
mixture: a point mass of weight 1/3 at the origin (the trapped fraction)
plus a continuous density supported on (-1/sqrt 3, 1/sqrt 3) with
inverse-square-root blowups at the edges. The two-state Hadamard walk
density is included for comparison; it has no point mass and a wider
support edge at 1/sqrt 2.

Empirical checks build the distribution of X_t / t under the uniform
mixture of the three pure chirality initial states and compare its CDF
against the limit CDF in the Kolmogorov (sup) metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stationary, walk
from .walk import QubitState

__all__ = [
    "SUPPORT_EDGE",
    "HADAMARD_EDGE",
    "EmpiricalRescaled",
    "density",
    "continuous_mass",
    "hadamard_density",
    "hadamard_mass",
    "localization_mass",
    "limit_cdf",
    "empirical_rescaled",
    "cdf_distance",
]

#: Edge of the continuous support of the three-state limit density.
SUPPORT_EDGE = 1.0 / math.sqrt(3.0)

#: Edge of the Hadamard-walk comparison density.
HADAMARD_EDGE = 1.0 / math.sqrt(2.0)

#: Weight of the point mass at the origin.
POINT_MASS = 1.0 / 3.0


def density(x: float) -> float:
    """Continuous part of the limit density at ``x``.

    The point mass at 0 is never folded into this value; it is reported
    separately by ``localization_mass``.

    Raises
    ------
    ValueError
        If ``x`` lies outside [-1, 1] (the rescaled position cannot).
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError("rescaled position must lie in [-1, 1]")
    if abs(x) >= SUPPORT_EDGE:
        return 0.0
    return math.sqrt(8.0) / (3.0 * math.pi * (1.0 - x * x) * math.sqrt(1.0 - 3.0 * x * x))


def continuous_mass(lower: float = -SUPPORT_EDGE, upper: float = SUPPORT_EDGE) -> float:
    """Integral of the continuous density over [lower, upper].

    The difference of the closed-form antiderivative used by ``limit_cdf``,
    which clips bounds outside the support to it. An empty or reversed
    interval has mass 0.
    """
    if lower >= upper:
        return 0.0
    return _continuous_cdf(upper) - _continuous_cdf(lower)


def hadamard_density(x: float) -> float:
    """Limit density of the rescaled two-state Hadamard walk (no point mass)."""
    if not -1.0 <= x <= 1.0:
        raise ValueError("rescaled position must lie in [-1, 1]")
    if abs(x) >= HADAMARD_EDGE:
        return 0.0
    return 1.0 / (math.pi * (1.0 - x * x) * math.sqrt(1.0 - 2.0 * x * x))


def _hadamard_cdf(x: float) -> float:
    """Antiderivative (1 / pi) arctan(x / sqrt(1 - 2 x^2)), clipped to +-1/2.

    The clip comes first: at x = HADAMARD_EDGE, 1 - 2 x^2 rounds to 2.2e-16
    instead of 0 and the arctan falls short of pi/2 by about 2e-8.
    """
    if abs(x) >= HADAMARD_EDGE:
        return math.copysign(0.5, x)
    if math.isnan(x):
        raise ValueError("rescaled position is NaN")
    return math.atan(x / math.sqrt(1.0 - 2.0 * x * x)) / math.pi


def hadamard_mass(lower: float = -HADAMARD_EDGE, upper: float = HADAMARD_EDGE) -> float:
    """Integral of the Hadamard comparison density over [lower, upper].

    The difference of the closed-form antiderivative ``_hadamard_cdf``,
    which clips bounds outside the support to it. An empty or reversed
    interval has mass 0.
    """
    if lower >= upper:
        return 0.0
    return _hadamard_cdf(upper) - _hadamard_cdf(lower)


def localization_mass() -> float:
    """Weight of the point mass at 0: the mean localized mass of the three pure states."""
    total = sum(
        stationary.total_mass(QubitState(*components))
        for components in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    return total / 3.0


def _continuous_cdf(x: float) -> float:
    """Mass of the continuous density on (-inf, x]: 0 below the support, 2/3 above.

    Closed form (2 / 3 pi) arctan(sqrt(2) x / sqrt(1 - 3 x^2)) + 1/3 inside
    the support; differentiating recovers the density.
    """
    if x <= -SUPPORT_EDGE:
        return 0.0
    if x >= SUPPORT_EDGE:
        return 2.0 * POINT_MASS
    if math.isnan(x):
        raise ValueError("rescaled position is NaN")
    inner = 1.0 - 3.0 * x * x
    if inner <= 0.0:
        return POINT_MASS + math.copysign(POINT_MASS, x)
    return POINT_MASS + (2.0 / (3.0 * math.pi)) * math.atan(
        math.sqrt(2.0) * x / math.sqrt(inner)
    )


def limit_cdf(x: float) -> float:
    """CDF of the limit distribution, point mass included as a jump at 0.

    The continuous part is ``_continuous_cdf`` and the jump adds 1/3 for
    x >= 0.
    """
    return _continuous_cdf(x) + (POINT_MASS if x >= 0.0 else 0.0)


@dataclass(frozen=True)
class EmpiricalRescaled:
    """Distribution of X_t / t under the uniform mixture of pure initial states."""

    time: int
    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        positions = np.array(self.positions, dtype=float)
        masses = np.array(self.masses, dtype=float)
        if positions.shape != masses.shape or positions.ndim != 1:
            raise ValueError("positions and masses must be matching 1-d arrays")
        if np.any(np.diff(positions) <= 0.0):
            raise ValueError("positions must be strictly increasing")
        # Each pure state's total drifts by at most walk.STEP_ROUNDOFF per step
        # from an exact start, so the mixture's does too.
        if not abs(float(masses.sum()) - 1.0) <= (self.time + 1) * walk.STEP_ROUNDOFF:
            raise ValueError("atom masses must sum to 1")
        if positions.size and (positions[0] < -1.0 or positions[-1] > 1.0):
            raise ValueError("rescaled support must lie within [-1, 1]")
        for a in (positions, masses):
            a.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "masses", masses)


def empirical_rescaled(t: int) -> EmpiricalRescaled:
    """Evolve the three pure states for ``t`` steps and rescale the mixture.

    The mixture is the plain average of the three independent evolutions
    (equivalent to evolving the mixed density operator, and cheaper). Sound
    for any t >= 1; the weak-limit comparison is meaningful from t of order
    a few hundred.
    """
    if t < 1:
        raise ValueError("step count must be at least 1")
    # Row i of one real buffer holds the pure state i, at the origin in column
    # t + 1; each state's sum comes first, as in three separate evolutions.
    parts = np.zeros((3, 3, 2 * t + 3))
    parts[:, :, t + 1] = np.eye(3)
    mixture = (walk._evolve(parts, t, cycle=False, states=3) ** 2).sum(axis=1).sum(axis=0) / 3.0
    positions = np.arange(-t, t + 1, dtype=float) / t
    return EmpiricalRescaled(time=t, positions=positions, masses=mixture)


def cdf_distance(e: EmpiricalRescaled) -> float:
    """Kolmogorov distance between the empirical CDF and the limit CDF.

    The empirical CDF is a step function and the limit CDF is continuous
    except for one jump at 0, so the supremum is attained at an atom
    location (from the left or the right) or at the jump point; all those
    candidates are evaluated explicitly.
    """
    limit_right = np.array([limit_cdf(x) for x in e.positions])
    limit_left = limit_right - np.where(e.positions == 0.0, POINT_MASS, 0.0)
    empirical_right = np.cumsum(e.masses)
    empirical_left = empirical_right - e.masses
    gap = max(
        float(np.max(np.abs(empirical_right - limit_right))),
        float(np.max(np.abs(empirical_left - limit_left))),
    )
    # The jump point, in case 0 is not among the atoms.
    below = float(e.masses[e.positions < 0.0].sum())
    at = float(e.masses[e.positions <= 0.0].sum())
    gap = max(gap, abs(below - POINT_MASS), abs(at - 2.0 * POINT_MASS))
    return gap
