"""Closed-form stationary (localized) probability profile of the walk.

As t grows, the probability of finding the walker at any fixed site
converges to a time-independent value carried entirely by the eigenvalue-1
subspace of the evolution. Site amplitudes of that subspace are linear
combinations of a two-sided geometric sequence with negative ratio
c = -5 + 2 sqrt(6), so every limit value here is exact arithmetic, no
quadrature involved. The profile sums to less than 1: the missing weight
escapes ballistically and belongs to the continuous part of the weak limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import Distribution, QubitState

__all__ = [
    "GEOMETRIC_RATIO",
    "GeometricKernel",
    "kernel",
    "limit_amplitude",
    "limit_component",
    "limit_probability",
    "total_mass",
    "stationary_profile",
]

#: Contraction ratio of the localized amplitudes. Kept as an expression in
#: sqrt(6) so identities like ratio^2 + 10 ratio + 1 = 0 hold to full precision.
GEOMETRIC_RATIO = -5.0 + 2.0 * math.sqrt(6.0)


def _clamp_probability(p: float) -> float:
    # Squared moduli can come out as tiny negatives after cancellation;
    # anything above -1e-15 is rounding noise on an exact zero.
    if -1e-15 < p < 0.0:
        return 0.0
    return p


def _sequence_value(n: int) -> float:
    """The base geometric sequence value at site n: 2 c^(|n|+1) / (c^2 - 1)."""
    c = GEOMETRIC_RATIO
    return 2.0 * c ** (abs(n) + 1) / (c * c - 1.0)


@dataclass(frozen=True)
class GeometricKernel:
    """Geometric-sequence weights entering the localized amplitudes at one site.

    ``value`` is the base sequence at the site itself, ``value_next`` and
    ``value_prev`` the same sequence one site to the right and left. The
    derived sums below are the exact weight combinations multiplying the
    initial-state components in the three chirality amplitudes.
    """

    site: int
    ratio: float
    value: float
    value_next: float
    value_prev: float

    @property
    def sum_next(self) -> float:
        """value + value_next (weights the stayer in the left-mover amplitude)."""
        return self.value + self.value_next

    @property
    def sum_prev(self) -> float:
        """value_prev + value (weights the stayer in the right-mover amplitude)."""
        return self.value_prev + self.value

    @property
    def window(self) -> float:
        """value_prev + 2 value + value_next (weights the stayer amplitude)."""
        return self.value_prev + 2.0 * self.value + self.value_next


def kernel(n: int) -> GeometricKernel:
    """Exact geometric weights at site ``n``."""
    return GeometricKernel(
        site=n,
        ratio=GEOMETRIC_RATIO,
        value=_sequence_value(n),
        value_next=_sequence_value(n + 1),
        value_prev=_sequence_value(n - 1),
    )


def limit_amplitude(n: int, l: int, q: QubitState) -> complex:
    """Stationary amplitude at site ``n`` for chirality ``l`` in {1, 2, 3}.

    These are the closed forms whose squared moduli are the limit
    probabilities; they equal the stationary-branch quadrature integral
    exactly (up to quadrature error on the integral side).
    """
    ker = kernel(n)
    a, b, g = q.alpha, q.beta, q.gamma
    if l == 1:
        return 2.0 * a * ker.value + b * ker.sum_next + 2.0 * g * ker.value_next
    if l == 2:
        return a * ker.sum_prev + 0.5 * b * ker.window + g * ker.sum_next
    if l == 3:
        return 2.0 * a * ker.value_prev + b * ker.sum_prev + 2.0 * g * ker.value
    raise ValueError("chirality index must be 1, 2, or 3")


def limit_component(n: int, l: int, q: QubitState) -> float:
    """Limit probability at site ``n`` restricted to chirality ``l``."""
    return _clamp_probability(abs(limit_amplitude(n, l, q)) ** 2)


def limit_probability(n: int, q: QubitState) -> float:
    """Limit probability at site ``n``, summed over the three chiralities."""
    return sum(limit_component(n, l, q) for l in (1, 2, 3))


def total_mass(q: QubitState) -> float:
    """Total localized probability, summed in closed form over all sites.

    Every stationary amplitude scales by exactly the geometric ratio per
    unit distance beyond |n| = 1, so the two tails are geometric series in
    ratio^2 and the full sum reduces to the three central sites plus an
    exact tail factor.
    """
    c = GEOMETRIC_RATIO
    center = limit_probability(0, q)
    right = limit_probability(1, q)
    left = limit_probability(-1, q)
    return center + (left + right) / (1.0 - c * c)


def stationary_profile(q: QubitState, window: int) -> Distribution:
    """Limit probabilities per chirality for all sites with |n| <= window.

    The all-site total of the profile is ``total_mass(q)``.
    """
    if window < 1:
        raise ValueError("window must be a positive site count")
    sites = range(-window, window + 1)
    table = np.array([[limit_component(n, l, q) for l in (1, 2, 3)] for n in sites])
    return Distribution(first_site=-window, probabilities=table)
