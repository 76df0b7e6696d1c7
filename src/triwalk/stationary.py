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
import operator

import numpy as np

from .walk import Distribution, QubitState, _chirality, _count, _own, _totals

__all__ = [
    "GEOMETRIC_RATIO",
    "limit_amplitude",
    "limit_component",
    "limit_probability",
    "total_mass",
    "stationary_profile",
]

#: Contraction ratio of the localized amplitudes. Kept as an expression in
#: sqrt(6) so identities like ratio^2 + 10 ratio + 1 = 0 hold to full precision.
GEOMETRIC_RATIO = -5.0 + 2.0 * math.sqrt(6.0)

# The core half-width: beyond it no normalized state's amplitude reaches 2^-538, whose square is
# under half the least subnormal and rounds to +0.0. For |n| >= 1, amp(n) weighs s(n - 1), s(n) and
# s(n + 1), |s(m)| = 2 |c|^(|m| + 1) / (1 - c^2), by moduli summing to at most 6: |amp(n)| <= 12.12
# |c|^|n|, 2^-538.8 at |n| = 164, room for a norm off by NORM_TOLERANCE. (1, 0, 0) reaches 2^-538 at 163.
_CORE_HALF_WIDTH = math.floor((538 + math.log2(12.0 / (1.0 - GEOMETRIC_RATIO**2))) / -math.log2(-GEOMETRIC_RATIO))


def _sequence_value(n: int) -> float:
    """The base geometric sequence value at site n: 2 c^(|n|+1) / (c^2 - 1)."""
    c = GEOMETRIC_RATIO
    return 2.0 * c ** (abs(n) + 1) / (c * c - 1.0)


def _limit_amplitudes(n: int | np.ndarray, q: QubitState) -> tuple:
    """The amplitudes of ``limit_amplitude`` for l = 1, 2, 3 at an int site or an int64 array."""
    here, right, left = (_sequence_value(n + d) for d in (0, 1, -1))
    a, b, g = q.alpha, q.beta, q.gamma
    return (
        2.0 * a * here + b * (here + right) + 2.0 * g * right,
        a * (left + here) + 0.5 * b * (left + 2.0 * here + right) + g * (here + right),
        2.0 * a * left + b * (left + here) + 2.0 * g * here,
    )


def limit_amplitude(n: int, l: int, q: QubitState) -> complex:
    """Stationary amplitude at site ``n`` for chirality ``l`` in {1, 2, 3}.

    These are the closed forms whose squared moduli are the limit
    probabilities; they equal the stationary-branch quadrature integral
    exactly (up to quadrature error on the integral side). Each weighs the
    initial components with the geometric sequence at sites n - 1, n, n + 1.
    """
    l = _chirality(l)
    return _limit_amplitudes(operator.index(n), q)[l - 1]


def limit_component(n: int, l: int, q: QubitState) -> float:
    """Limit probability at site ``n`` restricted to chirality ``l``."""
    return abs(limit_amplitude(n, l, q)) ** 2


def limit_probability(n: int, q: QubitState) -> float:
    """Limit probability at site ``n``, summed over the three chiralities.

    The three terms are added left to right, as ``stationary_profile`` adds
    them: the builtin ``sum`` of floats is compensated from Python 3.12.
    """
    left, zero, right = _limit_amplitudes(operator.index(n), q)
    return abs(left) ** 2 + abs(zero) ** 2 + abs(right) ** 2


def total_mass(q: QubitState) -> float:
    """Total localized probability, summed in closed form over all sites.

    Every stationary amplitude scales by exactly the geometric ratio per
    unit distance beyond |n| = 1, so the two tails are geometric series in
    ratio^2 and the full sum reduces to the three central sites plus an
    exact tail factor.
    """
    c = GEOMETRIC_RATIO
    center, right, left = (limit_probability(n, q) for n in (0, 1, -1))
    return center + (left + right) / (1.0 - c * c)


def stationary_profile(q: QubitState, window: int) -> Distribution:
    """Limit probabilities per chirality for all sites with |n| <= window.

    The all-site total of the profile is ``total_mass(q)``.
    """
    window = _count(window, 1, "window")
    # Python's abs(z) ** 2, as in limit_component: np.abs(z) ** 2 is 1 ulp off at some
    # tiny values. Beyond the core every square would be +0.0, as np.zeros leaves it.
    core = min(window, _CORE_HALF_WIDTH)
    table = np.zeros((2 * window + 1, 3))
    for l, column in enumerate(_limit_amplitudes(np.arange(-core, core + 1), q)):
        table[window - core : window + core + 1, l] = [abs(z) ** 2 for z in column.tolist()]
    return _own(Distribution, first_site=-window, probabilities=table, totals=_totals(table))
