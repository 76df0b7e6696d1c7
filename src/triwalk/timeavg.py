"""Time-averaged site probabilities on cycles and their infinite-size limit.

On a finite odd cycle the evolution operator splits into 3x3 momentum
blocks. The long-run Cesaro average of the probability at a site depends
only on how the initial state distributes over eigenspaces with equal
eigenvalue: cross terms between distinct eigenvalues average to zero, terms
within one eigenvalue survive coherently. Grouping the spectral projections
by eigenvalue therefore yields the exact infinite-time average with no time
loop at all.

The infinite-cycle limit has closed forms, evaluated here directly; the
finite-N averages approach them at rate 1/N.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .spectral import _eigenvector_components, dispersion, fourier_operator
from .stationary import _clamp_probability
from .walk import ChiralVector, QubitState

__all__ = [
    "MomentumBlock",
    "EigenvalueGroup",
    "momentum_blocks",
    "eigenvalue_groups",
    "cycle_time_average",
    "infinite_time_average_component",
    "infinite_time_average_total",
]

@dataclass(frozen=True)
class MomentumBlock:
    """Spectral data of one momentum block of the cycle evolution.

    ``pairs`` holds (eigenphase, projector) entries. Away from mode 0 there
    are three rank-1 projectors with phases 0 and +-theta. At mode 0 the two
    moving branches share the doubly degenerate eigenvalue -1; their combined
    rank-2 projector is stored as a single pair with phase pi, computed
    basis-free as identity minus the stationary projector.
    """

    mode: int
    momentum: float
    operator: np.ndarray
    pairs: tuple[tuple[float, np.ndarray], ...]


@dataclass(frozen=True)
class EigenvalueGroup:
    """All spectral contributions sharing one eigenvalue of the cycle operator.

    ``members`` lists the contributing (mode, branch) labels; ``amplitude``
    is the coherent sum of their projected site amplitudes.
    """

    phase: float
    members: tuple[tuple[int, int], ...]
    amplitude: ChiralVector


def momentum_blocks(n_sites: int) -> tuple[MomentumBlock, ...]:
    """Spectral blocks of a cycle with ``n_sites`` sites (odd, >= 3)."""
    if n_sites < 3 or n_sites % 2 == 0:
        raise ValueError("cycle size must be an odd integer >= 3")
    half = (n_sites - 1) // 2
    blocks = []
    for mode in range(-half, half + 1):
        momentum = 2.0 * math.pi * mode / n_sites
        operator = fourier_operator(momentum)
        stationary_vec = _eigenvector_components(np.float64(0.0), np.float64(momentum))
        p_stationary = np.outer(stationary_vec, stationary_vec.conj())
        if mode == 0:
            pairs = (
                (0.0, p_stationary),
                (math.pi, np.eye(3, dtype=complex) - p_stationary),
            )
        else:
            _, _, theta = dispersion(momentum)
            moving = [
                _eigenvector_components(np.float64(phase), np.float64(momentum))
                for phase in (theta, -theta)
            ]
            pairs = (
                (0.0, p_stationary),
                (theta, np.outer(moving[0], moving[0].conj())),
                (-theta, np.outer(moving[1], moving[1].conj())),
            )
        blocks.append(
            MomentumBlock(mode=mode, momentum=momentum, operator=operator, pairs=pairs)
        )
    return tuple(blocks)


def eigenvalue_groups(
    n_sites: int, q: QubitState, site: int = 0
) -> tuple[EigenvalueGroup, ...]:
    """Group the spectral projections of the initial state by eigenvalue.

    The initial state sits at site 0, so every momentum block receives the
    same internal vector; the projected amplitude of block m at the target
    site carries the plane-wave factor e^{i k_m site} / n_sites.

    The odd-cycle spectrum is known exactly, so the groups are read off it
    instead of found by comparing phases: eigenvalue 1 collects the
    stationary branch of every mode, mode 0 alone carries the doubly
    degenerate -1, and modes -m and +m share each moving phase +-theta.
    theta falls strictly as |k| grows, which fixes the ascending phase order
    0, theta (m = half..1), pi, 2 pi - theta (m = 1..half).
    """
    site = operator.index(site)
    q_arr = q.as_array()
    # Per mode, the projected amplitude of each pair; mode 0 has two pairs,
    # the second being its rank-2 projection at -1.
    amp, theta = {}, {}
    for block in momentum_blocks(n_sites):
        wave = np.exp(1j * block.momentum * site) / n_sites
        amp[block.mode] = [wave * (projector @ q_arr) for _, projector in block.pairs]
        theta[block.mode] = block.pairs[1][0]
    half = n_sites // 2
    modes = range(-half, half + 1)

    def group(phase: float, members: tuple, amplitude: np.ndarray) -> EigenvalueGroup:
        return EigenvalueGroup(
            phase=phase, members=members, amplitude=ChiralVector.from_array(amplitude)
        )

    return (
        group(0.0, tuple((m, 1) for m in modes), sum(amp[m][0] for m in modes)),
        *(group(theta[m], ((-m, 2), (m, 2)), amp[-m][1] + amp[m][1]) for m in range(half, 0, -1)),
        group(math.pi, ((0, 2), (0, 3)), amp[0][1]),
        *(
            group(2.0 * math.pi - theta[m], ((-m, 3), (m, 3)), amp[-m][2] + amp[m][2])
            for m in range(1, half + 1)
        ),
    )


def cycle_time_average(n_sites: int, q: QubitState, site: int = 0) -> float:
    """Exact infinite-time Cesaro average of the probability at ``site``.

    Sums, per chirality, the squared moduli of the coherent per-eigenvalue
    amplitudes. Equals the limit of (1/T) sum_{t<T} P(site, t) as T grows.
    """
    total = 0.0
    for group in eigenvalue_groups(n_sites, q, site):
        total += group.amplitude.probability()
    return _clamp_probability(total)


_SQRT6 = math.sqrt(6.0)


def infinite_time_average_component(l: int, q: QubitState) -> float:
    """Closed-form infinite-cycle time average at the origin, chirality ``l``."""
    a, b, g = q.alpha, q.beta, q.gamma
    if l == 1:
        amplitude = _SQRT6 * a - 2.0 * (_SQRT6 - 3.0) * b + (12.0 - 5.0 * _SQRT6) * g
        return _clamp_probability(abs(amplitude) ** 2 / 36.0)
    if l == 2:
        return _clamp_probability((_SQRT6 - 3.0) ** 2 * abs(a + b + g) ** 2 / 9.0)
    if l == 3:
        amplitude = _SQRT6 * g - 2.0 * (_SQRT6 - 3.0) * b + (12.0 - 5.0 * _SQRT6) * a
        return _clamp_probability(abs(amplitude) ** 2 / 36.0)
    raise ValueError("chirality index must be 1, 2, or 3")


def infinite_time_average_total(q: QubitState) -> float:
    """Closed-form total infinite-cycle time average at the origin.

    Equals 2(5 - 2 sqrt 6) for every state whose stayer amplitude beta
    vanishes. The quadratic form in the closed expression has largest
    eigenvalue 2, reached by the uniform state, so the overall supremum is
    3(5 - 2 sqrt 6).
    """
    a, b, g = q.alpha, q.beta, q.gamma
    value = (5.0 - 2.0 * _SQRT6) * (
        1.0 + abs(a + b) ** 2 + abs(b + g) ** 2 - 2.0 * abs(b) ** 2
    )
    return _clamp_probability(value)
