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

``MomentumBlock`` and ``EigenvalueGroup`` are frozen slotted records, built
by their own constructors, which store each field as given.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .spectral import _branches, dispersion, fourier_operator
from .walk import ChiralVector, QubitState, _chirality, _cycle_size, _Record

__all__ = [
    "MomentumBlock",
    "EigenvalueGroup",
    "momentum_blocks",
    "eigenvalue_groups",
    "cycle_time_average",
    "infinite_time_average_component",
    "infinite_time_average_total",
]

class MomentumBlock(_Record):
    """Spectral data of one momentum block of the cycle evolution.

    ``pairs`` holds (eigenphase, projector) entries. Away from mode 0 there
    are three rank-1 projectors with phases 0 and +-theta. At mode 0 the two
    moving branches share the doubly degenerate eigenvalue -1; their combined
    rank-2 projector is stored as a single pair with phase pi, computed
    basis-free as identity minus the stationary projector.
    """

    __slots__ = ("mode", "momentum", "operator", "pairs")

    def __init__(
        self, mode: int, momentum: float, operator: np.ndarray, pairs: tuple[tuple[float, np.ndarray], ...]
    ) -> None:
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "momentum", momentum)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "pairs", pairs)


class EigenvalueGroup(_Record):
    """All spectral contributions sharing one eigenvalue of the cycle operator.

    ``members`` lists the contributing (mode, branch) labels; ``amplitude``
    is the coherent sum of their projected site amplitudes.
    """

    __slots__ = ("phase", "members", "amplitude")

    def __init__(self, phase: float, members: tuple[tuple[int, int], ...], amplitude: ChiralVector) -> None:
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "amplitude", amplitude)


def _projector_stack(momenta: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Read-only (3, N, 3, 3) stack of every branch's projector at every mode.

    Rows 0, 1 and 2 are the outer products of ``spectral._branches``'
    eigenvectors for the phases 0, theta and -theta at every mode. At the
    middle mode (k = 0) the moving branches meet at -1: row 1 holds their
    rank-2 projector, identity minus the stationary one, and row 2 zeros.
    """
    _, vectors = _branches(momenta, theta)
    stack = vectors[..., :, None] * vectors.conj()[..., None, :]
    centre = len(momenta) // 2
    stack[1, centre] = np.eye(3, dtype=complex) - stack[0, centre]
    stack[2, centre] = 0.0
    stack.setflags(write=False)
    return stack


def momentum_blocks(n_sites: int) -> tuple[MomentumBlock, ...]:
    """Spectral blocks of a cycle with ``n_sites`` sites (odd, >= 3).

    Every block's projectors are read-only views into one (3, N, 3, 3) stack,
    and its operator is read-only too.
    """
    n_sites = _cycle_size(n_sites)
    half = (n_sites - 1) // 2
    modes = range(-half, half + 1)
    momenta = [2.0 * math.pi * mode / n_sites for mode in modes]
    operators = [fourier_operator(momentum) for momentum in momenta]
    theta = [dispersion(momentum)[2] if mode else 0.0 for mode, momentum in zip(modes, momenta)]
    stack = _projector_stack(np.array(momenta), np.array(theta))
    for op in operators:
        op.setflags(write=False)
    return tuple(
        MomentumBlock(mode, k, op, ((0.0, p0), (phase, p1), (-phase, p2)) if mode else ((0.0, p0), (math.pi, p1)))
        for mode, k, op, phase, p0, p1, p2 in zip(modes, momenta, operators, theta, *stack)
    )


def eigenvalue_groups(
    n_sites: int, q: QubitState, site: int = 0
) -> tuple[EigenvalueGroup, ...]:
    """Group the spectral projections of the initial state by eigenvalue.

    The initial state sits at site 0, so every momentum block receives the
    same internal vector; the projected amplitude of block m at the target
    site carries the plane-wave factor e^{i k_m site} / n_sites. The site is
    taken modulo the cycle size first, so a far site reads the same factor.

    The odd-cycle spectrum is known exactly, so the groups are read off it
    instead of found by comparing phases: eigenvalue 1 collects the
    stationary branch of every mode, mode 0 alone carries the doubly
    degenerate -1, and modes -m and +m share each moving phase +-theta.
    theta falls strictly as |k| grows, which fixes the ascending phase order
    0, theta (m = half..1), pi, 2 pi - theta (m = 1..half).
    """
    n_sites = _cycle_size(n_sites)
    site = operator.index(site) % n_sites
    blocks = momentum_blocks(n_sites)
    half = n_sites // 2
    # Every pair is a view into the blocks' one projector stack, so one
    # batched product projects the state on every (branch, mode) at once;
    # amp[branch, half + m] is the amplitude of mode m at the site.
    stack = blocks[0].pairs[0][1].base
    momenta = np.array([block.momentum for block in blocks])
    wave = np.exp(1j * momenta * site) / n_sites
    amp = wave[:, None] * (stack @ q.as_array())
    # One row per group in phase order: the stationary sum, modes -m and +m for
    # m = half..1, mode 0's pair, and modes -m and +m for m = 1..half. cumsum
    # adds the modes one by one from -half to half; a pairwise np.sum would
    # round differently in the last bits. One tolist reads every row as the
    # Python complex values that each ChiralVector holds.
    amplitudes = np.concatenate((
        np.cumsum(amp[0], axis=0)[-1:],
        amp[1, :half] + amp[1, :half:-1],
        amp[1, half : half + 1],
        amp[2, half - 1 :: -1] + amp[2, half + 1 :],
    )).ravel().tolist()
    theta = [block.pairs[1][0] for block in blocks[half + 1 :]]
    phases = [0.0, *reversed(theta), math.pi, *(2.0 * math.pi - phase for phase in theta)]
    members = [
        tuple((m, 1) for m in range(-half, half + 1)),
        *(((-m, 2), (m, 2)) for m in range(half, 0, -1)),
        ((0, 2), (0, 3)),
        *(((-m, 3), (m, 3)) for m in range(1, half + 1)),
    ]
    values = iter(amplitudes)
    return tuple(
        EigenvalueGroup(phase, labels, ChiralVector(l, z, r))
        for phase, labels, l, z, r in zip(phases, members, values, values, values)
    )


def cycle_time_average(n_sites: int, q: QubitState, site: int = 0) -> float:
    """Exact infinite-time Cesaro average of the probability at ``site``.

    Sums, per chirality, the squared moduli of the coherent per-eigenvalue
    amplitudes. Equals the limit of (1/T) sum_{t<T} P(site, t) as T grows;
    ``site`` is taken modulo ``n_sites``.
    """
    total = 0.0
    for group in eigenvalue_groups(n_sites, q, site):
        total += group.amplitude.probability()
    return total


_SQRT6 = math.sqrt(6.0)


def infinite_time_average_component(l: int, q: QubitState) -> float:
    """Closed-form infinite-cycle time average at the origin, chirality ``l``."""
    l = _chirality(l)
    a, b, g = q.alpha, q.beta, q.gamma
    if l == 2:
        return (_SQRT6 - 3.0) ** 2 * abs(a + b + g) ** 2 / 9.0
    near, far = (a, g) if l == 1 else (g, a)  # chirality 3 mirrors chirality 1
    amplitude = _SQRT6 * near - 2.0 * (_SQRT6 - 3.0) * b + (12.0 - 5.0 * _SQRT6) * far
    return abs(amplitude) ** 2 / 36.0


def infinite_time_average_total(q: QubitState) -> float:
    """Closed-form total infinite-cycle time average at the origin.

    Equals 2(5 - 2 sqrt 6) for every state whose stayer amplitude beta
    vanishes. The quadratic form in the closed expression has largest
    eigenvalue 2, reached by the uniform state, so the overall supremum is
    3(5 - 2 sqrt 6).
    """
    a, b, g = q.alpha, q.beta, q.gamma
    value = (5.0 - 2.0 * _SQRT6) * (1.0 + abs(a + b) ** 2 + abs(b + g) ** 2 - 2.0 * abs(b) ** 2)
    # Rounding leaves -2.2e-17 on the exact 0 of the zero-localization state.
    return 0.0 if -1e-15 < value < 0.0 else value
