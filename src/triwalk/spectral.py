"""Momentum-space analysis of the three-state walk.

The Fourier transform block-diagonalizes one step of the walk into a 3x3
unitary at each momentum k. This module evaluates that operator's dispersion
relation and eigenvectors in closed form, reconstructs real-space amplitudes
by midpoint quadrature over momentum, and computes the oscillatory kernels
whose decay separates the stationary (localized) part of the wavefunction
from the vanishing remainder.

Numerical notes
---------------
Eigenvector components have the shape 1/(1 + e^{i phi}). They are evaluated
through the half-angle identity 1 + e^{i phi} = 2 cos(phi/2) e^{i phi/2},
which removes the catastrophic cancellation of computing 1 + cos(phi) near
phi = pi. The same factor cos(phi/2) appears under the normalization constant,
so the ratio stays fully accurate even at the removable singularity of the
stationary branch at momentum +-pi.

Every quadrature uses the same G = 16384 midpoint nodes
k_j = -pi + (j + 1/2) 2 pi / G, and reaches only as far in site and time as
its aliasing rule allows (see ``_check_reach``). Even G guarantees no node
lands on k = 0, the one momentum where the eigenvector formula genuinely
degenerates; an odd G would place a node there exactly. All integrands are
smooth periodic functions on the grid, so the midpoint rule converges
spectrally. One cached tableau per grid holds the nodes, the phases, the
eigenvectors and the kernel weights, so all four quadratures read the same
dispersion.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .walk import ChiralVector, QubitState, _chirality, _count, _momentum, coin_matrix

__all__ = [
    "DEFAULT_GRID_SIZE",
    "SingularMomentumError",
    "quadrature_nodes",
    "dispersion",
    "fourier_operator",
    "eigensystem",
    "wavefunction",
    "wavefunction_window",
    "stationary_component_integral",
    "j_kernel",
    "k_kernel",
    "remainder_matrix",
    "oscillatory_remainder",
    "remainder_window",
]

#: Number of momentum nodes of every quadrature.
DEFAULT_GRID_SIZE = 16384

_COIN = coin_matrix()
_COIN.setflags(write=False)


class SingularMomentumError(ValueError):
    """Raised for momenta where the moving eigenvectors are not defined.

    At k = 0 (mod 2 pi) the two moving branches collapse onto the doubly
    degenerate eigenvalue -1 and no preferred eigenbasis exists; the closed
    form would return direction-dependent garbage there.
    """


def quadrature_nodes(size: int) -> np.ndarray:
    """The ``size`` midpoint momentum nodes of a uniform grid over [-pi, pi), ascending.

    The size must be even: an odd midpoint grid contains the node k = 0,
    which the eigenvector formula cannot handle (see module notes). Midpoint
    construction keeps every node strictly inside (-pi, pi) and away from 0.
    """
    size = operator.index(size)
    if size < 2 or size % 2 != 0:
        raise ValueError("quadrature grid size must be an even integer >= 2")
    return -np.pi + (np.arange(size) + 0.5) * (2.0 * np.pi / size)


def _dispersion_terms(k: float | np.ndarray) -> tuple:
    """cos k, 1 - cos k, cos theta, sin theta and theta at scalar or array ``k``."""
    cos_k = np.cos(k)
    # 2 sin^2(k/2) avoids the cancellation of 1 - cos k near k = 0. A scalar ** 2 would call pow.
    sin_half = np.sin(0.5 * k)
    one_minus = 2.0 * (sin_half * sin_half)
    cos_theta = -(2.0 + cos_k) / 3.0
    sin_theta = np.sqrt((5.0 + cos_k) * one_minus) / 3.0
    return cos_k, one_minus, cos_theta, sin_theta, np.arctan2(sin_theta, cos_theta)


def dispersion(k: float | np.ndarray) -> tuple:
    """Evaluate the dispersion relation at momentum ``k``.

    Returns ``(cos_theta, sin_theta, theta)`` with ``cos_theta = -(2 + cos k)/3``
    and the non-negative branch ``sin_theta = sqrt((5 + cos k)(1 - cos k))/3``;
    ``theta`` is the angle with those cosine and sine, landing in (0, pi].
    The three eigenphases of the momentum-space operator are 0, +theta and
    -theta. The relation is 2 pi periodic, so any finite ``k`` is accepted;
    ``nan`` and ``+-inf`` raise ``ValueError``. An array of momenta gives
    three arrays of its shape, element for element the floats.
    """
    k = _momentum(k)
    _, _, cos_theta, sin_theta, theta = _dispersion_terms(k)
    if isinstance(k, np.ndarray):
        return cos_theta, sin_theta, theta
    return float(cos_theta), float(sin_theta), float(theta)


def fourier_operator(k: float) -> np.ndarray:
    """One step of the walk at finite momentum ``k``: diag(e^{ik}, 1, e^{-ik}) coin."""
    k = float(_momentum(k))  # one momentum: float() refuses an array of several
    return np.exp(1j * k * np.array([1.0, 0.0, -1.0]))[:, None] * _COIN


def _eigenvector_components(theta: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Normalized eigenvector(s) for eigenphase ``theta`` at momentum ``k``.

    Broadcasts over any common shape of ``theta`` and ``k``; the result has
    one extra trailing axis of length 3 (the chirality components).
    """
    theta = np.asarray(theta, dtype=float)
    k = np.asarray(k, dtype=float)
    half = 0.5 * np.stack(
        np.broadcast_arrays(theta - k, theta, theta + k), axis=-1
    )
    cos_half = np.cos(half)
    # 1/(1 + cos phi) = 1/(2 cos^2(phi/2)); the normalization is
    # c = 2 / sum of those three reciprocals.
    weights = 1.0 / (2.0 * cos_half**2)
    c = 2.0 / np.sum(weights, axis=-1, keepdims=True)
    return np.sqrt(c) * np.exp(-1j * half) / (2.0 * cos_half)


def eigensystem(k: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenphases and eigenvectors at momentum ``k``.

    Returns ``(phases, vectors)``: the float array (0, theta, -theta) and a
    (3, 3) complex array whose row j is the unit eigenvector for ``phases[j]``.
    An array of momenta puts its shape in front of both, bit for bit.

    Raises
    ------
    SingularMomentumError
        If any ``k`` is 0 modulo 2 pi, where the moving eigenvectors degenerate.
    ValueError
        If any ``k`` is not finite (raised by ``dispersion``).
    """
    *_, theta = dispersion(k)
    if np.any(np.remainder(k, 2.0 * np.pi) == 0.0):
        raise SingularMomentumError(
            "eigenvectors are singular at momentum 0 (degenerate -1 eigenvalue)"
        )
    phases = np.stack([np.zeros_like(theta), theta, -theta], axis=-1)
    return phases, _eigenvector_components(phases, np.expand_dims(k, -1))


@functools.lru_cache(maxsize=8)
def _tableau(size: int) -> tuple[np.ndarray, ...]:
    """Cached per-grid data of every quadrature, built once from one dispersion.

    Returns nodes k, phases theta, vectors V[j, node, :], conj(V), and the
    kernel weights 1/(5 + cos k) and 1/sqrt((5 + cos k)(1 - cos k)).
    """
    k = quadrature_nodes(size)
    cos_k, one_minus, _, _, theta = _dispersion_terms(k)
    vectors = np.stack(
        [_eigenvector_components(phase, k) for phase in (np.zeros_like(k), theta, -theta)]
    )
    inv_root = 1.0 / np.sqrt((5.0 + cos_k) * one_minus)
    tableau = (k, theta, vectors, vectors.conj(), 1.0 / (5.0 + cos_k), inv_root)
    for a in tableau:
        a.setflags(write=False)
    return tableau


def _check_reach(n: int, t: int = 0, *, kernel: bool = False) -> None:
    """Check that integer ``(n, t)`` lies within the reach of the quadrature grid.

    Every quadrature needs integer ``n`` and ``t`` and a non-negative ``t``.
    The wavefunction integrand at (n, t) is a trigonometric polynomial of
    degree t + |n|, which the midpoint rule integrates exactly on more than
    t + |n| nodes. The kernel integrands (``kernel=True``) are not
    polynomials, but their phase k n + theta_k t has slope at most
    |n| + t / sqrt(3), 1/sqrt(3) being max |theta'(k)|, the walk's top group
    velocity (the weak-limit ``SUPPORT_EDGE``). Past that frequency their
    Fourier coefficients fall off over a transition zone that widens like
    t^(1/3). Measured against 2^17 nodes for t up to 60000, the aliasing
    error drops below 1e-12 within 4.4 t^(1/3) + 13 nodes of the slope, so
    the kernels ask for a margin of 5 t^(1/3) + 16 nodes beyond it. The
    stationary-branch integrand's Fourier tail falls like c^|m| with
    c = -5 + 2 sqrt 6, as the kernels' does at t = 0, so
    ``stationary_component_integral`` takes the kernel rule at t = 0. On the
    16384 nodes the kernels reach t = 28086 at n = 0.
    """
    n, t = operator.index(n), _count(t)
    if kernel:
        # |n| or t / sqrt(3) alone at the node count is beyond reach, and is
        # refused as ints: a larger int would overflow a float.
        beyond = abs(n) >= DEFAULT_GRID_SIZE or t >= 2 * DEFAULT_GRID_SIZE
        need = math.inf if beyond else t / math.sqrt(3.0) + abs(n) + 5.0 * t ** (1.0 / 3.0) + 16.0
        if DEFAULT_GRID_SIZE < need:
            raise ValueError(
                f"(n, t) = ({n}, {t}) is beyond the kernels' reach: t/sqrt(3) + |n|"
                f" + 5 t^(1/3) + 16 = {need:.2f} exceeds {DEFAULT_GRID_SIZE} nodes"
            )
    elif t + abs(n) >= DEFAULT_GRID_SIZE:
        raise ValueError(f"(n, t) = ({n}, {t}) is beyond the quadrature's reach: t + |n| >= {DEFAULT_GRID_SIZE}")


def _line_amplitudes(sites: range, times: tuple[int, ...], q: QubitState) -> np.ndarray:
    """Amplitudes at the consecutive ``sites`` after each of ``times`` steps, (times, sites, 3).

    Each plane-wave factor e^{i(phase_j t + k n)} is built once per |n|, at
    the site of the pair that ``sites`` holds (+|n| when it holds both). The
    mirrored site -n reads its conjugate for the mirrored branch: the
    argument there is exactly minus this one (0 <-> 0, theta <-> -theta), and
    cos is even and sin odd, so the conjugate is that factor bit for bit.
    The phase-0 factor carries no t, so its products serve every time. Every
    row keeps its own ``(factor * coefficients) @ vectors[j]`` product, added
    in branch order (one batched product over the rows would round
    differently), and one factor is alive at a time.
    """
    for t in times:
        _check_reach(max(sites[0], sites[-1], key=abs), t)
    k, theta, vectors, conjugates, _, _ = _tableau(DEFAULT_GRID_SIZE)
    q_arr = q.as_array()
    coefficients = [c @ q_arr for c in conjugates]
    advanced = [(theta * t, -theta * t) for t in times]
    rows = np.zeros((len(times), len(sites), 3), dtype=complex)
    for size in range(min(abs(n) for n in sites), max(abs(sites[0]), abs(sites[-1])) + 1):
        n = size if size in sites else -size
        here, there = n - sites[0], -n - sites[0]
        mirrored = n > 0 and -n in sites
        kn = k * n
        factor = np.exp(1j * kn)
        rows[:, here] += (factor * coefficients[0]) @ vectors[0]
        if mirrored:
            rows[:, there] += (factor.conj() * coefficients[0]) @ vectors[0]
        for i, arguments in enumerate(advanced):
            mirrors = []
            for j, argument in zip((1, 2), arguments):
                factor = np.exp(1j * (argument + kn))
                rows[i, here] += (factor * coefficients[j]) @ vectors[j]
                if mirrored:
                    mirrors.append((factor.conj() * coefficients[3 - j]) @ vectors[3 - j])
            for row in reversed(mirrors):
                rows[i, there] += row
    rows /= DEFAULT_GRID_SIZE
    return rows


def wavefunction(n: int, t: int, q: QubitState) -> ChiralVector:
    """Amplitudes at site ``n`` after ``t`` steps, by momentum quadrature.

    Evaluates the inverse Fourier integral of the spectrally decomposed
    evolution: the initial state is projected on the three eigenbranches at
    every momentum node, each branch advanced by its eigenphase, and the
    plane-wave factor e^{ikn} restores position space. Agrees with direct
    evolution to quadrature precision.

    Parameters
    ----------
    n, t : int
        Site index and non-negative step count, with t + |n| below the 16384
        nodes: the midpoint rule is exact only for integrand frequencies
        below the grid size.
    q : QubitState
        Normalized initial internal state.
    """
    n = operator.index(n)
    return ChiralVector.from_array(_line_amplitudes(range(n, n + 1), (t,), q)[0, 0])


def _over_window(rows_at, m: int, t: int | tuple[int, ...], *args) -> np.ndarray:
    """``rows_at(sites, times, *args)`` on the sites -m..m at ``t`` steps, or at each of several."""
    m, times = _count(m, what="half-width"), (tuple(t) if np.ndim(t) else (t,))
    if not times:
        raise ValueError("a window needs at least one step count")
    rows = rows_at(range(-m, m + 1), times, *args)
    return rows if np.ndim(t) else rows[0]


def wavefunction_window(m: int, t: int | tuple[int, ...], q: QubitState) -> np.ndarray:
    """Amplitudes at the sites -m..m after ``t`` steps, as a (2m + 1, 3) array.

    Row ``m + n`` equals ``wavefunction(n, t, q)`` bit for bit: both are the
    same quadrature, and the window builds each site pair's plane-wave
    factors once. It needs a non-negative integer ``m`` with t + m below the
    16384 nodes. A sequence of counts ``t`` gives their windows as one array.
    """
    return _over_window(_line_amplitudes, m, t, q)


def stationary_component_integral(n: int, l: int, q: QubitState) -> complex:
    """Stationary-branch amplitude at site ``n``, chirality ``l`` in {1, 2, 3}.

    Quadrature of the eigenphase-0 branch alone. The phase factor e^{i 0 t}
    is identically 1, so the result carries no time dependence and the
    operation takes no time argument. Its squared modulus is the localized
    limit probability component. It needs |n| + 16 <= 16384.
    """
    _check_reach(n, kernel=True)
    l = _chirality(l)
    k, _, vectors, conjugates, _, _ = _tableau(DEFAULT_GRID_SIZE)
    coefficients = conjugates[0] @ q.as_array()
    amplitude = (np.exp(1j * k * n) * coefficients) @ vectors[0] / DEFAULT_GRID_SIZE
    return complex(amplitude[l - 1])


def _kernel_means(sites: range, times: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The J and K kernels at each of ``sites`` after each of ``times`` steps, (times, sites).

    cos(k n) is built once as one (sites, nodes) array for every time, and
    cos(theta t) and sin(theta t) once per time; each row's mean equals the
    one-site ``np.mean`` bit for bit.
    """
    for t in times:
        _check_reach(max(sites[0], sites[-1], key=abs), t, kernel=True)
    k, theta, _, _, inv_five, inv_root = _tableau(DEFAULT_GRID_SIZE)
    cos_kn = np.cos(np.multiply.outer(np.array(sites, dtype=float), k))
    j = [np.mean(cos_kn * np.cos(theta * t) * inv_five, axis=1) for t in times]
    kk = [np.mean(cos_kn * np.sin(theta * t) * inv_root, axis=1) for t in times]
    return np.array(j), np.array(kk)


def j_kernel(n: int, t: int) -> float:
    """Oscillatory kernel (1/2 pi) integral of cos(kn) cos(theta_k t)/(5 + cos k).

    Vanishes as t grows (Riemann-Lebesgue); at t = 0 it reduces to the
    time-free integral 1/(2 sqrt 6) for n = 0. Raises ``ValueError`` where
    t/sqrt(3) + |n| + 5 t^(1/3) + 16 exceeds the 16384 nodes, as aliasing
    would spoil the value.
    """
    n = operator.index(n)
    return float(_kernel_means(range(n, n + 1), (t,))[0][0, 0])


def k_kernel(n: int, t: int) -> float:
    """Oscillatory kernel with weight 1/sqrt((5 + cos k)(1 - cos k)).

    The weight diverges at k = 0 but the integrand stays bounded: for integer
    t the factor sin(theta_k t) vanishes linearly in |k| there. Midpoint
    nodes of an even grid never touch k = 0. Same reach as ``j_kernel``.
    """
    n = operator.index(n)
    return float(_kernel_means(range(n, n + 1), (t,))[1][0, 0])


def _remainder_matrices(sites: range, times: tuple[int, ...]) -> np.ndarray:
    """``remainder_matrix`` at each of ``sites`` after each of ``times`` steps, (times, sites, 3, 3)."""
    means = _kernel_means(range(sites[0] - 1, sites[-1] + 2), times)
    (j_prev, j_here, j_next), (k_prev, k_here, k_next) = ((a[:, :-2], a[:, 1:-1], a[:, 2:]) for a in means)
    m = np.empty((len(times), len(sites), 3, 3), dtype=complex)
    m[..., 0, 0] = 3.0 * j_here + 0.5 * (j_prev + j_next + (k_prev - k_next))
    m[..., 2, 2] = 3.0 * j_here + 0.5 * (j_prev + j_next - (k_prev - k_next))
    m[..., 0, 1] = -(j_here + j_next + (k_here - k_next))
    m[..., 2, 1] = -(j_here + j_prev + (k_here - k_prev))
    m[..., 0, 2] = -2.0 * j_next
    m[..., 2, 0] = -2.0 * j_prev
    m[..., 1, 0] = -(j_here + j_prev + (k_prev - k_here))
    m[..., 1, 2] = -(j_here + j_next + (k_next - k_here))
    m[..., 1, 1] = 4.0 * j_here
    return m


def remainder_matrix(n: int, t: int) -> np.ndarray:
    """The 3x3 matrix mapping the initial state to the moving-branch amplitude at (n, t).

    The nine entries combine the j and k kernels at sites n - 1, n, n + 1;
    structural identities (the middle entry is 4 J at n, the corners are
    -2 J at n +- 1) follow directly from the assembly.
    """
    n = operator.index(n)
    return _remainder_matrices(range(n, n + 1), (t,))[0, 0]


def oscillatory_remainder(n: int, t: int, q: QubitState) -> ChiralVector:
    """Moving-branch amplitude at (n, t): the wavefunction minus its localized part.

    Applying the remainder matrix to the initial state gives the sum of the
    two moving branches of the spectral decomposition. Adding the stationary
    branch amplitude reconstructs the full wavefunction.
    """
    m = remainder_matrix(n, t)
    return ChiralVector.from_array(m @ q.as_array())


def remainder_window(m: int, t: int | tuple[int, ...], q: QubitState) -> np.ndarray:
    """``oscillatory_remainder`` at the sites -m..m after ``t`` steps, as a (2m + 1, 3) array.

    Row ``m + n`` equals ``oscillatory_remainder(n, t, q)`` bit for bit, and
    several counts ``t`` give one array, as in ``wavefunction_window``.
    """
    return _over_window(_remainder_matrices, m, t) @ q.as_array()
