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

A float momentum takes ``math``'s cos, sin and sqrt and an array NumPy's: on
one float, each NumPy call would wrap it in a 0-d array and cost more than
the arithmetic. sqrt is correctly rounded either way, so a float gives the
array's bits only where NumPy's float64 cos and sin loops round as libm's
do. That was checked, not built in: with NumPy 2.4.6 and glibc 2.36 on an
AVX-512 Xeon the two agreed on over 300000 momenta (|k| up to 1e6,
subnormals and both zeros included). Another NumPy or CPU may dispatch to
SIMD loops that round otherwise; the tests compare both paths bit for bit
and their log names the SIMD targets. theta is ``np.arctan2`` for both:
NumPy's arctan2 is not libm's and differed from ``math.atan2`` in about 8%
of random arguments, so a float path through ``math.atan2`` would part from
the array path. ``fourier_operator`` builds e^{ik} as complex(cos k, sin k)
from ``math``, the bits ``np.exp`` gave for a purely imaginary argument on
the same setup. The quadrature does the same over arrays: each plane wave
e^{ix} and each eigenvector phase factor e^{-i phi/2} is NumPy's cos and sin
written into one complex array, the bits ``np.exp`` gave there, checked by
the tests on the quadrature's own arguments. That skips the complex
temporaries of ``np.exp(1j * x)`` and, in the eigenvectors, a second
evaluation of the cosine the normalization already needs.
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
    """cos k, 1 - cos k, cos theta, sin theta and theta at float or array ``k``.

    A float takes ``math``'s cos, sin and sqrt, an array NumPy's (see the
    module notes); theta is NumPy's arctan2 for both.
    """
    xp = np if isinstance(k, np.ndarray) else math
    cos_k = xp.cos(k)
    # 2 sin^2(k/2) avoids the cancellation of 1 - cos k near k = 0. A float ** 2 would call pow.
    sin_half = xp.sin(0.5 * k)
    one_minus = 2.0 * (sin_half * sin_half)
    cos_theta = -(2.0 + cos_k) / 3.0
    sin_theta = xp.sqrt((5.0 + cos_k) * one_minus) / 3.0
    return cos_k, one_minus, cos_theta, sin_theta, np.arctan2(sin_theta, cos_theta)


def dispersion(k: float | np.ndarray) -> tuple:
    """Evaluate the dispersion relation at momentum ``k``.

    Returns ``(cos_theta, sin_theta, theta)`` with ``cos_theta = -(2 + cos k)/3``
    and the non-negative branch ``sin_theta = sqrt((5 + cos k)(1 - cos k))/3``;
    ``theta`` is the angle with those cosine and sine, landing in (0, pi].
    The three eigenphases of the momentum-space operator are 0, +theta and
    -theta. The relation is 2 pi periodic, so any finite ``k`` is accepted;
    ``nan`` and ``+-inf`` raise ``ValueError``. An array of momenta gives
    three arrays of its shape, element for element the floats wherever
    NumPy's float64 cos and sin round as libm's, as checked with NumPy 2.4.6
    and glibc 2.36 on AVX-512 (see the module notes).
    """
    k = _momentum(k)
    _, _, cos_theta, sin_theta, theta = _dispersion_terms(k)
    if isinstance(k, np.ndarray):
        return cos_theta, sin_theta, theta
    return cos_theta, sin_theta, float(theta)


def fourier_operator(k: float) -> np.ndarray:
    """One step of the walk at finite momentum ``k``: diag(e^{ik}, 1, e^{-ik}) coin."""
    k = float(_momentum(k))  # one momentum: float() refuses an array of several
    e = complex(math.cos(k), math.sin(k))  # e^{ik}, as np.exp builds it from libm's cos and sin
    return np.array((e, 1.0, e.conjugate()))[:, None] * _COIN


def _branches(k: float | np.ndarray, theta: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phases (0, theta, -theta) as (3, *shape) and their unit eigenvectors as (3, *shape, 3).

    ``k`` and ``theta`` share one shape; the vectors' last axis holds the
    chirality components. Each component's phase factor e^{-i phi/2} is
    cos(phi/2) - i sin(phi/2) from NumPy (see the module notes), and the
    cosine is the one the normalization takes.
    """
    phases = np.stack([np.zeros_like(theta), theta, -theta])
    half = np.stack((phases - k, phases, phases + k), axis=-1)
    half *= 0.5
    cos_half = np.cos(half)
    # 1/(1 + cos phi) = 1/(2 cos^2(phi/2)); the normalization is
    # c = 2 / sum of those three reciprocals.
    weights = np.square(cos_half)
    weights *= 2.0
    c = 2.0 / np.sum(np.divide(1.0, weights, out=weights), axis=-1, keepdims=True)
    # sqrt(c) e^{-i half} / (2 cos half), with e^{-i half} = cos half - i sin half
    # written into one complex array and every step in place: on the 16384-node
    # tableau each complex temporary is 2.4 MB of fresh pages.
    vectors = np.empty(half.shape, dtype=complex)
    vectors.real = cos_half
    np.negative(np.sin(half, out=half), out=vectors.imag)
    vectors *= np.sqrt(c)
    cos_half *= 2.0
    vectors /= cos_half
    return phases, vectors


def eigensystem(k: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenphases and eigenvectors at momentum ``k``.

    Returns ``(phases, vectors)``: the float array (0, theta, -theta) and a
    (3, 3) complex array whose row j is the unit eigenvector for ``phases[j]``.
    An array of momenta puts its shape in front of both, bit for bit; both
    arrays are C-contiguous.

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
    phases, vectors = _branches(k, theta)
    return np.moveaxis(phases, 0, -1).copy(), np.moveaxis(vectors, 0, -2).copy()


@functools.lru_cache(maxsize=8)
def _tableau(size: int) -> tuple[np.ndarray, ...]:
    """Cached per-grid data of every quadrature, built once from one dispersion.

    Returns nodes k, phases theta, vectors V[j, node, :], conj(V), and the
    kernel weights 1/(5 + cos k) and 1/sqrt((5 + cos k)(1 - cos k)). The
    vectors come from ``_branches``, which forms them in place from NumPy's
    cos and sin of the half-angles.
    """
    k = quadrature_nodes(size)
    cos_k, one_minus, _, _, theta = _dispersion_terms(k)
    _, vectors = _branches(k, theta)
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


def _plane_wave(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{ix} written into the complex array ``out`` as cos x + i sin x, and returned.

    These are the bits of ``np.exp(1j * x)``, which takes libm's cos and sin,
    wherever NumPy's cos and sin round as libm's (see the module notes), but
    for one zero: at x = -0 the product 1j * x hands exp an imaginary part
    +0, so exp gives 1 + 0i and this gives 1 - 0i. A zero's sign does not
    reach a sum that has a nonzero term.
    """
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _line_amplitudes(sites: range, times: tuple[int, ...], q: QubitState) -> np.ndarray:
    """Amplitudes at the consecutive ``sites`` after each of ``times`` steps, (times, sites, 3).

    One loop over |n| builds the plane-wave factors e^{ik|n|} once and
    e^{i(+-theta t + k|n|)} once per time, each by ``_plane_wave`` into a
    buffer that every |n| reuses, as are the argument, the conjugate and the
    ``factor * coefficients`` product. Row +|n| takes each branch's
    product with its own factor, row -|n| with a conjugate: at -|n| the
    argument of branch 0 is exactly minus its argument at +|n|, and that of
    the +theta branch exactly minus that of the -theta branch at +|n| and the
    other way round, and cos is even and sin odd, so each factor at -|n| is
    the conjugate of the mirrored branch's factor at +|n| bit for bit. A lone
    negative site reads the same conjugates as a window row. The phase-0
    products carry no t and serve every time. Every row keeps its own
    ``(factor * coefficients) @ vectors[j]`` product, added in branch order
    (one batched product over the rows would round differently).
    """
    for t in times:
        _check_reach(max(sites[0], sites[-1], key=abs), t)
    k, theta, vectors, conjugates, _, _ = _tableau(DEFAULT_GRID_SIZE)
    coefficients = [c @ q.as_array() for c in conjugates]
    advanced = [(theta * t, -theta * t) for t in times]
    rows = np.zeros((len(times), len(sites), 3), dtype=complex)
    kn, argument = np.empty((2, len(k)))
    waves = np.empty((3, len(k)), dtype=complex)
    conjugate, product = np.empty((2, len(k)), dtype=complex)

    def term(j: int, wave: np.ndarray, mirror: bool) -> np.ndarray:
        factor = np.conjugate(wave, out=conjugate) if mirror else wave
        return np.multiply(factor, coefficients[j], out=product) @ vectors[j]

    for size in range(min(abs(n) for n in sites), max(abs(sites[0]), abs(sites[-1])) + 1):
        ends = [(n - sites[0], n < 0) for n in {size, -size} if n in sites]
        np.multiply(k, size, out=kn)
        _plane_wave(kn, waves[0])
        for end, mirror in ends:
            rows[:, end] += term(0, waves[0], mirror)
        for i, phase_terms in enumerate(advanced):
            for wave, phase_term in zip(waves[1:], phase_terms):
                _plane_wave(np.add(phase_term, kn, out=argument), wave)
            for end, mirror in ends:
                # At -|n| branch 1 reads the -theta factor and branch 2 the +theta one.
                for j, wave in zip((1, 2), (waves[2], waves[1]) if mirror else (waves[1], waves[2])):
                    rows[i, end] += term(j, wave, mirror)
    return rows / DEFAULT_GRID_SIZE


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
    wave = _plane_wave(k * n, np.empty_like(k, complex))
    amplitude = np.multiply(wave, coefficients, out=wave) @ vectors[0] / DEFAULT_GRID_SIZE
    return complex(amplitude[l - 1])


def _kernel_means(sites: range, times: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The J and K kernels at each of ``sites`` after each of ``times`` steps, (times, sites).

    cos(k n) is built once as one (sites, nodes) array for every time, and
    cos(theta t) and sin(theta t) once per time. Each (cos(k n) * wave) *
    weight is formed, in that order, into one reused (sites, nodes) buffer,
    and each row's mean equals the one-site ``np.mean`` bit for bit.
    """
    for t in times:
        _check_reach(max(sites[0], sites[-1], key=abs), t, kernel=True)
    k, theta, _, _, inv_five, inv_root = _tableau(DEFAULT_GRID_SIZE)
    kn = np.multiply.outer(np.array(sites, dtype=float), k)
    cos_kn, terms = np.cos(kn, out=kn), np.empty_like(kn)

    def mean(wave: np.ndarray, weight: np.ndarray) -> np.ndarray:
        np.multiply(cos_kn, wave, out=terms)
        return np.mean(np.multiply(terms, weight, out=terms), axis=1)

    j = [mean(np.cos(theta * t), inv_five) for t in times]
    kk = [mean(np.sin(theta * t), inv_root) for t in times]
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
