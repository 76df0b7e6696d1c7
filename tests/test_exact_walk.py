"""Direct evolution against an exact integer walk.

The coin is (2J - 3I)/3, so the walk from a basis state, scaled by 3^t, has
integer amplitudes: one exact step is 2 (a_L + a_0 + a_R) - 3 a_l, then the
shift, in Python ints. A qubit of floats is an exact combination of the three
basis walks, since each float is a dyadic rational, so the combination stays
in integers too, and one ``int / int`` division rounds each amplitude to
float64 correctly. The reference measures the rounding of ``evolve_line``,
chained ``step_line`` and ``evolve_cycle``, and of ``distribution`` over the
first and the last, and of the two momentum routes, ``wavefunction_window``
and the stationary part plus the oscillatory remainder; it feeds no route of
triwalk. The tests of the line, the window and the reconstruction record
each error they measure through the ``route_error`` fixture, and the
terminal summary prints each route's worst.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from states import FIGURE_STATE, TEST_STATES
from triwalk import QubitState, distribution, evolve_cycle, evolve_line, spectral, step_line, weaklimit
from triwalk.stationary import limit_amplitude

EPS = float(np.finfo(float).eps)

#: Amplitude error allowed per step. As for walk.STEP_ROUNDOFF, each new real
#: (or imaginary) component is a three-term dot product of a coin row with old
#: components; with the coin's own rounding it takes at most 5 roundings of
#: u = eps/2, so the error vector has ||delta|| <= 5u ||B|| <= 5u (5/3) ||psi||,
#: |A| being symmetric with row sums 5/3. The shifts are exact and the step is
#: unitary, so after t steps every amplitude lies within t (25/3) u of the
#: exact walk, plus u for rounding the reference. Measured over the 13 test
#: states at t = 200: about 0.1 eps per step (4.6e-15 on the line, 5.8e-15 on
#: the ring of 31 sites), against the bound's 4.2 eps.
AMPLITUDE_ROUNDOFF = 25.0 / 6.0 * EPS


def probability_bound(t: int) -> float:
    """Error allowed in each probability of ``distribution`` after ``t`` steps.

    With every amplitude within E = t AMPLITUDE_ROUNDOFF + eps/2 of the exact
    one and |a| <= 1, ||a + d|^2 - |a|^2| <= 2|a||d| + |d|^2 <= 2E + E^2.
    ``np.abs`` and the square add at most 3u relative to a square below
    (1 + E)^2, and rounding the exact square once adds u, so 2 eps covers both.
    Measured over the 13 test states at t = 200: 3.9e-15 on the line and
    5.8e-15 on the ring of 31 sites (about 0.09 and 0.13 eps per step),
    against the bound's 8.3 eps per step.
    """
    e = t * AMPLITUDE_ROUNDOFF + EPS / 2
    return 2.0 * e + e * e + 2.0 * EPS


#: Times the line is pinned at; the ring of 2 * 400 + 1 sites carries it.
LINE_TIMES = (1, 8, 9, 50, 200, 400)

#: A ring of 31 sites: its live window covers it at step 15 and wraps from 17.
RING, RING_TIMES = 31, (8, 15, 19, 200)


@functools.cache
def exact_walks(n_sites: int, times: tuple[int, ...]) -> dict[int, np.ndarray]:
    """3^t times the walks from the three basis states at site 0 of a ring.

    Returns, at each of ``times``, an integer (3 bases, 3 chiralities,
    n_sites) object array, each basis walk's squared norm checked to be
    exactly 9^t.
    """
    x = np.zeros((3, 3, n_sites), dtype=object)
    x[:, :, 0] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    out = {}
    for t in range(1, max(times) + 1):
        x = 2 * x.sum(axis=1, keepdims=True) - 3 * x
        x[:, 0], x[:, 2] = np.roll(x[:, 0], -1, axis=1), np.roll(x[:, 2], 1, axis=1)
        if t in times:
            assert [int((walk * walk).sum()) for walk in x] == [9**t] * 3
            out[t] = x
    return out


def exact_parts(q: QubitState, x: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(numerator, denominator) of the real and of the imaginary part of the
    walk from q: part = numerator / (denominator 3^t), in integers."""
    parts = []
    for part in ("real", "imag"):
        ratios = [getattr(complex(z), part).as_integer_ratio() for z in (q.alpha, q.beta, q.gamma)]
        den = max(d for _, d in ratios)  # each a power of two
        parts.append((sum(n * (den // d) * x[c] for c, (n, d) in enumerate(ratios)), den))
    return parts


def exact_state(q: QubitState, x: np.ndarray, t: int) -> np.ndarray:
    """The (sites, 3) amplitudes from q, each the exact value rounded once."""
    amplitudes = np.empty((x.shape[2], 3), dtype=complex)
    for part, (num, den) in zip(("real", "imag"), exact_parts(q, x)):
        setattr(amplitudes, part, (num / (den * 3**t)).astype(float).T)
    return amplitudes


def exact_probabilities(q: QubitState, x: np.ndarray, t: int) -> np.ndarray:
    """The (sites, 3) probabilities from q, each the exact square rounded once."""
    (re, dr), (im, di) = exact_parts(q, x)
    return ((re * re * (di * di) + im * im * (dr * dr)) / (dr * dr * di * di * 9**t)).astype(float).T


def light_cone(x: np.ndarray, t: int) -> np.ndarray:
    """Sites -t to t of a walk on a ring that t steps never wrap."""
    return np.roll(x, t, axis=2)[:, :, : 2 * t + 1]


def assert_within_bound(state: np.ndarray, exact: np.ndarray, t: int) -> None:
    assert np.abs(state - exact).max() <= t * AMPLITUDE_ROUNDOFF + EPS / 2


def test_the_integer_walk_is_exact_on_the_ring():
    # A walk on the ring of 2t + 1 sites, which t steps never wrap, is the line's.
    for t, x in exact_walks(2 * max(LINE_TIMES) + 1, LINE_TIMES).items():
        assert not x[:, :, t + 1 : -t].any()


def test_evolve_line_and_step_line_are_within_the_rounding_bound(route_error):
    walks = exact_walks(2 * max(LINE_TIMES) + 1, LINE_TIMES)
    for q in TEST_STATES:
        stepped = evolve_line(q, 0)
        for t in range(1, max(LINE_TIMES) + 1):
            stepped = step_line(stepped)
            if t in walks:
                exact = exact_state(q, light_cone(walks[t], t), t)
                for state in (evolve_line(q, t).amplitudes, stepped.amplitudes):
                    route_error("direct", t, np.abs(state - exact).max())
                    assert_within_bound(state, exact, t)


def test_evolve_cycle_is_within_the_rounding_bound_on_both_sides_of_the_wrap():
    walks = exact_walks(RING, RING_TIMES)
    for q in TEST_STATES:
        for t, x in walks.items():
            assert_within_bound(evolve_cycle(q, RING, t).amplitudes, exact_state(q, x, t), t)


def test_distribution_is_within_the_probability_bound():
    line, ring = exact_walks(2 * max(LINE_TIMES) + 1, LINE_TIMES), exact_walks(RING, RING_TIMES)
    for q in TEST_STATES:
        for t, x in line.items():
            exact = exact_probabilities(q, light_cone(x, t), t)
            assert np.abs(distribution(evolve_line(q, t)).probabilities - exact).max() <= probability_bound(t)
        for t, x in ring.items():
            exact = exact_probabilities(q, x, t)
            assert np.abs(distribution(evolve_cycle(q, RING, t)).probabilities - exact).max() <= probability_bound(t)


def test_weak_limit_masses_are_within_the_mixture_bound():
    # Each mass is fl(S / 3), S the sum over the 3 bases of the sums over the 3
    # chiralities of fl(a^2). Each of the 9 squares lies within
    # probability_bound(t) of its exact probability, so the mass, before
    # rounding, within 9/3 probability_bound(t). Each square passes at most 4
    # additions, each rounding by u = eps/2 a partial sum of at most 3 (each
    # basis walk's site total is at most 1 + t STEP_ROUNDOFF): 12u = 6 eps in S,
    # 2 eps in the mass. The division and the reference round once each, u
    # each. Measured: 7.8e-16 at t = 50, 4.0e-15 at 200 and 7.3e-15 at 400
    # (about 0.08 eps per step), against the bound's 2.2e-12 at 400.
    walks = exact_walks(2 * max(LINE_TIMES) + 1, LINE_TIMES)
    for t in (50, 200, 400):
        x = light_cone(walks[t], t)
        exact = ((x * x).sum(axis=(0, 1)) / (3 * 9**t)).astype(float)
        masses = weaklimit.empirical_rescaled(t).masses
        assert np.abs(masses - exact).max() <= 3.0 * probability_bound(t) + 3.0 * EPS


#: The momentum routes are pinned at these times on criterion 6.1's sites
#: -20..20, for criterion 6.1's two states.
ROUTE_TIMES, ROUTE_HALF_WIDTH, ROUTE_STATES = (50, 200, 400), 20, (FIGURE_STATE, TEST_STATES[8])

#: Nodes of every quadrature.
NODES = spectral.DEFAULT_GRID_SIZE


def quadrature_bound(t: int, m: int) -> float:
    """Error allowed in each ``wavefunction_window(m, t, q)`` amplitude.

    A row is the mean over the G nodes k of sum_j e^{i x_j} c_j v_j, with
    x_j = theta_j t + k n and c_j = <v_j, q>; at exact nodes, phases and
    vectors that mean is the exact walk for t + |n| < G (the aliasing
    argument of ``spectral._check_reach``). The vectors are unitary, so a
    node's three terms weigh sum_j |c_j v_j| <= 1, and a row lies within the
    mean of the nodes' errors plus the rounding of the sum:
    - phases: k and theta lie within 4 eps of the exact values (measured 2.5
      and 2.0 eps against 120-bit ones), |dtheta/dk| <= 1/sqrt(3), theta t
      and k n round by at most pi u t and pi u |n|, and their sum by
      pi u (t + |n|), so x moves by at most (4 + 4/sqrt(3) + pi)(t + |n|)
      < 10 (t + |n|) eps; e^{ix} adds 2 eps;
    - vectors: summed over the branches, they lie within a mean of 5.8 eps
      per node of the exact ones at the exact nodes (measured against
      120-bit values; at most 5453 eps, next to k = 0, where the moving
      branches meet), and c_j moves by at most sqrt(3) times its vector:
      (1 + sqrt(3)) 5.8 < 16 eps;
    - the products and the three branches' sums: 4 eps;
    - the sum: each real part adds 2G products whose moduli total at most G,
      in an order BLAS chooses; any order rounds by at most 2G u G, which
      is G eps after the division by G, and sqrt(2) G eps for the modulus.
    The sum's worst case dominates: 6.1e-12 at t = 400 on -20..20. Measured
    on ROUTE_STATES: 6.6e-16 (3.0 eps) at t = 50, 1.5e-15 at 200 and
    1.7e-15 (7.4 eps) at 400; over criterion 5's six states, at most 8.5
    eps. The error does not grow with t.
    """
    return (math.sqrt(2.0) * NODES + 10.0 * (t + m) + 22.0) * EPS


def reconstruction_bound(t: int, m: int) -> float:
    """Error allowed in each stationary-plus-remainder amplitude at sites -m..m.

    - Stationary part: c = -5 + 2 sqrt(6) is within 2 u sqrt(6) < 2.5 eps
      (the subtraction is exact), each sequence value 2 c^(|n|+1) / (c^2 - 1)
      moves at most 2.1 times that and rounds by under 1 eps, so it is
      within 6 eps; an amplitude weighs three of them by at most
      2 (|alpha| + |beta| + |gamma|) <= 2 sqrt(3), and the weighing rounds
      by 3 eps: 24 eps. Measured over the 13 test states on -20..20 against
      120-bit values: 8.0 eps.
    - Remainder: an entry of the remainder matrix adds J and K at n - 1, n
      and n + 1 with coefficients of total modulus at most 5, 4, 2 along a
      row (4, 4, 4 in the middle row), so by Cauchy-Schwarz over q the
      amplitude moves by at most sqrt(48) < 7 times the error E of one
      kernel value; the assembly rounds by under 1 E more: 8 E.
    - Kernels: a value is the mean over the nodes of cos(k n) h(k), with
      h = cos(theta t) / (5 + cos k) <= 1/4 for J and h = sin(theta t) w(k)
      for K, w = 1/sqrt((5 + cos k)(1 - cos k)) = 1/(3 sin theta); NumPy
      adds the G values in an order of its own, which rounds by at most
      G u times the mean |h| <= mean w = W, 2.0985 on these nodes. The
      phases theta t and k n move as in ``quadrature_bound`` but round once
      each, by under 8 t + 6 |n| eps; the node's own error moves w by at
      most w |dtheta/dk| 4 eps / sin(theta) where |sin(theta t)| <= t
      sin(theta) multiplies it, under 2.4 t w eps; and the cos, sin,
      weights and products round by 6 eps. Each of |h| and its phase
      derivatives is at most w (w >= 1/3), so each value moves by at most
      w (11 (t + |n|) + 6) eps, and E <= W (G/2 + 11 (t + m + 1) + 6) eps.
    At t = 400 on -20..20 the bound is 4.8e-11, almost all of it the sums'
    worst case. Measured on ROUTE_STATES: 1.4e-15 (6.4 eps) at t = 50,
    1.5e-15 at 200 and 1.7e-15 (7.6 eps) at 400.
    """
    w = float(spectral._tableau(NODES)[5].mean())
    return (24.0 + 8.0 * w * (NODES / 2 + 11.0 * (t + m + 1) + 6.0)) * EPS


def route_exact(q: QubitState, t: int) -> np.ndarray:
    """The exact walk from q after t steps on the sites -ROUTE_HALF_WIDTH..ROUTE_HALF_WIDTH."""
    m = ROUTE_HALF_WIDTH
    x = light_cone(exact_walks(2 * max(LINE_TIMES) + 1, LINE_TIMES)[t], t)
    return exact_state(q, x[:, :, t - m : t + m + 1], t)


def test_wavefunction_window_is_within_the_quadrature_bound(route_error):
    for q in ROUTE_STATES:
        windows = spectral.wavefunction_window(ROUTE_HALF_WIDTH, ROUTE_TIMES, q)
        for t, window in zip(ROUTE_TIMES, windows):
            error = np.abs(window - route_exact(q, t)).max()
            route_error("quadrature", t, error)
            assert error <= quadrature_bound(t, ROUTE_HALF_WIDTH)


def test_stationary_plus_remainder_is_within_the_reconstruction_bound(route_error):
    m = ROUTE_HALF_WIDTH
    for q in ROUTE_STATES:
        stationary = np.array([[limit_amplitude(n, l, q) for l in (1, 2, 3)] for n in range(-m, m + 1)])
        for t, moving in zip(ROUTE_TIMES, spectral.remainder_window(m, ROUTE_TIMES, q)):
            error = np.abs(stationary + moving - route_exact(q, t)).max()
            route_error("reconstruction", t, error)
            assert error <= reconstruction_bound(t, m)
