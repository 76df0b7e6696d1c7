"""Acceptance gate: one test per agreed criterion, tolerances as literals.

Each test carries an ``acceptance`` marker; the conftest hook prints a
PASS/FAIL line per criterion after the run. Criteria 6 and 9 are split into
their independently checkable clauses. Two clauses (6.2 and 9.2) state
bounds the walk does not actually satisfy at the prescribed times; those
tests assert the stated numbers anyway and are expected to fail, with the
measured values recorded in the summary line. The physics behind both gaps
is discussed in the test docstrings.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from states import (
    FIGURE_STATE,
    TEST_STATES,
    UNIFORM_STATE,
    ALTERNATING_STATE,
    ZERO_LOCALIZATION_STATE,
    mirrored,
)
from triwalk import (
    QubitState,
    cdf_distance,
    continuous_mass,
    cycle_time_average,
    distribution,
    eigensystem,
    empirical_rescaled,
    evolve_cycle,
    evolve_line,
    fourier_operator,
    infinite_time_average_component,
    j_kernel,
    k_kernel,
    limit_amplitude,
    limit_component,
    limit_probability,
    localization_mass,
    quadrature_nodes,
    remainder_window,
    step_cycle,
    total_mass,
    wavefunction_window,
)

SQRT6 = math.sqrt(6.0)


@pytest.mark.acceptance(1, "stationary origin value")
def test_criterion_1_stationary_origin_value(criterion_detail):
    expected = 10.0 - 4.0 * SQRT6
    value = limit_probability(0, FIGURE_STATE)
    criterion_detail(f"P(0) = {value:.15f}, gap {abs(value - expected):.1e}")
    assert abs(value - expected) < 1e-12


@pytest.mark.acceptance(2, "localized mass totals")
def test_criterion_2_total_localized_mass(criterion_detail):
    cases = [
        (FIGURE_STATE, 1.0 / SQRT6),
        (UNIFORM_STATE, 3.0 - SQRT6),
        (ALTERNATING_STATE, (3.0 - SQRT6) / 9.0),
    ]
    gaps = [abs(total_mass(q) - want) for q, want in cases]
    criterion_detail(f"worst gap {max(gaps):.2e} over 3 states")
    for gap in gaps:
        assert gap < 1e-12


@pytest.mark.acceptance(3, "simulated origin probability reaches the limit")
def test_criterion_3_simulation_converges(criterion_detail):
    dist = distribution(evolve_line(FIGURE_STATE, 1000))
    gap = abs(dist.total(0) - 0.2020410)
    criterion_detail(f"P(0, 1000) = {dist.total(0):.7f}, gap {gap:.2e}")
    assert gap < 0.01


@pytest.mark.acceptance(4, "zero-localization state leaves nothing behind")
def test_criterion_4_zero_localization(criterion_detail):
    dist = distribution(evolve_line(ZERO_LOCALIZATION_STATE, 1000))
    p0 = dist.total(0)
    worst_closed = max(
        limit_component(n, l, ZERO_LOCALIZATION_STATE)
        for n in range(-20, 21)
        for l in (1, 2, 3)
    )
    criterion_detail(f"P(0, 1000) = {p0:.2e}, worst closed form {worst_closed:.2e}")
    assert p0 < 0.01
    assert worst_closed < 1e-12


@pytest.mark.acceptance(5, "quadrature wavefunction equals direct evolution")
def test_criterion_5_spectral_direct_equivalence(criterion_detail):
    # The quadrature runs on the package's one grid of 16384 nodes. Window
    # rows equal the pointwise wavefunction bit for bit (test_spectral).
    states = [
        FIGURE_STATE,
        QubitState(1.0, 0.0, 0.0),
        QubitState(0.0, 1.0, 0.0),
        UNIFORM_STATE,
        TEST_STATES[8],
        TEST_STATES[9],
    ]
    worst = 0.0
    for q in states:
        for t in (1, 5, 20, 50):
            direct = evolve_line(q, t)
            window = wavefunction_window(t, t, q)
            for n in range(-t, t + 1):
                gap = np.max(np.abs(window[n + t] - direct.amplitude(n).as_array()))
                worst = max(worst, float(gap))
    criterion_detail(f"worst componentwise gap {worst:.2e} over 6 states")
    assert worst < 1e-6


@pytest.mark.acceptance(6.1, "stationary plus remainder reconstructs the walk")
def test_criterion_6_reconstruction(criterion_detail):
    # Window rows equal the pointwise remainder bit for bit (test_spectral).
    worst = 0.0
    times = (0, 1, 5, 20, 50)
    for q in (FIGURE_STATE, TEST_STATES[8]):
        windows = remainder_window(20, times, q)
        for t, moving in zip(times, windows):
            direct = evolve_line(q, t)
            for n in range(-20, 21):
                stationary = np.array(
                    [limit_amplitude(n, l, q) for l in (1, 2, 3)]
                )
                gap = np.max(
                    np.abs(stationary + moving[n + 20] - direct.amplitude(n).as_array())
                )
                worst = max(worst, float(gap))
    criterion_detail(f"worst reconstruction gap {worst:.2e}")
    assert worst < 1e-6


@pytest.mark.acceptance(6.2, "oscillatory kernels decay below 1e-2 by t = 1000")
def test_criterion_6_kernel_bounds(criterion_detail):
    """Late-time smallness of both remainder kernels at the origin.

    The J integral passes both requirements comfortably. The difference of
    neighboring K integrals does sit below its early-time size, but its
    decay is of stationary-phase type, an envelope falling like roughly
    0.47/sqrt(t) with a slow beat on top: at t = 1000 that envelope is
    about 1.5e-2, and the measured value is 1.457e-2 on any adequate grid
    (the number is stable from 2^14 through 2^18 nodes, so it is not a
    quadrature artifact). Nearby times range between 4e-4 and 1.5e-2, so a
    pointwise 1e-2 bound at exactly t = 1000 is not a property this walk
    has; the sqrt-decay only guarantees it for t beyond roughly 2200. The
    assertion keeps the stated bound and is expected to fail.
    """
    j_early = abs(j_kernel(0, 10))
    j_late = abs(j_kernel(0, 1000))
    k_early = abs(k_kernel(0, 10) - k_kernel(1, 10))
    k_late = abs(k_kernel(0, 1000) - k_kernel(1, 1000))
    criterion_detail(
        f"|J|: {j_early:.4e} -> {j_late:.4e}; |dK|: {k_early:.4e} -> {k_late:.4e}"
    )
    assert j_late < j_early
    assert k_late < k_early
    assert j_late < 1e-2
    assert k_late < 1e-2, (
        f"|K(0,1000) - K(1,1000)| = {k_late:.6e} exceeds 1e-2; "
        "its sqrt-law envelope is still about 1.5e-2 at t = 1000"
    )


@pytest.mark.acceptance(7, "time-average chain from brute force to closed form")
def test_criterion_7_time_average_chain(criterion_detail):
    # Brute-force Cesaro average on a small ring against the eigenspace
    # projection formula.
    n_sites = 7
    steps = 100_000
    state = evolve_cycle(FIGURE_STATE, n_sites, 0)
    acc = 0.0
    for _ in range(steps):
        acc += float(np.sum(np.abs(state.amplitudes[0]) ** 2))
        state = step_cycle(state)
    brute = acc / steps
    exact = cycle_time_average(n_sites, FIGURE_STATE)
    brute_gap = abs(brute - exact)

    limit = sum(infinite_time_average_component(l, FIGURE_STATE) for l in (1, 2, 3))
    gaps = [abs(cycle_time_average(n, FIGURE_STATE) - limit) for n in (51, 101, 201)]

    component_gap = max(
        abs(infinite_time_average_component(l, q) - limit_component(0, l, q))
        for q in TEST_STATES
        for l in (1, 2, 3)
    )
    criterion_detail(
        f"brute gap {brute_gap:.2e}; N gaps {gaps[0]:.4f} > {gaps[1]:.4f} > "
        f"{gaps[2]:.4f}; component gap {component_gap:.2e}"
    )
    assert brute_gap < 1e-3
    assert gaps[0] > gaps[1] > gaps[2]
    assert component_gap < 1e-12


@pytest.mark.acceptance(8, "geometric tail decay")
def test_criterion_8_geometric_decay(criterion_detail):
    c_squared = (-5.0 + 2.0 * SQRT6) ** 2
    worst = 0.0
    for q in (FIGURE_STATE, QubitState(1.0, 0.0, 0.0), TEST_STATES[8]):
        for n in range(1, 21):
            ratio = limit_probability(n + 1, q) / limit_probability(n, q)
            worst = max(worst, abs(ratio - c_squared))
    criterion_detail(f"worst |ratio - c^2| = {worst:.2e} for 1 <= n <= 20")
    assert worst < 1e-12


@pytest.mark.acceptance(9.1, "weak-limit point mass and continuous mass")
def test_criterion_9_masses(criterion_detail):
    point = localization_mass()
    continuous = continuous_mass()
    criterion_detail(f"point {point:.15f}, continuous {continuous:.10f}")
    assert abs(point - 1.0 / 3.0) < 1e-12
    assert abs(continuous - 2.0 / 3.0) < 1e-6


@pytest.mark.acceptance(9.2, "empirical CDF approaches the limit CDF")
def test_criterion_9_cdf_distance(criterion_detail):
    """Kolmogorov distance of the rescaled mixture to the limit law.

    The limit CDF jumps by 1/3 at x = 0, but at any finite t the trapped
    probability is spread geometrically over sites around the origin
    rather than sitting on the single atom n = 0; the rescaled empirical
    CDF therefore undershoots the jump by a nearly t-independent amount.
    Measured distances: 0.0960 (t = 100), 0.0751 (t = 200), 0.0801
    (t = 500), 0.0817 (t = 1000): a floor near 0.08 with a slow beat, not
    a decay to zero, and not monotone between t = 200 and t = 500. Weak
    convergence still holds (the distance cannot converge in Kolmogorov
    metric at a discontinuity point of the limit). Both stated
    requirements are kept as written and are expected to fail.
    """
    distances = {t: cdf_distance(empirical_rescaled(t)) for t in (100, 200, 500)}
    criterion_detail(
        "KS distances "
        + ", ".join(f"t={t}: {d:.5f}" for t, d in distances.items())
    )
    assert distances[500] < 0.05, (
        f"Kolmogorov distance at t = 500 is {distances[500]:.5f}, above 0.05; "
        "the empirical CDF cannot close the 1/3 jump of the limit at x = 0"
    )
    assert distances[100] > distances[200] > distances[500], (
        "distance is not monotone: "
        + ", ".join(f"{d:.5f}" for d in distances.values())
    )


@pytest.mark.acceptance(10, "global property sweep")
def test_criterion_10_property_sweep(criterion_detail):
    # Probability conservation over a long run, line and ring.
    line = evolve_line(FIGURE_STATE, 1000)
    line_total = float(np.sum(np.abs(line.amplitudes) ** 2))
    ring = evolve_cycle(FIGURE_STATE, 101, 1000)
    ring_total = float(np.sum(np.abs(ring.amplitudes) ** 2))
    assert abs(line_total - 1.0) < 1e-12
    assert abs(ring_total - 1.0) < 1e-12

    # Mirror symmetry: reflecting the internal state reflects the walk.
    for q in (FIGURE_STATE, TEST_STATES[8]):
        dist = distribution(evolve_line(q, 50))
        flipped = distribution(evolve_line(mirrored(q), 50))
        # Rows run over sites -50..50, columns (p_L, p_0, p_R): reversing
        # both maps site n to -n and swaps the movers.
        assert dist.first_site == flipped.first_site == -50
        assert dist.probabilities == pytest.approx(flipped.probabilities[::-1, ::-1], abs=1e-12)

    # Support bound: after t steps nothing lives beyond |n| = t.
    out = evolve_line(TEST_STATES[9], 37)
    assert list(out.sites) == list(range(-37, 38))
    assert np.max(np.abs(out.amplitude(38).as_array())) == 0.0
    assert np.max(np.abs(out.amplitude(-40).as_array())) == 0.0

    # Eigenvector quality across a full momentum sweep.
    worst_gram = 0.0
    worst_residual = 0.0
    for k in quadrature_nodes(1024):
        phases, vectors = eigensystem(float(k))
        gram = vectors.conj() @ vectors.T
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(3)))))
        op = fourier_operator(float(k))
        for phase, vec in zip(phases, vectors):
            residual = np.max(np.abs(op @ vec - np.exp(1j * phase) * vec))
            worst_residual = max(worst_residual, float(residual))
    criterion_detail(
        f"conservation gaps {abs(line_total - 1.0):.1e}/{abs(ring_total - 1.0):.1e}; "
        f"gram {worst_gram:.1e}; residual {worst_residual:.1e}"
    )
    assert worst_gram < 1e-12
    assert worst_residual < 1e-12
