"""Exact localized limit profile."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from states import (
    FIGURE_STATE,
    TEST_STATES,
    ZERO_LOCALIZATION_STATE,
    mirrored,
    qubit_states,
)
from triwalk import (
    GEOMETRIC_RATIO,
    QubitState,
    distribution,
    evolve_line,
    limit_amplitude,
    limit_component,
    limit_probability,
    localization_mass,
    stationary_profile,
    total_mass,
)
from triwalk.stationary import _limit_amplitudes, _sequence_value

SQRT6 = math.sqrt(6.0)


class TestGeometricRatio:
    def test_printed_value(self):
        assert GEOMETRIC_RATIO == pytest.approx(-0.1010205144, abs=1e-10)

    def test_quadratic_root(self):
        c = GEOMETRIC_RATIO
        assert c * c + 10.0 * c + 1.0 == pytest.approx(0.0, abs=1e-14)

    def test_contraction(self):
        assert -1.0 < GEOMETRIC_RATIO < 0.0


class TestKernel:
    def test_origin_value(self):
        assert _sequence_value(0) == pytest.approx(1.0 / (2.0 * SQRT6), abs=1e-14)

    def test_first_site_value(self):
        assert _sequence_value(1) == pytest.approx(-0.0206207, abs=1e-7)

    def test_even_in_site(self):
        for n in (1, 2, 5):
            assert _sequence_value(-n) == _sequence_value(n)

    def test_geometric_decay(self):
        for n in range(0, 6):
            ratio = _sequence_value(n + 1) / _sequence_value(n)
            assert ratio == pytest.approx(GEOMETRIC_RATIO, abs=1e-12)

    def test_amplitude_weights_of_pure_states(self):
        # Each pure initial component picks out one weight combination of the
        # sequence at sites n - 1, n, n + 1; the sums are exact.
        for n in (-4, -1, 0, 1, 3):
            here, right, left = (_sequence_value(n + d) for d in (0, 1, -1))
            weights = {
                (1, 0, 0): (2.0 * here, left + here, 2.0 * left),
                (0, 1, 0): (here + right, 0.5 * (left + 2.0 * here + right), left + here),
                (0, 0, 1): (2.0 * right, here + right, 2.0 * here),
            }
            for components, expected in weights.items():
                q = QubitState(*(float(c) for c in components))
                amplitudes = tuple(limit_amplitude(n, l, q) for l in (1, 2, 3))
                assert amplitudes == expected


class TestLimitValues:
    def test_origin_total_for_figure_state(self):
        assert limit_probability(0, FIGURE_STATE) == pytest.approx(
            10.0 - 4.0 * SQRT6, abs=1e-12
        )

    def test_origin_middle_component_for_figure_state(self):
        # |alpha + beta + gamma|^2 = 1 here, so the middle component is
        # (sqrt6 - 3)^2 / 9 on the nose.
        expected = (SQRT6 - 3.0) ** 2 / 9.0
        assert limit_component(0, 2, FIGURE_STATE) == pytest.approx(
            expected, abs=1e-12
        )

    def test_first_sites_for_figure_state(self):
        assert limit_probability(1, FIGURE_STATE) == pytest.approx(
            0.1020514, abs=1e-7
        )
        assert limit_probability(-1, FIGURE_STATE) == pytest.approx(
            limit_probability(1, FIGURE_STATE), abs=1e-15
        )

    def test_tail_contracts_by_ratio_squared(self):
        c2 = GEOMETRIC_RATIO**2
        for q in (FIGURE_STATE, TEST_STATES[8]):
            for n in range(1, 6):
                assert limit_probability(n + 1, q) == pytest.approx(
                    c2 * limit_probability(n, q), rel=1e-12
                )

    def test_zero_localization_state_has_no_localized_part(self):
        for n in range(-6, 7):
            for l in (1, 2, 3):
                assert limit_component(n, l, ZERO_LOCALIZATION_STATE) < 1e-30

    @given(qubit_states())
    def test_components_are_nonnegative(self, q):
        for n in (-2, 0, 3):
            for l in (1, 2, 3):
                assert limit_component(n, l, q) >= 0.0

    @given(qubit_states())
    def test_mirror_symmetry(self, q):
        flip = mirrored(q)
        for n in (-3, -1, 0, 2):
            assert limit_component(n, 1, q) == pytest.approx(
                limit_component(-n, 3, flip), abs=1e-14
            )
            assert limit_component(n, 2, q) == pytest.approx(
                limit_component(-n, 2, flip), abs=1e-14
            )


class TestTotalMass:
    def test_figure_state_value(self):
        assert total_mass(FIGURE_STATE) == pytest.approx(1.0 / SQRT6, abs=1e-12)

    def test_left_basis_state_value(self):
        assert total_mass(QubitState(1.0, 0.0, 0.0)) == pytest.approx(
            1.0 / SQRT6, abs=1e-12
        )

    def test_matches_truncated_series(self):
        # The tail beyond |n| = 60 is below c^120 ~ 1e-119; the closed form
        # and the brute sum must agree to full precision.
        for q in TEST_STATES:
            series = sum(limit_probability(n, q) for n in range(-60, 61))
            assert series == pytest.approx(total_mass(q), abs=1e-12)

    @given(qubit_states())
    def test_bounded_and_mirror_invariant(self, q):
        mass = total_mass(q)
        assert 0.0 <= mass < 1.0
        assert total_mass(mirrored(q)) == pytest.approx(mass, abs=1e-13)


class TestProfile:
    def test_window_contents(self):
        # Each profile is the scalar closed forms row by row, bit for bit.
        for q in (*TEST_STATES, ZERO_LOCALIZATION_STATE):
            for window in (4, 333):
                profile = stationary_profile(q, window)
                assert list(profile.sites()) == list(range(-window, window + 1))
                rows = [[limit_component(n, l, q) for l in (1, 2, 3)] for n in profile.sites()]
                assert profile.probabilities.tobytes() == np.array(rows).tobytes()
        profile = stationary_profile(FIGURE_STATE, 4)
        for n in profile.sites():
            assert profile.total(n) == limit_probability(n, FIGURE_STATE)
        for n in (-5, 5, 99):
            assert profile.total(n) == 0.0
        # The window misses only the tail beyond |n| = 4, below c^10 ~ 1e-10.
        assert sum(profile.totals.tolist()) < total_mass(FIGURE_STATE)
        assert sum(profile.totals.tolist()) == pytest.approx(total_mass(FIGURE_STATE), abs=1e-8)


    @pytest.mark.parametrize("window", [1, 162, 164, 5000])
    def test_every_square_is_pythons(self, window):
        # The profile squares in Python only where |z| >= 2^-538 (|n| up to
        # about 163); every other square rounds to +0.0 anyway. So the table is
        # Python's abs(z) ** 2 at every site, the sign of each zero included.
        for q in (*TEST_STATES, ZERO_LOCALIZATION_STATE):
            columns = _limit_amplitudes(np.arange(-window, window + 1), q)
            reference = np.array([[abs(z) ** 2 for z in column.tolist()] for column in columns]).T
            assert stationary_profile(q, window).probabilities.tobytes() == reference.tobytes()

    def test_the_exact_cut_lies_above_the_profiles(self):
        # A modulus squares to 0 up to 2^-537.5, a factor sqrt(2) above the
        # profile's cut: 2^-538 squares to 0, and 2^-537 to the least subnormal.
        assert (2.0**-538) ** 2 == 0.0
        assert (2.0**-537) ** 2 == 2.0**-1074 > 0.0

    @given(
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
        st.floats(min_value=0.0, max_value=2.0**-538, exclude_max=True),
    )
    @example(0.0, float(np.nextafter(2.0**-538, 0.0)))
    @example(math.pi / 4.0, float(np.nextafter(2.0**-538, 0.0)))
    @example(1.0, 5e-324)
    def test_a_modulus_below_the_cut_squares_to_plus_zero(self, angle, modulus):
        z = complex(modulus * math.cos(angle), modulus * math.sin(angle))
        if np.abs(z) < 2.0**-538:
            square = abs(z) ** 2
            assert square == 0.0 and math.copysign(1.0, square) == 1.0


class TestConvergenceOfSimulation:
    def test_direct_evolution_approaches_limit(self):
        dist = distribution(evolve_line(FIGURE_STATE, 1000))
        for n in range(-5, 6):
            gap = abs(dist.total(n) - limit_probability(n, FIGURE_STATE))
            assert gap < 0.01


def _sum_from_python_3_12(terms: list[float]) -> float:
    # The builtin sum() of floats from Python 3.12 on: Neumaier's compensated
    # sum, from the int 0, with the compensation added at the end.
    total, compensation = 0 + terms[0], 0.0
    for x in terms[1:]:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


class TestLeftToRightSums:
    # The library adds its few-term float sums left to right, so that their bits
    # do not move with the interpreter: a builtin sum() would be compensated
    # from Python 3.12 and plain addition before it.

    def test_limit_probability(self):
        moved = set()
        for i, q in enumerate(TEST_STATES):
            for n in range(-400, 401):
                terms = [limit_component(n, l, q) for l in (1, 2, 3)]
                value = limit_probability(n, q)
                assert value.hex() == (terms[0] + terms[1] + terms[2]).hex(), (i, n)
                if _sum_from_python_3_12(terms) != value:
                    moved.add((i, n))
        # The pin bites: a compensated sum moves the figure state's value at
        # n = 2 (and at 59 more of its sites), which test_window_contents compares
        # with the profile's left-to-right NumPy totals.
        assert TEST_STATES[0] is FIGURE_STATE and (0, 2) in moved

    def test_localization_mass(self):
        a, b, c = (total_mass(QubitState(*pure)) for pure in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert localization_mass().hex() == ((a + b + c) / 3.0).hex()
