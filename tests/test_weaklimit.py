"""Rescaled-position limit distribution and empirical comparison."""

from __future__ import annotations

import math

import numpy as np
import pytest

from triwalk import walk
from triwalk import (
    SUPPORT_EDGE,
    EmpiricalRescaled,
    QubitState,
    cdf_distance,
    continuous_mass,
    density,
    empirical_rescaled,
    evolve_line,
    limit_cdf,
    localization_mass,
)

POINT_MASS = 1.0 / 3.0


def gauss_mass(lower: float, upper: float) -> float:
    """Integral of ``density`` over [lower, upper] by 40-node Gauss-Legendre.

    A reference independent of the closed-form antiderivatives. The
    substitution x = sin(u) / sqrt(3) removes the inverse-square-root blowup
    of the density at the support edge.
    """
    scale = math.sqrt(3.0)
    u_lo, u_hi = math.asin(lower * scale), math.asin(upper * scale)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    u = 0.5 * (u_hi - u_lo) * nodes + 0.5 * (u_hi + u_lo)
    values = np.array([density(float(x)) for x in np.sin(u) / scale]) * np.cos(u) / scale
    return 0.5 * (u_hi - u_lo) * float(weights @ values)


class TestDensity:
    def test_value_at_origin(self):
        assert density(0.0) == pytest.approx(
            math.sqrt(8.0) / (3.0 * math.pi), abs=1e-15
        )
        assert density(0.0) == pytest.approx(0.3001054, abs=1e-7)

    def test_vanishes_outside_support(self):
        assert density(0.9) == 0.0
        assert density(-0.75) == 0.0
        for edge in (SUPPORT_EDGE, -SUPPORT_EDGE):
            assert density(edge) == 0.0
            assert density(float(np.nextafter(edge, 0.0))) > 0.0

    def test_even_and_increasing_toward_edges(self):
        for x in (0.1, 0.3, 0.55):
            assert density(-x) == density(x)
        assert density(0.0) < density(0.3) < density(0.5) < density(0.57)

    def test_rejects_impossible_rescaled_position(self):
        with pytest.raises(ValueError):
            density(1.2)
        with pytest.raises(ValueError):
            density(-1.0001)


class TestContinuousMass:
    def test_full_support_integrates_to_two_thirds(self):
        assert continuous_mass() == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_half_support(self):
        assert continuous_mass(0.0, SUPPORT_EDGE) == pytest.approx(
            1.0 / 3.0, abs=1e-9
        )

    def test_even_split(self):
        left = continuous_mass(-0.31, 0.0)
        right = continuous_mass(0.0, 0.31)
        assert left == pytest.approx(right, abs=1e-12)
        assert left + right < 2.0 / 3.0

    def test_clips_to_support(self):
        assert continuous_mass(-5.0, 5.0) == pytest.approx(
            continuous_mass(), abs=1e-12
        )
        assert continuous_mass(0.9, 1.0) == 0.0

    def test_masses_either_side_add_up(self):
        edges = (-1.0, -SUPPORT_EDGE, SUPPORT_EDGE, 1.0)
        inner = [float(np.nextafter(e, 0.0)) for e in edges]
        whole = continuous_mass(-1.0, 1.0)
        for x in (*edges, *inner, -1e-9, 0.0, 0.123, 0.55):
            total = continuous_mass(-1.0, x) + continuous_mass(x, 1.0)
            assert abs(total - whole) <= 1e-15, x


class TestLocalizationMass:
    def test_exactly_one_third(self):
        assert localization_mass() == pytest.approx(POINT_MASS, abs=1e-12)

    def test_complements_continuous_part(self):
        assert localization_mass() + continuous_mass() == pytest.approx(
            1.0, abs=1e-9
        )


class TestLimitCdf:
    def test_edges(self):
        assert limit_cdf(-1.0) == 0.0
        assert limit_cdf(-SUPPORT_EDGE) == 0.0
        assert limit_cdf(SUPPORT_EDGE) == 1.0
        assert limit_cdf(1.0) == 1.0

    def test_jump_at_origin(self):
        assert limit_cdf(0.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert limit_cdf(-1e-12) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_monotone(self):
        xs = np.linspace(-1.0, 1.0, 401)
        values = [limit_cdf(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_derivative_recovers_density(self):
        for x in (-0.4, 0.15, 0.3, 0.5):
            h = 1e-6
            numeric = (limit_cdf(x + h) - limit_cdf(x - h)) / (2.0 * h)
            assert numeric == pytest.approx(density(x), rel=1e-5)

    def test_rejects_nan(self):
        # These returned NaN, while density(nan) raises.
        calls = [
            lambda: limit_cdf(math.nan),
            lambda: limit_cdf(np.array([math.nan, 0.1, 0.9])),
            lambda: limit_cdf(np.array([-0.9, math.nan, 0.9])),
            lambda: limit_cdf(np.array([-0.9, 0.1, math.nan])),
            lambda: continuous_mass(math.nan, 0.0),
            lambda: continuous_mass(-0.2, math.nan),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_is_the_written_out_closed_form_bit_for_bit(self):
        # 1/3 + (2 / 3 pi) atan(sqrt 2 x / sqrt(1 - 3 x^2)) plus the 1/3 jump,
        # at every position of weaklimit --steps 2000 and at the edges: the
        # arithmetic that weaklimit.csv pins to 17 digits.
        xs = [float(x) for x in np.arange(-2000, 2001) / 2000.0]
        xs += [SUPPORT_EDGE, -SUPPORT_EDGE, 1.0, -1.0, 0.0, -0.0]
        for x in xs:
            jump = POINT_MASS if x >= 0.0 else 0.0
            if x <= -SUPPORT_EDGE:
                expected = 0.0
            elif x >= SUPPORT_EDGE:
                expected = 1.0
            else:
                root = math.sqrt(1.0 - 3.0 * x * x)
                atan = math.atan(math.sqrt(2.0) * x / root)
                expected = POINT_MASS + (2.0 / (3.0 * math.pi)) * atan + jump
            assert limit_cdf(x) == expected, x

    def test_array_is_the_scalar_path_bit_for_bit(self):
        # One call over every position of weaklimit --steps t gives the bytes
        # of one scalar call per position; so do the support edges, their
        # neighbours, the ends and both zeros.
        edges = (SUPPORT_EDGE, -SUPPORT_EDGE)
        special = [*edges, *(np.nextafter(e, d) for e in edges for d in (-1.0, 1.0))]
        special += [1.0, -1.0, 0.0, -0.0]
        for xs in [np.arange(-t, t + 1) / t for t in (100, 777, 2000, 12000)] + [np.array(special)]:
            scalar = np.array([limit_cdf(x) for x in xs.tolist()])
            assert limit_cdf(xs).tobytes() == scalar.tobytes()
        for x in (0.1, np.float64(0.1), -1.0, 1.0):
            assert type(limit_cdf(x)) is float

    def test_increments_match_quadrature(self):
        reference = gauss_mass(-0.2, 0.2)
        gap = limit_cdf(0.2) - limit_cdf(-0.2)
        assert gap == pytest.approx(reference + POINT_MASS, abs=1e-9)
        assert continuous_mass(-0.2, 0.2) == pytest.approx(reference, abs=1e-9)
        reference = gauss_mass(0.1, 0.5)
        gap_positive = limit_cdf(0.5) - limit_cdf(0.1)
        assert gap_positive == pytest.approx(reference, abs=1e-9)
        assert continuous_mass(0.1, 0.5) == pytest.approx(reference, abs=1e-9)


class TestEmpiricalRescaled:
    def test_shape_and_normalization(self):
        e = empirical_rescaled(40)
        assert e.time == 40
        assert e.positions[0] == -1.0
        assert e.positions[-1] == 1.0
        assert len(e.positions) == 81
        assert np.all(e.masses >= 0.0)
        assert float(e.masses.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_is_symmetric(self):
        e = empirical_rescaled(60)
        assert np.max(np.abs(e.masses - e.masses[::-1])) < 1e-14

    def test_mass_respects_ballistic_edge(self):
        # Group velocities of the moving branches never exceed 1/sqrt 3, so
        # essentially nothing survives beyond the support edge.
        e = empirical_rescaled(500)
        tail = float(e.masses[np.abs(e.positions) > SUPPORT_EDGE + 0.05].sum())
        assert tail < 1e-9

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            empirical_rescaled(0)

    def test_equals_three_separate_evolutions_exactly(self):
        # The batched evolution reproduces the per-state route bit for bit,
        # including the one- and two-step windows.
        for t in (1, 2, 3, 50, 2000):
            mixture = np.zeros(2 * t + 1)
            for components in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                amplitudes = evolve_line(QubitState(*components), t).amplitudes
                mixture += np.sum(np.abs(amplitudes) ** 2, axis=1)
            mixture /= 3.0
            assert np.array_equal(empirical_rescaled(t).masses, mixture)

    def test_each_state_is_checked_every_step(self, monkeypatch):
        # Each pure state's total on its block's window, the live window that
        # the block's last step e reaches ([-e, e] here), is compared on its
        # own after every step s, in step order and then state order: a coin
        # that moves norm from one basis state to another fails at the first
        # step, although the mixture keeps its total.
        seen = []
        check = walk._check_total

        def record(total, time, what):
            seen.append((what, time, total))
            check(total, time, what)

        monkeypatch.setattr(walk, "_check_total", record)
        t = walk._SCAN + 3
        empirical_rescaled(t)
        assert [entry[:2] for entry in seen] == [("line state", s) for s in range(1, t + 1) for _ in range(3)]
        totals = np.array([entry[2] for entry in seen]).reshape(t, 3)
        for s in range(1, t + 1):
            # One dot per chirality, on the columns [t + 1 - e, t + 2 + e) of
            # a (3, 3, 2t + 3) buffer, as empirical_rescaled lays them out,
            # with the state after s steps in [t + 1 - s, t + 2 + s).
            e = min(-(-s // walk._SCAN) * walk._SCAN, t)
            buffer = np.zeros((3, 3, 2 * t + 3))
            for i, components in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
                amplitudes = evolve_line(QubitState(*components), s).amplitudes
                buffer[i, :, t + 1 - s : t + 2 + s] = amplitudes.real.T
            rows = buffer[:, :, t + 1 - e : t + 2 + e]
            assert np.array_equal(totals[s - 1], np.vecdot(rows, rows).sum(axis=1))
        # The coin's columns, which the basis states meet, scaled: the first
        # state that moves is named, the second if the first keeps its norm.
        unscaled = np.asarray(walk._coin())
        for moved, failing in (((1.0 + 1e-6, 1.0 - 1e-6, 1.0), 0), ((1.0, 1.0 - 1e-6, 1.0 + 1e-6), 1)):
            seen.clear()
            coin = unscaled * np.sqrt(moved)
            assert float(np.sum(coin**2)) / 3.0 == pytest.approx(1.0, abs=1e-15)
            monkeypatch.setattr(walk, "_coin", lambda: coin)
            with pytest.raises(ValueError, match="line state breaks probability conservation: total = ") as failure:
                empirical_rescaled(100)
            assert [entry[:2] for entry in seen] == [("line state", 1)] * (failing + 1)
            assert str(failure.value).endswith(f"total = {seen[-1][2]!r}")
            assert seen[-1][2] == pytest.approx(moved[failing], abs=1e-12)

    def test_validation_of_hand_built_atoms(self):
        with pytest.raises(ValueError):
            EmpiricalRescaled(
                time=1,
                positions=np.array([0.5, -0.5]),
                masses=np.array([0.5, 0.5]),
            )
        with pytest.raises(ValueError):
            EmpiricalRescaled(
                time=1, positions=np.array([0.0]), masses=np.array([0.9])
            )
        with pytest.raises(ValueError):
            EmpiricalRescaled(
                time=1,
                positions=np.array([-2.0, 0.0]),
                masses=np.array([0.5, 0.5]),
            )

    def test_mass_tolerance_grows_with_time(self):
        # The mixture's mass drifts with t like the walk's norm: it is off
        # by -1.3e-12 at t = 12000, past a fixed 1e-12. A time is any int:
        # past float range the bound passes every float, and NaN and inf
        # still fail.
        positions = np.array([-0.5, 0.5])
        EmpiricalRescaled(time=12000, positions=positions, masses=np.array([0.5, 0.5 - 2e-12]))
        with pytest.raises(ValueError):
            EmpiricalRescaled(time=12000, positions=positions, masses=np.array([0.5, 0.5 - 1e-6]))
        for time in (2**63, 10**300, 10**400):
            assert EmpiricalRescaled(time, [0.0], [1.0]).time == time
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sum to 1"):
                EmpiricalRescaled(10**400, positions, [0.5, bad])


class TestCdfDistance:
    def test_single_atom_at_origin(self):
        e = EmpiricalRescaled(
            time=1, positions=np.array([0.0]), masses=np.array([1.0])
        )
        assert cdf_distance(e) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_atoms_at_support_edges(self):
        e = EmpiricalRescaled(
            time=1,
            positions=np.array([-SUPPORT_EDGE, SUPPORT_EDGE]),
            masses=np.array([0.5, 0.5]),
        )
        assert cdf_distance(e) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_value_at_t_100(self):
        # Fully deterministic pipeline: direct evolution plus a closed-form
        # CDF. The value is pinned to guard against silent regressions.
        assert cdf_distance(empirical_rescaled(100)) == pytest.approx(
            0.09602034547337879, abs=1e-9
        )

    def test_bounded(self):
        for t in (50, 120):
            d = cdf_distance(empirical_rescaled(t))
            assert 0.0 <= d <= 1.0
