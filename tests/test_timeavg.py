"""Cesaro time averages on cycles and the infinite-size closed forms."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given

from calls import record_calls
from states import (
    FIGURE_STATE,
    TEST_STATES,
    UNIFORM_STATE,
    ZERO_LOCALIZATION_STATE,
    qubit_states,
)
from triwalk import (
    ChiralVector,
    QubitState,
    cycle_time_average,
    distribution,
    eigenvalue_groups,
    evolve_cycle,
    fourier_operator,
    infinite_time_average_component,
    infinite_time_average_total,
    limit_component,
    momentum_blocks,
    step_cycle,
    timeavg,
)
from triwalk.spectral import _branches, eigensystem

SQRT6 = math.sqrt(6.0)


class TestMomentumBlocks:
    def test_block_count_and_momenta(self):
        blocks = momentum_blocks(7)
        assert type(blocks) is tuple
        assert all(type(block) is tuple and len(block) == 4 for block in blocks)
        assert [mode for mode, _, _, _ in blocks] == list(range(-3, 4))
        for mode, momentum, _, _ in blocks:
            assert type(mode) is int and type(momentum) is float
            assert momentum == 2.0 * math.pi * mode / 7.0

    def test_rejects_even_cycle(self):
        with pytest.raises(ValueError):
            momentum_blocks(8)

    def test_projectors_resolve_identity_and_operator(self):
        for _, momentum, operator, pairs in momentum_blocks(9):
            assert np.array_equal(operator, fourier_operator(momentum))
            total = sum(p for _, p in pairs)
            assert np.allclose(total, np.eye(3), atol=1e-13)
            rebuilt = sum(np.exp(1j * phase) * p for phase, p in pairs)
            assert np.allclose(rebuilt, operator, atol=1e-13)
            for _, p in pairs:
                assert np.allclose(p @ p, p, atol=1e-13)

    def test_projectors_are_read_only_views_into_one_stack(self):
        blocks = momentum_blocks(9)
        stack = blocks[0][3][0][1].base
        assert stack.shape == (3, 9, 3, 3)
        for _, _, operator, pairs in blocks:
            assert type(pairs) is tuple
            with pytest.raises(ValueError):
                operator[0, 0] = 1.0
            for pair in pairs:
                assert type(pair) is tuple and type(pair[0]) is float
                assert pair[1].base is stack
                with pytest.raises(ValueError):
                    pair[1][0, 0] = 1.0

    @pytest.mark.parametrize("n_sites", [3, 5, 9, 101])
    def test_pairs_are_the_per_mode_loop_bit_for_bit(self, n_sites):
        reference = per_mode_pairs(n_sites)
        blocks = momentum_blocks(n_sites)
        assert [mode for mode, _, _, _ in blocks] == list(reference)
        for mode, momentum, _, pairs in blocks:
            expected_momentum, expected = reference[mode]
            assert momentum == expected_momentum
            assert [phase for phase, _ in pairs] == [phase for phase, _ in expected]
            for (_, p), (_, e) in zip(pairs, expected, strict=True):
                assert p.tobytes() == e.tobytes()

    def test_mode_zero_pairs_are_rank_one_and_two(self):
        mode, _, _, pairs = momentum_blocks(5)[2]
        assert mode == 0
        phases = [phase for phase, _ in pairs]
        assert phases == [0.0, math.pi]
        ranks = [round(float(np.trace(p).real)) for _, p in pairs]
        assert ranks == [1, 2]
        # The mode-0 operator is the bare coin; its spectral form is
        # 2 P - I with P projecting on the uniform vector.
        p_stationary = pairs[0][1]
        assert np.allclose(
            2.0 * p_stationary - np.eye(3), fourier_operator(0.0), atol=1e-13
        )


class TestPerModeCalls:
    # The benchmark's tracer test pins these call shapes of ``timeavg --sites
    # 5``; the wrappers rebind the names in timeavg's module globals, as it does.
    def test_each_block_makes_its_own_calls(self, monkeypatch):
        log = record_calls(monkeypatch, timeavg, "momentum_blocks", "fourier_operator", "dispersion")
        blocks = timeavg.momentum_blocks(5)
        assert len(blocks) == 5
        assert log[0] == ("momentum_blocks", None, blocks)
        inside = [name for name, parent, _ in log[1:] if parent == 0]
        assert len(inside) == len(log) - 1
        assert inside.count("fourier_operator") == 5 and inside.count("dispersion") == 4

    def test_the_average_groups_once(self, monkeypatch):
        names = ("eigenvalue_groups", "momentum_blocks", "fourier_operator", "dispersion")
        log = record_calls(monkeypatch, timeavg, *names)
        timeavg.cycle_time_average(5, FIGURE_STATE)
        calls = [(name, parent) for name, parent, _ in log]
        assert [i for i, (name, _) in enumerate(calls) if name == "eigenvalue_groups"] == [0]
        assert calls[0][1] is None and len(log[0][2]) == 6
        blocks = [i for i, (name, _) in enumerate(calls) if name == "momentum_blocks"]
        assert len(blocks) == 1 and calls[blocks[0]][1] == 0 and len(log[blocks[0]][2]) == 5
        inside = [name for name, parent in calls if parent == blocks[0]]
        assert sorted(inside) == ["dispersion"] * 4 + ["fourier_operator"] * 5
        assert len(calls) == 2 + 4 + 5
        assert len(eigenvalue_groups(5, FIGURE_STATE)) == 6


def eig_reference_average(n_sites: int, q: QubitState, site: int) -> float:
    """Cesaro average at ``site`` from NumPy ``eig`` of every 3x3 momentum block.

    Each block is diag(e^{ik}, 1, e^{-ik}) times the coin, built here
    independently of the library. Per block the branches are ordered: the
    eigenvalue nearest 1 (stationary), then the other two by ascending
    Im(eigenvalue). Every stationary branch shares eigenvalue 1, the other
    two mode-0 branches share -1, and modes -m and +m share each moving
    branch.
    """
    coin = np.full((3, 3), 2.0 / 3.0) - np.eye(3)
    half = n_sites // 2
    k = 2.0 * math.pi * np.arange(-half, half + 1) / n_sites
    blocks = np.exp(1j * np.outer(k, [1.0, 0.0, -1.0]))[:, :, None] * coin
    values, vectors = np.linalg.eig(blocks)
    stationary = np.abs(values - 1.0) == np.min(np.abs(values - 1.0), axis=1, keepdims=True)
    order = np.argsort(np.where(stationary, -np.inf, values.imag), axis=1)
    values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
    # parts[mode, :, branch]: the initial state's component along each
    # eigenvector, carried to ``site`` by the plane wave.
    state = np.broadcast_to(q.as_array()[:, None], (len(k), 3, 1))
    coefficients = np.linalg.solve(vectors, state)[:, :, 0]
    parts = vectors * coefficients[:, None, :] * (np.exp(1j * k * site) / n_sites)[:, None, None]
    assert np.allclose(values[:, 0], 1.0, atol=1e-12)
    assert np.allclose(values[half, 1:], -1.0, atol=1e-12)
    assert np.allclose(values[:half][::-1], values[half + 1 :], atol=1e-12)
    groups = [parts[:, :, 0].sum(axis=0), parts[half, :, 1] + parts[half, :, 2]]
    for branch in (1, 2):
        groups += list(parts[:half][::-1, :, branch] + parts[half + 1 :, :, branch])
    return float(sum(np.sum(np.abs(g) ** 2) for g in groups))


@functools.lru_cache(maxsize=1)
def per_mode_pairs(n_sites: int) -> dict:
    """(momentum, pairs) per mode, one block at a time.

    The scalar per-mode loop the library ran before it built the spectrum as
    arrays: one eigensystem per mode and one ``np.outer`` per branch. Mode 0
    (k = 0), where ``eigensystem`` refuses the degenerate moving branches,
    takes its stationary vector from ``_branches`` alone.
    """
    half = n_sites // 2
    blocks = {}
    for mode in range(-half, half + 1):
        momentum = 2.0 * math.pi * mode / n_sites
        if mode == 0:
            stationary_vec = _branches(0.0, 0.0)[1][0]
            p_stationary = np.outer(stationary_vec, stationary_vec.conj())
            pairs = ((0.0, p_stationary), (math.pi, np.eye(3, dtype=complex) - p_stationary))
        else:
            (_, theta, _), vectors = eigensystem(momentum)
            projectors = [np.outer(vector, vector.conj()) for vector in vectors]
            pairs = ((0.0, projectors[0]), (theta, projectors[1]), (-theta, projectors[2]))
        blocks[mode] = (momentum, pairs)
    return blocks


def per_mode_groups(n_sites: int, q: QubitState, site: int) -> list:
    """(phase, amplitude) per eigenvalue group, summed mode by mode in Python."""
    q_arr = q.as_array()
    amp, theta = {}, {}
    for mode, (momentum, pairs) in per_mode_pairs(n_sites).items():
        wave = np.exp(1j * momentum * site) / n_sites
        amp[mode] = [wave * (projector @ q_arr) for _, projector in pairs]
        theta[mode] = pairs[1][0]
    half = n_sites // 2
    modes = range(-half, half + 1)
    return [
        (0.0, sum(amp[m][0] for m in modes)),
        *((theta[m], amp[-m][1] + amp[m][1]) for m in range(half, 0, -1)),
        (math.pi, amp[0][1]),
        *((2.0 * math.pi - theta[m], amp[-m][2] + amp[m][2]) for m in range(1, half + 1)),
    ]


class TestEigenvalueGroups:
    @pytest.mark.parametrize("n_sites", [3, 5, 9, 101, 1001, 4001])
    def test_bit_identical_to_per_mode_loop(self, n_sites):
        states = (FIGURE_STATE, UNIFORM_STATE, ZERO_LOCALIZATION_STATE, TEST_STATES[-1])
        for q in states:
            for site in sorted({0, 1, n_sites // 3}):
                reference = per_mode_groups(n_sites, q, site)
                groups = eigenvalue_groups(n_sites, q, site)
                assert type(groups) is tuple
                assert all(type(group) is tuple and len(group) == 3 for group in groups)
                assert [phase for phase, _, _ in groups] == [phase for phase, _ in reference]
                assert all(type(phase) is float for phase, _, _ in groups)
                assert [amplitude for _, _, amplitude in groups] == [
                    ChiralVector.from_array(a) for _, a in reference
                ]
                total = 0.0
                for _, a in reference:
                    total += ChiralVector.from_array(a).probability()
                assert cycle_time_average(n_sites, q, site) == total

    def test_group_structure(self):
        for n_sites in (9, 101):
            groups = eigenvalue_groups(n_sites, FIGURE_STATE)
            assert len(groups) == n_sites + 1
            for _, members, amplitude in groups:
                assert type(members) is tuple and type(amplitude) is ChiralVector
                assert all(type(member) is tuple and list(map(type, member)) == [int, int] for member in members)
            stationary = [members for phase, members, _ in groups if phase < 1e-9]
            assert len(stationary) == 1
            assert len(stationary[0]) == n_sites
            assert all(branch == 1 for _, branch in stationary[0])
            flipped = [members for phase, members, _ in groups if abs(phase - math.pi) < 1e-9]
            assert len(flipped) == 1
            assert sorted(flipped[0]) == [(0, 2), (0, 3)]
            for _, members, _ in groups:
                if members is stationary[0] or members is flipped[0]:
                    continue
                modes = sorted(m for m, _ in members)
                assert len(modes) == 2 and modes[0] == -modes[1] != 0
                assert len({branch for _, branch in members}) == 1
            # Every (mode, branch) label lands in exactly one group, at its
            # own block eigenphase taken into [0, 2 pi); mode 0's rank-2 pair
            # is labelled (0, 2) and (0, 3).
            labels = [member for _, members, _ in groups for member in members]
            assert len(labels) == len(set(labels)) == 3 * n_sites
            phase_of = {member: phase for phase, members, _ in groups for member in members}
            for mode, _, _, pairs in momentum_blocks(n_sites):
                for branch, (phase, _) in enumerate(pairs, start=1):
                    assert phase_of[mode, branch] == pytest.approx(
                        phase % (2.0 * math.pi), abs=1e-15
                    )

    def test_phases_sorted_and_distinct(self):
        for n_sites in (7, 101):
            phases = [phase for phase, _, _ in eigenvalue_groups(n_sites, FIGURE_STATE)]
            assert phases == sorted(phases)
            assert min(np.diff(phases)) > 1e-6
            assert phases[0] == 0.0 and phases[-1] < 2.0 * math.pi


class TestCycleTimeAverage:
    def test_matches_eig_reference(self):
        for n_sites in (3, 9, 101, 1001):
            for q in (FIGURE_STATE, UNIFORM_STATE, ZERO_LOCALIZATION_STATE, TEST_STATES[-1]):
                for site in {0, 1, n_sites // 3}:
                    reference = eig_reference_average(n_sites, q, site)
                    assert cycle_time_average(n_sites, q, site) == pytest.approx(
                        reference, abs=1e-12
                    )

    def test_matches_eig_reference_at_ten_thousand_sites(self):
        n_sites = 10001
        reference = eig_reference_average(n_sites, TEST_STATES[-1], n_sites // 3)
        assert cycle_time_average(n_sites, TEST_STATES[-1], n_sites // 3) == pytest.approx(
            reference, abs=1e-12
        )

    def test_matches_brute_force_on_periodic_cycle(self):
        # On three sites every eigenphase is a multiple of pi/3, so the walk
        # is exactly periodic with period 6; a running average over whole
        # periods is the true Cesaro limit, not an approximation of it.
        q = QubitState(0.5, 0.5, 0.5 + 0.5j)
        state = evolve_cycle(q, 3, 0)
        steps = 600
        acc = 0.0
        for _ in range(steps):
            acc += distribution(state).total(0)
            state = step_cycle(state)
        brute = acc / steps
        assert cycle_time_average(3, q) == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("n_sites", [3, 5, 101])
    def test_a_far_site_reads_its_residue(self, n_sites):
        # The plane wave was formed from the raw site: on N = 5 the figure
        # state read 0.2306021966923368 at site 1 but 0.25204930674231674 at
        # site 1 + 5 * 10^15, where k * site had lost its last bits.
        def values(site):
            groups = eigenvalue_groups(n_sites, FIGURE_STATE, site)
            amplitudes = np.array([amplitude.as_array() for _, _, amplitude in groups])
            return cycle_time_average(n_sites, FIGURE_STATE, site), amplitudes.tobytes()

        for site in range(n_sites) if n_sites < 10 else (0, 1, n_sites // 2, n_sites - 1):
            expected = values(site)
            # j = -1 makes each negative site of the ring's first lap.
            for j in (1, -1, -2, 10**15, 2**63, -(2**63), 10**400, -(10**400)):
                assert values(site + j * n_sites) == expected

    def test_against_figure_value(self):
        average = cycle_time_average(101, FIGURE_STATE)
        assert average == pytest.approx(0.2020410, abs=0.02)

    def test_zero_localization_state_scales_away(self):
        # The limit average is exactly zero; on a finite ring only the
        # O(1/N) residue survives.
        assert infinite_time_average_total(ZERO_LOCALIZATION_STATE) == 0.0
        assert cycle_time_average(101, ZERO_LOCALIZATION_STATE) < 0.02

    def test_averages_sum_to_one_over_sites(self):
        n_sites = 9
        total = sum(
            cycle_time_average(n_sites, FIGURE_STATE, site)
            for site in range(n_sites)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_gap_shrinks_like_one_over_n(self):
        limit = infinite_time_average_total(FIGURE_STATE)
        gaps = [
            abs(cycle_time_average(n, FIGURE_STATE) - limit)
            for n in (51, 101, 201)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        for n, gap in zip((51, 101, 201), gaps):
            assert n * gap < 5.0

    @given(qubit_states())
    def test_bounded(self, q):
        value = cycle_time_average(11, q)
        assert 0.0 <= value <= 1.0


class TestInfiniteAverage:
    def test_side_component_value(self):
        expected = (25.0 - 10.0 * SQRT6) / 6.0
        assert infinite_time_average_component(1, FIGURE_STATE) == pytest.approx(
            expected, abs=1e-12
        )
        assert infinite_time_average_component(1, FIGURE_STATE) == pytest.approx(
            0.0841838, abs=1e-7
        )

    def test_stayer_free_states_share_one_value(self):
        # Every state with vanishing middle amplitude lands on exactly
        # 2(5 - 2 sqrt 6), the dashed-line level of the origin trace.
        level = 2.0 * (5.0 - 2.0 * SQRT6)
        stayer_free = [
            FIGURE_STATE,
            QubitState(1.0, 0.0, 0.0),
            QubitState(0.6, 0.0, 0.8j),
            QubitState(1j / math.sqrt(2.0), 0.0, -1.0 / math.sqrt(2.0)),
        ]
        for q in stayer_free:
            assert infinite_time_average_total(q) == pytest.approx(level, abs=1e-14)

    def test_supremum_is_reached_by_uniform_state(self):
        # The closed form is (5 - 2 sqrt 6) (1 + q* M q) with M having top
        # eigenvalue 2 along (1, 1, 1); no state can exceed 3(5 - 2 sqrt 6).
        bound = 3.0 * (5.0 - 2.0 * SQRT6)
        uniform = QubitState(
            1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)
        )
        assert infinite_time_average_total(uniform) == pytest.approx(bound, abs=1e-14)
        for q in TEST_STATES:
            assert infinite_time_average_total(q) <= bound + 1e-12

    def test_middle_component_vanishes_for_zero_sum_states(self):
        q = QubitState(1.0 / math.sqrt(2.0), 0.0, -1.0 / math.sqrt(2.0))
        assert infinite_time_average_component(2, q) == 0.0

    @given(qubit_states())
    def test_total_is_sum_of_components(self, q):
        total = infinite_time_average_total(q)
        parts = sum(infinite_time_average_component(l, q) for l in (1, 2, 3))
        assert total == pytest.approx(parts, abs=1e-13)

    def test_equals_stationary_limit_at_origin(self):
        # The infinite-cycle time average at the starting site coincides with
        # the localized limit probability there, component by component.
        for q in TEST_STATES:
            for l in (1, 2, 3):
                assert infinite_time_average_component(l, q) == pytest.approx(
                    limit_component(0, l, q), abs=1e-14
                )
