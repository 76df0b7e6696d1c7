"""Direct evolution on the line and on cycles."""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given

from states import FIGURE_STATE, TEST_STATES, UNIFORM_STATE, mirrored, qubit_states
from triwalk import stationary, walk, weaklimit
from triwalk import (
    ChiralVector,
    CycleState,
    Distribution,
    LineState,
    QubitState,
    coin_matrix,
    distribution,
    evolve_cycle,
    evolve_line,
    projector_matrices,
    step_cycle,
    step_line,
)


class TestCoin:
    def test_matrix_entries(self):
        a = coin_matrix()
        expected = np.array(
            [[-1.0, 2.0, 2.0], [2.0, -1.0, 2.0], [2.0, 2.0, -1.0]]
        ) / 3.0
        assert np.array_equal(a, expected)

    def test_unitary_and_self_inverse(self):
        a = coin_matrix()
        assert np.allclose(a @ a.T, np.eye(3), atol=1e-15)
        # Real symmetric and unitary, hence an involution.
        assert np.allclose(a @ a, np.eye(3), atol=1e-15)

    def test_row_sums_are_one(self):
        assert np.allclose(coin_matrix().sum(axis=1), 1.0, atol=1e-15)

    def test_projectors_sum_to_coin(self):
        u_l, u_0, u_r = projector_matrices()
        assert np.array_equal(u_l + u_0 + u_r, coin_matrix())
        # Each factor keeps exactly one row of the coin.
        assert np.array_equal(u_l[0], coin_matrix()[0])
        assert np.count_nonzero(u_l[1:]) == 0
        assert np.count_nonzero(u_0[[0, 2]]) == 0
        assert np.count_nonzero(u_r[:2]) == 0


class TestQubitState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            QubitState(0.6, 0.8, 0.1)
        # A NaN norm compares False against any bound, so it must be
        # rejected explicitly rather than slip through.
        for bad in ((math.nan, 0.0, 0.0), (1.0, complex(0.0, math.nan), 0.0)):
            with pytest.raises(ValueError):
                QubitState(*bad)

    def test_accepts_unit_norm(self):
        q = QubitState(0.6, 0.0, 0.8j)
        assert q.as_array().shape == (3,)

    def test_norm_slack_survives_evolution(self):
        # |q|^2 = 1.00000000016 is inside NORM_TOLERANCE; the state checks
        # after each step must admit the same slack.
        q = QubitState(0.6, 0.0, 0.8000000001j)
        assert evolve_line(q, 3).time == 3
        assert evolve_cycle(q, 5, 3).time == 3

    def test_as_array_is_copy(self):
        q = FIGURE_STATE
        arr = q.as_array()
        arr[0] = 0.0
        assert q.alpha == 1j / math.sqrt(2.0)


class TestLineEvolution:
    def test_initial_state_is_point_mass(self):
        state = evolve_line(FIGURE_STATE, 0)
        assert state.time == 0
        assert list(state.sites) == [0]
        vec = state.amplitude(0)
        assert vec.as_array() == pytest.approx(FIGURE_STATE.as_array())

    def test_one_step_from_left_basis(self):
        # By hand: one application of the shift-conditioned coin to (1,0,0).
        state = step_line(evolve_line(QubitState(1.0, 0.0, 0.0), 0))
        dist = distribution(state)
        assert dist.total(-1) == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert dist.total(0) == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert dist.total(1) == pytest.approx(4.0 / 9.0, abs=1e-15)
        # Rows are sites -1, 0, 1; columns (p_L, p_0, p_R).
        assert dist.first_site == -1
        p = dist.probabilities
        assert p[0, 0] == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert p[1, 1] == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert p[2, 2] == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_one_step_from_middle_basis(self):
        state = step_line(evolve_line(QubitState(0.0, 1.0, 0.0), 0))
        dist = distribution(state)
        assert dist.total(-1) == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert dist.total(0) == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert dist.total(1) == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_one_step_from_figure_state(self):
        state = step_line(evolve_line(FIGURE_STATE, 0))
        dist = distribution(state)
        assert dist.total(-1) == pytest.approx(5.0 / 18.0, abs=1e-15)
        assert dist.total(0) == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert dist.total(1) == pytest.approx(5.0 / 18.0, abs=1e-15)

    def test_support_stays_within_light_cone(self):
        out = evolve_line(TEST_STATES[4], 7)
        assert list(out.sites) == list(range(-7, 8))
        assert sum(distribution(out).totals.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_probability_conserved_over_long_run(self):
        out = evolve_line(FIGURE_STATE, 300)
        assert abs(sum(distribution(out).totals.tolist()) - 1.0) < 1e-12

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            evolve_line(FIGURE_STATE, -1)

    @given(qubit_states())
    def test_mirror_symmetry(self, q):
        # Reflecting the initial chirality reflects the walk in space.
        t = 6
        dist = distribution(evolve_line(q, t))
        flipped = distribution(evolve_line(mirrored(q), t))
        # Reversing rows maps site n to -n; reversing columns swaps the movers.
        assert dist.first_site == flipped.first_site == -t
        assert dist.probabilities == pytest.approx(flipped.probabilities[::-1, ::-1], abs=1e-12)

    def test_determinism_bit_identical(self):
        a = evolve_line(FIGURE_STATE, 40)
        b = evolve_line(FIGURE_STATE, 40)
        assert np.array_equal(a.amplitudes, b.amplitudes)


class TestConservationCheck:
    @staticmethod
    def _single_site(total: float) -> np.ndarray:
        return np.array([[math.sqrt(total), 0.0, 0.0]], dtype=complex)

    def test_accepts_roundoff_drift_at_long_times(self):
        # Stepping drifts the norm by about 1.07e-16 per step.
        state = LineState(0, self._single_site(1.0 - 1.07e-12), time=10000)
        assert state.time == 10000
        ring = np.zeros((3, 3), dtype=complex)
        ring[0] = self._single_site(1.0 - 1.07e-12)[0]
        assert CycleState(3, ring, time=10000).time == 10000

    def test_rejects_real_loss(self):
        for time in (0, 10000):
            with pytest.raises(ValueError, match="conservation"):
                LineState(0, self._single_site(1.0 - 1e-6), time=time)
            with pytest.raises(ValueError, match="conservation"):
                LineState(0, self._single_site(1.0 + 1e-6), time=time)
        ring = np.zeros((3, 3), dtype=complex)
        ring[0] = self._single_site(1.0 - 1e-6)[0]
        with pytest.raises(ValueError, match="conservation"):
            CycleState(3, ring, time=10000)
        with pytest.raises(ValueError, match="conservation"):
            LineState(0, self._single_site(math.nan), time=0)

    @pytest.mark.parametrize("states", [1, 3])
    def test_block_rejects_nan_or_inf_in_one_total(self, states):
        # evolve_* compare a block of steps at once; one bad total anywhere in
        # it fails the block, and the first in step order is the one named.
        walk._check_totals(np.ones((8, states)), 1, "line state")
        for step in range(8):
            for state in range(states):
                for bad in (math.nan, math.inf, -math.inf):
                    totals = np.ones((8, states))
                    totals[-1, -1] = 2.0  # a later failure, not the one named
                    totals[step, state] = bad
                    with pytest.raises(ValueError, match=f"line state breaks .*: total = {bad!r}$"):
                        walk._check_totals(totals, 1, "line state")

    @pytest.mark.parametrize("states", [1, 3])
    def test_block_bound_is_sharp_at_every_step(self, states):
        # A total of 1 +- k 2^-52 is exact in floats, so the check admits it
        # exactly when k 2^-52 is within NORM_TOLERANCE + (s + 1) STEP_ROUNDOFF
        # for its own step s; STEP_ROUNDOFF is 16 units, so a neighbour's bound
        # would be off by 16.
        one = 2**52
        for first in (0, 10000):
            for row in range(8):
                bound = walk.NORM_TOLERANCE + (first + row + 1) * walk.STEP_ROUNDOFF
                inside = math.floor(bound * 2.0**52)
                for state in range(states):
                    for units, admitted in ((inside, True), (inside + 1, False)):
                        for total in (one + units, one - units):
                            totals = np.ones((8, states))
                            totals[row, state] = total * 2.0**-52
                            if admitted:
                                walk._check_totals(totals, first, "cycle state")
                            else:
                                with pytest.raises(ValueError, match="cycle state breaks"):
                                    walk._check_totals(totals, first, "cycle state")


class TestCycleEvolution:
    def test_rejects_even_or_tiny_rings(self):
        for n_sites in (4, 1):
            for t in (0, 3):
                with pytest.raises(ValueError, match="cycle size"):
                    evolve_cycle(FIGURE_STATE, n_sites, t)

    def test_localized_start(self):
        state = evolve_cycle(FIGURE_STATE, 7, 0)
        assert state.n_sites == 7
        dist = distribution(state)
        assert dist.total(0) == pytest.approx(1.0, abs=1e-15)
        assert dist.total(3) == 0.0

    def test_wraparound_folds_line_amplitudes(self):
        # The ring walk is the line walk pushed through the covering map:
        # ring amplitude at s equals the sum of line amplitudes over all
        # n congruent to s.  This stays exact after weight crosses the seam.
        n_sites = 5
        for q in (QubitState(1.0, 0.0, 0.0), FIGURE_STATE):
            for t in (3, 4, 8):
                ring = evolve_cycle(q, n_sites, t)
                line = evolve_line(q, t)
                folded = np.zeros((n_sites, 3), dtype=complex)
                for n in line.sites:
                    folded[n % n_sites] += line.amplitude(n).as_array()
                assert np.allclose(ring.amplitudes, folded, atol=1e-13)
        assert sum(distribution(evolve_cycle(FIGURE_STATE, 5, 8)).totals.tolist()) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_agrees_with_line_before_wraparound(self):
        n_sites = 11
        for q in TEST_STATES[:6]:
            t = (n_sites - 1) // 2 - 1
            ring = distribution(evolve_cycle(q, n_sites, t))
            line = distribution(evolve_line(q, t))
            for n in line.sites():
                assert ring.total(n % n_sites) == line.total(n)

    def test_probability_conserved(self):
        out = evolve_cycle(FIGURE_STATE, 9, 500)
        assert abs(sum(distribution(out).totals.tolist()) - 1.0) < 1e-12

    def test_step_preserves_shape(self):
        state = evolve_cycle(FIGURE_STATE, 9, 0)
        for _ in range(4):
            state = step_cycle(state)
        assert isinstance(state, CycleState)
        assert state.amplitudes.shape == (9, 3)
        assert state.time == 4


def reference_line(q: QubitState, t: int) -> np.ndarray:
    """t steps of (2/3)J - I and the shifts, on the 2t + 1 sites of [-t, t]."""
    psi = np.zeros((2 * t + 1, 3), dtype=complex)
    psi[t] = q.as_array()
    for _ in range(t):
        coined = (2.0 / 3.0) * psi.sum(axis=1, keepdims=True) - psi
        psi = np.zeros_like(psi)
        psi[:-1, 0] = coined[1:, 0]
        psi[:, 1] = coined[:, 1]
        psi[1:, 2] = coined[:-1, 2]
    return psi


def reference_cycle(q: QubitState, n_sites: int, t: int) -> np.ndarray:
    """t steps of (2/3)J - I and the shifts on a cycle of n_sites sites."""
    psi = np.zeros((n_sites, 3), dtype=complex)
    psi[0] = q.as_array()
    for _ in range(t):
        coined = (2.0 / 3.0) * psi.sum(axis=1, keepdims=True) - psi
        psi = np.stack(
            [np.roll(coined[:, 0], -1), coined[:, 1], np.roll(coined[:, 2], 1)], axis=1
        )
    return psi


#: Real basis states, which the kernel steps as one real part, and
#: complex states, which it steps as a real and an imaginary part.
STEPPER_STATES = (
    QubitState(1.0, 0.0, 0.0),
    QubitState(0.0, 1.0, 0.0),
    QubitState(0.0, 0.0, 1.0),
    FIGURE_STATE,
    TEST_STATES[8],
    TEST_STATES[9],
)


class TestStepper:
    def test_zero_steps_hold_the_qubit_at_site_0(self):
        for q in TEST_STATES:
            line = evolve_line(q, 0)
            assert (line.origin_offset, line.time) == (0, 0)
            assert np.array_equal(line.amplitudes, q.as_array()[None, :])
            for n_sites in (3, 9):
                ring = evolve_cycle(q, n_sites, 0)
                assert ring.time == 0
                assert np.array_equal(ring.amplitudes[0], q.as_array())
                assert not ring.amplitudes[1:].any()

    def test_evolve_line_is_chained_step_line(self):
        checkpoints = (0, 1, 2, 37, 300)
        for q in STEPPER_STATES:
            state = evolve_line(q, 0)
            for t in range(checkpoints[-1] + 1):
                if t in checkpoints:
                    out = evolve_line(q, t)
                    assert (out.origin_offset, out.time) == (state.origin_offset, t)
                    assert np.array_equal(out.amplitudes, state.amplitudes)
                state = step_line(state)

    def test_first_steps_keep_the_zero_neighbours(self):
        # Under OpenBLAS the coin's product over a lone column rounds this
        # state differently from the same column inside a wider window, so
        # evolve_line matches the padded one-step wrapper bit for bit at
        # t = 1 and 2 only if no window shrinks to the previous light cone.
        q = TEST_STATES[11]
        state = evolve_line(q, 0)
        for t in (1, 2):
            state = step_line(state)
            assert np.array_equal(evolve_line(q, t).amplitudes, state.amplitudes)

    def test_evolve_cycle_is_chained_step_cycle(self):
        # Every run goes past the wrap, at t > (n_sites - 1) / 2.
        for n_sites, t in ((3, 7), (7, 20), (101, 230)):
            for q in STEPPER_STATES:
                state = evolve_cycle(q, n_sites, 0)
                for _ in range(t):
                    state = step_cycle(state)
                out = evolve_cycle(q, n_sites, t)
                assert out.time == state.time == t
                assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_matches_reference_stepper(self):
        for q in STEPPER_STATES:
            for t in (1, 37, 300):
                out = evolve_line(q, t)
                assert np.max(np.abs(out.amplitudes - reference_line(q, t))) < 1e-13
            for n_sites, t in ((3, 7), (7, 20), (101, 230)):
                out = evolve_cycle(q, n_sites, t)
                gap = np.max(np.abs(out.amplitudes - reference_cycle(q, n_sites, t)))
                assert gap < 1e-13

    def test_steps_leave_input_unchanged_and_return_read_only(self):
        for q in (QubitState(0.0, 1.0, 0.0), FIGURE_STATE):
            for state, step in (
                (evolve_line(q, 5), step_line),
                (evolve_cycle(q, 7, 5), step_cycle),
            ):
                before = state.amplitudes.copy()
                after = step(state)
                assert np.array_equal(state.amplitudes, before)
                assert not state.amplitudes.flags.writeable
                assert not after.amplitudes.flags.writeable
                assert not np.shares_memory(after.amplitudes, state.amplitudes)

    def test_conservation_checked_after_every_step(self, monkeypatch):
        # evolve_* compare each state's total after every step s against the
        # bound of step s, a block of steps at a time, then once more on the
        # frozen result; the cycle's initial state is checked as well. Each
        # total is the sum of the squares of the real and imaginary parts of
        # exactly the state after s steps, on the live window: [-s, s] here. A
        # coin scaled by 1 + 2^-40 (within the bound) makes every step's total
        # differ from its neighbours' by about 2^-39.
        q = FIGURE_STATE
        seen = []
        check_block, check_state = walk._check_totals, walk._check_total_probability
        coin = np.asarray(walk._coin()) * (1.0 + 2.0**-40)
        monkeypatch.setattr(walk, "_coin", lambda: coin)

        def record_block(totals, first, what):
            seen.append((what, first, totals.shape, np.array(totals)))
            check_block(totals, first, what)

        def record_state(values, time, what):
            seen.append((what, time, values.shape, np.array(values)))
            check_state(values, time, what)

        def total(amplitudes, cols, lo):
            # One dot per row of the real and imaginary parts, laid out as in
            # evolve_*'s (2, 3, cols) buffer from column lo: BLAS may round a
            # dot differently for other strides.
            buffer = np.zeros((2, 3, cols))
            window = buffer[:, :, lo : lo + len(amplitudes)]
            window[...] = amplitudes.real.T, amplitudes.imag.T
            rows = window.reshape(6, -1)
            return float((rows[:, None, :] @ rows[:, :, None]).sum())

        monkeypatch.setattr(walk, "_check_totals", record_block)
        monkeypatch.setattr(walk, "_check_total_probability", record_state)
        t = 2 * walk._SCAN + 3
        line = evolve_line(q, t)
        recorded = seen[:]
        assert [entry[:3] for entry in recorded] == [
            ("line state", 1, (walk._SCAN, 1)),
            ("line state", walk._SCAN + 1, (walk._SCAN, 1)),
            ("line state", 2 * walk._SCAN + 1, (3, 1)),
            ("line state", t, (2 * t + 1, 3)),
        ]
        totals = np.concatenate([entry[3] for entry in recorded[:-1]])
        assert np.all(np.diff(totals[:, 0]) > 2.0**-40)
        for s in range(1, t + 1):
            assert totals[s - 1, 0] == total(evolve_line(q, s).amplitudes, 2 * t + 3, t + 1 - s)
        assert np.array_equal(recorded[-1][3], line.amplitudes)
        seen.clear()
        ring = evolve_cycle(q, 5, 2)
        recorded = seen[:]
        assert [entry[:3] for entry in recorded] == [
            ("cycle state", 0, (5, 3)),
            ("cycle state", 1, (2, 1)),
            ("cycle state", 2, (5, 3)),
        ]
        assert np.array_equal(recorded[0][3], evolve_cycle(q, 5, 0).amplitudes)
        for s in (1, 2):
            assert recorded[1][3][s - 1, 0] == total(evolve_cycle(q, 5, s).amplitudes, 7, 1)
        assert np.array_equal(recorded[-1][3], ring.amplitudes)

    def test_a_norm_moving_coin_stops_within_one_block(self, monkeypatch):
        seen = []
        check = walk._check_totals

        def record(totals, first, what):
            seen.append((first, totals.shape))
            check(totals, first, what)

        coin = np.asarray(walk._coin()) * np.sqrt([1.0 + 1e-6, 1.0 - 1e-6, 1.0])
        monkeypatch.setattr(walk, "_check_totals", record)
        monkeypatch.setattr(walk, "_coin", lambda: coin)
        q = QubitState(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"line state breaks .*: total = 1\.000001"):
            evolve_line(q, 100)
        assert seen == [(1, (walk._SCAN, 1))]
        seen.clear()
        with pytest.raises(ValueError, match=r"cycle state breaks .*: total = 1\.000001"):
            evolve_cycle(q, 7, 100)
        assert seen == [(1, (walk._SCAN, 1))]

    def test_a_norm_moving_coin_stops_the_first_step(self, monkeypatch):
        coin = np.asarray(walk._coin()) * np.sqrt([1.0 + 1e-6, 1.0 - 1e-6, 1.0])
        q = QubitState(1.0, 0.0, 0.0)
        line, ring = evolve_line(q, 0), evolve_cycle(q, 7, 0)
        monkeypatch.setattr(walk, "_coin", lambda: coin)
        # The coin's first column, which a left mover meets, gains a factor sqrt(1 + 1e-6).
        for state, step, what in ((line, step_line, "line"), (ring, step_cycle, "cycle")):
            with pytest.raises(ValueError, match=rf"{what} state breaks .*: total = 1\.000001"):
                step(state)

    def test_steps_accept_any_memory_layout(self):
        # The wrappers read the frozen amplitudes as pairs of floats, so a
        # state built from a Fortran-ordered or strided array must step alike.
        for state, step in (
            (evolve_line(FIGURE_STATE, 4), step_line),
            (evolve_cycle(FIGURE_STATE, 7, 4), step_cycle),
        ):
            a = state.amplitudes
            for layout in (np.asfortranarray(a), np.tile(a, 2)[:, 3:]):
                again = dataclasses.replace(state, amplitudes=layout)
                assert np.array_equal(step(again).amplitudes, step(state).amplitudes)

    def test_evolve_line_window_is_the_light_cone(self):
        for q in STEPPER_STATES:
            for t in (0, 1):
                out = evolve_line(q, t)
                assert out.amplitudes.shape == (2 * t + 1, 3)
                assert list(out.sites) == list(range(-t, t + 1))


#: States for the live-window tests: the three pure states, which the weak
#: limit steps together, and three superpositions, two of them complex.
LIVE_WINDOW_STATES = (
    QubitState(1.0, 0.0, 0.0),
    QubitState(0.0, 1.0, 0.0),
    QubitState(0.0, 0.0, 1.0),
    FIGURE_STATE,
    QubitState(0.5, 0.5j, math.sqrt(0.5)),
    UNIFORM_STATE,
)
LIVE_WINDOW_TIMES = (1000, 2000, 4000)


@functools.cache
def full_light_cone() -> dict[int, np.ndarray]:
    """LIVE_WINDOW_STATES stepped over the whole light cone [-s, s] every step.

    The stepping loop from before the live window, with every state's real
    and imaginary parts as rows of one buffer. Returns the (states, 2t + 1, 3)
    amplitudes at each of LIVE_WINDOW_TIMES.
    """
    t = max(LIVE_WINDOW_TIMES)
    cols = 2 * t + 3
    start = np.array([q.as_array() for q in LIVE_WINDOW_STATES])
    bufs = (np.zeros((2 * len(start), 3, cols)), np.zeros((2 * len(start), 3, cols)))
    bufs[0][0::2, :, t + 1], bufs[0][1::2, :, t + 1] = start.real, start.imag
    r, c, j = bufs[0].strides
    landings = [np.ndarray((len(b), 3, cols - 2), float, b, strides=(r, c + j, j)) for b in bufs]
    out = {}
    for s in range(1, t + 1):
        lo, hi = cols // 2 - s, cols // 2 + s + 1
        src, landing = bufs[1 - s % 2], landings[s % 2]
        np.matmul(walk.coin_matrix().real, src[:, :, lo:hi], out=landing[:, :, lo - 1 : hi - 1])
        if s in LIVE_WINDOW_TIMES:
            parts = bufs[s % 2][:, :, lo:hi].transpose(0, 2, 1)
            amplitudes = np.empty((len(start), hi - lo, 3), dtype=complex)
            amplitudes.real, amplitudes.imag = parts[0::2], parts[1::2]
            out[s] = amplitudes
    return out


def arrays(result) -> dict:
    """The array fields of a state or a distribution, by name."""
    return {name: getattr(result, name) for name in ("amplitudes", "probabilities", "totals") if hasattr(result, name)}


#: Each library call that returns arrays it has just built, with its arguments.
OWNED = {
    "step_line": (step_line, (evolve_line(FIGURE_STATE, 4),)),
    "step_cycle": (step_cycle, (evolve_cycle(FIGURE_STATE, 7, 4),)),
    "evolve_line": (evolve_line, (FIGURE_STATE, 4)),
    "evolve_cycle": (evolve_cycle, (FIGURE_STATE, 7, 4)),
    "distribution of a line state": (distribution, (evolve_line(FIGURE_STATE, 4),)),
    "distribution of a cycle state": (distribution, (evolve_cycle(FIGURE_STATE, 7, 4),)),
    "stationary_profile": (stationary.stationary_profile, (FIGURE_STATE, 6)),
}


class TestOwnedArrays:
    @pytest.mark.parametrize("name", OWNED)
    def test_results_hold_their_own_frozen_arrays(self, name):
        # The library freezes the arrays it has just built instead of copying
        # them, and they equal what the public constructor builds from a copy.
        call, args = OWNED[name]
        result, again = call(*args), call(*args)
        given = [a for arg in args if dataclasses.is_dataclass(arg) for a in arrays(arg).values()]
        built = dataclasses.replace(result, **{k: v.copy() for k, v in arrays(result).items() if k != "totals"})
        for key, mine in arrays(result).items():
            theirs = getattr(built, key)
            assert not mine.flags.writeable
            assert (mine.dtype, mine.shape, mine.flags.c_contiguous) == (theirs.dtype, theirs.shape, True)
            assert mine.tobytes() == theirs.tobytes()
            assert not any(np.shares_memory(mine, other) for other in (*given, *arrays(again).values()))

    @pytest.mark.parametrize(
        "build, table",
        [
            (lambda a: LineState(0, a, 0), np.array([[1.0, 0.0, 0.0]], dtype=complex)),
            (lambda a: CycleState(3, a, 0), np.array([[1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3], dtype=complex)),
            (lambda a: Distribution(0, a), np.array([[0.25, 0.5, 0.25]])),
        ],
        ids=["LineState", "CycleState", "Distribution"],
    )
    def test_constructors_copy_a_callers_array(self, build, table):
        # The caller's array already has the stored dtype, shape and order.
        assert table.flags.c_contiguous
        result = build(table)
        assert table.flags.writeable
        assert not any(np.shares_memory(table, a) for a in arrays(result).values())
        assert not any(a.flags.writeable for a in arrays(result).values())


class TestLiveWindow:
    # evolve_line steps only the columns that hold more than 2^-1000; the
    # cells it drops would only have fed subnormal floats into the product.
    @pytest.mark.parametrize("t", LIVE_WINDOW_TIMES)
    def test_probabilities_match_the_full_light_cone(self, t):
        # The full light cone holds 86, 88 and 168 subnormal floats at
        # t = 2000 for the first two pure states and FIGURE_STATE.
        for q, reference in zip(LIVE_WINDOW_STATES, full_light_cone()[t]):
            state = evolve_line(q, t)
            assert state.amplitudes.shape == reference.shape
            assert np.array_equal(np.abs(state.amplitudes) ** 2, np.abs(reference) ** 2)
            expected = Distribution(-t, np.abs(reference) ** 2).totals
            assert np.array_equal(distribution(state).totals, expected)
            assert np.abs(state.amplitudes - reference).max() <= 2.0**-990
            parts = np.abs(state.amplitudes.view(float))
            assert not np.any((parts > 0.0) & (parts < np.finfo(float).tiny))
        pure = np.stack([a.real.T for a in full_light_cone()[t][:3]])
        masses = (pure**2).sum(axis=1).sum(axis=0) / 3.0
        assert np.array_equal(weaklimit.empirical_rescaled(t).masses, masses)


class TestDistribution:
    def test_entries_are_nonnegative_and_consistent(self):
        dist = distribution(evolve_line(FIGURE_STATE, 25))
        p = dist.probabilities
        assert np.all(p >= 0.0)
        totals = [dist.total(n) for n in dist.sites()]
        assert totals == pytest.approx(p.sum(axis=1).tolist(), abs=1e-15)

    def test_total_defaults_to_zero_outside_window(self):
        dist = distribution(evolve_line(FIGURE_STATE, 3))
        assert dist.total(100) == 0.0

    def test_line_window(self):
        state = evolve_line(FIGURE_STATE, 5)
        dist = distribution(state)
        assert dist.first_site == -5
        assert list(dist.sites()) == list(range(-5, 6))
        assert len(dist) == 11
        assert np.array_equal(dist.probabilities, np.abs(state.amplitudes) ** 2)
        for i, n in enumerate(dist.sites()):
            assert dist.total(n) == dist.totals[i]

    def test_cycle_window(self):
        state = evolve_cycle(FIGURE_STATE, 7, 4)
        dist = distribution(state)
        assert dist.first_site == 0
        assert list(dist.sites()) == list(range(7))
        assert np.array_equal(dist.probabilities, np.abs(state.amplitudes) ** 2)

    def test_totals_are_left_to_right_component_sums(self):
        for state in (evolve_line(FIGURE_STATE, 9), evolve_cycle(TEST_STATES[7], 9, 12)):
            dist = distribution(state)
            p = dist.probabilities
            assert np.array_equal(dist.totals, p[:, 0] + p[:, 1] + p[:, 2])
            for i, n in enumerate(dist.sites()):
                assert dist.total(n) == p[i, 0] + p[i, 1] + p[i, 2]
                assert isinstance(dist.total(n), float)

    def test_zero_outside_line_and_cycle_windows(self):
        line = distribution(evolve_line(FIGURE_STATE, 4))
        ring = distribution(evolve_cycle(FIGURE_STATE, 7, 4))
        for dist, outside in ((line, (-5, 5, -100)), (ring, (-1, 7, 14))):
            for n in outside:
                assert dist.total(n) == 0.0

    def test_arrays_are_read_only_copies(self):
        table = np.full((2, 3), 1.0 / 6.0)
        dist = Distribution(first_site=3, probabilities=table)
        table[0, 0] = 1.0
        assert dist.total(3) == 0.5
        for a in (dist.probabilities, dist.totals):
            with pytest.raises(ValueError):
                a[0] = 0.0
        state_dist = distribution(evolve_line(FIGURE_STATE, 2))
        assert not state_dist.probabilities.flags.writeable
        assert not state_dist.totals.flags.writeable

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Distribution(first_site=0, probabilities=np.zeros((4, 2)))

    def test_chiral_vector_roundtrip(self):
        vec = ChiralVector(0.1 + 0.2j, -0.3, 0.4j)
        again = ChiralVector.from_array(vec.as_array())
        assert again.left == vec.left
        assert again.zero == vec.zero
        assert again.right == vec.right
        assert vec.probability() == pytest.approx(
            abs(vec.left) ** 2 + abs(vec.zero) ** 2 + abs(vec.right) ** 2
        )


class TestIntegerFields:
    def test_site_lookups_reject_a_float(self):
        # amplitude(100.5) used to return a zero ChiralVector and total(-50.5)
        # 0.0, while amplitude(1.0) raised numpy's IndexError.
        line = evolve_line(FIGURE_STATE, 3)
        ring = evolve_cycle(FIGURE_STATE, 7, 3)
        for lookup in (line.amplitude, ring.amplitude, distribution(line).total):
            for n in (1.0, 100.5, -50.5, 0.0):
                with pytest.raises(TypeError):
                    lookup(n)
        for n in (-1, 1, 100, -50):
            for same in (np.int64(n), np.int32(n)):
                assert line.amplitude(same) == line.amplitude(n)
                assert ring.amplitude(same) == ring.amplitude(n)
                assert distribution(line).total(same) == distribution(line).total(n)
        assert line.amplitude(100) == ChiralVector(0.0, 0.0, 0.0)
        assert distribution(line).total(-50) == 0.0
        assert ring.amplitude(8) == ring.amplitude(1)
