"""Direct evolution on the line and on cycles."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given

from records import is_record, replace
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
        # Stepping drifts the norm by about 1.07e-16 per step. A step count is
        # any int: past float range the bound passes every float, so every
        # finite total is within it, and NaN and inf still fail.
        ring = np.zeros((3, 3), dtype=complex)
        ring[0] = self._single_site(1.0 - 1.07e-12)[0]
        for time in (10000, 2**63, 10**300, 10**400):
            state = LineState(0, self._single_site(1.0 - 1.07e-12), time=time)
            assert state.time == time
            assert CycleState(3, ring, time=time).time == time
        for bad in (math.nan, math.inf):  # an infinite amplitude's square may come out NaN
            ring[0] = self._single_site(bad)[0]
            with pytest.raises(ValueError, match="line state breaks .*: total = (nan|inf)$"):
                LineState(0, self._single_site(bad), time=10**400)
            with pytest.raises(ValueError, match="cycle state breaks .*: total = (nan|inf)$"):
                CycleState(3, ring, time=10**400)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nan_or_inf(self, bad):
        for time in (0, 7, 10000, 2**63, 10**400):
            with pytest.raises(ValueError, match=f"line state breaks .*: total = {bad!r}$"):
                walk._check_total(bad, time, "line state")

    @pytest.mark.parametrize("first", [0, 10000])
    def test_bound_is_sharp_at_every_step(self, first):
        # A total of 1 +- k 2^-52 is exact in floats, so the rule admits it
        # exactly when k 2^-52 is within NORM_TOLERANCE + (s + 1) STEP_ROUNDOFF
        # for its own step s; STEP_ROUNDOFF is 16 units, so a neighbour's bound
        # would be off by 16.
        one = 2**52
        for time in range(first, first + 8):
            bound = walk.NORM_TOLERANCE + (time + 1) * walk.STEP_ROUNDOFF
            inside = math.floor(bound * 2.0**52)
            for units, admitted in ((inside, True), (inside + 1, False)):
                for total in ((one + units) * 2.0**-52, (one - units) * 2.0**-52):
                    if admitted:
                        walk._check_total(total, time, "cycle state")
                    else:
                        with pytest.raises(ValueError, match=f"cycle state breaks .*: total = {total!r}$"):
                            walk._check_total(total, time, "cycle state")

    @pytest.mark.parametrize("states", [1, 3])
    def test_evolve_names_the_first_failing_total(self, monkeypatch, states):
        # _evolve checks a block of steps at the block's end, each state after
        # each step, in step order and then state order: one bad total anywhere
        # in the block fails it, the first is the one named, and no total after
        # it is checked.
        check, calls = walk._check_total, []
        block = walk._SCAN * states

        def substitute(total, time, what):
            calls.append((what, time))
            n = len(calls) - 1
            check(bad if n == i else 2.0 if n == block - 1 else total, time, what)  # 2.0: a later failure

        monkeypatch.setattr(walk, "_check_total", substitute)
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(block):
                calls.clear()
                with pytest.raises(ValueError, match=f"line state breaks .*: total = {bad!r}$"):
                    walk._evolve(np.eye(3)[:states], 2 * 19 + 1, 19, "line state")
                assert calls == [("line state", 1 + n // states) for n in range(i + 1)]


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

    def test_the_first_step_fills_the_coin_cache(self, monkeypatch):
        # A walk at t = 0 builds no coin: `evolve` starts from evolve_line(q, 0),
        # and perfbench/tests/test_tracer.py pins a projector_matrices call under
        # its first step_line, the call that fills walk._coin's cache.
        walk._coin.cache_clear()
        line = evolve_line(FIGURE_STATE, 0)
        evolve_cycle(FIGURE_STATE, 5, 0)
        walk._line_states((FIGURE_STATE, UNIFORM_STATE), 0)
        assert walk._coin.cache_info().currsize == 0
        built = []
        monkeypatch.setattr(walk, "projector_matrices", lambda: built.append(1) or projector_matrices())
        step_line(step_line(line))
        assert built == [1] and walk._coin.cache_info().currsize == 1

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

    def test_steps_give_evolve_bytes_and_zero_signs(self):
        # step_* step the imaginary part of every state, a real one's too; it
        # lands as +0, the zero that evolve_* write for a real qubit's.
        for q in TEST_STATES:
            line, ring = evolve_line(q, 0), evolve_cycle(q, 7, 0)
            for t in range(1, 12):
                line, ring = step_line(line), step_cycle(ring)
                assert line.amplitudes.tobytes() == evolve_line(q, t).amplitudes.tobytes()
                assert ring.amplitudes.tobytes() == evolve_cycle(q, 7, t).amplitudes.tobytes()

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
        # bound of step s exactly once, in step order; step 0 is the qubit's,
        # which QubitState normalizes more tightly than any step's bound, so
        # neither the frozen result nor a start state is checked again. Each
        # total is a plain float, the sum of the squares of the real and
        # imaginary parts of exactly the state after s steps, on the window of
        # its block: the live window that the block's last step reaches,
        # [-e, e] here, with e the block's last step. A coin scaled by
        # 1 + 2^-40 (within the bound) makes every step's total differ from
        # its neighbours' by about 2^-39.
        q = FIGURE_STATE
        seen = []
        check = walk._check_total
        coin = np.asarray(walk._coin()) * (1.0 + 2.0**-40)
        monkeypatch.setattr(walk, "_coin", lambda: coin)

        def record(total, time, what):
            seen.append((what, time, total))
            check(total, time, what)

        def total(amplitudes, cols, lo, window):
            # One dot per row of the real and imaginary parts, laid out as in
            # evolve_*'s (2, 3, cols) buffer from column lo, over the block's
            # columns window: BLAS may round a dot differently for other
            # strides, or with the state elsewhere among the zeros.
            buffer = np.zeros((2, 3, cols))
            buffer[:, :, lo : lo + len(amplitudes)] = amplitudes.real.T, amplitudes.imag.T
            rows = buffer[:, :, window].reshape(6, -1)
            return float(np.vecdot(rows, rows).sum())

        monkeypatch.setattr(walk, "_check_total", record)
        t = 2 * walk._SCAN + 3
        evolve_line(q, t)
        recorded = seen[:]
        assert [entry[:2] for entry in recorded] == [("line state", s) for s in range(1, t + 1)]
        totals = [entry[2] for entry in recorded]
        assert all(type(x) is float for x in totals)
        assert np.all(np.diff(totals) > 2.0**-40)
        for s in range(1, t + 1):
            e = min(-(-s // walk._SCAN) * walk._SCAN, t)
            window = slice(t + 1 - e, t + 2 + e)
            assert totals[s - 1] == total(evolve_line(q, s).amplitudes, 2 * t + 3, t + 1 - s, window)
        # A cycle steps with site 0 in its middle column, over the window the
        # line's would be until that window would pass the ring's ends, then
        # over the whole ring. A ring of 5 sites fits 2 steps without wrapping;
        # one of 31 spends its first block before the wrap and two after it.
        for n_sites, t in ((5, 2), (31, 19)):
            seen.clear()
            evolve_cycle(q, n_sites, t)
            recorded = seen[:]
            assert [entry[:2] for entry in recorded] == [("cycle state", s) for s in range(1, t + 1)]
            totals = [entry[2] for entry in recorded]
            assert all(type(x) is float for x in totals)
            assert np.all(np.diff(totals) > 2.0**-40)
            middle = n_sites // 2 + 1
            for s in range(1, t + 1):
                e = min(-(-s // walk._SCAN) * walk._SCAN, t)
                window = slice(1, n_sites + 1) if e > n_sites // 2 else slice(middle - e, middle + e + 1)
                laid_out = np.roll(evolve_cycle(q, n_sites, s).amplitudes, n_sites // 2, axis=0)
                assert totals[s - 1] == total(laid_out, n_sites + 2, 1, window)
        # No step, no check; and an unnormalized qubit never reaches evolve_*.
        seen.clear()
        evolve_line(q, 0)
        evolve_cycle(q, 5, 0)
        assert seen == []
        with pytest.raises(ValueError, match="initial state is not normalized"):
            evolve_line(QubitState(1.0, 1e-4, 0.0), 3)
        with pytest.raises(ValueError, match="initial state is not normalized"):
            evolve_cycle(QubitState(1.0, 1e-4, 0.0), 5, 3)
        assert seen == []

    def test_a_norm_moving_coin_stops_within_one_block(self, monkeypatch):
        # The block's first step fails, so no later step of it, and no later
        # block, is checked.
        seen = []
        check = walk._check_total

        def record(total, time, what):
            seen.append((what, time, total))
            check(total, time, what)

        coin = np.asarray(walk._coin()) * np.sqrt([1.0 + 1e-6, 1.0 - 1e-6, 1.0])
        monkeypatch.setattr(walk, "_check_total", record)
        monkeypatch.setattr(walk, "_coin", lambda: coin)
        q = QubitState(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"line state breaks .*: total = 1\.000001"):
            evolve_line(q, 100)
        assert [entry[:2] for entry in seen] == [("line state", 1)]
        seen.clear()
        with pytest.raises(ValueError, match=r"cycle state breaks .*: total = 1\.000001"):
            evolve_cycle(q, 7, 100)
        assert [entry[:2] for entry in seen] == [("cycle state", 1)]

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
                again = replace(state, amplitudes=layout)
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


def line_start(q: QubitState, t: int) -> np.ndarray:
    """q alone in column t + 1 of a (rows, 3, 2t + 3) buffer: its real row, then
    its imaginary row unless that is all zero."""
    a = q.as_array()
    parts = np.zeros((2 if a.imag.any() else 1, 3, 2 * t + 3))
    parts[0, :, t + 1] = a.real
    if len(parts) == 2:
        parts[1, :, t + 1] = a.imag
    return parts


def per_step_evolve(parts: np.ndarray, t: int, cycle: bool) -> np.ndarray:
    """walk._evolve's loop from before its scan blocks, without the checks.

    Every step builds its own views and steps the live window with exactly
    one zero column per side; the line drops its edge columns after steps
    _SCAN, 2 _SCAN, ... and after step t, as walk._evolve does, counting
    one column at a time the leading and trailing columns whose every
    amplitude is below _FLOOR. A cycle, with site 0 in column 1, steps the
    whole ring from the first step, which walk._evolve does only once its
    live window would pass the ring's ends. Steps ``parts`` in place and
    returns the stepped buffer without its end columns.
    """
    cols = parts.shape[2]
    bufs = (parts, np.zeros_like(parts))
    r, c, j = parts.strides
    landings = [np.ndarray((len(b), 3, cols - 2), float, b, strides=(r, c + j, j)) for b in bufs]
    coin = walk.coin_matrix().real
    lo, hi = (1, cols - 1) if cycle else (cols // 2, cols // 2 + 1)
    for s in range(1, t + 1):
        if not cycle:
            lo, hi = lo - 1, hi + 1
        src, dst, landing = bufs[1 - s % 2], bufs[s % 2], landings[s % 2]
        np.matmul(coin, src[:, :, lo:hi], out=landing[:, :, lo - 1 : hi - 1])
        if cycle:
            dst[:, 0, -2], dst[:, 2, 1] = dst[:, 0, 0], dst[:, 2, -1]
        elif s % walk._SCAN == 0 or s == t:
            live_lo, live_hi = lo, hi
            while live_lo < hi and all(abs(a) < walk._FLOOR for a in dst[:, :, live_lo].flat):
                live_lo += 1
            while live_hi > live_lo and all(abs(a) < walk._FLOOR for a in dst[:, :, live_hi - 1].flat):
                live_hi -= 1
            for b in bufs:
                b[:, :, lo:live_lo] = b[:, :, live_hi:hi] = 0.0
            lo, hi = live_lo, live_hi
    return bufs[t % 2][:, :, 1:-1]


#: Times around the scan blocks' ends, and one long enough to drop columns.
BLOCK_TIMES = (1, 2, 7, 8, 9, 16, 17, 1000)


class TestScanBlocks:
    # walk._evolve steps each block of _SCAN steps over the window that its
    # last step reaches; every state equals the per-step loop's bit for bit.
    def test_line_states_match_the_per_step_loop(self):
        # The line of t steps is also the ring of 2t + 1 sites, which t steps
        # never wrap: evolve_cycle steps it alike, from its middle column.
        for q in TEST_STATES:
            for t in BLOCK_TIMES:
                parts = per_step_evolve(line_start(q, t), t, cycle=False)
                line = evolve_line(q, t).amplitudes.tobytes()
                assert line == walk._amplitudes(parts).tobytes()
                assert np.roll(evolve_cycle(q, 2 * t + 1, t).amplitudes, t, axis=0).tobytes() == line

    @pytest.mark.parametrize("n_sites", (3, 31))
    def test_cycle_states_match_the_per_step_loop(self, n_sites):
        # A cycle steps its rows apart, so one run steps every state; a ring
        # of 3 wraps from step 2 on, a ring of 31 from step 16 on.
        starts = []
        for q in TEST_STATES:
            start = np.zeros((n_sites, 3), dtype=complex)
            start[0] = q.as_array()
            starts.append(walk._parts(start, pad=1))
        for t in BLOCK_TIMES:
            parts = per_step_evolve(np.concatenate(starts), t, cycle=True)
            rows = np.cumsum([len(start) for start in starts])[:-1]
            for q, expected in zip(TEST_STATES, np.split(parts, rows)):
                state = evolve_cycle(q, n_sites, t)
                assert state.amplitudes.tobytes() == walk._amplitudes(expected).tobytes()

    def test_batched_states_equal_their_own_walks(self):
        # Before the first dropped column (near t = 631) each state of one walk
        # of several is its own walk bit for bit, whether every state has two
        # rows (some state is complex) or one (all are real).
        real = [q for q in TEST_STATES if not q.as_array().imag.any()]
        for batch in (TEST_STATES, TEST_STATES[::-1], real, [TEST_STATES[0]] * 2):
            for t in (t for t in BLOCK_TIMES if t <= 17):
                states = walk._line_states(tuple(batch), t)
                assert len(states) == len(batch)
                for q, state in zip(batch, states):
                    assert (state.origin_offset, state.time) == (-t, t)
                    assert state.amplitudes.tobytes() == evolve_line(q, t).amplitudes.tobytes()

    def test_weak_limit_matches_the_per_step_loop(self):
        t = 2000
        parts = np.zeros((3, 3, 2 * t + 3))
        parts[:, :, t + 1] = np.eye(3)
        masses = (per_step_evolve(parts, t, cycle=False) ** 2).sum(axis=1).sum(axis=0) / 3.0
        assert weaklimit.empirical_rescaled(t).masses.tobytes() == masses.tobytes()


def whole_window_edges(rows: np.ndarray) -> tuple[int, int]:
    """The first live column of a (rows, W) window and one past its last, by
    one pass over the whole window: the reference for walk._dead."""
    big = np.flatnonzero(np.abs(rows).max(axis=0) >= walk._FLOOR)
    return int(big[0]), int(big[-1]) + 1


def band_edges(rows: np.ndarray) -> tuple[int, int]:
    """The same two edges by walk._dead from each end, the right through the reversed view."""
    return walk._dead(rows), rows.shape[1] - walk._dead(rows[:, ::-1])


def dead_window(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """A (rows, width) window whose every amplitude lies below _FLOOR: zeros of
    both signs, a subnormal and floats just below the floor."""
    below = np.nextafter(walk._FLOOR, 0.0)
    return rng.choice([0.0, -0.0, 5e-324, walk._FLOOR / 3.0, below, -below], size=(rows, width))


class TestEdgeRule:
    # walk._evolve finds a block's live edges by _dead, reading bands of
    # 2 _SCAN, 4 _SCAN, ... columns from each end; the edges are those of
    # one pass over the whole window.
    def test_random_windows(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            rows = dead_window(rng, int(rng.choice([1, 2, 3, 6, 9])), int(rng.integers(1, 400)))
            for _ in range(int(rng.integers(1, 4))):
                cell = rng.integers(rows.shape[0]), rng.integers(rows.shape[1])
                rows[cell] = rng.choice([walk._FLOOR, -walk._FLOOR, 1e-300, 0.5, -1.0])
            assert band_edges(rows) == whole_window_edges(rows)

    @pytest.mark.parametrize("width", (49, 200))
    def test_first_live_column_on_either_side_of_a_band_end(self, width):
        # The first band holds columns 0-15 and the second 16-47.
        rng = np.random.default_rng(width)
        for first in (0, 15, 16, 17, 47, 48, width - 1):
            for value in (walk._FLOOR, -walk._FLOOR, 1.0):
                rows = dead_window(rng, 9, width)
                rows[rng.integers(9), first] = value
                assert band_edges(rows) == whole_window_edges(rows) == (first, first + 1)
                # Mirrored, the right end's scan finds the column as far in.
                mirrored = rows[:, ::-1]
                assert band_edges(mirrored) == whole_window_edges(mirrored) == (width - 1 - first, width - first)

    def test_a_deep_live_column_takes_several_doublings(self):
        # Bands of 16, 32, ..., 1024 columns end at column 2031, so the column
        # at 3000 lies in the seventh band, 2032-4079.
        rows = dead_window(np.random.default_rng(5), 3, 5000)
        rows[1, 3000] = walk._FLOOR
        assert band_edges(rows) == whole_window_edges(rows) == (3000, 3001)

    def test_windows_narrower_than_one_band(self):
        rng = np.random.default_rng(16)
        for width in range(1, 2 * walk._SCAN):
            for first in range(width):
                for last in range(first, width):
                    rows = dead_window(rng, 3, width)
                    rows[rng.integers(3), first] = rows[rng.integers(3), last] = -0.25
                    assert band_edges(rows) == whole_window_edges(rows) == (first, last + 1)
            assert walk._dead(dead_window(rng, 3, width)) == width


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
        given = [a for arg in args if is_record(arg) for a in arrays(arg).values()]
        built = replace(result, **{k: v.copy() for k, v in arrays(result).items() if k != "totals"})
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


def assert_matches_the_light_cone(state: LineState, reference: np.ndarray, t: int) -> None:
    """A line state at time t against its amplitudes over the full light cone:
    probabilities and totals bit for bit, amplitudes within 2^-990, and no
    subnormal float."""
    assert state.amplitudes.shape == reference.shape
    assert np.array_equal(np.abs(state.amplitudes) ** 2, np.abs(reference) ** 2)
    expected = Distribution(-t, np.abs(reference) ** 2).totals
    assert np.array_equal(distribution(state).totals, expected)
    assert np.abs(state.amplitudes - reference).max() <= 2.0**-990
    parts = np.abs(state.amplitudes.view(float))
    assert not np.any((parts > 0.0) & (parts < np.finfo(float).tiny))


class TestLiveWindow:
    # evolve_line steps only the columns that hold more than 2^-1000; the
    # cells it drops would only have fed subnormal floats into the product.
    @pytest.mark.parametrize("t", LIVE_WINDOW_TIMES)
    def test_probabilities_match_the_full_light_cone(self, t):
        # The full light cone holds 86, 88 and 168 subnormal floats at
        # t = 2000 for the first two pure states and FIGURE_STATE.
        for q, reference in zip(LIVE_WINDOW_STATES, full_light_cone()[t]):
            assert_matches_the_light_cone(evolve_line(q, t), reference, t)
        pure = np.stack([a.real.T for a in full_light_cone()[t][:3]])
        masses = (pure**2).sum(axis=1).sum(axis=0) / 3.0
        assert np.array_equal(weaklimit.empirical_rescaled(t).masses, masses)

    @pytest.mark.parametrize("t", LIVE_WINDOW_TIMES)
    def test_batched_states_match_the_full_light_cone(self, t):
        # One walk of all six states, two rows each; it drops only the columns
        # in which all twelve rows lie below 2^-1000.
        states = walk._line_states(LIVE_WINDOW_STATES, t)
        assert len(states) == len(LIVE_WINDOW_STATES)
        for state, reference in zip(states, full_light_cone()[t]):
            assert (state.origin_offset, state.time) == (-t, t)
            assert_matches_the_light_cone(state, reference, t)


class TestOneRule:
    # walk._evolve steps a ring from its middle column: the line of t steps is
    # the ring of 2t + 1 sites, which t steps never wrap, and a cycle wraps
    # only once its live window would pass the ring's ends.
    def test_the_line_still_drops_after_its_last_step(self, monkeypatch):
        # The line's last block reaches the ring's ends without passing them,
        # so it steps without a wrap and drops its edge columns after step t.
        # At the real floor the edges cross it near t = 631; at 2^-30, near 19.
        monkeypatch.setattr(walk, "_FLOOR", 2.0**-30)
        for q in TEST_STATES:
            for t in range(17, 25):
                parts = per_step_evolve(line_start(q, t), t, cycle=False)
                assert evolve_line(q, t).amplitudes.tobytes() == walk._amplitudes(parts).tobytes()

    def test_the_floor_keeps_every_probability_on_a_ring(self):
        # A ring of 2001 sites drops edge columns below 2^-1000 from about step
        # 632 until its light cone covers it at step 1000; the reference steps
        # the whole ring from the first step and drops nothing.
        n_sites, done = 2001, 0
        starts = []
        for q in LIVE_WINDOW_STATES:
            start = np.zeros((n_sites, 3), dtype=complex)
            start[0] = q.as_array()
            starts.append(walk._parts(start, pad=1))
        parts, rows = np.concatenate(starts), np.cumsum([len(start) for start in starts])[:-1]
        for t in (1001, 2000):
            parts = np.pad(per_step_evolve(parts, t - done, cycle=True), ((0, 0), (0, 0), (1, 1)))
            done = t
            for q, expected in zip(LIVE_WINDOW_STATES, np.split(parts[:, :, 1:-1], rows)):
                state, reference = evolve_cycle(q, n_sites, t), CycleState(n_sites, walk._amplitudes(expected), t)
                assert distribution(state).probabilities.tobytes() == distribution(reference).probabilities.tobytes()
                assert np.abs(state.amplitudes - reference.amplitudes).max() <= 2.0**-990


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
