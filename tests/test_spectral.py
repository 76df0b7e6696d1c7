"""Momentum-space decomposition: dispersion, eigenvectors, quadrature, kernels."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from states import FIGURE_STATE, TEST_STATES, UNIFORM_STATE, ZERO_LOCALIZATION_STATE
from triwalk import (
    DEFAULT_GRID_SIZE,
    QubitState,
    SingularMomentumError,
    coin_matrix,
    dispersion,
    eigensystem,
    evolve_line,
    fourier_operator,
    j_kernel,
    k_kernel,
    limit_amplitude,
    oscillatory_remainder,
    quadrature_nodes,
    remainder_matrix,
    remainder_window,
    spectral,
    stationary_component_integral,
    wavefunction,
    wavefunction_window,
)


def kernel_sums(size: int, n: int, t: int) -> tuple[float, float]:
    """J and K at (n, t) by the library's midpoint sums on ``size`` nodes."""
    k, theta, _, _, inv_five, inv_root = spectral._tableau(size)
    wave = np.cos(k * n)
    return (
        float(np.mean(wave * np.cos(theta * t) * inv_five)),
        float(np.mean(wave * np.sin(theta * t) * inv_root)),
    )


def remainder_reference(n: int, t: int) -> np.ndarray:
    """``remainder_matrix`` assembled from six one-site kernel sums."""
    (j_prev, k_prev), (j_here, k_here), (j_next, k_next) = (
        kernel_sums(DEFAULT_GRID_SIZE, n + d, t) for d in (-1, 0, 1)
    )
    m = np.empty((3, 3), dtype=complex)
    m[0, 0] = 3.0 * j_here + 0.5 * (j_prev + j_next + (k_prev - k_next))
    m[2, 2] = 3.0 * j_here + 0.5 * (j_prev + j_next - (k_prev - k_next))
    m[0, 1] = -(j_here + j_next + (k_here - k_next))
    m[2, 1] = -(j_here + j_prev + (k_here - k_prev))
    m[0, 2] = -2.0 * j_next
    m[2, 0] = -2.0 * j_prev
    m[1, 0] = -(j_here + j_prev + (k_prev - k_here))
    m[1, 2] = -(j_here + j_next + (k_next - k_here))
    m[1, 1] = 4.0 * j_here
    return m


def kernel_nodes_needed(n: int, t: int) -> float:
    """The kernels' node rule: t/sqrt(3) + |n| + 5 t^(1/3) + 16."""
    return t / math.sqrt(3.0) + abs(n) + 5.0 * t ** (1.0 / 3.0) + 16.0


NON_FINITE = (math.nan, math.inf, -math.inf)

#: Momenta where a float path could part from the array path: both zeros, the
#: smallest subnormals, both ends of the zone and a large k whose sin(k/2) is
#: reduced from far out.
EDGE_MOMENTA = (0.0, -0.0, 5e-324, -5e-324, math.pi, -math.pi, 1e8 + 0.3, -(1e8 + 0.3))

#: Any finite momentum up to 1e6 in size, and the small ones more often.
MOMENTA = st.one_of(st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=-1e6, max_value=1e6))


def raises_without_warning(call, k):
    """Assert ``call(k)`` raises ValueError before numpy warns about the value."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            call(k)


class TestDispersion:
    def test_at_pi(self):
        cos_theta, sin_theta, theta = dispersion(math.pi)
        assert cos_theta == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert sin_theta == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-15)
        assert theta == pytest.approx(math.acos(-1.0 / 3.0), abs=1e-15)

    def test_at_zero(self):
        cos_theta, sin_theta, theta = dispersion(0.0)
        assert cos_theta == -1.0
        assert sin_theta == 0.0
        assert theta == pytest.approx(math.pi, abs=1e-15)

    def test_returns_plain_floats(self):
        point = dispersion(np.float64(1.3))
        assert len(point) == 3
        assert all(type(value) is float for value in point)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_point_lies_on_unit_circle(self, k):
        cos_theta, sin_theta, theta = dispersion(k)
        assert cos_theta**2 + sin_theta**2 == pytest.approx(1.0, abs=1e-12)
        assert cos_theta == pytest.approx(-(2.0 + math.cos(k)) / 3.0, abs=1e-15)
        assert sin_theta >= 0.0
        assert 0.0 < theta <= math.pi
        assert math.cos(theta) == pytest.approx(cos_theta, abs=1e-12)

    def test_rejects_non_finite_momentum(self):
        # These returned NaN with a RuntimeWarning.
        for k in NON_FINITE:
            raises_without_warning(dispersion, k)

    def test_array_is_the_scalar_at_every_node_bit_for_bit(self):
        nodes = quadrature_nodes(1024)
        batched = dispersion(nodes)
        assert all(a.shape == nodes.shape and a.dtype == float for a in batched)
        pointwise = np.array([dispersion(k) for k in nodes.tolist()])
        assert np.stack(batched, axis=-1).tobytes() == pointwise.tobytes()

    @given(st.lists(st.one_of(MOMENTA, st.integers(min_value=-10**6, max_value=10**6)), min_size=1, max_size=40))
    # Nodes of the 16384 grid where a scalar ** 2 (pow) and a product round
    # sin(k/2)^2 apart; the scalar path used to take pow there.
    @example([-3.0332552604453697, -2.9224251485206323, -1.8260123803793702])
    @example(list(EDGE_MOMENTA))
    def test_array_elements_are_the_scalars_bit_for_bit(self, ks):
        # A float, an int or a numpy float takes math's cos, sin and sqrt, and
        # an array NumPy's.
        batched = np.stack(dispersion(np.array(ks)), axis=-1).tobytes()
        for scalar in (lambda k: k, np.float64):
            assert batched == np.array([dispersion(scalar(k)) for k in ks]).tobytes()

    def test_array_rejects_any_non_finite_momentum(self):
        for k in NON_FINITE:
            raises_without_warning(dispersion, np.array([0.5, k, 1.0]))
            raises_without_warning(dispersion, np.array([[0.5], [k]]))

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_periodicity(self, k):
        a = dispersion(k)
        b = dispersion(k + 2.0 * math.pi)
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert a[2] == pytest.approx(b[2], abs=1e-12)


class TestFourierOperator:
    def test_momentum_zero_is_coin(self):
        assert np.allclose(fourier_operator(0.0), coin_matrix(), atol=1e-15)

    def test_rejects_non_finite_momentum(self):
        for k in NON_FINITE + (np.float64(math.nan),):
            raises_without_warning(fourier_operator, k)

    @staticmethod
    def diagonal_product(k: float) -> np.ndarray:
        """The 3x3 product diag(e^{ik}, 1, e^{-ik}) coin, by np.exp and matmul."""
        return np.diag(np.exp(1j * k * np.array([1.0, 0.0, -1.0]))) @ coin_matrix()

    def test_row_scaling_equals_diagonal_product(self):
        # Scaling the coin's rows gives the same bits as the 3x3 product.
        for k in [*np.linspace(-20.0, 20.0, 2001), *EDGE_MOMENTA]:
            assert fourier_operator(k).tobytes() == self.diagonal_product(k).tobytes()

    @given(MOMENTA, st.integers(min_value=-10**6, max_value=10**6))
    def test_row_scaling_holds_at_any_momentum(self, k, n):
        # math's cos and sin build e^{ik} with the bits of np.exp's, for a
        # float, a numpy float and an int alike.
        for momentum, expected in ((k, k), (np.float64(k), k), (n, float(n))):
            assert fourier_operator(momentum).tobytes() == self.diagonal_product(expected).tobytes()

    def test_result_is_a_fresh_writable_array(self):
        u = fourier_operator(0.5)
        u[0, 0] = 0.0
        assert fourier_operator(0.5)[0, 0] != 0.0

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    def test_unitary(self, k):
        u = fourier_operator(k)
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-14)

    def test_eigenphases_match_numeric_solver(self):
        # numpy's general eigensolver serves as an independent oracle here.
        k = math.pi / 2.0
        numeric = np.sort(np.angle(np.linalg.eigvals(fourier_operator(k))))
        *_, theta = dispersion(k)
        closed = np.sort([0.0, theta, -theta])
        assert np.allclose(numeric, closed, atol=1e-12)


class TestEigenSystem:
    def test_rejects_singular_momentum(self):
        for k in (0.0, 2.0 * math.pi, -4.0 * math.pi):
            with pytest.raises(SingularMomentumError):
                eigensystem(k)

    def test_rejects_non_finite_momentum(self):
        # Inherited from dispersion, ahead of the singular-momentum check.
        for k in NON_FINITE:
            raises_without_warning(eigensystem, k)

    def test_array_is_the_scalar_at_every_node_bit_for_bit(self):
        nodes = quadrature_nodes(1024)
        phases, vectors = eigensystem(nodes)
        assert phases.shape == (1024, 3) and vectors.shape == (1024, 3, 3)
        pointwise = [eigensystem(k) for k in nodes.tolist()]
        assert phases.tobytes() == np.array([p for p, _ in pointwise]).tobytes()
        assert vectors.tobytes() == np.array([v for _, v in pointwise]).tobytes()

    def test_array_rejects_any_singular_or_non_finite_momentum(self):
        for k in (0.0, 2.0 * math.pi, -4.0 * math.pi):
            with pytest.raises(SingularMomentumError):
                eigensystem(np.array([0.5, k, 1.0]))
        for k in NON_FINITE:
            # The finiteness check comes first, also next to a singular momentum.
            raises_without_warning(eigensystem, np.array([0.0, k]))

    def test_phases_are_zero_and_dispersion_pair(self):
        phases, vectors = eigensystem(1.3)
        *_, theta = dispersion(1.3)
        assert phases.tolist() == [0.0, theta, -theta]
        assert vectors.shape == (3, 3) and vectors.dtype == complex

    def test_matches_numeric_eigenvector(self):
        k = math.pi / 2.0
        _, vectors = eigensystem(k)
        values, vecs = np.linalg.eig(fourier_operator(k))
        idx = int(np.argmin(np.abs(values - 1.0)))
        numeric = vecs[:, idx]
        mine = vectors[0]
        # Agreement up to a global phase.
        assert abs(np.vdot(numeric, mine)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("grid", ["cycle 4001", "tableau"])
    def test_branch_vectors_are_the_numeric_eigenvectors(self, grid):
        # An independent reference for _branches: np.linalg.eig of the Fourier
        # operator, each eigenvalue matched to the branch whose phase it is,
        # and the vectors compared up to a unit phase factor. On the 4001
        # modes (0 left out, where the moving branches meet) and every 64th
        # quadrature node, the nearest two eigenvalues stay 2e-4 apart.
        if grid == "tableau":
            k, theta, vectors, *_ = spectral._tableau(DEFAULT_GRID_SIZE)
            k, theta, vectors = k[::64], theta[::64], vectors[:, ::64]
            phases = np.stack([np.zeros_like(theta), theta, -theta])
        else:
            modes = np.arange(-2000, 2001)
            k = 2.0 * np.pi * modes[modes != 0] / 4001
            phases, vectors = spectral._branches(k, dispersion(k)[2])
        values, numeric = np.linalg.eig(np.array([fourier_operator(x) for x in k.tolist()]))
        branch = np.argmin(np.abs(values[:, :, None] - np.exp(1j * phases.T)[:, None, :]), axis=-1)
        assert (np.sort(branch, axis=1) == [0, 1, 2]).all()
        mine = np.moveaxis(vectors, 0, 1)[np.arange(len(k))[:, None], branch]
        overlap = np.abs(np.einsum("nlc,ncl->nc", numeric.conj(), mine))
        assert np.max(np.abs(overlap - 1.0)) <= 8.0 * np.finfo(float).eps

    def test_orthonormal_and_eigen_residual_over_grid(self):
        worst_gram = 0.0
        worst_residual = 0.0
        for k in quadrature_nodes(1024):
            phases, v = eigensystem(k)
            gram = v.conj() @ v.T
            worst_gram = max(worst_gram, np.max(np.abs(gram - np.eye(3))))
            u = fourier_operator(k)
            for phase, vec in zip(phases, v):
                residual = np.max(np.abs(u @ vec - np.exp(1j * phase) * vec))
                worst_residual = max(worst_residual, residual)
        assert worst_gram < 1e-12
        assert worst_residual < 1e-12

    def test_stationary_vector_smooth_through_pi(self):
        # k = pi is a removable singularity of the component formula; the
        # half-angle evaluation must sail through without precision loss.
        near = eigensystem(math.pi - 1e-9)[1][0]
        at = eigensystem(math.pi)[1][0]
        assert np.allclose(near, at, atol=1e-7)
        assert np.linalg.norm(at) == pytest.approx(1.0, abs=1e-14)


class TestQuadratureGrid:
    def test_nodes_are_interior_midpoints(self):
        nodes = quadrature_nodes(8)
        assert len(nodes) == 8
        assert nodes[0] == pytest.approx(-math.pi + math.pi / 8.0)
        spacing = np.diff(nodes)
        assert np.allclose(spacing, 2.0 * math.pi / 8.0, atol=1e-15)
        assert np.all(np.abs(nodes) > 1e-12)
        assert np.all(np.abs(nodes) < math.pi)


class TestTableau:
    def test_one_table_serves_every_quadrature(self):
        spectral._tableau.cache_clear()
        wavefunction(2, 5, FIGURE_STATE)
        stationary_component_integral(1, 2, FIGURE_STATE)
        j_kernel(0, 7)
        k_kernel(1, 7)
        remainder_matrix(-1, 9)
        wavefunction_window(3, 5, FIGURE_STATE)
        # Six lookups in all: remainder_matrix reads J and K at its three
        # sites from one lookup, and the window reads one for all its rows.
        info = spectral._tableau.cache_info()
        assert (info.misses, info.hits) == (1, 5)

    def test_table_is_read_only(self):
        for a in spectral._tableau(8):
            assert not a.flags.writeable


def cos_sin_note(parted: int, of: int) -> str:
    """Why a comparison of NumPy's cos and sin with ``np.exp`` failed, naming NumPy's SIMD targets."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return (
        f"{parted} of {of} arguments: NumPy's float64 cos and sin loops round apart from libm's, which"
        f" np.exp calls, on this CPU (SIMD baseline {' '.join(simd['baseline'])}; dispatches to"
        f" {' '.join(simd['found']) or 'none'}). The quadrature then parts from the np.exp bits it was pinned to."
    )


def parted(a: np.ndarray, b: np.ndarray) -> int:
    """How many elements of two complex arrays differ in any bit of either part."""
    a, b = a.view(np.uint64), b.view(np.uint64)
    return 0 if np.array_equal(a, b) else int(np.count_nonzero((a != b).reshape(-1, 2).any(axis=-1)))


class TestCosSinAreExp:
    # The quadrature writes e^{ix} as NumPy's cos and sin into one complex
    # array, where it took np.exp; these pin that identity on the arguments it
    # forms, so another CPU fails here, saying why, and not only on the golden.

    def test_plane_waves_on_the_quadrature_arguments(self):
        k, theta, *_ = spectral._tableau(DEFAULT_GRID_SIZE)
        sizes = np.arange(41)[:, None]
        kn = k * np.arange(-40, 41)[:, None]  # stationary_component_integral's k n
        arguments = [kn]
        for t in (0, 1, 5, 20, 400):  # the window's +-theta t + k |n|
            # At t = 0, +-0 + k n is k n bit for bit for n >= 1, checked above;
            # only n = 0, where the zeros' signs meet, gives new arguments.
            n = sizes[:1] if t == 0 else sizes
            arguments += [theta * t + k * n, -theta * t + k * n]
        rng = np.random.default_rng(35)
        arguments.append(rng.uniform(-1e4, 1e4, 10**5))
        count = total = 0
        for x in arguments:
            wave = spectral._plane_wave(x, np.empty(x.shape, dtype=complex))
            expected = np.exp(1j * x)
            # At x = -0, 1j * x hands np.exp the imaginary part +0 (see _plane_wave).
            expected.imag[(x == 0.0) & np.signbit(x)] = -0.0
            count, total = count + parted(wave, expected), total + x.size
        # The conjugates: k n at -n is k n at n negated, and np.exp(-1j * x).
        below, above = (spectral._plane_wave(a, np.empty(a.shape, dtype=complex)) for a in (kn[39::-1], kn[41:]))
        count += parted(below, np.conjugate(above)) + parted(np.conjugate(wave), np.exp(-1j * x))
        total += above.size + x.size
        assert count == 0, cos_sin_note(count, total)

    def test_eigenvector_phase_factors_on_the_tableau_half_angles(self):
        k, theta, *_ = spectral._tableau(DEFAULT_GRID_SIZE)
        phases = np.stack([np.zeros_like(theta), theta, -theta])
        half = 0.5 * np.stack((phases - k, phases, phases + k), axis=-1)
        factor = np.empty(half.shape, dtype=complex)
        factor.real, factor.imag = np.cos(half), -np.sin(half)
        count = parted(factor, np.exp(-1j * half))
        assert count == 0, cos_sin_note(count, half.size)


class TestWavefunction:
    def test_time_zero_recovers_point_mass(self):
        psi = wavefunction(0, 0, FIGURE_STATE)
        assert np.allclose(psi.as_array(), FIGURE_STATE.as_array(), atol=1e-13)
        assert np.max(np.abs(wavefunction(5, 0, FIGURE_STATE).as_array())) < 1e-13

    def test_matches_direct_evolution(self):
        for q in TEST_STATES[:5]:
            direct = evolve_line(q, 9)
            for n in (-9, -4, 0, 3, 9):
                psi = wavefunction(n, 9, q)
                assert np.allclose(
                    psi.as_array(), direct.amplitude(n).as_array(), atol=1e-12
                )

    def test_pointwise_on_the_acceptance_sites(self):
        # Acceptance criterion 5 reads window rows; this keeps the pointwise
        # route on the same sites and times for one of its states.
        for t in (1, 5, 20, 50):
            direct = evolve_line(FIGURE_STATE, t)
            window = wavefunction_window(t, t, FIGURE_STATE)
            for n in range(-t, t + 1):
                psi = wavefunction(n, t, FIGURE_STATE).as_array()
                assert psi.tobytes() == window[n + t].tobytes()
                assert np.max(np.abs(psi - direct.amplitude(n).as_array())) < 1e-6

    def test_matches_direct_evolution_long_run(self):
        direct = evolve_line(FIGURE_STATE, 200)
        for n in (-150, -37, 0, 1, 42, 199):
            psi = wavefunction(n, 200, FIGURE_STATE)
            assert np.allclose(
                psi.as_array(), direct.amplitude(n).as_array(), atol=1e-12
            )

    def test_rejects_negative_time(self):
        calls = [
            lambda: wavefunction(0, -1, FIGURE_STATE),
            # j_kernel(0, -1) used to equal j_kernel(0, 1) silently.
            lambda: j_kernel(0, -1),
            lambda: k_kernel(0, -1),
            lambda: remainder_matrix(0, -1),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_rejects_aliasing_grid(self):
        # The integrand's frequencies span [n - t, n + t]; the 16384 midpoint
        # nodes are exact up to t + |n| = 16383. Unguarded, the sum at
        # n = 16384, t = 0 aliases onto n = 0: it returns minus the initial
        # state.
        assert DEFAULT_GRID_SIZE == 16384
        psi = wavefunction(16383, 0, FIGURE_STATE)
        assert np.max(np.abs(psi.as_array())) < 1e-12
        for n, t in ((16384, 0), (-8192, 8192)):
            with pytest.raises(ValueError):
                wavefunction(n, t, FIGURE_STATE)



#: States of the window tests: complex, uniform real, zero localization and
#: a random complex state.
WINDOW_STATES = (FIGURE_STATE, UNIFORM_STATE, ZERO_LOCALIZATION_STATE, TEST_STATES[-1])


class TestWavefunctionWindow:
    @pytest.mark.parametrize("q", WINDOW_STATES)
    @pytest.mark.parametrize(("t", "m"), [(0, 0), (0, 3), (1, 0), (1, 4), (7, 0), (7, 10),
                                          (333, 0), (333, 4), (5000, 0), (5000, 4)])
    def test_rows_are_the_pointwise_wavefunction_bit_for_bit(self, q, t, m):
        # The window keeps one product per row; one product over all rows
        # changes the bits. A lone site at -n reads the same conjugates of the
        # +n factors as the window, so a wrong mirror fails the tests against
        # direct evolution, not this one.
        window = wavefunction_window(m, t, q)
        assert window.shape == (2 * m + 1, 3) and window.dtype == complex
        for n in range(-m, m + 1):
            assert window[m + n].tobytes() == wavefunction(n, t, q).as_array().tobytes()

    @pytest.mark.parametrize("q", WINDOW_STATES)
    def test_several_times_are_the_one_time_windows_bit_for_bit(self, q):
        # The phase-0 products are built once for all times.
        times = (0, 1, 7, 333, 5000)
        stacked = wavefunction_window(4, times, q)
        assert stacked.shape == (5, 9, 3) and stacked.dtype == complex
        for t, window in zip(times, stacked):
            assert window.tobytes() == wavefunction_window(4, t, q).tobytes()
        for sequence in ([7, 1], range(2), np.array([7, 1])):
            expected = np.array([wavefunction_window(4, t, q) for t in sequence])
            assert wavefunction_window(4, sequence, q).tobytes() == expected.tobytes()

    def test_rejects_bad_time_sequences(self):
        for m, times in ((3, ()), (3, (1, -1)), (1, (5, 16383)), (-1, (1, 2))):
            with pytest.raises(ValueError):
                wavefunction_window(m, times, FIGURE_STATE)
        with pytest.raises(TypeError):
            wavefunction_window(3, (1, 2.5), FIGURE_STATE)

    def test_rejects_windows_beyond_reach(self):
        assert wavefunction_window(0, 16383, FIGURE_STATE).shape == (1, 3)
        for m, t in ((1, 16383), (8192, 8192), (16384, 0)):
            with pytest.raises(ValueError):
                wavefunction_window(m, t, FIGURE_STATE)
        for m, t in ((-1, 3), (0, -1)):
            with pytest.raises(ValueError):
                wavefunction_window(m, t, FIGURE_STATE)



class TestStationaryIntegral:
    def test_middle_component_value(self):
        value = stationary_component_integral(0, 2, FIGURE_STATE)
        assert abs(value) ** 2 == pytest.approx(0.0336735, abs=1e-6)

    def test_matches_closed_form(self):
        for q in (FIGURE_STATE, TEST_STATES[7], TEST_STATES[10]):
            for n in range(-10, 11):
                for l in (1, 2, 3):
                    integral = stationary_component_integral(n, l, q)
                    closed = limit_amplitude(n, l, q)
                    assert integral == pytest.approx(closed, abs=1e-8)

    def test_vanishes_for_zero_localization_state(self):
        for n in range(-5, 6):
            for l in (1, 2, 3):
                value = stationary_component_integral(n, l, ZERO_LOCALIZATION_STATE)
                assert abs(value) < 1e-8

    def test_rejects_aliasing_grid(self):
        # The integrand's Fourier tail falls like c^|m|, as the kernels' at
        # t = 0: 256 nodes gave 3.1e-6 at n = 250 and 0.29 at n = 255 before
        # the |n| + 16 rule, where the exact amplitude is below 1e-250.
        for n in (16369, -16369):
            with pytest.raises(ValueError):
                stationary_component_integral(n, 1, FIGURE_STATE)
        value = stationary_component_integral(16368, 1, FIGURE_STATE)
        assert abs(value - limit_amplitude(16368, 1, FIGURE_STATE)) < 1e-13


class TestOscillatoryKernels:
    def test_time_free_value_at_origin(self):
        assert j_kernel(0, 0) == pytest.approx(1.0 / (2.0 * math.sqrt(6.0)), abs=1e-12)

    def test_k_kernel_vanishes_at_time_zero(self):
        # sin(theta * 0) = 0 pointwise.
        assert k_kernel(0, 0) == 0.0
        assert k_kernel(3, 0) == 0.0

    def test_j_kernel_bounded_by_quarter(self):
        # |integrand| <= 1/(5 + cos k) <= 1/4.
        for n, t in ((0, 0), (1, 7), (5, 33), (0, 1000)):
            assert abs(j_kernel(n, t)) <= 0.25

    def test_j_kernel_decays(self):
        values = [abs(j_kernel(0, t)) for t in (10, 100, 1000)]
        assert values[2] < values[1] < values[0]

    def test_k_difference_decays_from_early_times(self):
        early = abs(k_kernel(0, 10) - k_kernel(1, 10))
        late = abs(k_kernel(0, 1000) - k_kernel(1, 1000))
        assert late < early

    def test_kernel_sums_are_the_library_sums(self):
        # The kernels and the remainder read one helper over all their sites;
        # each value must still equal the one-site sums bit for bit.
        for t in (0, 1, 17, 1000, 20000):
            for n in (-3000, -41, -1, 0, 1, 3, 40, 3000):
                assert kernel_sums(DEFAULT_GRID_SIZE, n, t) == (j_kernel(n, t), k_kernel(n, t))
                assert remainder_matrix(n, t).tobytes() == remainder_reference(n, t).tobytes()

    def test_grid_independence(self):
        coarse, _ = kernel_sums(4096, 0, 50)
        assert coarse == pytest.approx(j_kernel(0, 50), abs=1e-12)

    def test_rejects_aliasing_grid(self):
        # At n = 0, t = 1000 a 576-node grid was off by 0.28 in K and 2.1e-2
        # in J; the kernels need t/sqrt(3) + |n| nodes plus a margin that
        # grows like t^(1/3), which on 16384 nodes reaches t = 28086 at n = 0.
        assert kernel_nodes_needed(0, 28086) <= DEFAULT_GRID_SIZE < kernel_nodes_needed(0, 28087)
        for call in (j_kernel, k_kernel):
            assert math.isfinite(call(0, 28086))
        for call in (j_kernel, k_kernel, remainder_matrix):
            with pytest.raises(ValueError):
                call(0, 28087)
        with pytest.raises(ValueError):
            oscillatory_remainder(0, 28087, FIGURE_STATE)

    def test_smallest_accepted_grid_matches_fine_grid(self):
        # The sums on the smallest even node count the rule admits agree
        # with the 16384-node values.
        for n, t in ((0, 1000), (0, 100), (40, 1000), (0, 4000)):
            size = 2 * math.ceil(kernel_nodes_needed(n, t) / 2.0)
            assert size > t / math.sqrt(3.0) + abs(n)
            j_small, k_small = kernel_sums(size, n, t)
            assert k_small == pytest.approx(k_kernel(n, t), abs=1e-12)
            assert j_small == pytest.approx(j_kernel(n, t), abs=1e-12)


class TestRemainder:
    def test_structural_identities(self):
        m = remainder_matrix(3, 17)
        assert isinstance(m, np.ndarray) and m.shape == (3, 3) and m.dtype == complex
        assert m[1, 1] == pytest.approx(4.0 * j_kernel(3, 17), abs=1e-15)
        assert m[0, 2] == pytest.approx(-2.0 * j_kernel(4, 17), abs=1e-15)
        assert m[2, 0] == pytest.approx(-2.0 * j_kernel(2, 17), abs=1e-15)
        assert np.max(np.abs(m.imag)) == 0.0

    def test_reconstructs_wavefunction(self):
        for q in (FIGURE_STATE, TEST_STATES[8]):
            for t in (0, 1, 5, 12):
                for n in range(-t - 2, t + 3):
                    psi = wavefunction(n, t, q).as_array()
                    stationary = np.array(
                        [limit_amplitude(n, l, q) for l in (1, 2, 3)]
                    )
                    moving = oscillatory_remainder(n, t, q).as_array()
                    assert np.allclose(psi, stationary + moving, atol=1e-12)

    def test_pointwise_on_the_acceptance_sites(self):
        # Acceptance criterion 6.1 reads window rows; this keeps the pointwise
        # route on the same sites and times for one of its states.
        times = (0, 1, 5, 20, 50)
        for t, window in zip(times, remainder_window(20, times, FIGURE_STATE)):
            direct = evolve_line(FIGURE_STATE, t)
            for n in range(-20, 21):
                moving = oscillatory_remainder(n, t, FIGURE_STATE).as_array()
                assert moving.tobytes() == window[n + 20].tobytes()
                stationary = np.array([limit_amplitude(n, l, FIGURE_STATE) for l in (1, 2, 3)])
                assert np.max(np.abs(stationary + moving - direct.amplitude(n).as_array())) < 1e-6

    def test_remainder_decays_at_origin(self):
        early = np.linalg.norm(
            oscillatory_remainder(0, 10, FIGURE_STATE).as_array()
        )
        late = np.linalg.norm(
            oscillatory_remainder(0, 1000, FIGURE_STATE).as_array()
        )
        assert late < early / 3.0

    def test_time_zero_remainder_completes_point_mass(self):
        # At t = 0 the stationary part plus the remainder must equal the
        # initial condition: q at the origin, zero elsewhere.
        q = QubitState(1.0, 0.0, 0.0)
        stationary = np.array([limit_amplitude(0, l, q) for l in (1, 2, 3)])
        moving = oscillatory_remainder(0, 0, q).as_array()
        assert np.allclose(stationary + moving, q.as_array(), atol=1e-12)
        off_site = np.array(
            [limit_amplitude(4, l, q) for l in (1, 2, 3)]
        ) + oscillatory_remainder(4, 0, q).as_array()
        assert np.max(np.abs(off_site)) < 1e-12


class TestRemainderWindow:
    @pytest.mark.parametrize("q", (FIGURE_STATE, TEST_STATES[-1]))
    def test_rows_are_the_pointwise_remainder_bit_for_bit(self, q):
        # Every site's matrix comes from one kernel pass over the window, and
        # the stack of matrices times q rounds as each matrix times q.
        times = (0, 5, 20, 1000)
        stacked = remainder_window(12, times, q)
        assert stacked.shape == (4, 25, 3) and stacked.dtype == complex
        for t, window in zip(times, stacked):
            assert window.tobytes() == remainder_window(12, t, q).tobytes()
            for n in range(-12, 13):
                assert window[n + 12].tobytes() == oscillatory_remainder(n, t, q).as_array().tobytes()

    def test_rejects_windows_beyond_reach_or_malformed(self):
        # The matrices read the kernels one site past each end of the window.
        assert remainder_window(0, 28086 - 40, FIGURE_STATE).shape == (1, 3)
        for m, t in ((0, 28087), (16368, 0), (-1, 3), (2, ()), (2, (3, -1))):
            with pytest.raises(ValueError):
                remainder_window(m, t, FIGURE_STATE)
        for m, t in ((2.0, 3), (2, 3.0), (2, (1, 0.5))):
            with pytest.raises(TypeError):
                remainder_window(m, t, FIGURE_STATE)
