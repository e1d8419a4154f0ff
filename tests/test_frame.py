import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from adiorbit import (
    AdiabaticSpectrum,
    ConjugatedParams,
    Gauge,
    InvariantFrame,
    PipelineResult,
    SpinHalfParams,
    TimeGrid,
    apply_phase_redressing,
    build_conjugated_model,
    build_frame,
    build_spin_half,
    compute_nonadiabatic_coupling,
    coupling_route_discrepancy,
    run_pipeline,
    solve_quasistationary,
)
from adiorbit._linalg import STEP_CHUNK
from adiorbit.errors import GridMismatch, PhaseUnresolved
from adiorbit.frame import ARG_UNDEFINED_TOL
from adiorbit.grid import cumulative_trapezoid

from conftest import conjugated_d5, constant_model, smooth_random_model


def pipeline_frame(model, grid, gauge=Gauge.CONTINUITY_FIXED):
    spec = solve_quasistationary(model, grid, gauge=gauge)
    gamma = compute_nonadiabatic_coupling(spec)
    return build_frame(spec, gamma)


def synthetic_frame(grid, values):
    # a constant model's spectrum on the same grid carries the synthetic gamma
    spec = solve_quasistationary(constant_model(np.diag([0.0, 1.0])), grid)
    return build_frame(spec, values)


def unwrapped_argument(entry):
    """Continuously unwrapped arg of one sampled entry, linearly
    interpolated over the samples where |entry| < ARG_UNDEFINED_TOL
    (zero where no sample is defined)."""
    undef = np.abs(entry) < ARG_UNDEFINED_TOL
    if undef.all():
        return np.zeros(entry.shape)
    defined = np.nonzero(~undef)[0]
    return np.interp(np.arange(entry.size), defined, np.unwrap(np.angle(entry[defined])))


def per_pair_frame(spectrum, gamma):
    """Reference: the coupling assembled from its modulus and phase,
    alpha_mn = int(e_m - e_n) + int(g_nn - g_mm) + arg g_mn, with each
    pair's argument unwrapped on its own and linearly interpolated over
    the samples where |g_mn| < ARG_UNDEFINED_TOL. Reads ``gamma``
    without changing it, so it must run before ``build_frame``."""
    d = spectrum.dimension
    diag = np.arange(d)
    gsym = 0.5 * (gamma + np.conj(np.swapaxes(gamma, -1, -2)))
    magnitude = np.abs(gsym)
    n1 = gsym.shape[0]
    args = np.zeros((n1, d, d))
    for m in range(d):
        for n in range(d):
            if m != n:
                args[:, m, n] = unwrapped_argument(gsym[:, m, n])
    energies = spectrum.eigenvalues
    berry = np.real(np.einsum("knn->kn", gsym))
    integrals = cumulative_trapezoid(
        np.concatenate([energies - berry, berry, energies], axis=1), spectrum.grid.dtau
    )
    theta, berry_int, energy_int = integrals[:, :d], integrals[:, d : 2 * d], integrals[:, 2 * d :]
    xi = berry_int[:, None, :] - berry_int[:, :, None]
    xi += args
    xi[:, diag, diag] = 0.0
    alpha = energy_int[:, :, None] - energy_int[:, None, :]
    alpha += xi
    coupling = np.exp(1j * alpha) * magnitude
    coupling[:, diag, diag] = 0.0
    return SimpleNamespace(
        dynamical_phase=theta,
        coupling_phase=alpha,
        coupling=coupling,
        arg_undefined=magnitude < ARG_UNDEFINED_TOL,
    )


def off_diagonal_pairs(d):
    return [(m, n) for m in range(d) for n in range(d) if m != n]


def isolated_zero_gamma(grid):
    """Synthetic coupling whose off-diagonal modulus vanishes at sample 50."""
    taus = grid.samples
    values = np.zeros((taus.size, 2, 2), dtype=complex)
    envelope = taus - 0.5
    values[:, 0, 1] = envelope * np.exp(1j * 0.7 * taus)
    values[:, 1, 0] = np.conj(values[:, 0, 1])
    return values


def reference_case(name):
    """(spectrum, gamma) of a named case of the per-pair comparisons."""
    if name == "isolated_zero":
        grid = TimeGrid(tau_end=1.0, n_steps=100)
        spec = solve_quasistationary(constant_model(np.diag([0.0, 1.0])), grid)
        values = isolated_zero_gamma(grid)
        return spec, values
    grid = TimeGrid(tau_end=10.0, n_steps=5000)
    gauge = Gauge.CONTINUITY_FIXED
    if name.startswith("spin_a"):
        model = build_spin_half(SpinHalfParams(omega0=1.0, omega=0.1, theta=np.pi / 4))
        gauge = Gauge.ANALYTIC if name == "spin_a_analytic" else gauge
    elif name == "smooth_random_3":
        model = smooth_random_model(3, seed=5)
    else:
        model = conjugated_d5()
    spec = solve_quasistationary(model, grid, gauge=gauge)
    return spec, compute_nonadiabatic_coupling(spec)


REFERENCE_CASES = [
    "spin_a_continuity", "spin_a_analytic", "smooth_random_3", "conjugated_d5", "isolated_zero"
]


def geometric_phase(frame, m, n):
    """xi_mn = alpha_mn - int(e_m - e_n): the coupling phase without its
    accumulated energy difference."""
    energies = frame.spectrum.eigenvalues
    energy_int = cumulative_trapezoid(energies[:, m] - energies[:, n], frame.grid.dtau)
    return frame.coupling_phase(m, n) - energy_int


def phase_rate(frame, m, n):
    xi = geometric_phase(frame, m, n)
    return (xi[2:] - xi[:-2]) / (2 * frame.grid.dtau)


class TestDressingPhases:
    def test_constant_model_phase_is_energy_times_tau(self):
        grid = TimeGrid(tau_end=4.0, n_steps=400)
        frame = pipeline_frame(constant_model(np.diag([1.0, 2.0])), grid)
        expected = np.outer(grid.samples, [1.0, 2.0])
        assert np.abs(frame.dynamical_phase - expected).max() < 1e-12
        basis = frame.basis_vectors()
        explicit = np.exp(-1j * expected)[:, None, :] * frame.spectrum.eigenvectors
        assert np.abs(basis - explicit).max() < 1e-12

    def test_conjugated_phase_rate_analytic_gauge(self):
        # in the closed-form gauge the dressing rate is E_m minus the
        # generator's diagonal in the H basis
        v = np.array([[0.05, 0.1], [0.1, -0.02]], dtype=complex)
        model = build_conjugated_model(ConjugatedParams(energies=[0.0, 1.0], generator=v))
        grid = TimeGrid(tau_end=10.0, n_steps=10000)
        frame = pipeline_frame(model, grid, gauge=Gauge.ANALYTIC)
        expected = np.outer(grid.samples, [0.0 - 0.05, 1.0 - (-0.02)])
        assert np.abs(frame.dynamical_phase - expected).max() < 1e-6

    def test_transport_gauge_absorbs_berry_connection(self, conjugated_example):
        # with parallel transport the numerical Berry connection is ~0,
        # so the dressing phase is just the energy integral
        _, model = conjugated_example
        grid = TimeGrid(tau_end=10.0, n_steps=10000)
        frame = pipeline_frame(model, grid)
        expected = np.outer(grid.samples, [0.0, 1.0])
        assert np.abs(frame.dynamical_phase - expected).max() < 1e-6

    def test_starts_at_zero(self, spin_a_model):
        grid = TimeGrid(tau_end=5.0, n_steps=1000)
        frame = pipeline_frame(spin_a_model, grid)
        assert np.abs(frame.dynamical_phase[0]).max() == 0.0

    def test_grid_mismatch(self, spin_a_model):
        grid_a = TimeGrid(tau_end=5.0, n_steps=1000)
        grid_b = TimeGrid(tau_end=5.0, n_steps=500)
        spec = solve_quasistationary(spin_a_model, grid_a)
        gamma = compute_nonadiabatic_coupling(
            solve_quasistationary(spin_a_model, grid_b)
        )
        with pytest.raises(GridMismatch):
            build_frame(spec, gamma)

    def test_redressing_leaves_basis_overlaps(self, spin_a_model):
        # a smooth per-level rephasing must cancel out of the dressed frame
        grid = TimeGrid(tau_end=10.0, n_steps=10000)
        spec = solve_quasistationary(spin_a_model, grid)
        frame = build_frame(spec, compute_nonadiabatic_coupling(spec))

        def phase_fn(taus):
            return np.stack(
                [0.05 * np.sin(0.3 * taus), -0.04 * np.sin(0.45 * taus)], axis=1
            )

        dressed_spec = apply_phase_redressing(spec, phase_fn)
        dressed_frame = build_frame(
            dressed_spec, compute_nonadiabatic_coupling(dressed_spec)
        )
        rng = np.random.default_rng(8)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        before = np.abs(np.einsum("i,kin->kn", psi.conj(), frame.basis_vectors())) ** 2
        after = np.abs(np.einsum("i,kin->kn", psi.conj(), dressed_frame.basis_vectors())) ** 2
        assert np.abs(before - after).max() < 1e-10


class TestGeometricPotential:
    """xi_mn, the coupling phase alpha_mn = arg M_mn less its accumulated
    energy difference, computed here from ``coupling_phase``."""

    def test_constant_phase_coupling(self, conjugated_example, medium_grid):
        # parallel transport plus a real constant generator: xi flat, rate zero
        _, model = conjugated_example
        spec = solve_quasistationary(model, medium_grid)
        gamma = compute_nonadiabatic_coupling(spec)
        start = np.angle(gamma[0, 0, 1])
        frame = build_frame(spec, gamma)
        xi = geometric_phase(frame, 0, 1)
        assert np.abs(xi - xi[0]).max() < 1e-7
        assert np.abs(phase_rate(frame, 0, 1)).max() < 1e-5
        assert xi[0] == pytest.approx(start, abs=1e-9)

    def test_spin_a_analytic_gauge_rate(self, spin_a_model):
        grid = TimeGrid(tau_end=20.0, n_steps=20000)
        frame = pipeline_frame(spin_a_model, grid, gauge=Gauge.ANALYTIC)
        # rotating-frame analysis: d xi_01 / dtau = -omega cos(theta)
        expected = -0.1 * np.cos(np.pi / 4)
        # samples 5 .. n-5
        assert np.abs(phase_rate(frame, 0, 1)[4:-4] - expected).max() < 1e-6
        assert np.abs(phase_rate(frame, 1, 0)[4:-4] + expected).max() < 1e-6

    def test_isolated_zero_is_flagged_and_bridged(self):
        # synthetic coupling whose off-diagonal modulus crosses zero mid-grid
        grid = TimeGrid(tau_end=1.0, n_steps=100)
        frame = synthetic_frame(grid, isolated_zero_gamma(grid))
        magnitude = np.abs(frame.coupling[:, 0, 1])
        assert magnitude[50] < ARG_UNDEFINED_TOL
        assert not magnitude[49] < ARG_UNDEFINED_TOL
        alpha = frame.coupling_phase(0, 1)
        assert np.all(np.isfinite(geometric_phase(frame, 0, 1)))
        # interpolated value sits between its neighbours
        lo, hi = sorted((alpha[49], alpha[51]))
        assert lo - 1e-12 <= alpha[50] <= hi + 1e-12

    def test_all_zero_coupling(self):
        grid = TimeGrid(tau_end=1.0, n_steps=50)
        values = np.zeros((grid.n_steps + 1, 2, 2), dtype=complex)
        frame = synthetic_frame(grid, values)
        assert (np.abs(frame.coupling[:, 0, 1]) < ARG_UNDEFINED_TOL).all()
        # no sample defines the argument, so alpha is zero throughout
        assert np.abs(frame.coupling_phase(0, 1)).max() == 0.0


class TestDressedColumn:
    @pytest.mark.parametrize("rows", [slice(None), slice(0, 1), slice(7, 40, 3)])
    def test_equals_basis_column(self, rows):
        frame = pipeline_frame(smooth_random_model(3, seed=4), TimeGrid(tau_end=2.0, n_steps=200))
        for level in range(3):
            expected = frame.basis_vectors()[rows, :, level]
            assert np.array_equal(frame.dressed_column(level, rows), expected)


class TestCouplingMatrix:
    def test_constant_model_coupling_vanishes(self):
        grid = TimeGrid(tau_end=2.0, n_steps=200)
        frame = pipeline_frame(constant_model(np.diag([1.0, 2.0])), grid)
        assert np.abs(frame.coupling).max() == 0.0

    def test_conjugated_modulus(self, conjugated_example, medium_grid):
        # |M_nm| = |<E_n|V|E_m>| = 0.1 at every sample
        _, model = conjugated_example
        frame = pipeline_frame(model, medium_grid)
        assert np.abs(np.abs(frame.coupling[:, 0, 1]) - 0.1).max() < 1e-8

    def test_spin_a_modulus_and_phase_rate(self, spin_a_model):
        grid = TimeGrid(tau_end=20.0, n_steps=20000)
        frame = pipeline_frame(spin_a_model, grid)
        expected_mag = 0.1 * np.sin(np.pi / 4) / 2.0
        assert np.abs(np.abs(frame.coupling[:, 0, 1]) - expected_mag).max() < 1e-8
        angles = np.unwrap(np.angle(frame.coupling[:, 0, 1]))
        slope = np.polyfit(grid.samples, angles, 1)[0]
        expected_rate = 1.0 + 0.1 * np.cos(np.pi / 4)
        assert abs(abs(slope) - expected_rate) < 1e-6

    def test_hermitian_zero_diagonal(self, spin_a_model):
        grid = TimeGrid(tau_end=10.0, n_steps=5000)
        frame = pipeline_frame(spin_a_model, grid)
        m = frame.coupling
        assert np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max() < 1e-10
        assert np.abs(np.einsum("kii->ki", m)).max() == 0.0

    def test_modulus_matches_symmetrized_gamma(self, spin_a_model):
        grid = TimeGrid(tau_end=10.0, n_steps=5000)
        spec = solve_quasistationary(spin_a_model, grid)
        gamma = compute_nonadiabatic_coupling(spec)
        frame = build_frame(spec, gamma)
        gsym = 0.5 * (gamma + np.conj(np.swapaxes(gamma, -1, -2)))
        off = ~np.eye(2, dtype=bool)
        assert np.abs(np.abs(frame.coupling[:, off]) - np.abs(gsym[:, off])).max() < 1e-14

    def test_two_route_agreement(self, spin_a_model, conjugated_example):
        for model in (spin_a_model, conjugated_example[1]):
            grid = TimeGrid(tau_end=20.0, n_steps=20000)
            frame = pipeline_frame(model, grid)
            assert coupling_route_discrepancy(frame) < 1e-6

    def test_overlap_route_raw_diagonal_is_energy(self, spin_a_model):
        # before zeroing, the direct route's diagonal equals the level energy;
        # the dressing phases absorb exactly that term
        grid = TimeGrid(tau_end=10.0, n_steps=10000)
        spec = solve_quasistationary(spin_a_model, grid)
        frame = build_frame(spec, compute_nonadiabatic_coupling(spec))
        basis = frame.basis_vectors()
        dtau = grid.dtau
        dbasis = (basis[2:] - basis[:-2]) / (2 * dtau)
        raw_diag = 1j * np.einsum("kim,kim->km", basis[1:-1].conj(), dbasis)
        assert np.abs(raw_diag.real - spec.eigenvalues[1:-1]).max() < 1e-5


class TestPerPairReference:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_per_pair_route(self, case):
        # the coupling and alpha agree with the gamma-built reference at
        # roundoff; alpha is arg M unwrapped pair by pair, bit for bit
        spec, gamma = reference_case(case)
        ref = per_pair_frame(spec, gamma)
        scale = max(1.0, float(np.abs(gamma).max()))
        frame = build_frame(spec, gamma)
        assert np.abs(frame.coupling - ref.coupling).max() <= 1e-13 * scale
        assert np.array_equal(frame.dynamical_phase, ref.dynamical_phase)
        for m, n in off_diagonal_pairs(spec.dimension):
            alpha = frame.coupling_phase(m, n)
            assert np.array_equal(alpha, unwrapped_argument(frame.coupling[:, m, n])), (m, n)
            gap = alpha - ref.coupling_phase[:, m, n]
            if case == "isolated_zero":
                # the envelope changes sign at the undefined sample 50, so
                # the phase jumps by pi plus the advance over two steps,
                # +0.014 in arg gamma but -0.006 in arg M: the unwraps take
                # branches 2 pi apart there, and the bridges differ by pi.
                # The defined samples agree modulo 2 pi
                defined = ~ref.arg_undefined[:, m, n]
                gap = np.angle(np.exp(1j * gap[defined]))
            assert np.abs(gap).max() <= 1e-12, (m, n)
            undefined = np.abs(frame.coupling[:, m, n]) < ARG_UNDEFINED_TOL
            assert np.array_equal(undefined, ref.arg_undefined[:, m, n]), (m, n)

    def test_vanishing_entries_stay_vanishing(self):
        spec, gamma = reference_case("isolated_zero")
        ref = per_pair_frame(spec, gamma)
        tiny = np.abs(gamma) < ARG_UNDEFINED_TOL
        frame = build_frame(spec, gamma)
        assert tiny[50, 0, 1] and tiny[50, 1, 0]
        assert np.abs(frame.coupling[tiny]).max() < 1e-14
        assert np.abs(ref.coupling[tiny]).max() < 1e-14

    def test_large_dressing_phases(self):
        # |Theta| reaches ~1e3: multiplying e^{i Theta_m} by e^{-i Theta_n}
        # must be as accurate as exponentiating the difference
        rng = np.random.default_rng(3)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        params = ConjugatedParams(
            energies=[0.0, 12.5, 25.0], generator=0.05 * (g + g.conj().T) / 2.0
        )
        spec = solve_quasistationary(
            build_conjugated_model(params), TimeGrid(tau_end=40.0, n_steps=4000)
        )
        gamma = compute_nonadiabatic_coupling(spec)
        # the references read gamma before build_frame forms M in its storage
        ref = per_pair_frame(spec, gamma)
        diag = np.arange(3)
        gsym = 0.5 * (gamma + np.conj(np.swapaxes(gamma, -1, -2)))
        gsym[:, diag, diag] = 0.0
        frame = build_frame(spec, gamma)
        theta = frame.dynamical_phase
        assert np.abs(theta).max() > 900.0

        wide = theta.astype(np.longdouble)
        exact = gsym * np.exp(1j * (wide[:, :, None] - wide[:, None, :]))
        difference = gsym * np.exp(1j * (theta[:, :, None] - theta[:, None, :]))
        err_product = float(np.abs(frame.coupling - exact).max())
        err_difference = float(np.abs(difference - exact).max())
        scale = float(np.abs(gsym).max())
        assert err_product <= max(err_difference, 4 * np.finfo(float).eps * scale)
        assert np.abs(frame.coupling - ref.coupling).max() <= 1e-13 * max(1.0, scale)


def whole_grid_coupling(spectrum, values):
    """M as one whole-grid hermitize, trapezoid and dressing, on a copy."""
    diag = np.arange(spectrum.dimension)
    coupling = 0.5 * (values + np.conj(np.swapaxes(values, -1, -2)))
    theta = cumulative_trapezoid(
        spectrum.eigenvalues - coupling[:, diag, diag].real, spectrum.grid.dtau
    )
    rot = np.exp(1j * theta)
    coupling *= rot[:, :, None]
    coupling *= rot.conj()[:, None, :]
    coupling[:, diag, diag] = 0.0
    return theta, coupling


class TestCouplingInGammaStorage:
    """build_frame forms M in gamma's storage in one pass of STEP_CHUNK
    samples at a time, and the frame keeps only Theta and M."""

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("n_steps", [4095, 4096, 4097, 2 * STEP_CHUNK + 1])
    def test_equals_the_whole_grid_formula(self, d, n_steps):
        model = smooth_random_model(2, seed=7) if d == 2 else conjugated_d5()
        spec = solve_quasistationary(model, TimeGrid(tau_end=4.0, n_steps=n_steps))
        gamma = compute_nonadiabatic_coupling(spec)
        theta, expected = whole_grid_coupling(spec, gamma)
        frame = build_frame(spec, gamma)
        assert np.shares_memory(frame.coupling, gamma)
        assert frame.dynamical_phase.tobytes() == theta.tobytes()
        assert frame.coupling.dtype == expected.dtype
        assert frame.coupling.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["spin_a", "conjugated_d5"])
    def test_holds_theta_and_a_few_chunks_over_its_inputs(self, spin_a_model, case):
        # the benchmark's grids: spin a at 2e5 steps, d = 5 at 4e4 steps
        model, n_steps = (spin_a_model, 200000) if case == "spin_a" else (conjugated_d5(), 40000)
        spec = solve_quasistationary(model, TimeGrid(tau_end=n_steps / 1000, n_steps=n_steps))
        gamma = compute_nonadiabatic_coupling(spec)
        tracemalloc.start()
        try:
            frame = build_frame(spec, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # per chunk: hermitize's two temporary stacks, and rows of (d,)
        # for the dressing phases, their conjugate and Theta's integrand
        # (3.8 MiB at both sizes, numpy 2.4); whole-grid phases, their
        # conjugate and integrand held 15.4 MiB at d = 2 and 7.8 at d = 5
        stack_bytes = STEP_CHUNK * spec.dimension**2 * np.dtype(complex).itemsize
        row_bytes = STEP_CHUNK * spec.dimension * np.dtype(complex).itemsize
        assert peak <= frame.dynamical_phase.nbytes + 2 * stack_bytes + 4 * row_bytes

    def test_frame_and_result_keep_no_gamma(self, spin_a_model):
        assert [f.name for f in fields(InvariantFrame)] == [
            "spectrum", "dynamical_phase", "coupling"
        ]
        assert "gamma" not in {f.name for f in fields(PipelineResult)}
        result = run_pipeline(spin_a_model, TimeGrid(tau_end=10.0, n_steps=2000))
        frame = result.frame
        gamma = compute_nonadiabatic_coupling(result.spectrum)
        ref = per_pair_frame(result.spectrum, gamma)
        # alpha is read from M on every call; nothing is cached on the frame
        for m, n in off_diagonal_pairs(2):
            alpha = frame.coupling_phase(m, n)
            assert np.array_equal(alpha, unwrapped_argument(frame.coupling[:, m, n]))
            assert np.abs(alpha - ref.coupling_phase[:, m, n]).max() <= 1e-12
        assert vars(frame).keys() == {"spectrum", "dynamical_phase", "coupling"}

    def test_pipeline_holds_the_spectrum_frame_and_coefficients(self):
        # the d = 5 grid of the benchmark's check: with gamma kept beside M
        # the run held one more (n + 1, 5, 5) stack, 15.3 MB
        model, grid = conjugated_d5(), TimeGrid(tau_end=40.0, n_steps=40000)
        grid.samples
        tracemalloc.start()
        try:
            result = run_pipeline(model, grid)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        kept = (
            result.spectrum.eigenvectors.nbytes + result.spectrum.eigenvalues.nbytes
            + result.frame.coupling.nbytes + result.frame.dynamical_phase.nbytes
            + result.coefficients.coefficients.nbytes
        )
        # the margin holds p_exact and the norm residuals, 0.6 MB
        assert held <= kept + 2 * 2**20


class TestPhaseGuard:
    """arg M unwraps only while alpha moves by less than pi per step; the
    energy part may take at most half of that."""

    @staticmethod
    def frame_with_gap(gap, dtau):
        grid = TimeGrid(tau_end=8 * dtau, n_steps=8)
        taus = grid.samples
        energies = np.stack([np.zeros_like(taus), np.full_like(taus, gap)], axis=1)
        vectors = np.broadcast_to(np.eye(2, dtype=complex), (taus.size, 2, 2))
        spec = AdiabaticSpectrum(grid, energies, vectors, Gauge.CONTINUITY_FIXED, min_gap=gap)
        coupling = np.zeros((taus.size, 2, 2), dtype=complex)
        coupling[:, 1, 0] = 0.1 * np.exp(1j * gap * taus)
        coupling[:, 0, 1] = coupling[:, 1, 0].conj()
        return InvariantFrame(spec, np.outer(taus, [0.0, gap]), coupling)

    def test_half_pi_per_step_raises(self):
        # dtau = 1/8 makes gap * dtau exactly pi/2
        frame = self.frame_with_gap(4 * np.pi, 0.125)
        for m, n in ((1, 0), (0, 1)):
            with pytest.raises(PhaseUnresolved, match=f"alpha_{m}{n} advances by up to 1.571 rad"):
                frame.coupling_phase(m, n)

    def test_below_half_pi_unwraps(self):
        gap = np.nextafter(4 * np.pi, 0.0)
        frame = self.frame_with_gap(gap, 0.125)
        assert np.abs(frame.coupling_phase(1, 0) - gap * frame.grid.samples).max() < 1e-12
