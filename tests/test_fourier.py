import numpy as np
import pytest

from adiorbit import (
    ConjugatedParams,
    Gauge,
    HamiltonianModel,
    TimeGrid,
    build_conjugated_model,
    build_frame,
    check_linear_phase,
    compute_nonadiabatic_coupling,
    fourier_condition_report,
    fourier_decompose_coupling,
    solve_quasistationary,
    verify_conjugated_coupling,
)
from adiorbit.errors import PeriodMismatch, PhaseNotLinear
from adiorbit.fourier import PhaseLinearity, _closed_form_coupling
from adiorbit.grid import running_trapezoid



def frame_for(model, grid, gauge=Gauge.CONTINUITY_FIXED):
    spec = solve_quasistationary(model, grid, gauge=gauge)
    return build_frame(spec, compute_nonadiabatic_coupling(spec))


def chirped_model(g=0.1, beta=0.02):
    """Off-diagonal coupling with a quadratic phase: not linear-phase."""

    def evaluate_many(taus):
        out = np.empty((taus.size, 2, 2), dtype=complex)
        phase = np.exp(1j * beta * taus**2)
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = -1.0
        out[:, 0, 1] = g * phase
        out[:, 1, 0] = g * np.conj(phase)
        return out

    return HamiltonianModel(dimension=2, evaluate_many=evaluate_many, name="chirped")


@pytest.fixture(scope="module")
def spin_a_period_frame(spin_a_model):
    period = spin_a_model.period
    grid = TimeGrid(tau_end=period, n_steps=20000)
    return frame_for(spin_a_model, grid), grid, period


class TestLinearPhase:
    def test_conjugated_is_linear_with_predicted_rate(self):
        # slope for pair (k, m): E_k - E_m + V_mm - V_kk
        v = np.array([[0.05, 0.1], [0.1, -0.02]], dtype=complex)
        model = build_conjugated_model(ConjugatedParams(energies=[0.0, 1.0], generator=v))
        grid = TimeGrid(tau_end=20.0, n_steps=20000)
        frame = frame_for(model, grid)
        lin = check_linear_phase(frame, (1, 0))
        assert lin.is_linear
        assert lin.max_residual < 1e-8
        assert lin.omega0 == pytest.approx(1.0 + 0.05 - (-0.02), abs=1e-6)

    def test_spin_a_is_linear(self, spin_a_period_frame):
        frame, _, _ = spin_a_period_frame
        lin = check_linear_phase(frame, (1, 0))
        assert lin.is_linear
        assert abs(lin.omega0) == pytest.approx(1.0 + 0.1 * np.cos(np.pi / 4), abs=1e-6)

    def test_chirped_phase_is_not_linear(self):
        grid = TimeGrid(tau_end=10.0, n_steps=10000)
        frame = frame_for(chirped_model(), grid)
        lin = check_linear_phase(frame, (1, 0))
        assert not lin.is_linear
        with pytest.raises(PhaseNotLinear):
            harmonics = fourier_decompose_coupling(
                np.abs(frame.coupling[:, 1, 0]), grid, period=10.0, n_harmonics=3
            )
            fourier_condition_report(lin, harmonics)


class TestDecomposition:
    def test_constant_magnitude_single_harmonic(self, spin_a_period_frame):
        frame, grid, period = spin_a_period_frame
        harmonics = fourier_decompose_coupling(
            np.abs(frame.coupling[:, 1, 0]), grid, period, n_harmonics=4
        )
        by_index = {h.index: h.amplitude for h in harmonics.harmonics}
        assert abs(by_index[0]) == pytest.approx(0.1 * np.sin(np.pi / 4) / 2, abs=1e-9)
        for l, amp in by_index.items():
            if l != 0:
                assert abs(amp) < 1e-10
        assert harmonics.tail_energy < 1e-10

    def test_cosine_modulated_magnitude(self):
        period = 4.0
        grid = TimeGrid(tau_end=8.0, n_steps=8000)
        g = 0.2
        samples = g * (1.0 + np.cos(2 * np.pi * grid.samples / period))
        harmonics = fourier_decompose_coupling(samples, grid, period, n_harmonics=3)
        by_index = {h.index: h.amplitude for h in harmonics.harmonics}
        assert abs(by_index[0] - g) < 1e-12
        assert abs(by_index[1] - g / 2) < 1e-12
        assert abs(by_index[-1] - g / 2) < 1e-12
        assert abs(by_index[2]) < 1e-12

    def test_parseval(self):
        period = 2.0
        grid = TimeGrid(tau_end=2.0, n_steps=2000)
        rng = np.random.default_rng(4)
        samples = 0.1 + 0.02 * np.cos(np.pi * grid.samples) + 0.01 * np.sin(
            3 * np.pi * grid.samples + rng.uniform()
        )
        harmonics = fourier_decompose_coupling(samples, grid, period, n_harmonics=5)
        kept = sum(abs(h.amplitude) ** 2 for h in harmonics.harmonics)
        assert kept + harmonics.tail_energy == pytest.approx(
            harmonics.mean_square, abs=1e-6 * harmonics.mean_square
        )
        assert harmonics.tail_energy < 1e-12  # band-limited input

    def test_tail_energy_is_a_sum_of_squares(self):
        # a constant has no tail; mean_square minus the kept weight can
        # round below zero, the dropped weight cannot
        grid = TimeGrid(tau_end=2.0, n_steps=2000)
        for level in np.linspace(0.01, 1.0, 50):
            harmonics = fourier_decompose_coupling(
                np.full(2001, level), grid, 2.0, n_harmonics=2
            )
            assert 0.0 <= harmonics.tail_energy < 1e-30

    def test_reconstruction_within_tail(self):
        period = 2.0
        grid = TimeGrid(tau_end=2.0, n_steps=2000)
        samples = 0.1 + 0.03 * np.cos(np.pi * grid.samples) ** 4  # harmonics up to l=4
        harmonics = fourier_decompose_coupling(samples, grid, period, n_harmonics=2)
        window, taus = samples[:2000], grid.samples[:2000]
        # the truncated series sum_l Gamma_l e^{i Omega_l tau}
        recon = sum(h.amplitude * np.exp(1j * h.frequency * taus) for h in harmonics.harmonics)
        recon = recon.real
        rms_sq = np.mean((window - recon) ** 2)
        assert rms_sq == pytest.approx(harmonics.tail_energy, rel=1e-6)

    def test_period_must_match_grid(self):
        grid = TimeGrid(tau_end=1.0, n_steps=1000)
        with pytest.raises(PeriodMismatch):
            fourier_decompose_coupling(np.ones(1001), grid, period=0.0005, n_harmonics=1)
        with pytest.raises(PeriodMismatch):
            fourier_decompose_coupling(np.ones(1001), grid, period=0.33333, n_harmonics=1)
        with pytest.raises(PeriodMismatch):
            fourier_decompose_coupling(np.ones(1001), grid, period=2.0, n_harmonics=1)


class TestConditionReport:
    def test_spin_a_recovers_rotating_field_condition(self, spin_a_period_frame):
        frame, grid, period = spin_a_period_frame
        lin = check_linear_phase(frame, (1, 0))
        harmonics = fourier_decompose_coupling(
            np.abs(frame.coupling[:, 1, 0]), grid, period, n_harmonics=4
        )
        report = fourier_condition_report(lin, harmonics)
        w0, w, th = 1.0, 0.1, np.pi / 4
        expected = (w * np.sin(th) / 2) / (w0 + w * np.cos(th))
        assert report.max_ratio == pytest.approx(expected, abs=1e-6)
        # the full-transition-amplitude convention carries the factor 2
        assert report.rabi_ratio == pytest.approx(
            w * np.sin(th) / (w0 + w * np.cos(th)), abs=2e-6
        )
        assert report.passed is (report.max_ratio < report.threshold)
        assert not report.resonant_indices

    def test_zero_amplitude_passes_trivially(self):
        grid = TimeGrid(tau_end=2.0, n_steps=2000)
        lin = PhaseLinearity(
            pair=(1, 0), alpha0=0.0, omega0=1.3, max_residual=0.0,
            is_linear=True, linearity_tol=1e-6,
        )
        harmonics = fourier_decompose_coupling(
            np.zeros(2001), grid, period=2.0, n_harmonics=2
        )
        report = fourier_condition_report(lin, harmonics)
        assert report.max_ratio == 0.0
        assert report.passed

    def test_resonant_harmonic_fails_explicitly(self):
        # |gamma| = g (1 + cos(Omega0 tau)) puts weight on l = -1, whose
        # frequency cancels the phase rate exactly
        omega0 = 2.0 * np.pi
        period = 2.0 * np.pi / omega0
        grid = TimeGrid(tau_end=2.0, n_steps=2000)
        samples = 0.05 * (1.0 + np.cos(omega0 * grid.samples))
        harmonics = fourier_decompose_coupling(samples, grid, period, n_harmonics=1)
        lin = PhaseLinearity(
            pair=(1, 0), alpha0=0.2, omega0=omega0, max_residual=0.0,
            is_linear=True, linearity_tol=1e-6,
        )
        report = fourier_condition_report(lin, harmonics)
        assert -1 in report.resonant_indices
        assert not report.passed
        assert np.isinf(max(report.ratios))


class TestIntegralSeriesEquivalence:
    def test_direct_integral_matches_series(self, conjugated_example):
        # away from resonance the phased integral equals its harmonic sum
        _, model = conjugated_example
        grid = TimeGrid(tau_end=20.0, n_steps=20000)
        frame = frame_for(model, grid)
        lin = check_linear_phase(frame, (1, 0))
        assert lin.is_linear
        mags = np.abs(frame.coupling[:, 1, 0])
        harmonics = fourier_decompose_coupling(mags, grid, period=20.0, n_harmonics=4)
        integrand = np.exp(1j * frame.coupling_phase(1, 0)) * mags
        direct = np.empty_like(integrand)
        running_trapezoid(integrand, grid.dtau, direct)
        # sum_l Gamma_l (e^{i (Omega_0 + Omega_l) tau} - 1) / (i (Omega_0 + Omega_l)),
        # the series form of the integral without its constant phase alpha_0
        rates = [lin.omega0 + h.frequency for h in harmonics.harmonics]
        series = sum(
            h.amplitude * (np.exp(1j * rate * grid.samples) - 1.0) / (1j * rate)
            for h, rate in zip(harmonics.harmonics, rates)
        )
        probe = [grid.index_of(t) for t in (5.0, 10.0, 20.0)]
        assert np.abs(np.abs(direct[probe]) - np.abs(series[probe])).max() < 1e-6


class TestConjugatedExactness:
    def test_example_coupling_matches_closed_form(self, conjugated_example, medium_grid):
        params, model = conjugated_example
        frame = frame_for(model, medium_grid)
        assert verify_conjugated_coupling(params, frame) < 1e-8

    @pytest.mark.parametrize("gauge", [Gauge.CONTINUITY_FIXED, Gauge.ANALYTIC])
    def test_rotated_basis_shares_the_frame_convention(self, gauge):
        # with a non-trivial eigenbasis the closed form depends on the
        # phase of each |E_n>; it must use the frame's tau = 0 convention
        rng = np.random.default_rng(12)
        basis = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        params = ConjugatedParams(
            energies=[0.0, 1.0, 2.5], generator=0.05 * (v + v.conj().T), eigenbasis=basis
        )
        frame = frame_for(build_conjugated_model(params), TimeGrid(tau_end=5.0, n_steps=5000), gauge)
        assert verify_conjugated_coupling(params, frame) < 1e-6

    def test_closed_form_structure(self, conjugated_example, medium_grid):
        params, _ = conjugated_example
        closed = _closed_form_coupling(params, medium_grid.samples)
        assert np.abs(np.abs(closed[:, 0, 1]) - 0.1).max() < 1e-15
        rate = np.polyfit(
            medium_grid.samples, np.unwrap(np.angle(closed[:, 0, 1])), 1
        )[0]
        assert rate == pytest.approx(-1.0, abs=1e-9)

    def test_diagonal_generator_decouples(self):
        params = ConjugatedParams(energies=[0.0, 1.0], generator=np.diag([0.3, -0.1]))
        model = build_conjugated_model(params)
        grid = TimeGrid(tau_end=5.0, n_steps=2000)
        frame = frame_for(model, grid)
        assert np.abs(frame.coupling).max() < 1e-12
        assert verify_conjugated_coupling(params, frame) < 1e-12

    def test_generator_equal_to_h_decouples(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        params = ConjugatedParams(energies=[0.0, 1.0], generator=h)
        model = build_conjugated_model(params)
        grid = TimeGrid(tau_end=5.0, n_steps=2000)
        frame = frame_for(model, grid)
        assert np.abs(frame.coupling).max() < 1e-12
