import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from adiorbit import (
    ConjugatedParams,
    Gauge,
    HamiltonianModel,
    SpinHalfParams,
    SpinVariant,
    TimeGrid,
    build_conjugated_model,
    build_frame,
    build_spin_half,
    check_linear_phase,
    compute_nonadiabatic_coupling,
    evolve_coefficients,
    load_tabulated_model,
    normalize,
    run_pipeline,
    sample_hamiltonian,
    solve_quasistationary,
    survival_probability_exact,
)
from adiorbit._linalg import STEP_CHUNK, hermitize, phase_convention, unitary_steps
from adiorbit.errors import (
    InputError,
    InvalidSamples,
    NonHermitianInput,
    NonHermitianSample,
    NonMonotoneTime,
    OutsideTabulatedRange,
    ParseError,
    ZeroHamiltonian,
)
from adiorbit.model import SIGMA_Z, sample_derivative

from conftest import SX, SY, SZ, write_tabulated


class TestNormalize:
    def test_sigma_z_level_one(self):
        model, record = normalize(lambda t: SZ, initial_level=1)
        assert record.reference_energy == pytest.approx(1.0)
        assert np.allclose(sample_hamiltonian(model, 0.3)[0], SZ)

    def test_scaling_identity(self):
        model, record = normalize(lambda t: 2.0 * SZ, initial_level=1)
        assert record.reference_energy == pytest.approx(2.0)
        for tau in (0.0, 0.5, 3.0):
            assert np.allclose(sample_hamiltonian(model, tau)[0], SZ)

    def test_zero_eigenvalue_falls_back_to_spectral_norm(self):
        model, record = normalize(lambda t: np.diag([0.0, 1.0]), initial_level=0)
        assert record.reference_energy == pytest.approx(1.0)
        assert np.allclose(sample_hamiltonian(model, 0.0)[0], np.diag([0.0, 1.0]))

    def test_time_rescaling(self):
        # raw H(t) = 2 sigma_z + t sigma_x: h(tau) must equal H(tau/2)/2
        def raw(t):
            return 2.0 * SZ + t * SX

        model, record = normalize(raw, initial_level=1)
        assert record.reference_energy == pytest.approx(2.0)
        assert record.time_scale == pytest.approx(0.5)
        tau = 1.2
        assert np.allclose(sample_hamiltonian(model, tau)[0], raw(tau * 0.5) / 2.0)

    def test_zero_hamiltonian(self):
        with pytest.raises(ZeroHamiltonian):
            normalize(lambda t: np.zeros((2, 2)), initial_level=0)

    def test_non_hermitian_raw(self):
        with pytest.raises(NonHermitianInput):
            normalize(lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]), initial_level=0)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            normalize(lambda t: SZ, initial_level=5)


class TestSpinHalf:
    def test_theta_zero_is_static_sigma_z(self):
        model = build_spin_half(SpinHalfParams(omega0=1.0, omega=0.3, theta=0.0))
        for tau in (0.0, 1.7, 9.2):
            assert np.allclose(sample_hamiltonian(model, tau)[0], -0.5 * SZ)

    def test_omega_zero_is_constant(self):
        model = build_spin_half(SpinHalfParams(omega0=1.0, omega=0.0, theta=np.pi / 4))
        assert np.allclose(sample_hamiltonian(model, 0.0)[0], sample_hamiltonian(model, 5.0)[0])
        assert model.period is None

    def test_eigenvalues_constant(self, spin_a_model):
        rng = np.random.default_rng(7)
        taus = rng.uniform(0.0, 50.0, size=40)
        for h in sample_hamiltonian(spin_a_model, taus):
            assert np.allclose(np.linalg.eigvalsh(h), [-0.5, 0.5], atol=1e-12)

    def test_period(self, spin_a_model):
        assert spin_a_model.period == pytest.approx(2.0 * np.pi / 0.1)
        h0 = sample_hamiltonian(spin_a_model, 0.0)[0]
        hT = sample_hamiltonian(spin_a_model, spin_a_model.period)[0]
        assert np.allclose(h0, hT, atol=1e-12)

    def test_analytic_frame_solves_eigenproblem(self, spin_a_model):
        taus = np.linspace(0.0, 30.0, 91)
        evals, evecs = spin_a_model.analytic_frame(taus)
        h = sample_hamiltonian(spin_a_model, taus)
        resid = np.einsum("kij,kjn->kin", h, evecs) - evecs * evals[:, None, :]
        assert np.abs(resid).max() < 1e-14
        norms = np.linalg.norm(evecs, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-14

    @pytest.mark.parametrize("omega", [0.0, 0.1, -0.3])
    @pytest.mark.parametrize("theta", [0.0, np.pi / 4, 2.0 * np.pi / 3, np.pi])
    def test_variant_a_matches_rotating_field_formulas(self, theta, omega):
        # the entrywise rotating field -(omega0 / 2) n(tau).sigma, with
        # n = (sin(theta) cos(omega tau), sin(theta) sin(omega tau), cos(theta)),
        # its derivative and its field-aligned frame
        model = build_spin_half(SpinHalfParams(omega0=1.0, omega=omega, theta=theta))
        assert model.name == "spin_half_a"
        taus = np.linspace(0.0, 30.0, 91)
        wt = omega * taus
        n_x, n_y = np.sin(theta) * np.cos(wt), np.sin(theta) * np.sin(wt)
        h = -0.5 * (
            np.multiply.outer(n_x, SX) + np.multiply.outer(n_y, SY) + np.cos(theta) * SZ
        )
        dh = -0.5 * omega * np.sin(theta) * (
            np.multiply.outer(-np.sin(wt), SX) + np.multiply.outer(np.cos(wt), SY)
        )
        assert np.abs(sample_hamiltonian(model, taus) - h).max() < 1e-15
        assert np.abs(sample_derivative(model, taus) - dh).max() < 1e-15
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        old = np.empty((taus.size, 2, 2), dtype=complex)
        old[:, 0, 0], old[:, 1, 0] = c, np.exp(1j * wt) * s
        old[:, 0, 1], old[:, 1, 1] = -np.exp(-1j * wt) * s, c
        evals, vecs = model.analytic_frame(taus)
        assert np.abs(evals - [-0.5, 0.5]).max() < 1e-15
        # equal up to one phase per column and sample
        overlaps = np.einsum("kin,kin->kn", old.conj(), vecs)
        assert np.abs(np.abs(overlaps) - 1.0).max() < 1e-15

    def test_variant_a_gauges_agree_past_a_right_angle(self):
        # at theta > pi / 2 level 1's largest entry is its first, so the
        # analytic frame carries the continuity gauge's tau = 0 convention
        # only if it applies it too
        model = build_spin_half(SpinHalfParams(omega0=1.0, omega=0.1, theta=2.0 * np.pi / 3))
        grid = TimeGrid(tau_end=20.0, n_steps=20000)
        runs = {}
        for gauge in (Gauge.CONTINUITY_FIXED, Gauge.ANALYTIC):
            spec = solve_quasistationary(model, grid, gauge=gauge)
            frame = build_frame(spec, compute_nonadiabatic_coupling(spec))
            p_exact = survival_probability_exact(evolve_coefficients(frame.coupling, grid, 0))
            runs[gauge] = p_exact, frame.coupling, check_linear_phase(frame, (1, 0)).alpha0
        (p_c, coupling_c, alpha_c), (p_a, coupling_a, alpha_a) = runs.values()
        assert np.abs(p_a - p_c).max() < 1e-9
        assert np.abs(coupling_a - coupling_c).max() < 1e-9
        assert alpha_a == pytest.approx(alpha_c, abs=1e-9)

    def test_variant_b_builds_without_grid(self):
        params = SpinHalfParams(omega0=1.0, omega=0.1, theta=np.pi / 4, variant=SpinVariant.B)
        model_b = build_spin_half(params)
        assert model_b.name == "spin_half_b"
        model_a = build_spin_half(SpinHalfParams(omega0=1.0, omega=0.1, theta=np.pi / 4))
        # U_a propagated on a grid, as variant B was once built
        grid = TimeGrid(tau_end=20.0, n_steps=20000)
        u_a = [np.eye(2, dtype=complex)]
        midpoints = grid.samples[:-1] + 0.5 * grid.dtau
        for step in unitary_steps(sample_hamiltonian(model_a, midpoints), grid.dtau, -1):
            u_a.append(step @ u_a[-1])
        u_a = np.array(u_a)
        h_a = sample_hamiltonian(model_a, grid.samples)
        dual = -np.einsum("kji,kjl,klm->kim", u_a.conj(), h_a, u_a)
        assert np.abs(sample_hamiltonian(model_b, grid.samples) - dual).max() < 1e-7

    @pytest.mark.parametrize("theta", [0.0, np.pi / 4, 2.0, np.pi])
    def test_variant_b_closed_form_evolution_operator(self, theta):
        # U_a(tau) = exp(-i omega tau sigma_z / 2) exp(-i tau K), K = h_a(0) - omega sigma_z / 2
        omega0, omega = 1.3, 0.25
        model_a = build_spin_half(SpinHalfParams(omega0=omega0, omega=omega, theta=theta))
        model_b = build_spin_half(
            SpinHalfParams(omega0=omega0, omega=omega, theta=theta, variant=SpinVariant.B)
        )
        k = sample_hamiltonian(model_a, 0.0)[0] - (omega / 2.0) * SIGMA_Z
        taus = np.array([0.0, 0.7, 5.0, 31.4, 200.0])
        h_a, h_b = sample_hamiltonian(model_a, taus), sample_hamiltonian(model_b, taus)
        for tau, ha, hb in zip(taus, h_a, h_b):
            u_a = expm(-0.5j * omega * tau * SIGMA_Z) @ expm(-1j * tau * k)
            # U_a solves i dU/dtau = (omega / 2) sigma_z U + U K = h_a U ...
            assert np.abs(0.5 * omega * SIGMA_Z @ u_a + u_a @ k - ha @ u_a).max() < 1e-12
            # ... and variant B is the dual it defines
            assert np.abs(hb + u_a.conj().T @ ha @ u_a).max() < 1e-12

    def test_variant_b_shape(self):
        grid = TimeGrid(tau_end=10.0, n_steps=2000)
        params = SpinHalfParams(omega0=1.0, omega=0.1, theta=np.pi / 4, variant=SpinVariant.B)
        model_b = build_spin_half(params)
        model_a = build_spin_half(SpinHalfParams(omega0=1.0, omega=0.1, theta=np.pi / 4))
        # at tau = 0 the evolution operator is the identity
        h_a, h_b = sample_hamiltonian(model_a, 0.0)[0], sample_hamiltonian(model_b, 0.0)[0]
        assert np.allclose(h_b, -h_a, atol=1e-12)
        # conjugation by a unitary preserves the spectrum
        taus = np.linspace(0.0, 10.0, 37)
        for h in sample_hamiltonian(model_b, taus):
            assert np.allclose(np.linalg.eigvalsh(h), [-0.5, 0.5], atol=1e-8)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SpinHalfParams(omega0=-1.0, omega=0.1, theta=0.1)
        with pytest.raises(ValueError):
            SpinHalfParams(omega0=1.0, omega=0.1, theta=4.0)


class TestConjugated:
    def test_zero_generator_is_constant(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        model = build_conjugated_model(
            ConjugatedParams(energies=[0.0, 1.0], generator=np.zeros((2, 2)))
        )
        for tau in (0.0, 2.0, 17.0):
            assert np.allclose(sample_hamiltonian(model, tau)[0], h, atol=1e-14)

    def test_generator_equal_to_h_is_constant(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        model = build_conjugated_model(ConjugatedParams(energies=[0.0, 1.0], generator=h))
        for tau in (0.0, 2.0, 17.0):
            assert np.allclose(sample_hamiltonian(model, tau)[0], h, atol=1e-12)

    def test_spectrum_preserved(self, conjugated_example):
        _, model = conjugated_example
        rng = np.random.default_rng(3)
        for h in sample_hamiltonian(model, rng.uniform(0.0, 40.0, size=30)):
            assert np.allclose(np.linalg.eigvalsh(h), [0.0, 1.0], atol=1e-12)

    def test_analytic_frame(self, conjugated_example):
        _, model = conjugated_example
        taus = np.linspace(0.0, 15.0, 61)
        evals, evecs = model.analytic_frame(taus)
        h = sample_hamiltonian(model, taus)
        resid = np.einsum("kij,kjn->kin", h, evecs) - evecs * evals[:, None, :]
        assert np.abs(resid).max() < 1e-13

    def test_three_level_with_basis(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        basis = np.linalg.qr(a)[0]
        v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v = (v + v.conj().T) / 2.0
        model = build_conjugated_model(
            ConjugatedParams(energies=[0.0, 0.7, 2.0], generator=v, eigenbasis=basis)
        )
        for tau in (0.0, 1.3):
            evals = np.linalg.eigvalsh(sample_hamiltonian(model, tau)[0])
            assert np.allclose(evals, [0.0, 0.7, 2.0], atol=1e-12)

    def test_non_unitary_eigenbasis(self):
        # B^H B - I is Hermitian for every B, so only its entries can tell
        with pytest.raises(ValueError, match="unitary"):
            build_conjugated_model(
                ConjugatedParams(
                    energies=[0.0, 1.0],
                    generator=np.array([[0, 0.1], [0.1, 0]]),
                    eigenbasis=np.diag([1.0, 2.0]),
                )
            )

    def test_non_hermitian_generator(self):
        with pytest.raises(NonHermitianInput):
            build_conjugated_model(
                ConjugatedParams(energies=[0.0, 1.0], generator=np.array([[0, 1], [0, 0]]))
            )


def einsum_reference(energies, generator, basis, taus):
    """h, dh/dtau and the analytic frame of a conjugated model, computed
    one einsum per conjugator exp(-i tau V)."""
    d = len(energies)
    h_const = hermitize(basis @ np.diag(energies).astype(complex) @ basis.conj().T)
    v_evals, v_evecs = np.linalg.eigh(generator)
    phases = np.exp(-1j * np.multiply.outer(taus, v_evals))
    u = np.einsum("ij,kj,lj->kil", v_evecs, phases, v_evecs.conj())
    h = np.einsum("kij,jl,kml->kim", u, h_const, u.conj())
    dh = -1j * (np.einsum("ij,kjl->kil", generator, h) - np.einsum("kij,jl->kil", h, generator))
    order = np.argsort(energies, kind="stable")
    vecs = np.einsum("kij,jn->kin", u, phase_convention(basis[:, order]))
    evals = np.broadcast_to(np.asarray(energies)[order], (taus.size, d))
    return h, dh, evals, vecs


class TestConjugatedSampler:
    """The factorized sampler against the einsum reference."""

    @staticmethod
    def params(d, rotated, seed):
        rng = np.random.default_rng(seed)
        energies = np.sort(rng.uniform(-2.0, 3.0, d))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        generator = 0.3 * (g + g.conj().T) / 2.0
        basis = np.eye(d, dtype=complex)
        if rotated:
            basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        return energies, generator, basis

    @pytest.mark.parametrize("n", [7, STEP_CHUNK + 3])
    @pytest.mark.parametrize("rotated", [False, True], ids=["identity", "rotated"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_einsum_reference(self, d, rotated, n):
        energies, generator, basis = self.params(d, rotated, seed=10 * d + rotated)
        model = build_conjugated_model(
            ConjugatedParams(energies=energies, generator=generator, eigenbasis=basis)
        )
        taus = np.concatenate([[0.0], np.random.default_rng(n).uniform(0.0, 40.0, n - 1)])
        h, dh, evals, vecs = einsum_reference(energies, generator, basis, taus)
        assert np.abs(sample_hamiltonian(model, taus) - h).max() < 1e-13
        got_dh = sample_derivative(model, taus)
        assert np.abs(got_dh - dh).max() < 1e-13
        # dh/dtau = -i [V, h]
        commutator = -1j * (generator @ h - h @ generator)
        assert np.abs(got_dh - commutator).max() < 1e-13
        got_evals, got_vecs = model.analytic_frame(taus)
        assert np.array_equal(got_evals, evals)
        assert np.abs(got_vecs - vecs).max() < 1e-13

    def test_memory_bound(self):
        # the check_conj_d5 size: 4e4 steps of a d = 5 model
        energies, generator, basis = self.params(5, True, seed=4)
        model = build_conjugated_model(
            ConjugatedParams(energies=energies, generator=generator, eigenbasis=basis)
        )
        taus = np.linspace(0.0, 40.0, 40_001)
        sample_hamiltonian(model, taus[:8])
        tracemalloc.start()
        try:
            h = sample_hamiltonian(model, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 48,007,232 B was the einsum sampler's peak here; no extra
        # output-sized buffer fits under 1.5 outputs
        assert peak <= 48_007_232
        assert peak < 1.5 * h.nbytes


class TestDerivatives:
    @pytest.mark.parametrize("which", ["spin_a", "spin_b", "conjugated"])
    def test_against_central_difference(self, which, spin_a_model, conjugated_example):
        params_b = SpinHalfParams(omega0=1.0, omega=0.1, theta=np.pi / 4, variant=SpinVariant.B)
        model = {
            "spin_a": spin_a_model,
            "spin_b": build_spin_half(params_b),
            "conjugated": conjugated_example[1],
        }[which]
        delta = 1e-4
        for tau in (0.3, 2.0, 11.0):
            plus, minus = sample_hamiltonian(model, [tau + delta, tau - delta])
            fd = (plus - minus) / (2 * delta)
            exact = sample_derivative(model, tau)[0]
            scale = max(np.abs(exact).max(), 1e-30)
            assert np.abs(fd - exact).max() / scale < 1e-6


class TestSampleChecks:
    """sample_hamiltonian checks what an evaluator returns, once."""

    @staticmethod
    def model(evaluate_many, dimension=2):
        return HamiltonianModel(dimension=dimension, evaluate_many=evaluate_many, name="user")

    def test_wrong_shape(self):
        model = self.model(lambda taus: np.zeros((taus.size, 3, 3), dtype=complex))
        with pytest.raises(InvalidSamples, match=r"shape \(5, 3, 3\).*\(5, 2, 2\)") as excinfo:
            sample_hamiltonian(model, np.linspace(0.0, 1.0, 5))
        assert isinstance(excinfo.value, InputError)
        assert excinfo.value.module == "model"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample(self, bad):
        def evaluate_many(taus):
            h = np.multiply.outer(np.ones(taus.size), SZ) + np.multiply.outer(0.1 * taus, SX)
            h[taus > 0.5, 0, 1] = bad
            return h

        grid = TimeGrid(tau_end=1.0, n_steps=100)
        # a typed input error, not a tracking failure in the spectrum
        with pytest.raises(InvalidSamples, match=r"h is not finite at tau=0\.51"):
            run_pipeline(self.model(evaluate_many), grid)

    def test_derivative_checked_too(self):
        model = HamiltonianModel(
            dimension=2,
            evaluate_many=lambda taus: np.multiply.outer(np.ones(taus.size), SZ),
            derivative_many=lambda taus: np.zeros((taus.size, 3, 3), dtype=complex),
            name="user",
        )
        with pytest.raises(InvalidSamples, match=r"dh/dtau samples of shape \(2, 3, 3\)"):
            sample_derivative(model, [0.0, 1.0])

    def test_not_an_array(self):
        model = self.model(lambda taus: [np.eye(2)] * taus.size)
        with pytest.raises(InvalidSamples):
            sample_hamiltonian(model, [0.0, 1.0])


class TestHermiticityProperty:
    def test_all_builtins(self, spin_a_model, conjugated_example):
        grid = TimeGrid(tau_end=5.0, n_steps=500)
        params_b = SpinHalfParams(omega0=1.0, omega=0.1, theta=np.pi / 4, variant=SpinVariant.B)
        models = [spin_a_model, conjugated_example[1], build_spin_half(params_b)]
        rng = np.random.default_rng(5)
        taus = rng.uniform(0.0, 5.0, size=100)
        for model in models:
            h = sample_hamiltonian(model, taus)
            defect = np.abs(h - np.conj(np.swapaxes(h, -1, -2))).max()
            assert defect < 1e-12


class TestTabulated:
    def test_constant_from_two_samples(self, tmp_path):
        path = write_tabulated(tmp_path / "const.txt", [0.0, 1.0], [SZ, SZ])
        model = load_tabulated_model(path)
        assert model.dimension == 2
        assert np.allclose(sample_hamiltonian(model, 0.4)[0], SZ)

    def test_linear_interpolation(self, tmp_path):
        h0, h1 = np.zeros((2, 2), complex), SX.astype(complex)
        path = write_tabulated(tmp_path / "lin.txt", [0.0, 2.0], [h0, h1])
        model = load_tabulated_model(path)
        assert np.allclose(sample_hamiltonian(model, 1.0)[0], 0.5 * SX)

    def test_matches_analytic_model(self, tmp_path, spin_a_model):
        taus = np.linspace(0.0, 10.0, 1001)
        samples = sample_hamiltonian(spin_a_model, taus)
        path = write_tabulated(tmp_path / "spin.txt", taus, samples)
        model = load_tabulated_model(path)
        probe = np.linspace(0.0, 10.0, 517)
        err = np.abs(
            sample_hamiltonian(model, probe) - sample_hamiltonian(spin_a_model, probe)
        ).max()
        # linear interpolation error ~ |h''| dt^2 / 8 with dt = 0.01
        assert err < 2e-5

    def test_pipeline_matches_analytic_model(self, tmp_path, spin_a_model):
        from adiorbit import run_pipeline

        taus = np.linspace(0.0, 10.0, 2001)
        path = write_tabulated(
            tmp_path / "spin_fine.txt", taus, sample_hamiltonian(spin_a_model, taus)
        )
        grid = TimeGrid(tau_end=10.0, n_steps=5000)
        p_tab = run_pipeline(load_tabulated_model(path), grid).p_exact
        p_ana = run_pipeline(spin_a_model, grid).p_exact
        assert np.abs(p_tab - p_ana).max() < 1e-6

    def test_non_hermitian_sample_reports_row(self, tmp_path):
        mats = [SZ.copy(), SZ + 1e-6j * np.eye(2), SZ.copy()]
        path = write_tabulated(tmp_path / "bad.txt", [0.0, 1.0, 2.0], mats)
        with pytest.raises(NonHermitianSample) as excinfo:
            load_tabulated_model(path)
        assert excinfo.value.row == 1

    @pytest.mark.parametrize("entry", ["inf", "nan", "-inf"])
    def test_non_finite_entry(self, tmp_path, entry):
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"dim=2\n0 1 0 0 0 -1 0\n1 1 0 {entry} 0 -1 0\n")
        with pytest.raises(ParseError, match="row 1 has a non-finite entry"):
            load_tabulated_model(path)

    def test_non_monotone_time(self, tmp_path):
        path = write_tabulated(tmp_path / "mono.txt", [0.0, 1.0, 0.5], [SZ, SZ, SZ])
        with pytest.raises(NonMonotoneTime):
            load_tabulated_model(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.txt"
        path.write_text("dimension=2\n0 1 0 0 0 -1 0\n")
        with pytest.raises(ParseError):
            load_tabulated_model(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "cnt.txt"
        path.write_text("dim=2\n0 1 0 0 0 -1\n1 1 0 0 0 -1 0\n")
        with pytest.raises(ParseError):
            load_tabulated_model(path)

    def test_out_of_range_evaluation(self, tmp_path):
        path = write_tabulated(tmp_path / "rng.txt", [0.0, 1.0], [SZ, SZ])
        model = load_tabulated_model(path)
        with pytest.raises(OutsideTabulatedRange):
            sample_hamiltonian(model, 2.0)[0]
