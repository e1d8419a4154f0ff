import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from adiorbit import (
    AdiabaticSpectrum,
    CoefficientTrajectory,
    Gauge,
    HamiltonianModel,
    InvariantFrame,
    SpinHalfParams,
    StateTrajectory,
    TimeGrid,
    build_frame,
    build_spin_half,
    compute_nonadiabatic_coupling,
    conservation_residual,
    evolve_coefficients,
    evolve_schrodinger,
    run_pipeline,
    solve_quasistationary,
    survival_probability_direct,
    survival_probability_exact,
)
from adiorbit._linalg import (
    SCAN_BLOCK,
    SCAN_CHUNK_BLOCKS,
    STEP_CHUNK,
    TAYLOR_BLOCK,
    TAYLOR_THETA,
    TAYLOR_TOL,
    unitary_steps,
)
from adiorbit.errors import GridMismatch
from adiorbit.model import sample_hamiltonian
from adiorbit import propagate
from adiorbit.propagate import _scan_chunk, norm_residuals

from conftest import SX, constant_model

# steps per pass of the propagators for d = 2; _scan_chunk(d) for any d
CHUNK = SCAN_BLOCK * SCAN_CHUNK_BLOCKS


def zero_diag_hermitian(entries):
    """Build a stack of Hermitian zero-diagonal matrices from the upper
    triangle entries, entries[(i, j)] -> array over samples."""
    n = next(iter(entries.values())).shape[0]
    d = max(max(i, j) for i, j in entries) + 1
    out = np.zeros((n, d, d), dtype=complex)
    for (i, j), vals in entries.items():
        out[:, i, j] = vals
        out[:, j, i] = np.conj(vals)
    return out


class TestEvolveSchrodinger:
    def test_constant_eigenstate_survives_with_phase(self):
        grid = TimeGrid(tau_end=3.0, n_steps=3000)
        model = constant_model(np.diag([1.0, 2.0]))
        traj = evolve_schrodinger(model, np.array([0.0, 1.0]), grid)
        expected = np.exp(-2j * grid.samples)
        assert np.abs(traj.states[:, 1] - expected).max() < 1e-12
        assert np.abs(traj.states[:, 0]).max() == 0.0

    def test_rabi_flip_under_sigma_x(self):
        grid = TimeGrid(tau_end=6.0, n_steps=6000)
        traj = evolve_schrodinger(constant_model(SX), np.array([1.0, 0.0]), grid)
        survival = np.abs(traj.states[:, 0]) ** 2
        assert np.abs(survival - np.cos(grid.samples) ** 2).max() < 1e-10

    def test_spin_a_closed_form(self, spin_a_model):
        # the quoted probability with the rotation-frame frequency
        # wt^2 = w0^2 + w^2 + 2 w0 w cos(theta)
        grid = TimeGrid(tau_end=20.0, n_steps=20000)
        _, vecs = spin_a_model.analytic_frame(np.array([0.0]))
        traj = evolve_schrodinger(spin_a_model, vecs[0][:, 0], grid)
        _, frame_vecs = spin_a_model.analytic_frame(grid.samples)
        survival = np.abs(np.einsum("ki,ki->k", frame_vecs[:, :, 0].conj(), traj.states)) ** 2
        w0, w, th = 1.0, 0.1, np.pi / 4
        wt = np.sqrt(w0**2 + w**2 + 2 * w0 * w * np.cos(th))
        closed = 1.0 - (w**2 * np.sin(th) ** 2 / wt**2) * np.sin(wt * grid.samples / 2) ** 2
        assert np.abs(survival - closed).max() < 1e-6

    def test_requires_normalized_state(self):
        grid = TimeGrid(tau_end=1.0, n_steps=10)
        with pytest.raises(ValueError):
            evolve_schrodinger(constant_model(SX), np.array([1.0, 1.0]), grid)

    def test_norm_preserved(self, spin_a_model):
        grid = TimeGrid(tau_end=10.0, n_steps=5000)
        traj = evolve_schrodinger(spin_a_model, np.array([1.0, 0.0]), grid)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12


class TestEvolveCoefficients:
    def test_zero_coupling_is_frozen(self):
        grid = TimeGrid(tau_end=5.0, n_steps=100)
        coupling = np.zeros((101, 3, 3), dtype=complex)
        traj = evolve_coefficients(coupling, grid, initial_level=1)
        assert np.abs(traj.coefficients[:, 1] - 1.0).max() == 0.0
        assert survival_probability_exact(traj).min() == 1.0

    def test_constant_coupling_rabi(self):
        g = 0.3
        grid = TimeGrid(tau_end=8.0, n_steps=8000)
        coupling = zero_diag_hermitian({(0, 1): np.full(grid.n_steps + 1, g)})
        traj = evolve_coefficients(coupling, grid, initial_level=0)
        p = survival_probability_exact(traj)
        assert np.abs(p - np.cos(g * grid.samples) ** 2).max() < 1e-10

    def test_dual_route_against_schrodinger(self, conjugated_example, medium_grid):
        # coefficients from the coupling ODE must equal the projections of
        # the directly integrated state on the dressed frame
        _, model = conjugated_example
        spec = solve_quasistationary(model, medium_grid)
        frame = build_frame(spec, compute_nonadiabatic_coupling(spec))
        traj = evolve_coefficients(frame.coupling, medium_grid, initial_level=0)
        basis = frame.basis_vectors()
        state = evolve_schrodinger(model, basis[0, :, 0], medium_grid)
        projected = np.einsum("kin,ki->kn", basis.conj(), state.states)
        assert np.abs(projected - traj.coefficients).max() < 1e-6

    def test_rejects_non_hermitian(self):
        grid = TimeGrid(tau_end=1.0, n_steps=10)
        bad = np.zeros((11, 2, 2), dtype=complex)
        bad[:, 0, 1] = 1.0  # missing conjugate partner
        with pytest.raises(ValueError):
            evolve_coefficients(bad, grid, 0)

    def test_rejects_nonzero_diagonal(self):
        grid = TimeGrid(tau_end=1.0, n_steps=10)
        bad = np.zeros((11, 2, 2), dtype=complex)
        bad[:, 0, 0] = 0.5
        with pytest.raises(ValueError):
            evolve_coefficients(bad, grid, 0)

    def test_grid_mismatch(self):
        grid = TimeGrid(tau_end=1.0, n_steps=10)
        with pytest.raises(GridMismatch):
            evolve_coefficients(np.zeros((5, 2, 2), dtype=complex), grid, 0)

    @pytest.mark.parametrize("defect, accepted", [(1e-4, True), (1e-2, False)])
    def test_scale_is_the_whole_grids(self, defect, accepted):
        # the largest entry is in the first chunk and the defect in the
        # last: 1e-4 is over 1e-9 of the last chunk's own scale but
        # under 1e-9 of the grid's 1e6
        n = 3 * STEP_CHUNK
        grid = TimeGrid(tau_end=1e-3 * n, n_steps=n)
        coupling = random_coupling(n + 1, 2, seed=5)
        coupling[0, 0, 1] = coupling[0, 1, 0] = 1e6
        coupling[-1, 0, 1] += defect
        if accepted:
            evolve_coefficients(coupling, grid, 0)
        else:
            with pytest.raises(ValueError, match="must be Hermitian"):
                evolve_coefficients(coupling, grid, 0)

    @pytest.mark.parametrize(
        "entry, message", [((0, 1), "must be Hermitian"), ((1, 1), "must have zero diagonal")]
    )
    def test_checks_hold_one_chunk_and_raise_before_any_step(self, monkeypatch, entry, message):
        n, d = 200_000, 2
        grid = TimeGrid(tau_end=200.0, n_steps=n)
        coupling = random_coupling(n + 1, d, seed=6)
        coupling[-1][entry] += 1.0  # the last sample fails the check
        formed = []
        monkeypatch.setattr(propagate, "unitary_steps", lambda *args: formed.append(args))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                evolve_coefficients(coupling, grid, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert formed == []
        # a chunk's moduli and one row buffer per matrix (0.26 MB, numpy
        # 2.4); the whole-grid checks held 9.2 MB here
        assert peak < 4 * STEP_CHUNK * d * d * np.dtype(complex).itemsize


def time_ordered_exponential(coupling, grid):
    """The coefficient propagator U(tau_k), shape (n + 1, d, d): column m
    is :func:`evolve_coefficients` started on level m."""
    d = coupling.shape[-1]
    columns = [evolve_coefficients(coupling, grid, m).coefficients for m in range(d)]
    return np.stack(columns, axis=-1)


class TestTimeOrderedExponential:
    def test_zero_coupling_gives_identity(self):
        grid = TimeGrid(tau_end=1.0, n_steps=20)
        u = time_ordered_exponential(np.zeros((21, 2, 2), dtype=complex), grid)
        assert np.abs(u - np.eye(2)).max() == 0.0

    def test_single_step_matches_expm(self):
        grid = TimeGrid(tau_end=1.0, n_steps=2)
        m = np.array([[0.0, 0.3 - 0.1j], [0.3 + 0.1j, 0.0]])
        coupling = np.broadcast_to(m, (3, 2, 2)).copy()
        u = time_ordered_exponential(coupling, grid)
        assert np.abs(u[1] - expm(1j * grid.dtau * m)).max() < 1e-14

    def test_columns_reproduce_coefficients(self, spin_a_model):
        # the columns agree with a step-by-step product of scipy's expm of
        # the midpoint couplings
        grid = TimeGrid(tau_end=10.0, n_steps=5000)
        spec = solve_quasistationary(spin_a_model, grid)
        frame = build_frame(spec, compute_nonadiabatic_coupling(spec))
        u = time_ordered_exponential(frame.coupling, grid)
        midpoints = 0.5 * (frame.coupling[:-1] + frame.coupling[1:])
        product = [np.eye(2, dtype=complex)]
        for m in midpoints:
            product.append(expm(1j * grid.dtau * m) @ product[-1])
        assert np.abs(u - np.array(product)).max() < 1e-12

    def test_unitary(self, spin_a_model):
        grid = TimeGrid(tau_end=10.0, n_steps=5000)
        spec = solve_quasistationary(spin_a_model, grid)
        frame = build_frame(spec, compute_nonadiabatic_coupling(spec))
        u = time_ordered_exponential(frame.coupling, grid)
        gram = np.einsum("kji,kjl->kil", u.conj(), u)
        assert np.abs(gram - np.eye(2)).max() < 1e-9

    def test_against_independent_ode_solver(self):
        # random smooth 3-level coupling, checked against solve_ivp at
        # tight tolerance
        rng = np.random.default_rng(12)
        amps = rng.uniform(0.05, 0.15, size=3)
        rates = rng.uniform(0.5, 1.5, size=3)
        offsets = rng.uniform(0.0, 2 * np.pi, size=3)
        pairs = [(0, 1), (0, 2), (1, 2)]

        def coupling_at(tau):
            out = np.zeros((3, 3), dtype=complex)
            for (i, j), a, w, p in zip(pairs, amps, rates, offsets):
                out[i, j] = a * np.exp(1j * (w * tau + p))
                out[j, i] = np.conj(out[i, j])
            return out

        grid = TimeGrid(tau_end=5.0, n_steps=10000)
        samples = np.array([coupling_at(t) for t in grid.samples])
        u = time_ordered_exponential(samples, grid)

        def rhs(tau, y):
            return (1j * coupling_at(tau) @ y.reshape(3, 3)).ravel()

        sol = solve_ivp(
            rhs,
            (0.0, grid.tau_end),
            np.eye(3, dtype=complex).ravel(),
            t_eval=[grid.tau_end / 2, grid.tau_end],
            rtol=1e-11,
            atol=1e-13,
        )
        mid = sol.y[:, 0].reshape(3, 3)
        end = sol.y[:, 1].reshape(3, 3)
        assert np.abs(u[grid.n_steps // 2] - mid).max() < 1e-8
        assert np.abs(u[-1] - end).max() < 1e-8


class TestSurvivalProbabilities:
    def test_constant_model_all_one(self):
        grid = TimeGrid(tau_end=5.0, n_steps=500)
        result = run_pipeline(constant_model(np.diag([1.0, 2.0])), grid)
        assert np.abs(result.p_exact - 1.0).max() < 1e-12
        assert np.abs(result.p_direct - 1.0).max() < 1e-12

    def test_routes_agree_on_builtins(self, spin_a_model, conjugated_example):
        for model in (spin_a_model, conjugated_example[1]):
            grid = TimeGrid(tau_end=20.0, n_steps=20000)
            result = run_pipeline(model, grid)
            assert np.abs(result.p_exact - result.p_direct).max() < 1e-6

    def test_direct_route_gauge_invariant(self, spin_a_model):
        from adiorbit import apply_phase_redressing

        grid = TimeGrid(tau_end=10.0, n_steps=10000)
        spec = solve_quasistationary(spin_a_model, grid)
        frame = build_frame(spec, compute_nonadiabatic_coupling(spec))
        state = evolve_schrodinger(spin_a_model, frame.basis_vectors()[0, :, 0], grid)
        p_ref = survival_probability_direct(state, frame, 0)

        def phase_fn(taus):
            return np.stack([0.04 * np.sin(0.3 * taus), -0.03 * np.sin(0.5 * taus)], axis=1)

        spec2 = apply_phase_redressing(spec, phase_fn)
        frame2 = build_frame(spec2, compute_nonadiabatic_coupling(spec2))
        p_new = survival_probability_direct(state, frame2, 0)
        assert np.abs(p_ref - p_new).max() < 1e-10

    def test_direct_grid_mismatch(self, spin_a_model):
        grid = TimeGrid(tau_end=5.0, n_steps=1000)
        other = TimeGrid(tau_end=5.0, n_steps=500)
        spec = solve_quasistationary(spin_a_model, grid)
        frame = build_frame(spec, compute_nonadiabatic_coupling(spec))
        spec_o = solve_quasistationary(spin_a_model, other)
        frame_o = build_frame(spec_o, compute_nonadiabatic_coupling(spec_o))
        state = evolve_schrodinger(spin_a_model, frame.basis_vectors()[0, :, 0], grid)
        with pytest.raises(GridMismatch):
            survival_probability_direct(state, frame_o, 0)

    def test_probability_bounds(self, spin_a_model):
        grid = TimeGrid(tau_end=30.0, n_steps=30000)
        result = run_pipeline(spin_a_model, grid)
        for p in (result.p_exact, result.p_direct):
            assert p[0] == pytest.approx(1.0, abs=1e-12)
            assert p.max() <= 1.0 + 1e-9
            assert p.min() >= 0.0

    def test_adiabatic_limit_scaling(self):
        # slowing the drive by 10 shrinks the worst deficit ~100x
        def worst_deficit(omega):
            model = build_spin_half(SpinHalfParams(omega0=1.0, omega=omega, theta=np.pi / 4))
            grid = TimeGrid(tau_end=20.0, n_steps=20000)
            return 1.0 - run_pipeline(model, grid).p_exact.min()

        ratio = worst_deficit(0.05) / worst_deficit(0.005)
        assert 80.0 < ratio < 120.0


class TestConservation:
    def test_builtin_float_noise(self, spin_a_model):
        # per-step drift is ~2e-16, so a 2000-step run stays below 1e-12
        grid = TimeGrid(tau_end=20.0, n_steps=2000)
        result = run_pipeline(spin_a_model, grid)
        assert conservation_residual(result.coefficients) < 1e-12

    def test_non_hermitian_generator_is_detected(self):
        # negative control: stepping with a non-Hermitian generator leaks norm
        grid = TimeGrid(tau_end=5.0, n_steps=200)
        m = np.array([[0.0, 0.4], [0.2, 0.0]], dtype=complex)  # deliberately lopsided
        c = np.zeros((grid.n_steps + 1, 2), dtype=complex)
        c[0, 0] = 1.0
        step = expm(1j * grid.dtau * m)
        for k in range(grid.n_steps):
            c[k + 1] = step @ c[k]
        traj = CoefficientTrajectory(grid, c, initial_level=0)
        assert conservation_residual(traj) > 1e-3

    def test_random_five_level_long_run(self):
        from conftest import smooth_random_model

        model = smooth_random_model(5, seed=9)
        grid = TimeGrid(tau_end=50.0, n_steps=100000)
        result = run_pipeline(model, grid)
        assert conservation_residual(result.coefficients) < 1e-10


def random_coupling(n_samples, d, seed):
    """Hermitian zero-diagonal samples of size about 0.3."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_samples, d, d)) + 1j * rng.normal(size=(n_samples, d, d))
    m = 0.1 * (a + a.conj().swapaxes(1, 2))
    for i in range(d):
        m[:, i, i] = 0.0
    return m


def random_midpoint_model(grid, seed):
    """A d = 2 model whose h at each midpoint of ``grid`` is an independent
    Hermitian matrix of size about 0.3, like :func:`random_coupling`.
    Independent steps round independently; the steps of a slowly varying
    h round alike, and a scan and a loop then part linearly in n (6e-13
    at n = CHUNK for spin a, where no chunk edge is crossed)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(grid.n_steps, 2, 2)) + 1j * rng.normal(size=(grid.n_steps, 2, 2))
    table = 0.1 * (a + a.conj().swapaxes(1, 2))
    return HamiltonianModel(2, lambda taus: table[(taus / grid.dtau).astype(int)])


def step_by_step(steps, v0):
    out = [v0]
    for step in steps:
        out.append(step @ out[-1])
    return np.array(out)


def random_frame_and_states(n_samples, d, seed):
    """A frame of random eigenvectors and phases, and random states, on
    one grid; the direct overlap reads nothing else of either."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(tau_end=1e-3 * (n_samples - 1), n_steps=n_samples - 1)
    vectors = rng.normal(size=(n_samples, d, d)) + 1j * rng.normal(size=(n_samples, d, d))
    spectrum = AdiabaticSpectrum(
        grid, np.zeros((n_samples, d)), vectors, Gauge.CONTINUITY_FIXED, min_gap=1.0
    )
    frame = InvariantFrame(spectrum, rng.normal(size=(n_samples, d)), None)
    states = rng.normal(size=(n_samples, d)) + 1j * rng.normal(size=(n_samples, d))
    return frame, StateTrajectory(grid, states)


def check_coefficients_against_a_step_loop(d, n):
    grid = TimeGrid(tau_end=1e-3 * n, n_steps=n)
    coupling = random_coupling(n + 1, d, seed=n + d)
    traj = evolve_coefficients(coupling, grid, initial_level=1)
    steps = unitary_steps(0.5 * (coupling[:-1] + coupling[1:]), grid.dtau, sign=+1)
    expected = step_by_step(steps, np.eye(d, dtype=complex)[1])
    assert traj.coefficients.shape == (n + 1, d)
    assert np.abs(traj.coefficients - expected).max() < 1e-13
    assert np.abs(np.linalg.norm(traj.coefficients, axis=1) - 1.0).max() < 1e-13


class TestChunkEdges:
    """The propagators run one scan chunk at a time; the state carried
    across chunk edges must be the state the steps reach."""

    def test_step_chunk_divides_the_chunk(self):
        # so the Taylor degree of every STEP_CHUNK pass is the one a
        # whole-grid unitary_steps would pick
        assert CHUNK % STEP_CHUNK == 0

    @pytest.mark.parametrize("d", range(2, 9))
    def test_step_chunk_divides_the_scan_chunk_of_every_d(self, d):
        chunk = _scan_chunk(d)
        assert chunk % STEP_CHUNK == 0
        # as many matrix entries as a d = 2 chunk at most, unless a single
        # STEP_CHUNK of steps holds more
        assert chunk * d * d <= max(CHUNK * 2 * 2, STEP_CHUNK * d * d)
        assert d > 2 or chunk == CHUNK

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_coefficients_match_a_step_loop(self, d, n):
        check_coefficients_against_a_step_loop(d, n)

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_coefficients_match_a_step_loop_at_the_d_chunk(self, d, chunks, extra):
        check_coefficients_against_a_step_loop(d, chunks * _scan_chunk(d) + extra)

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_schrodinger_matches_a_step_loop(self, n):
        grid = TimeGrid(tau_end=1e-3 * n, n_steps=n)
        model = random_midpoint_model(grid, seed=n)
        v0 = np.array([0.6, 0.8j])
        traj = evolve_schrodinger(model, v0, grid)
        midpoints = grid.samples[:-1] + 0.5 * grid.dtau
        steps = unitary_steps(sample_hamiltonian(model, midpoints), grid.dtau, sign=-1)
        expected = step_by_step(steps, v0)
        assert traj.states.shape == (n + 1, 2)
        assert np.abs(traj.states - expected).max() < 1e-13
        # the SU(2) steps miss unit norm by a few 1e-18 each, alike, so
        # the loop itself drifts 1.6e-13 over 2 * CHUNK + 1 steps; the
        # chunks add nothing to that
        drift = [np.abs(np.linalg.norm(v, axis=1) - 1.0).max() for v in (traj.states, expected)]
        assert drift[0] < max(1e-13, drift[1] + 1e-14)

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize(
        "n_samples", [STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1, 200_001]
    )
    def test_direct_overlap_matches_the_whole_grid_einsum(self, d, n_samples):
        frame, states = random_frame_and_states(n_samples, d, seed=n_samples + d)
        basis = frame.dressed_column(1)
        expected = np.abs(np.einsum("ki,ki->k", basis.conj(), states.states)) ** 2
        ours = survival_probability_direct(states, frame, 1)
        assert ours.dtype == expected.dtype and ours.shape == (n_samples,)
        assert ours.tobytes() == expected.tobytes()


def horner_route(coupling, dtau):
    """c(tau_k) from c(0) = e_1 as the coefficient route formed it before
    its buffers and Paterson-Stockmeyer: whole midpoint stacks, Taylor
    steps by Horner's rule with the degree and squarings of each
    STEP_CHUNK's largest 1-norm, and a step-by-step product."""
    mid = 0.5 * (coupling[:-1] + coupling[1:])
    d, steps = mid.shape[-1], []
    for start in range(0, mid.shape[0], STEP_CHUNK):
        a = 1j * dtau * mid[start : start + STEP_CHUNK]
        theta = np.abs(a).sum(axis=-2).max()
        squarings = int(np.ceil(np.log2(theta / TAYLOR_THETA))) if theta > TAYLOR_THETA else 0
        a /= 2.0**squarings
        scaled, degree = theta / 2.0**squarings, 1
        term = scaled**2 / 2.0
        while term > TAYLOR_TOL:
            degree += 1
            term *= scaled / (degree + 1)
        p = a / degree + np.eye(d)
        for k in range(degree - 1, 0, -1):
            p = a @ p / k + np.eye(d)
        for _ in range(squarings):
            p = p @ p
        steps.append(p)
    return step_by_step(np.concatenate(steps), np.eye(d, dtype=complex)[1])


class TestCoefficientRoute:
    """The coefficient route's buffers and Paterson-Stockmeyer steps
    reproduce the route they replaced."""

    @pytest.mark.parametrize("d", [3, 5, 12])
    @pytest.mark.parametrize(
        "n", sorted({TAYLOR_BLOCK - 1, TAYLOR_BLOCK + 1, STEP_CHUNK - 1, STEP_CHUNK + 1})
    )
    @pytest.mark.parametrize("dtau", [1e-3, 0.7])
    def test_matches_the_horner_route(self, d, n, dtau):
        # the scan chunk is STEP_CHUNK for d > 2, so n crosses both edges;
        # dtau = 0.7 takes squarings, 1e-3 a low degree and none
        assert _scan_chunk(d) == STEP_CHUNK
        coupling = random_coupling(n + 1, d, seed=n + d)
        grid = TimeGrid(tau_end=dtau * n, n_steps=n)
        traj = evolve_coefficients(coupling, grid, initial_level=1)
        assert np.abs(traj.coefficients - horner_route(coupling, grid.dtau)).max() < 1e-13

    def test_peak_is_three_chunks_over_the_output(self):
        # two (chunk, d, d) buffers for the call plus the kernel's small
        # work: 3.90 MiB over the output (numpy 2.4); the route that formed
        # new stacks per chunk peaked at 6.26 MiB
        n, d = 40_000, 5
        coupling = random_coupling(n + 1, d, seed=8)
        grid = TimeGrid(tau_end=40.0, n_steps=n)
        tracemalloc.start()
        try:
            c = evolve_coefficients(coupling, grid, 0).coefficients
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_bytes = _scan_chunk(d) * d * d * np.dtype(complex).itemsize
        assert peak - c.nbytes <= 3 * chunk_bytes


class TestNormResiduals:
    @pytest.mark.parametrize("d", [2, 3, 5, 12])
    @pytest.mark.parametrize("n_samples", [STEP_CHUNK - 1, STEP_CHUNK + 1, 3 * STEP_CHUNK + 7])
    def test_match_the_whole_grid_formula(self, d, n_samples):
        rng = np.random.default_rng(n_samples + d)
        c = rng.normal(size=(n_samples, d)) + 1j * rng.normal(size=(n_samples, d))
        c /= np.linalg.norm(c, axis=1)[:, None]
        grid = TimeGrid(tau_end=1e-3 * (n_samples - 1), n_steps=n_samples - 1)
        expected = np.abs(np.sum(np.abs(c) ** 2, axis=1) - 1.0)
        ours = norm_residuals(CoefficientTrajectory(grid, c, 0))
        assert ours.dtype == expected.dtype and ours.tobytes() == expected.tobytes()

    def test_hold_one_chunk(self):
        n_samples, d = 200_001, 2
        rng = np.random.default_rng(8)
        c = rng.normal(size=(n_samples, d)) + 1j * rng.normal(size=(n_samples, d))
        traj = CoefficientTrajectory(TimeGrid(tau_end=200.0, n_steps=n_samples - 1), c, 0)
        residuals, peak = traced_peak(lambda: norm_residuals(traj))
        # a chunk's moduli and their squares (0.13 MB, numpy 2.4); the
        # whole-grid formula holds 3.1 MB over the output here
        assert peak < residuals.nbytes + 2 * STEP_CHUNK * d * np.dtype(complex).itemsize


def traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestPropagationMemory:
    """Only one chunk of (d, d) stacks is held at a time: a propagator
    that forms every midpoint generator and step at once holds several
    (n, d, d) stacks (4.9 chunks over the output on the d = 5 case below
    and 22 on the d = 2 one, numpy 2.4)."""

    def test_coefficients_d5(self):
        n, d = 40_000, 5
        coupling = random_coupling(n + 1, d, seed=51)
        grid = TimeGrid(tau_end=40.0, n_steps=n)
        traj, peak = traced_peak(lambda: evolve_coefficients(coupling, grid, 0))
        # the chunk's generators and steps, the Taylor kernel's buffers
        # and the scan's chunk buffer (2.5 chunks, numpy 2.4)
        chunk_bytes = CHUNK * d * d * np.dtype(complex).itemsize
        assert peak < traj.coefficients.nbytes + 3 * chunk_bytes

    def test_schrodinger_d2(self, spin_a_model):
        n = 200_000
        grid = TimeGrid(tau_end=200.0, n_steps=n)
        v0 = np.array([1.0, 0.0j])
        traj, peak = traced_peak(lambda: evolve_schrodinger(spin_a_model, v0, grid))
        # the grid's samples (n + 1 floats), and per chunk the samples of
        # h, their checks, the SU(2) kernel's real temporaries, the steps
        # and the scan's chunk buffer (4.2 chunks, numpy 2.4)
        chunk_bytes = CHUNK * 4 * np.dtype(complex).itemsize
        assert peak < traj.states.nbytes + 8 * chunk_bytes

    def test_direct_overlap_d2(self):
        n_samples, d = 200_001, 2
        frame, states = random_frame_and_states(n_samples, d, seed=7)
        p, peak = traced_peak(lambda: survival_probability_direct(states, frame, 0))
        # per chunk the phases and the dressed column, then its conjugate
        # and the overlaps (2.5 chunks, numpy 2.4); the whole-grid einsum
        # holds 14 MB over the output here
        chunk_bytes = STEP_CHUNK * d * np.dtype(complex).itemsize
        assert peak < p.nbytes + 4 * chunk_bytes


class TestPipelineResult:
    """run_pipeline keeps per sample only the frame and the coefficients,
    and reads its extremes from c one STEP_CHUNK at a time."""

    def test_keeps_only_the_frame_and_coefficients(self, spin_a_model):
        grid = TimeGrid(tau_end=100.0, n_steps=100_000)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = run_pipeline(spin_a_model, grid)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        kept = (
            result.spectrum.eigenvectors.nbytes
            + result.frame.coupling.nbytes
            + result.frame.dynamical_phase.nbytes
            + result.coefficients.coefficients.nbytes
        )
        # eigenvalues, times, |c_m|^2 and the residuals held as whole
        # arrays would add 4 MB here
        assert held <= kept + 2**20

    @pytest.mark.parametrize("smallest", [0.3, 0.05])
    @pytest.mark.parametrize("level", [0, 1])
    def test_extremes_are_the_whole_grid_values(self, monkeypatch, smallest, level):
        from adiorbit import pipeline
        from adiorbit.perturb import RATIO_FLOOR

        grid = TimeGrid(tau_end=1.0, n_steps=3 * STEP_CHUNK + 6)
        n1 = grid.n_steps + 1
        rng = np.random.default_rng(level)
        # |c_m| in [0.5, 1] except a planted minimum on a chunk's first
        # row; the largest norm residual on another chunk's last row
        r = rng.uniform(0.5, 1.0, n1)
        r[STEP_CHUNK] = smallest
        c = np.empty((n1, 2), dtype=complex)
        c[:, level] = r * np.exp(1j * rng.uniform(0, 2 * np.pi, n1))
        c[:, 1 - level] = np.sqrt(1.0 - r**2) * np.exp(1j * rng.uniform(0, 2 * np.pi, n1))
        c[2 * STEP_CHUNK - 1] *= 1.0 + 1e-10
        monkeypatch.setattr(
            pipeline, "evolve_coefficients", lambda *args: CoefficientTrajectory(grid, c, level)
        )
        result = run_pipeline(constant_model(np.diag([1.0, 2.0])), grid, initial_level=level)
        assert result.min_p_exact == float(result.p_exact.min()) == smallest * smallest
        assert result.max_norm_residual == float(result.norm_residual.max())
        assert int(result.norm_residual.argmax()) == 2 * STEP_CHUNK - 1
        assert result.ratio_valid is bool(np.abs(c[:, level]).min() >= RATIO_FLOOR)
        assert result.ratio_valid is (smallest >= RATIO_FLOOR)

    def test_conservation_residual_carries_a_nan(self):
        grid = TimeGrid(tau_end=1.0, n_steps=2 * STEP_CHUNK)
        c = np.zeros((grid.n_steps + 1, 2), dtype=complex)
        c[:, 0] = 1.0
        c[STEP_CHUNK + 1, 1] = np.nan
        assert np.isnan(conservation_residual(CoefficientTrajectory(grid, c, 0)))
