import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import adiorbit.spectrum
from adiorbit import (
    AdiabaticSpectrum,
    Gauge,
    GammaMethod,
    HamiltonianModel,
    SpinVariant,
    TimeGrid,
    apply_phase_redressing,
    build_frame,
    build_spin_half,
    compute_nonadiabatic_coupling,
    run_pipeline,
    sample_hamiltonian,
    solve_quasistationary,
)
from adiorbit.errors import (
    AssignmentAmbiguous,
    DegenerateGap,
    DerivativeUnavailable,
    InputError,
    InvalidSamples,
)
from adiorbit._linalg import (
    STEP_CHUNK,
    distinct_rows,
    phase_convention,
    stacked_matmul,
    su2_eigh,
)
from adiorbit.grid import running_trapezoid
from adiorbit.model import ConjugatedParams, _checked, build_conjugated_model, load_tabulated_model
from adiorbit.pipeline import run_frame
from adiorbit.spectrum import _DIAGONAL_MARGIN, _OVERLAP_FLOOR, _enforce_min_gap, _track

from conftest import (
    SX,
    SZ,
    conjugated_d5,
    constant_model,
    count_calls,
    smooth_random_model,
    write_tabulated,
)


def _concatenate_trapezoid(values, dtau):
    """The running trapezoid as whole-array steps after a zero row."""
    steps = np.cumsum(dtau * (values[1:] + values[:-1]) / 2.0, axis=0)
    return np.concatenate((np.zeros((1,) + steps.shape[1:], steps.dtype), steps))


def tumbling_frame_model():
    """Eigenframe rotating about (1,1,1); a pi rotation leaves every
    overlap at 2/3 < 1/sqrt(2), so tracking across it is ambiguous."""
    axis = np.ones(3) / np.sqrt(3)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    diag = np.diag([1.0, 2.0, 3.0])

    def rot(phi):
        return np.eye(3) + np.sin(phi) * k + (1 - np.cos(phi)) * (k @ k)

    def evaluate_many(taus):
        r = np.array([rot(np.pi * tau) for tau in taus])
        return (r @ diag @ r.transpose(0, 2, 1)).astype(complex)

    return HamiltonianModel(dimension=3, evaluate_many=evaluate_many, name="tumbling")


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(tau_end=0.0, n_steps=10)
        with pytest.raises(ValueError):
            TimeGrid(tau_end=1.0, n_steps=1)

    def test_samples_uniform_from_zero(self):
        grid = TimeGrid(tau_end=2.0, n_steps=4)
        assert grid.samples[0] == 0.0
        assert np.allclose(np.diff(grid.samples), grid.dtau)
        assert grid.samples[-1] == pytest.approx(2.0)
        assert grid.index_of(1.0) == 2
        assert grid.index_of(99.0) == 4

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("shape", [(), (2,), (2, 2)], ids=["n", "n_d", "n_d_d"])
    @pytest.mark.parametrize("n", [2, 3, 200_001])
    def test_running_trapezoid_equals_scipy(self, dtype, shape, n):
        # the package's running trapezoid repeats scipy's operations in
        # scipy's order, so every phase and kernel integral is unchanged
        from scipy.integrate import cumulative_trapezoid as scipy_trapezoid

        rng = np.random.default_rng(n + len(shape))
        values = rng.normal(size=(n, *shape))
        if dtype is np.complex128:
            values = values + 1j * rng.normal(size=(n, *shape))
        dtau = 200.0 / (n - 1)
        ours = np.empty_like(values)
        running_trapezoid(values, dtau, ours)
        ref = scipy_trapezoid(values, dx=dtau, axis=0, initial=0)
        assert ours.dtype == ref.dtype == dtype
        assert ours.shape == ref.shape == values.shape
        assert ours.tobytes() == ref.tobytes()

    VIEWS = {
        # the perturbative kernel's column c[:, :, level] of a (n, d, d) stack
        "column": lambda c, diag: c[:, :, 1],
        "column_real": lambda c, diag: c.real[:, :, 1],
        # the phases' diagonal g[:, diag, diag].real
        "diagonal_real": lambda c, diag: c[:, diag, diag].real,
        "diagonal": lambda c, diag: c[:, diag, diag],
    }

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("n", [2, 3, 200_001])
    def test_running_trapezoid_on_strided_views(self, view, n):
        from scipy.integrate import cumulative_trapezoid as scipy_trapezoid

        rng = np.random.default_rng(n)
        stack = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
        values = self.VIEWS[view](stack, np.arange(3))
        assert not values.flags.c_contiguous
        dtau = 200.0 / (n - 1)
        ours = np.empty_like(values)
        running_trapezoid(values, dtau, ours)
        ref = _concatenate_trapezoid(values, dtau)
        assert ours.dtype == ref.dtype == values.dtype
        assert ours.shape == ref.shape == values.shape
        assert ours.tobytes() == ref.tobytes()
        assert ours.tobytes() == scipy_trapezoid(values, dx=dtau, axis=0, initial=0).tobytes()

    def test_running_trapezoid_holds_only_its_output(self):
        rng = np.random.default_rng(5)
        n, d = 200_001, 2
        stack = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        tracemalloc.start()
        try:
            out = np.empty_like(stack[:, :, 0])
            running_trapezoid(stack[:, :, 0], 1e-3, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the concatenate formula holds two more arrays of the output's
        # size (12.2 MB for this 6.1 MB output)
        assert peak <= out.nbytes + 2**20


class TestSolveQuasistationary:
    def test_constant_diagonal(self):
        grid = TimeGrid(tau_end=1.0, n_steps=10)
        spec = solve_quasistationary(constant_model(np.diag([1.0, 2.0])), grid)
        assert np.allclose(spec.eigenvalues, [1.0, 2.0])
        overlap = np.abs(spec.eigenvectors[:, [0, 1], [0, 1]])
        assert np.allclose(overlap, 1.0, atol=1e-12)
        assert spec.min_gap == pytest.approx(1.0)

    def test_sigma_x(self):
        grid = TimeGrid(tau_end=1.0, n_steps=10)
        spec = solve_quasistationary(constant_model(SX), grid)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.abs(minus @ spec.eigenvectors[0, :, 0]) == pytest.approx(1.0)
        assert np.abs(plus @ spec.eigenvectors[0, :, 1]) == pytest.approx(1.0)

    def test_random_smooth_path_self_consistency(self):
        model = smooth_random_model(4, seed=42)
        grid = TimeGrid(tau_end=10.0, n_steps=2000)
        spec = solve_quasistationary(model, grid)
        h = sample_hamiltonian(model, grid.samples)
        resid = np.einsum("kij,kjn->kin", h, spec.eigenvectors) - (
            spec.eigenvectors * spec.eigenvalues[:, None, :]
        )
        assert np.linalg.norm(resid, axis=1).max() < 1e-10
        norms = np.linalg.norm(spec.eigenvectors, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12
        overlaps = np.abs(
            np.einsum("kin,kin->kn", spec.eigenvectors[:-1].conj(), spec.eigenvectors[1:])
        )
        assert overlaps.min() > 0.99

    def test_transport_overlaps_are_real_positive(self, spin_a_model):
        grid = TimeGrid(tau_end=5.0, n_steps=500)
        spec = solve_quasistationary(spin_a_model, grid)
        overlaps = np.einsum(
            "kin,kin->kn", spec.eigenvectors[:-1].conj(), spec.eigenvectors[1:]
        )
        assert np.abs(overlaps.imag).max() < 1e-12
        assert overlaps.real.min() > 0.99

    def test_levels_follow_labels_not_order(self):
        # eigenvalues stay sorted here, but the assignment is by overlap;
        # tracked values must agree with the sorted ones at every sample
        model = smooth_random_model(3, seed=1)
        grid = TimeGrid(tau_end=8.0, n_steps=1600)
        spec = solve_quasistationary(model, grid)
        h = sample_hamiltonian(model, grid.samples)
        sorted_evals = np.linalg.eigvalsh(h)
        assert np.allclose(np.sort(spec.eigenvalues, axis=1), sorted_evals, atol=1e-12)

    def test_avoided_crossing_follows_overlap_not_order(self):
        # narrow avoided crossing, unresolved by the grid: max-overlap
        # tracking keeps the diabatic label while eigenvalue-sorted
        # labels would swap branches
        g = 0.002

        def evaluate_many(taus):
            out = np.empty((taus.size, 2, 2), dtype=complex)
            out[:, 0, 0] = taus - 1.0
            out[:, 1, 1] = 1.0 - taus
            out[:, 0, 1] = g
            out[:, 1, 0] = g
            return out

        model = HamiltonianModel(dimension=2, evaluate_many=evaluate_many, name="avoided")
        grid = TimeGrid(tau_end=2.0, n_steps=201)  # no sample at the crossing
        spec = solve_quasistationary(model, grid, gap_tol=1e-4)
        taus = grid.samples
        assert np.abs(spec.eigenvalues[:, 0] - (taus - 1.0)).max() < 3 * g
        # tracked values remain a permutation of the sorted spectrum
        h = sample_hamiltonian(model, taus)
        assert np.allclose(
            np.sort(spec.eigenvalues, axis=1), np.linalg.eigvalsh(h), atol=1e-12
        )

    def test_degenerate_gap_raises(self):
        def evaluate_many(taus):
            return np.multiply.outer(1.0 - taus, SZ)

        model = HamiltonianModel(dimension=2, evaluate_many=evaluate_many, name="crossing")
        grid = TimeGrid(tau_end=2.0, n_steps=200)
        with pytest.raises(DegenerateGap) as excinfo:
            solve_quasistationary(model, grid, gap_tol=1e-3)
        assert abs(excinfo.value.tau - 1.0) < 0.05

    def test_ambiguous_assignment_raises(self):
        model = tumbling_frame_model()
        grid = TimeGrid(tau_end=2.0, n_steps=2)  # pi of frame rotation per step
        with pytest.raises(AssignmentAmbiguous):
            solve_quasistationary(model, grid)

    def test_fine_grid_resolves_the_same_model(self):
        model = tumbling_frame_model()
        grid = TimeGrid(tau_end=2.0, n_steps=400)
        spec = solve_quasistationary(model, grid)
        assert np.allclose(spec.eigenvalues[0], [1.0, 2.0, 3.0], atol=1e-12)
        overlaps = np.abs(
            np.einsum("kin,kin->kn", spec.eigenvectors[:-1].conj(), spec.eigenvectors[1:])
        )
        assert overlaps.min() > 0.99

    def test_analytic_gauge(self, spin_a_model):
        grid = TimeGrid(tau_end=5.0, n_steps=500)
        spec = solve_quasistationary(spin_a_model, grid, gauge=Gauge.ANALYTIC)
        assert spec.gauge is Gauge.ANALYTIC
        evals, evecs = spin_a_model.analytic_frame(grid.samples)
        assert np.allclose(spec.eigenvalues, evals)
        assert np.allclose(spec.eigenvectors, evecs)

    def test_analytic_gauge_unavailable(self):
        grid = TimeGrid(tau_end=1.0, n_steps=10)
        with pytest.raises(ValueError):
            solve_quasistationary(constant_model(SZ), grid, gauge=Gauge.ANALYTIC)

    def test_analytic_gauge_unavailable_is_input_error(self):
        grid = TimeGrid(tau_end=1.0, n_steps=10)
        with pytest.raises(InputError) as excinfo:
            solve_quasistationary(constant_model(SZ), grid, gauge=Gauge.ANALYTIC)
        assert excinfo.value.module == "spectrum"

    def test_gauge_fixing_preserves_invariants(self, spin_a_model):
        grid = TimeGrid(tau_end=5.0, n_steps=500)
        spec = solve_quasistationary(spin_a_model, grid)
        h = sample_hamiltonian(spin_a_model, grid.samples)
        assert np.allclose(spec.eigenvalues, np.linalg.eigvalsh(h), atol=1e-12)
        rng = np.random.default_rng(2)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        raw = np.linalg.eigh(h)[1]
        before = np.abs(np.einsum("i,kin->kn", psi.conj(), raw))
        after = np.abs(np.einsum("i,kin->kn", psi.conj(), spec.eigenvectors))
        assert np.allclose(before, after, atol=1e-12)


def crossing_ladder_model():
    """d = 3, diabatic energies 0, 0.5 and a triangle wave in [-1, 1]
    coupled by 1e-6, slowly rotated by exp(-i tau G).

    The wave crosses both flat levels eight times, always between grid
    samples of a dtau = 0.01 grid, so each avoided crossing is passed in
    one step and eigenvalue-sorted labels swap there.
    """
    rng = np.random.default_rng(7)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g_evals, g_evecs = np.linalg.eigh(0.05 * (g + g.conj().T) / 2.0)
    coupling = 1e-6 * np.array([[0, 1j, 1], [-1j, 0, 1], [1, 1, 0]])
    peaks = np.arange(5) * 100.005

    def evaluate_many(taus):
        d = np.broadcast_to(coupling, (taus.size, 3, 3)).astype(complex)
        d[:, 1, 1] = 0.5
        d[:, 2, 2] = np.interp(taus, peaks, [1.0, -1.0, 1.0, -1.0, 1.0])
        u = np.einsum("ij,kj,lj->kil", g_evecs, np.exp(-1j * np.multiply.outer(taus, g_evals)),
                      g_evecs.conj())
        return u @ d @ u.conj().transpose(0, 2, 1)

    return HamiltonianModel(dimension=3, evaluate_many=evaluate_many, name="ladder")


def reference_track(evals, evecs):
    """Step-by-step max-overlap tracking with permutation composition,
    one Python iteration per step. Returns the per-sample permutations
    as well."""
    n1, d, _ = evecs.shape
    perms = np.empty((n1, d), dtype=np.intp)
    phases = np.empty((n1, d), dtype=complex)
    perms[0] = np.arange(d)
    phases[0] = 1.0
    current = evecs[0].copy()
    for k in range(n1 - 1):
        s = current.conj().T @ evecs[k + 1]
        cols = np.abs(s).argmax(axis=1)
        u = s[np.arange(d), cols]
        assert np.abs(u).min() >= 1.0 / np.sqrt(2.0)
        assert np.unique(cols).size == d
        phases[k + 1] = np.conj(u) / np.abs(u)
        perms[k + 1] = cols
        current = evecs[k + 1][:, cols] * phases[k + 1][None, :]
    tracked_vecs = np.take_along_axis(evecs, perms[:, None, :], axis=2) * phases[:, None, :]
    tracked_vals = np.take_along_axis(evals, perms, axis=1)
    return tracked_vals, tracked_vecs, perms


class TestTracking:
    def test_permutation_events_match_stepwise_reference(self):
        model = crossing_ladder_model()
        grid = TimeGrid(tau_end=400.0, n_steps=40000)
        spec = solve_quasistationary(model, grid)
        evals, evecs = np.linalg.eigh(sample_hamiltonian(model, grid.samples))
        # the solver's convention at tau = 0, which transport carries along
        evecs[0] = phase_convention(evecs[0])
        ref_vals, ref_vecs, perms = reference_track(evals, evecs)
        events = np.flatnonzero((perms[1:] != perms[:-1]).any(axis=1))
        assert events.size >= 3
        assert events.max() > STEP_CHUNK
        assert np.array_equal(spec.eigenvalues, ref_vals)
        assert np.abs(spec.eigenvectors - ref_vecs).max() < 1e-12
        # labels follow the flat diabatic levels through every crossing
        assert np.abs(spec.eigenvalues[:, 0]).max() < 1e-4
        assert np.abs(spec.eigenvalues[:, 1] - 0.5).max() < 1e-4

    def test_transport_keeps_unit_norm(self):
        # the running product of 4e4 unit phases drifts off the unit
        # circle (7.5e-12 here) unless its modulus is divided out
        grid = TimeGrid(tau_end=40.0, n_steps=40000)
        spec = solve_quasistationary(conjugated_d5(), grid, gauge=Gauge.CONTINUITY_FIXED)
        norms = np.linalg.norm(spec.eigenvectors, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-14

    def test_ambiguity_reports_earliest_step(self):
        # two frame jumps: a 58 degree turn about (1,1,1) keeps best
        # overlaps at 0.687, the later discrete-Fourier jump at 1/sqrt(3)
        axis = np.ones(3) / np.sqrt(3)
        k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
        phi = np.radians(58.0)
        turn = np.eye(3) + np.sin(phi) * k + (1 - np.cos(phi)) * (k @ k)
        dft = np.exp(-2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
        frames = np.array([np.eye(3), turn, turn @ dft])

        def evaluate_many(taus):
            v = frames[(taus > 0.305).astype(int) + (taus > 0.705)]
            return v @ np.diag([0.0, 1.0, 2.0]) @ v.conj().transpose(0, 2, 1)

        model = HamiltonianModel(dimension=3, evaluate_many=evaluate_many, name="jumps")
        grid = TimeGrid(tau_end=1.0, n_steps=100)
        with pytest.raises(AssignmentAmbiguous, match=r"overlap 0\.687 .* tau=0\.3 -> 0\.31;"):
            solve_quasistationary(model, grid)


    def test_best_columns_that_repeat_are_not_a_permutation(self):
        # a turn by exactly pi/4: every overlap has modulus sqrt(1/2), so
        # both levels pick column 0, which is not below the overlap floor
        c = np.sqrt(0.5)
        frames = np.array([np.eye(2), [[c, -c], [c, c]]], dtype=complex)

        def frame(taus):
            v = frames[(taus > 0.5).astype(int)]
            return np.tile([0.0, 1.0], (taus.size, 1)), v

        def evaluate_many(taus):
            v, evals = frame(taus)[1], np.diag([0.0, 1.0])
            return v @ evals @ v.conj().transpose(0, 2, 1)

        model = HamiltonianModel(
            dimension=2, evaluate_many=evaluate_many, name="turn", analytic_frame=frame
        )
        assert c >= _OVERLAP_FLOOR
        with pytest.raises(AssignmentAmbiguous, match=r"not a permutation at tau=1$"):
            solve_quasistationary(model, TimeGrid(tau_end=1.0, n_steps=2))


@pytest.fixture
def einsum_calls(monkeypatch):
    """The subscripts of every np.einsum call made while the test runs."""
    calls = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return calls


class TestDiagonalFirstTracking:
    def test_step_below_margin_forms_full_overlaps(self, einsum_calls):
        # one frame jump rotates levels 0 and 1 by arccos(0.73): the labels
        # do not permute, but two diagonal overlaps fall between 1/sqrt(2)
        # and the margin, so the chunk must form the full overlaps
        rng = np.random.default_rng(11)
        u0 = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        c, s = 0.73, np.sqrt(1.0 - 0.73**2)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        frames = np.array([u0, u0 @ turn])

        def evaluate_many(taus):
            v = frames[(taus > 0.505).astype(int)]
            return v @ np.diag([0.0, 1.0, 2.0]) @ v.conj().transpose(0, 2, 1)

        model = HamiltonianModel(dimension=3, evaluate_many=evaluate_many, name="turn")
        grid = TimeGrid(tau_end=1.0, n_steps=100)
        evals, evecs = np.linalg.eigh(sample_hamiltonian(model, grid.samples))
        evecs[0] = phase_convention(evecs[0])
        diag = np.abs(np.einsum("kij,kij->kj", evecs[:-1].conj(), evecs[1:]))
        assert _OVERLAP_FLOOR < diag.min() < _DIAGONAL_MARGIN
        ref_vals, ref_vecs, perms = reference_track(evals, evecs)
        assert (perms == np.arange(3)).all()

        einsum_calls.clear()
        spec = solve_quasistationary(model, grid)
        assert "kij,kil->kjl" in einsum_calls
        assert np.array_equal(spec.eigenvalues, ref_vals)
        assert np.abs(spec.eigenvectors - ref_vecs).max() < 1e-12

    @pytest.mark.parametrize("closed_form", [True, False])
    def test_smooth_frame_forms_only_diagonal_overlaps(
        self, einsum_calls, spin_a_model, closed_form
    ):
        model = spin_a_model if closed_form else replace(spin_a_model, analytic_frame=None)
        solve_quasistationary(model, TimeGrid(tau_end=20.0, n_steps=2 * STEP_CHUNK + 5))
        assert "kij,kij->kj" in einsum_calls
        assert "kij,kil->kjl" not in einsum_calls


def rephased(solver, seed):
    """``solver`` with every returned vector times a random phase."""
    rng = np.random.default_rng(seed)

    def solve(h):
        evals, evecs = solver(h)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=evals.shape))
        return evals, evecs * phases[:, None, :]

    return solve


class TestTauZeroGauge:
    """The continuity gauge starts from a fixed convention at tau = 0,
    so the frame does not depend on the eigensolver's phases."""

    def frame(self, model, grid):
        spec = solve_quasistationary(model, grid)
        return build_frame(spec, compute_nonadiabatic_coupling(spec))

    @pytest.mark.parametrize("case", ["d3", "spin_a"])
    def test_frame_ignores_eigensolver_phases(self, monkeypatch, spin_a_model, case):
        # spin a without its closed-form frame, so the frame comes from su2_eigh
        model = (
            smooth_random_model(3, seed=5)
            if case == "d3"
            else replace(spin_a_model, analytic_frame=None)
        )
        grid = TimeGrid(tau_end=10.0, n_steps=2000)
        ref = self.frame(model, grid)
        if model.dimension == 2:
            monkeypatch.setattr(adiorbit.spectrum, "su2_eigh", rephased(su2_eigh, 1))
        else:
            monkeypatch.setattr(np.linalg, "eigh", rephased(np.linalg.eigh, 1))
        frame = self.frame(model, grid)
        assert np.abs(frame.spectrum.eigenvectors - ref.spectrum.eigenvectors).max() < 1e-12
        assert np.abs(frame.dynamical_phase - ref.dynamical_phase).max() < 1e-12
        assert np.abs(frame.coupling - ref.coupling).max() < 1e-12

    def test_largest_entry_real_positive_at_tau_zero(self, spin_a_model):
        spec = solve_quasistationary(spin_a_model, TimeGrid(tau_end=1.0, n_steps=10))
        assert np.array_equal(spec.eigenvectors[0], phase_convention(spec.eigenvectors[0]))
        # spin a at theta = pi/4: level 0 is field-aligned, (cos, sin) of pi/8
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        assert np.abs(spec.eigenvectors[0] - [[c, -s], [s, c]]).max() < 1e-15

    def test_closed_form_matches_eigh_path(self, monkeypatch, spin_a_model):
        model = replace(spin_a_model, analytic_frame=None)
        grid = TimeGrid(tau_end=20.0, n_steps=4000)
        spec = solve_quasistationary(model, grid)
        monkeypatch.setattr(adiorbit.spectrum, "su2_eigh", np.linalg.eigh)
        ref = solve_quasistationary(model, grid)
        assert np.abs(spec.eigenvalues - ref.eigenvalues).max() < 1e-14
        assert np.abs(spec.eigenvectors - ref.eigenvectors).max() < 1e-12
        assert spec.min_gap == pytest.approx(ref.min_gap, rel=1e-14)


def bad_frames(model):
    """Closed-form frames that break the contract, each with the
    diagnostic it must raise."""

    def three_eigenvalues(taus):
        evals, evecs = model.analytic_frame(taus)
        return np.concatenate([evals, evals[:, 1:] + 1.0], axis=1), evecs

    def non_finite(taus):
        evals, evecs = model.analytic_frame(taus)
        evecs[taus.size // 2, 0, 1] = np.nan
        return evals, evecs

    def other_hamiltonian(taus):
        # the eigensystem of 2 sigma_z, not of h
        n = taus.size
        return np.tile([-2.0, 2.0], (n, 1)), np.tile(np.eye(2, dtype=complex), (n, 1, 1))

    def scaled(taus):
        evals, evecs = model.analytic_frame(taus)
        return evals, 2.0 * evecs

    return {
        "three_eigenvalues": (three_eigenvalues, r"eigenvalue samples of shape \(101, 3\)"),
        "non_finite": (non_finite, r"eigenvector is not finite at tau=2\.5"),
        "other_hamiltonian": (other_hamiltonian, r"not a unit eigensystem of h at tau=0 "),
        "scaled": (scaled, r"not a unit eigensystem of h at tau=0 .*norm defect 3\.0"),
    }


class TestClosedFormFrame:
    """Models with a closed-form frame need no eigensolver; the frame is
    verified against h at every sample."""

    @pytest.mark.parametrize("gauge", [Gauge.CONTINUITY_FIXED, Gauge.ANALYTIC])
    @pytest.mark.parametrize(
        "case", ["three_eigenvalues", "non_finite", "other_hamiltonian", "scaled"]
    )
    def test_frame_outside_contract_is_invalid_samples(self, spin_a_model, gauge, case):
        frame, message = bad_frames(spin_a_model)[case]
        model = replace(spin_a_model, analytic_frame=frame)
        grid = TimeGrid(tau_end=5.0, n_steps=100)
        with pytest.raises(InvalidSamples, match=message):
            solve_quasistationary(model, grid, gauge=gauge)

    @pytest.mark.parametrize("gauge", [Gauge.CONTINUITY_FIXED, Gauge.ANALYTIC])
    def test_mislabeled_vectors_are_invalid_samples_d5(self, gauge):
        model = conjugated_d5()

        def swapped(taus):
            evals, evecs = model.analytic_frame(taus)
            return evals, evecs[:, :, [0, 1, 3, 2, 4]]

        grid = TimeGrid(tau_end=5.0, n_steps=100)
        with pytest.raises(InvalidSamples, match=r"not a unit eigensystem of h at tau=0 "):
            solve_quasistationary(replace(model, analytic_frame=swapped), grid, gauge=gauge)

    @pytest.mark.parametrize("gauge", [Gauge.CONTINUITY_FIXED, Gauge.ANALYTIC])
    def test_levels_may_leave_ascending_order(self, gauge):
        # diabatic levels tau - 1 and 1 - tau cross between two samples;
        # the closed-form frame keeps their labels, so past the crossing
        # its eigenvalues are in descending order and the gap is taken
        # from the sorted values
        def evaluate_many(taus):
            return np.multiply.outer(taus - 1.0, SZ)

        def frame(taus):
            n = taus.size
            evals = np.stack([taus - 1.0, 1.0 - taus], axis=1)
            return evals, np.tile(np.eye(2, dtype=complex), (n, 1, 1))

        model = HamiltonianModel(
            dimension=2, evaluate_many=evaluate_many, name="diabatic", analytic_frame=frame
        )
        grid = TimeGrid(tau_end=2.0, n_steps=201)
        spec = solve_quasistationary(model, grid, gap_tol=1e-4, gauge=gauge)
        assert np.array_equal(spec.eigenvalues[:, 0], grid.samples - 1.0)
        assert spec.min_gap == pytest.approx(2.0 / 201.0, rel=1e-12)

    @pytest.mark.parametrize("gauge", [Gauge.CONTINUITY_FIXED, Gauge.ANALYTIC])
    def test_no_eigensolver_runs(self, monkeypatch, spin_a_model, gauge):
        def refuse(h):
            raise AssertionError("eigensolver called")

        models = (spin_a_model, conjugated_d5())  # their builders diagonalize
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(adiorbit.spectrum, "su2_eigh", refuse)
        for model in models:
            spec = solve_quasistationary(model, TimeGrid(tau_end=5.0, n_steps=500), gauge=gauge)
            assert spec.gauge is gauge

    @pytest.mark.parametrize("case", ["spin_a", "spin_b", "conj_d5"])
    def test_agrees_with_eigensolver(self, spin_a_params, case):
        # measured on these grids: eigenvalues 1.3e-14, eigenvectors 2.6e-12,
        # coupling 4.6e-12 and P_exact 4.8e-12 at most
        if case == "conj_d5":
            model, grid = conjugated_d5(), TimeGrid(tau_end=40.0, n_steps=40000)
        else:
            grid = TimeGrid(tau_end=200.0, n_steps=20000)
            variant = SpinVariant.A if case == "spin_a" else SpinVariant.B
            model = build_spin_half(replace(spin_a_params, variant=variant))
        closed = run_pipeline(model, grid)
        solved = run_pipeline(replace(model, analytic_frame=None), grid)
        assert np.abs(closed.spectrum.eigenvalues - solved.spectrum.eigenvalues).max() < 1e-13
        assert np.abs(closed.spectrum.eigenvectors - solved.spectrum.eigenvectors).max() < 1e-10
        assert np.abs(closed.frame.coupling - solved.frame.coupling).max() < 5e-11
        assert np.abs(closed.p_exact - solved.p_exact).max() < 1e-10


def whole_grid_solve(model, grid):
    """The eigensolver path with every sample of h held at once."""
    h = sample_hamiltonian(model, grid.samples)
    evals, evecs = su2_eigh(h) if model.dimension == 2 else np.linalg.eigh(h)
    evecs[0] = phase_convention(evecs[0])
    return _track(evals, evecs, grid.samples)


class TestChunkedSolve:
    """h is sampled, and checked or eigensolved, one STEP_CHUNK at a time."""

    @pytest.mark.parametrize(
        "n_steps", [STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1, 2 * STEP_CHUNK + 1]
    )
    @pytest.mark.parametrize("case", ["spin_a", "conjugated_d5"])
    def test_eigensolver_path_matches_the_whole_grid(self, spin_a_model, case, n_steps):
        model = spin_a_model if case == "spin_a" else conjugated_d5()
        model = replace(model, analytic_frame=None)
        grid = TimeGrid(tau_end=1e-3 * n_steps, n_steps=n_steps)
        spec = solve_quasistationary(model, grid)
        evals, evecs = whole_grid_solve(model, grid)
        assert spec.eigenvalues.tobytes() == evals.tobytes()
        assert spec.eigenvectors.tobytes() == evecs.tobytes()

    @pytest.mark.parametrize("closed_form", [True, False])
    def test_holds_no_whole_grid_h(self, closed_form):
        model = conjugated_d5()
        if not closed_form:
            model = replace(model, analytic_frame=None)
        grid = TimeGrid(tau_end=40.0, n_steps=40000)
        tracemalloc.start()
        try:
            spec = solve_quasistationary(model, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 12.8 MB over the kept frame either way (numpy 2.4), mostly the
        # tracker's (n, d) overlaps and phases; sampling h whole held
        # 20.9 MB (closed form) and 19.5 MB (eigensolver)
        kept = spec.eigenvalues.nbytes + spec.eigenvectors.nbytes
        h_bytes = (grid.n_steps + 1) * 5 * 5 * np.dtype(complex).itemsize
        assert peak - kept < h_bytes

    def test_frame_tolerance_is_taken_over_the_whole_frame(self):
        # a residual of 1e-6 in the first chunk, where |e| = 1, is within
        # 1e-8 relative to the largest |e| of the frame (1e4, at tau = 1)
        def evaluate_many(taus):
            return np.multiply.outer(1.0 + 1e4 * taus**8, -SZ)

        def frame(taus):
            f = 1.0 + 1e4 * taus**8
            evals = np.stack([-f, f], axis=1)
            evals[0, 0] += 1e-6
            return evals, np.tile(np.eye(2, dtype=complex), (taus.size, 1, 1))

        model = HamiltonianModel(
            dimension=2, evaluate_many=evaluate_many, name="growing", analytic_frame=frame
        )
        grid = TimeGrid(tau_end=1.0, n_steps=2 * STEP_CHUNK)
        spec = solve_quasistationary(model, grid, gauge=Gauge.ANALYTIC)
        assert spec.eigenvalues[0, 0] == -1.0 + 1e-6


class TestPhaseRedressing:
    def test_preserves_moduli(self, spin_a_model):
        grid = TimeGrid(tau_end=5.0, n_steps=500)
        spec = solve_quasistationary(spin_a_model, grid)

        def phase_fn(taus):
            return np.stack([0.3 * np.sin(0.4 * taus), -0.2 * np.sin(0.7 * taus)], axis=1)

        dressed = apply_phase_redressing(spec, phase_fn)
        assert np.allclose(np.abs(dressed.eigenvectors), np.abs(spec.eigenvectors))
        assert np.allclose(dressed.eigenvalues, spec.eigenvalues)

    def test_rejects_nonzero_initial_phase(self, spin_a_model):
        grid = TimeGrid(tau_end=5.0, n_steps=500)
        spec = solve_quasistationary(spin_a_model, grid)
        with pytest.raises(ValueError):
            apply_phase_redressing(spec, lambda taus: np.ones((taus.size, 2)))


def random_spectrum(n_samples, d, seed):
    """Random (not unitary) eigenvector stacks on a grid of ``n_samples``
    samples; the finite-difference gamma reads nothing else."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(tau_end=1e-3 * (n_samples - 1), n_steps=n_samples - 1)
    vectors = rng.normal(size=(n_samples, d, d)) + 1j * rng.normal(size=(n_samples, d, d))
    return AdiabaticSpectrum(
        grid, np.zeros((n_samples, d)), vectors, Gauge.CONTINUITY_FIXED, min_gap=1.0
    )


def whole_grid_derivative(vecs, dtau):
    """Second-order differences of the whole stack at once."""
    dvecs = np.empty_like(vecs)
    dvecs[1:-1] = (vecs[2:] - vecs[:-2]) / (2.0 * dtau)
    dvecs[0] = (-3.0 * vecs[0] + 4.0 * vecs[1] - vecs[2]) / (2.0 * dtau)
    dvecs[-1] = (3.0 * vecs[-1] - 4.0 * vecs[-2] + vecs[-3]) / (2.0 * dtau)
    return dvecs


def whole_grid_fd_gamma(vecs, dtau):
    """The finite-difference gamma formed over the whole stack at once."""
    return 1j * np.einsum("kin,kim->knm", vecs.conj(), whole_grid_derivative(vecs, dtau))


def whole_grid_hf_gamma(spec, model):
    """The Hellmann-Feynman gamma formed over the whole stack at once:
    i V^H dh/dtau V / (e_m - e_n) off the diagonal, the finite-difference
    diagonal on it, and dh/dtau from central differences of h with step
    1e-6 (one-sided at the ends) when the model has no derivative."""
    taus, vecs, evals = spec.grid.samples, spec.eigenvectors, spec.eigenvalues
    if model.derivative_many is not None:
        hdot = model.derivative_many(taus)
    else:
        delta = min(1e-6, 0.5 * spec.grid.dtau)
        inner = taus[1:-1]
        hdot = np.empty_like(vecs)
        hdot[1:-1] = (
            sample_hamiltonian(model, inner + delta) - sample_hamiltonian(model, inner - delta)
        ) / (2.0 * delta)
        lo = sample_hamiltonian(model, taus[0] + delta * np.array([0.0, 1.0, 2.0]))
        hdot[0] = (-3.0 * lo[0] + 4.0 * lo[1] - lo[2]) / (2.0 * delta)
        hi = sample_hamiltonian(model, taus[-1] - delta * np.array([2.0, 1.0, 0.0]))
        hdot[-1] = (3.0 * hi[2] - 4.0 * hi[1] + hi[0]) / (2.0 * delta)
    numer = 1j * stacked_matmul(vecs.conj().swapaxes(-1, -2), stacked_matmul(hdot, vecs))
    gamma = np.zeros_like(numer)
    off_diagonal = ~np.eye(spec.dimension, dtype=bool)
    np.divide(numer, evals[:, None, :] - evals[:, :, None], out=gamma, where=off_diagonal)
    idx = np.arange(spec.dimension)
    dvecs = whole_grid_derivative(vecs, spec.grid.dtau)
    gamma[:, idx, idx] = 1j * np.einsum("kin,kin->kn", vecs.conj(), dvecs)
    return gamma


class TestNonadiabaticCoupling:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize(
        "n_samples",
        [STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1, 2 * STEP_CHUNK + 1, 200_001],
    )
    def test_fd_gamma_matches_the_whole_grid_formula(self, d, n_samples):
        spec = random_spectrum(n_samples, d, seed=n_samples + d)
        ours = compute_nonadiabatic_coupling(spec)
        expected = whole_grid_fd_gamma(spec.eigenvectors, spec.grid.dtau)
        assert ours.dtype == expected.dtype and ours.shape == expected.shape
        assert ours.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [2, 5])
    def test_fd_gamma_holds_one_chunk_over_its_output(self, d):
        spec = random_spectrum(200_001, d, seed=d)
        tracemalloc.start()
        try:
            gamma = compute_nonadiabatic_coupling(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # per chunk the conjugated vectors, the derivative and the
        # stencil's temporaries (4.0 chunks at d = 2, 3.0 at d = 5, numpy
        # 2.4); the whole-grid formula holds two more stacks of the
        # output's size (98 chunks at d = 2)
        chunk_bytes = STEP_CHUNK * d * d * np.dtype(complex).itemsize
        assert peak < gamma.nbytes + 5 * chunk_bytes

    @pytest.mark.parametrize("n_steps", [2, STEP_CHUNK - 1, STEP_CHUNK, 2 * STEP_CHUNK])
    @pytest.mark.parametrize("derivative", ["analytic", "differenced"])
    @pytest.mark.parametrize("case", ["spin_a", "conjugated_d5"])
    def test_hf_gamma_matches_the_whole_grid_formula(self, spin_a_model, case, derivative, n_steps):
        # at 2 * STEP_CHUNK steps the last chunk holds only the last sample
        model = spin_a_model if case == "spin_a" else conjugated_d5()
        if derivative == "differenced":
            model = replace(model, derivative_many=None)
        spec = solve_quasistationary(model, TimeGrid(tau_end=2.0, n_steps=n_steps))
        ours = compute_nonadiabatic_coupling(spec, model, GammaMethod.HELLMANN_FEYNMAN)
        expected = whole_grid_hf_gamma(spec, model)
        assert ours.dtype == expected.dtype and np.array_equal(ours, expected)
        # signed zeros too
        assert np.array_equal(np.signbit(ours.view(float)), np.signbit(expected.view(float)))

    def test_hf_gamma_holds_chunks_over_its_output(self):
        model = conjugated_d5()
        spec = solve_quasistationary(model, TimeGrid(tau_end=40.0, n_steps=40000))
        tracemalloc.start()
        try:
            gamma = compute_nonadiabatic_coupling(spec, model, GammaMethod.HELLMANN_FEYNMAN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few chunks of (4096, 5, 5) stacks (5.8 MB measured, numpy 2.4);
        # whole-grid stacks of dh/dtau, V^H, the products and the quotient
        # held 51.2 MB over the 16 MB output
        assert peak - gamma.nbytes < 12e6

    def test_constant_model_gives_zero(self):
        grid = TimeGrid(tau_end=1.0, n_steps=50)
        spec = solve_quasistationary(constant_model(np.diag([1.0, 2.0])), grid)
        gamma = compute_nonadiabatic_coupling(spec)
        assert np.abs(gamma).max() == 0.0

    def test_spin_a_magnitude(self, spin_a_model):
        # rotating-frame analysis: |gamma_01| = omega sin(theta) / 2
        grid = TimeGrid(tau_end=20.0, n_steps=20000)
        spec = solve_quasistationary(spin_a_model, grid)
        gamma = compute_nonadiabatic_coupling(spec)
        expected = 0.1 * np.sin(np.pi / 4) / 2.0
        mags = np.abs(gamma[:, 0, 1])
        assert np.abs(mags - expected).max() < 1e-8

    def test_berry_connection_real(self, spin_a_model):
        grid = TimeGrid(tau_end=20.0, n_steps=20000)
        spec = solve_quasistationary(spin_a_model, grid)
        gamma = compute_nonadiabatic_coupling(spec)
        diag = np.einsum("knn->kn", gamma)
        assert np.abs(diag.imag).max() < 1e-10

    @pytest.mark.parametrize("case", ["spin_a", "conjugated_d5", "smooth_random_3"])
    def test_hf_diagonal_is_fd_diagonal(self, spin_a_model, case):
        # the Hellmann-Feynman route forms only the d diagonal overlaps of
        # the finite-difference route; they must be the same numbers
        model = {
            "spin_a": spin_a_model,
            "conjugated_d5": conjugated_d5(),
            "smooth_random_3": smooth_random_model(3, seed=2),
        }[case]
        spec = solve_quasistationary(model, TimeGrid(tau_end=10.0, n_steps=5000))
        g_fd = compute_nonadiabatic_coupling(spec)
        g_hf = compute_nonadiabatic_coupling(spec, model, GammaMethod.HELLMANN_FEYNMAN)
        idx = np.arange(model.dimension)
        assert np.array_equal(g_hf[:, idx, idx], g_fd[:, idx, idx])

    def test_methods_agree_on_conjugated(self, conjugated_example, medium_grid):
        _, model = conjugated_example
        spec = solve_quasistationary(model, medium_grid)
        g_fd = compute_nonadiabatic_coupling(spec)
        g_hf = compute_nonadiabatic_coupling(spec, model, GammaMethod.HELLMANN_FEYNMAN)
        assert np.abs(g_fd - g_hf).max() < 1e-5

    def test_method_discrepancy_halves_quadratically(self, conjugated_example):
        _, model = conjugated_example

        def discrepancy(n_steps):
            grid = TimeGrid(tau_end=5.0, n_steps=n_steps)
            spec = solve_quasistationary(model, grid)
            g_fd = compute_nonadiabatic_coupling(spec)
            g_hf = compute_nonadiabatic_coupling(spec, model, GammaMethod.HELLMANN_FEYNMAN)
            return np.abs(g_fd - g_hf).max()

        coarse, fine = discrepancy(500), discrepancy(1000)
        assert 3.0 < coarse / fine < 5.5

    def test_hermiticity_defect_quadratic(self):
        model = smooth_random_model(3, seed=3)

        def defect(n_steps):
            grid = TimeGrid(tau_end=10.0, n_steps=n_steps)
            spec = solve_quasistationary(model, grid)
            gamma = compute_nonadiabatic_coupling(spec)
            return np.abs(
                gamma - np.conj(np.swapaxes(gamma, -1, -2))
            ).max()

        coarse, fine = defect(250), defect(500)
        assert 3.0 < coarse / fine < 5.5

    def test_hf_requires_derivative_source(self):
        grid = TimeGrid(tau_end=1.0, n_steps=50)
        spec = solve_quasistationary(constant_model(np.diag([1.0, 2.0])), grid)
        with pytest.raises(DerivativeUnavailable):
            compute_nonadiabatic_coupling(spec, None, GammaMethod.HELLMANN_FEYNMAN)

    def test_hf_fallback_respects_model_range(self, tmp_path, spin_a_model):
        # tabulated models only exist on [0, tau_end]; the h-derivative
        # fallback must not probe outside it
        from adiorbit import load_tabulated_model, sample_hamiltonian as sample
        from conftest import write_tabulated

        taus = np.linspace(0.0, 5.0, 2001)
        path = write_tabulated(tmp_path / "t.txt", taus, sample(spin_a_model, taus))
        model = load_tabulated_model(path)
        grid = TimeGrid(tau_end=5.0, n_steps=1000)
        spec = solve_quasistationary(model, grid)
        g_hf = compute_nonadiabatic_coupling(spec, model, GammaMethod.HELLMANN_FEYNMAN)
        g_fd = compute_nonadiabatic_coupling(spec)
        assert np.abs(g_hf - g_fd).max() < 1e-4

    def test_hf_with_fd_hamiltonian_fallback(self, spin_a_model):
        grid = TimeGrid(tau_end=5.0, n_steps=2000)
        spec = solve_quasistationary(spin_a_model, grid)
        stripped = HamiltonianModel(
            dimension=2, evaluate_many=spin_a_model.evaluate_many, name="stripped"
        )
        g_full = compute_nonadiabatic_coupling(spec, spin_a_model, GammaMethod.HELLMANN_FEYNMAN)
        g_fallback = compute_nonadiabatic_coupling(spec, stripped, GammaMethod.HELLMANN_FEYNMAN)
        assert np.abs(g_full - g_fallback).max() < 1e-7


class TestConstantEigenvalues:
    """A conjugated model's energies are constant, so its eigenvalues are
    one row broadcast to (n + 1, d): row stride 0, read-only."""

    def test_analytic_frame_is_a_broadcast_row(self):
        evals, _ = conjugated_d5().analytic_frame(np.linspace(0.0, 1.0, 11))
        assert evals.shape == (11, 5) and evals.strides[0] == 0
        assert not evals.flags.writeable

    @pytest.mark.parametrize("gauge", list(Gauge))
    @pytest.mark.parametrize("case", ["spin_a", "conjugated_d5"])
    def test_solve_keeps_the_row(self, spin_a_model, case, gauge):
        model = spin_a_model if case == "spin_a" else conjugated_d5()
        grid = TimeGrid(tau_end=2.0 * STEP_CHUNK * 1e-3, n_steps=2 * STEP_CHUNK)
        evals = solve_quasistationary(model, grid, gauge=gauge).eigenvalues
        assert evals.shape == (grid.n_steps + 1, model.dimension)
        assert evals.strides[0] == 0 and not evals.flags.writeable
        expected = model.analytic_frame(np.zeros(1))[0][0]
        assert np.array_equal(evals, np.broadcast_to(expected, evals.shape))

    def swapped_frame(self, n1, d, swap_at):
        """A smoothly rotating frame whose columns 0 and 1 trade places
        from sample ``swap_at`` on, with constant eigenvalues."""
        rng = np.random.default_rng(n1 + d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        w, u = np.linalg.eigh(0.5 * (g + g.conj().T))
        phases = np.exp(-1j * 1e-3 * np.arange(n1)[:, None] * w)
        evecs = np.einsum("ij,kj,jl->kil", u, phases, u.conj().T)
        evecs[swap_at:, :, [0, 1]] = evecs[swap_at:, :, [1, 0]]
        return np.broadcast_to(np.arange(d) + 0.5, (n1, d)), evecs

    @pytest.mark.parametrize("d", [2, 3])
    def test_track_copies_only_to_permute(self, d):
        n1 = STEP_CHUNK + 50
        evals, evecs = self.swapped_frame(n1, d, swap_at=STEP_CHUNK + 7)
        ref_vals, ref_vecs, _ = reference_track(np.array(evals), evecs.copy())
        before = evals.copy()
        tracked_vals, tracked_vecs = _track(evals, evecs.copy(), np.arange(n1) * 1e-3)
        assert np.array_equal(tracked_vals, ref_vals)
        assert np.abs(tracked_vecs - ref_vecs).max() < 1e-12
        assert np.array_equal(evals, before) and evals.strides[0] == 0

    def test_track_without_events_keeps_the_row(self):
        n1, d = STEP_CHUNK + 50, 3
        evals, evecs = self.swapped_frame(n1, d, swap_at=n1)
        tracked_vals, _ = _track(evals, evecs, np.arange(n1) * 1e-3)
        assert tracked_vals is evals


def permuting_table_model(tmp_path, step):
    """A tabulated d = 3 model, so the eigensolver path runs, whose third
    level crosses the second between samples ``step`` and ``step + 1``
    of a dtau = 0.01 grid; the levels are coupled by 1e-6, so the
    eigenvalue-sorted labels swap there and the tracker permutes them."""
    crossing, slope, tau_end = 0.01 * (step + 0.5), 0.01, 0.01 * (2 * step)
    coupling = 1e-6 * np.array([[0, 1j, 1], [-1j, 0, 1], [1, 1, 0]])
    ends = [coupling + np.diag([0.0, 0.5, 0.5 + slope * (crossing - tau)]) for tau in (0, tau_end)]
    model = load_tabulated_model(write_tabulated(tmp_path / "permuting.txt", [0.0, tau_end], ends))
    return model, TimeGrid(tau_end=tau_end, n_steps=2 * step)


class TestReleasedSpectrum:
    """run_frame releases V once gamma is formed; any read of V but the
    kept column re-derives it with this module's solve, bit for bit."""

    @pytest.mark.parametrize("gauge", list(Gauge))
    def test_analytic_frame_model(self, monkeypatch, spin_a_model, gauge):
        grid = TimeGrid(tau_end=20.0, n_steps=2 * STEP_CHUNK + 3)
        released = run_frame(spin_a_model, grid, gauge=gauge, gap_tol=1e-7).spectrum
        calls = count_calls(monkeypatch, adiorbit.spectrum, "solve_quasistationary")
        solved = solve_quasistationary(spin_a_model, grid, gap_tol=1e-7, gauge=gauge)
        assert len(calls) == 0
        assert released.eigenvectors.tobytes() == solved.eigenvectors.tobytes()
        assert released.eigenvectors is released.eigenvectors
        assert calls == [(spin_a_model, grid, 1e-7, gauge)]

    def test_eigensolver_model_whose_labels_permute(self, monkeypatch, tmp_path):
        model, grid = permuting_table_model(tmp_path, STEP_CHUNK + 7)
        solved = solve_quasistationary(model, grid)
        order = np.argsort(solved.eigenvalues, axis=1)
        assert np.array_equal(order[STEP_CHUNK + 7], [0, 1, 2])
        assert np.array_equal(order[STEP_CHUNK + 8], [0, 2, 1])
        released = run_frame(model, grid, initial_level=2).spectrum
        calls = count_calls(monkeypatch, adiorbit.spectrum, "solve_quasistationary")
        assert released.eigenvalues.tobytes() == solved.eigenvalues.tobytes()
        assert released.dimension == 3 and calls == []
        assert released.eigenvectors.tobytes() == solved.eigenvectors.tobytes()
        assert len(calls) == 1

    def test_gamma_from_a_released_spectrum(self, spin_a_model):
        grid = TimeGrid(tau_end=10.0, n_steps=STEP_CHUNK + 7)
        released = run_pipeline(spin_a_model, grid).spectrum
        solved = solve_quasistationary(spin_a_model, grid)
        for method in GammaMethod:
            gamma = compute_nonadiabatic_coupling(released, model=spin_a_model, method=method)
            ref = compute_nonadiabatic_coupling(solved, model=spin_a_model, method=method)
            assert gamma.tobytes() == ref.tobytes()

    def test_solved_spectra_keep_v(self, monkeypatch, spin_a_model):
        grid = TimeGrid(tau_end=10.0, n_steps=2000)
        spec = solve_quasistationary(spin_a_model, grid)
        calls = count_calls(monkeypatch, adiorbit.spectrum, "solve_quasistationary")
        frame = build_frame(spec, compute_nonadiabatic_coupling(spec))
        assert frame.spectrum is spec
        frame.basis_vectors()
        assert calls == []


class TestBroadcastEigenvalueRow:
    """A row of constant energies broadcast along the grid is checked and
    reduced once, with the same results as the whole array."""

    @staticmethod
    def rows(energies, n):
        row = np.asarray(energies, dtype=float)
        return np.broadcast_to(row, (n, row.size)), np.tile(row, (n, 1))

    def test_distinct_rows(self):
        broadcast, whole = self.rows([0.0, 1.0], 5)
        assert distinct_rows(broadcast).shape == (1, 2)
        assert distinct_rows(whole) is whole
        assert distinct_rows(broadcast[:0]).shape == (0, 2)

    def test_min_gap_and_its_error(self):
        taus = np.linspace(0.0, 1.0, 7)
        broadcast, whole = self.rows([0.0, 2.5, 1.0], taus.size)
        assert _enforce_min_gap(broadcast, taus, 1e-6) == _enforce_min_gap(whole, taus, 1e-6)
        broadcast, whole = self.rows([0.0, 1e-7, 1.0], taus.size)
        messages = []
        for evals in (broadcast, whole):
            with pytest.raises(DegenerateGap) as excinfo:
                _enforce_min_gap(evals, taus, 1e-6)
            assert excinfo.value.tau == 0.0
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_degenerate_conjugated_model_names_tau_zero(self):
        params = ConjugatedParams(
            energies=[0.0, 1e-7, 1.0], generator=0.01 * np.diag([1.0, 2.0, 3.0])
        )
        grid = TimeGrid(tau_end=10.0, n_steps=STEP_CHUNK + 7)
        with pytest.raises(DegenerateGap) as excinfo:
            solve_quasistationary(build_conjugated_model(params), grid)
        assert excinfo.value.tau == 0.0

    def test_non_finite_row_names_tau_zero(self):
        model = HamiltonianModel(dimension=2, evaluate_many=None, name="row")
        taus = np.linspace(1.0, 2.0, 5)
        messages = []
        for evals in self.rows([0.0, np.inf], taus.size):
            with pytest.raises(InvalidSamples) as excinfo:
                _checked(model, taus, evals, "eigenvalue", rank=1)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1] and "tau=1" in messages[0]


class TestChunkedTransport:
    """_track's transport phases run one STEP_CHUNK of steps at a time,
    each chunk's accumulate seeded with the last unnormalized product."""

    @staticmethod
    def tracked(model, grid):
        h = sample_hamiltonian(model, grid.samples)
        evals, evecs = np.linalg.eigh(h)
        evecs[0] = phase_convention(evecs[0])
        return _track(evals, evecs, grid.samples)

    @pytest.mark.parametrize(
        "n_steps", [2, 3, STEP_CHUNK, STEP_CHUNK + 1, 2 * STEP_CHUNK + 1, 3 * STEP_CHUNK + 9]
    )
    def test_equals_the_whole_grid_formula(self, n_steps):
        # at STEP_CHUNK + 1 and 2 STEP_CHUNK + 1 steps the last step would
        # be a chunk alone; no label of this frame permutes
        model = replace(conjugated_d5(), analytic_frame=None)
        grid = TimeGrid(tau_end=1e-2 * n_steps, n_steps=n_steps)
        evals, evecs = np.linalg.eigh(sample_hamiltonian(model, grid.samples))
        evecs[0] = phase_convention(evecs[0])
        kept = np.concatenate([
            np.einsum("kij,kij->kj", evecs[s : min(s + STEP_CHUNK, n_steps)].conj(),
                      evecs[s + 1 : min(s + STEP_CHUNK, n_steps) + 1])
            for s in range(0, n_steps, STEP_CHUNK)
        ])
        mag = np.abs(kept)
        phases = np.concatenate([np.ones((1, 5)), np.cumprod(np.conj(kept) / mag, axis=0)])
        phases /= np.abs(phases)
        expected = evecs * phases[:, None, :]
        _, tracked = _track(evals, evecs, grid.samples)
        assert tracked.tobytes() == expected.tobytes()

    def test_with_permutations_after_a_chunk(self, monkeypatch):
        model, grid = crossing_ladder_model(), TimeGrid(tau_end=400.0, n_steps=40000)
        chunked = self.tracked(model, grid)
        monkeypatch.setattr(adiorbit.spectrum, "STEP_CHUNK", grid.n_steps + 1)
        whole = self.tracked(model, grid)
        for a, b in zip(chunked, whole):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("closed_form", [True, False])
    def test_solve_holds_the_overlaps_and_a_few_chunks(self, closed_form):
        # the benchmark's d = 5 check grid: with whole-grid transport
        # phases solve peaked 12.2 MiB over what it returns, and 6.5 MiB
        # with them chunked (numpy 2.4)
        model = conjugated_d5()
        if not closed_form:
            model = replace(model, analytic_frame=None)
        grid = TimeGrid(tau_end=40.0, n_steps=40000)
        tracemalloc.start()
        try:
            spec = solve_quasistationary(model, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = spec.eigenvectors.nbytes + distinct_rows(spec.eigenvalues).nbytes
        overlaps = grid.n_steps * 5 * np.dtype(complex).itemsize
        chunk_stack = STEP_CHUNK * 5 * 5 * np.dtype(complex).itemsize
        assert peak - kept <= overlaps + 3 * chunk_stack
