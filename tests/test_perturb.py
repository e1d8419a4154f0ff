import tracemalloc

import numpy as np
import pytest

import adiorbit.propagate
from adiorbit import perturb
from adiorbit import (
    CoefficientTrajectory,
    SpinHalfParams,
    TimeGrid,
    build_spin_half,
    compact_condition_functional,
    evaluate_conditions,
    evolve_coefficients,
    first_order_condition,
    first_order_probability,
    ratio_probability_first_iteration,
    run_pipeline,
    second_order_probability,
    survival_probability_exact,
)
from adiorbit._linalg import STEP_CHUNK
from adiorbit.errors import RatioBreakdown
from adiorbit.grid import cumulative_trapezoid
from adiorbit.perturb import RATIO_FIRST_ITER, SECOND_ORDER

from conftest import smooth_random_model


def harmonic_coupling(grid, pairs, amps, rates, phases, dim=3):
    taus = grid.samples
    out = np.zeros((taus.size, dim, dim), dtype=complex)
    for (i, j), a, w, p in zip(pairs, amps, rates, phases):
        out[:, i, j] = a * np.exp(1j * (w * taus + p))
        out[:, j, i] = np.conj(out[:, i, j])
    return out


def seeded_three_level(grid, seed, base=0.1, eps=1.0):
    rng = np.random.default_rng(seed)
    return harmonic_coupling(
        grid,
        pairs=[(0, 1), (0, 2), (1, 2)],
        amps=eps * base * rng.uniform(0.5, 1.5, size=3),
        rates=rng.uniform(0.4, 1.6, size=3),
        phases=rng.uniform(0.0, 2 * np.pi, size=3),
    )


@pytest.fixture(scope="module")
def spin_a_run(spin_a_model):
    grid = TimeGrid(tau_end=20.0, n_steps=20000)
    return run_pipeline(spin_a_model, grid)


@pytest.fixture(scope="module")
def deep_adiabatic_run():
    model = build_spin_half(SpinHalfParams(omega0=1.0, omega=0.01, theta=np.pi / 4))
    grid = TimeGrid(tau_end=20.0, n_steps=20000)
    return run_pipeline(model, grid)


class TestFirstOrder:
    def test_zero_coupling(self):
        grid = TimeGrid(tau_end=1.0, n_steps=100)
        coupling = np.zeros((101, 2, 2), dtype=complex)
        assert np.all(first_order_probability(coupling, grid, 0) == 1.0)
        cond = first_order_condition(coupling, grid, 0)
        assert cond == {1: 0.0}

    def test_constant_coupling_oscillatory_deficit(self):
        # M_km = g e^{i Omega tau}: deficit (2g/Omega)^2 sin^2(Omega tau / 2)
        g, omega = 0.05, 0.8
        grid = TimeGrid(tau_end=15.0, n_steps=15000)
        coupling = harmonic_coupling(
            grid, pairs=[(1, 0)], amps=[g], rates=[omega], phases=[0.0], dim=2
        )
        deficit = 1.0 - first_order_probability(coupling, grid, 0)
        closed = (2 * g / omega) ** 2 * np.sin(omega * grid.samples / 2.0) ** 2
        assert np.abs(deficit - closed).max() < 1e-8
        cond = first_order_condition(coupling, grid, 0, tau_end=10.0)
        idx = grid.index_of(10.0)
        assert cond[1] == pytest.approx(closed[idx], abs=1e-8)

    def test_close_to_exact_deep_in_adiabatic_regime(self, deep_adiabatic_run):
        result = deep_adiabatic_run
        gap = np.abs(result.p_exact - result.p_first).max()
        worst = (1.0 - result.p_exact).max()
        assert gap < 20.0 * worst**2
        assert gap < 1e-7


class TestSecondOrder:
    def test_zero_coupling(self):
        grid = TimeGrid(tau_end=1.0, n_steps=100)
        coupling = np.zeros((101, 2, 2), dtype=complex)
        assert np.all(second_order_probability(coupling, grid, 0) == 1.0)
        report = evaluate_conditions(coupling, evolve_coefficients(coupling, grid, 0), grid, 0)
        assert report[SECOND_ORDER].value == 0.0

    def test_constant_real_coupling_series(self):
        # (M M)_mm = g^2, so P2 = (1 - g^2 tau^2 / 2)^2
        g = 0.05
        grid = TimeGrid(tau_end=4.0, n_steps=4000)
        coupling = harmonic_coupling(
            grid, pairs=[(0, 1)], amps=[g], rates=[0.0], phases=[0.0], dim=2
        )
        p2 = second_order_probability(coupling, grid, 0)
        closed = (1.0 - g**2 * grid.samples**2 / 2.0) ** 2
        assert np.abs(p2 - closed).max() < 1e-9
        # and the series agrees with cos^2 up to the quartic term
        assert np.abs(p2 - np.cos(g * grid.samples) ** 2).max() < (g * 4.0) ** 4

    def test_exact_relation_to_other_conditions(self, spin_a_run):
        # 1 - P2 = 2 Re D - |D|^2 holds identically, not just to leading order
        grid = spin_a_run.grid
        coupling = spin_a_run.frame.coupling
        coefficients = evolve_coefficients(coupling, grid, 0)
        p2 = second_order_probability(coupling, grid, 0)
        for tau_end in (5.0, 12.0, 20.0):
            idx = grid.index_of(tau_end)
            lhs = 1.0 - p2[idx]
            report = evaluate_conditions(coupling, coefficients, grid, 0, tau_end)
            rhs = 2.0 * report[RATIO_FIRST_ITER].value - report[SECOND_ORDER].value
            assert abs(lhs - rhs) < 1e-12

    def test_order_ladder(self):
        # scaling every coupling by eps: both approximation errors shrink
        # monotonically and the second order wins at eps <= 1/2
        grid = TimeGrid(tau_end=10.0, n_steps=10000)
        err1, err2 = [], []
        for eps in (1.0, 0.5, 0.25):
            coupling = seeded_three_level(grid, seed=0, eps=eps)
            p = survival_probability_exact(evolve_coefficients(coupling, grid, 0))
            err1.append(np.abs(p - first_order_probability(coupling, grid, 0)).max())
            err2.append(np.abs(p - second_order_probability(coupling, grid, 0)).max())
        assert err1[0] > err1[1] > err1[2]
        assert err2[0] > err2[1] > err2[2]
        assert err2[1] < err1[1] and err2[2] < err1[2]


class TestRatioMethods:
    def test_zero_coupling(self):
        grid = TimeGrid(tau_end=1.0, n_steps=100)
        coupling = np.zeros((101, 2, 2), dtype=complex)
        assert np.all(ratio_probability_first_iteration(coupling, grid, 0) == 1.0)
        report = evaluate_conditions(coupling, evolve_coefficients(coupling, grid, 0), grid, 0)
        assert report[RATIO_FIRST_ITER].value == 0.0

    def test_ratio_probability_exponentiates_first_order_deficit(self, spin_a_run):
        coupling = spin_a_run.frame.coupling
        grid = spin_a_run.grid
        p_ratio = ratio_probability_first_iteration(
            coupling, grid, 0, coefficients=spin_a_run.coefficients
        )
        p1 = first_order_probability(coupling, grid, 0)
        assert np.abs(p_ratio - np.exp(p1 - 1.0)).max() < 1e-12

    def test_agrees_with_exact_when_adiabatic(self, deep_adiabatic_run):
        result = deep_adiabatic_run
        assert np.abs(result.p_ratio - result.p_exact).max() < 1e-3

    def test_condition_is_half_first_order_deficit(self, spin_a_run):
        coupling = spin_a_run.frame.coupling
        grid = spin_a_run.grid
        coefficients = evolve_coefficients(coupling, grid, 0)
        value = evaluate_conditions(coupling, coefficients, grid, 0, 20.0)[RATIO_FIRST_ITER].value
        p1 = first_order_probability(coupling, grid, 0)
        assert value == pytest.approx((1.0 - p1[-1]) / 2.0, abs=1e-12)
        assert value >= 0.0

    def test_breakdown_near_resonance(self, monkeypatch):
        # omega0 + omega cos(theta) = 0 drives full population transfer
        theta = 3 * np.pi / 4
        omega = -1.0 / np.cos(theta)
        model = build_spin_half(SpinHalfParams(omega0=1.0, omega=omega, theta=theta))
        grid = TimeGrid(tau_end=12.0, n_steps=12000)
        result = run_pipeline(model, grid)
        assert not result.ratio_valid
        with pytest.raises(RatioBreakdown):
            ratio_probability_first_iteration(
                result.frame.coupling, grid, 0, coefficients=result.coefficients
            )
        # without coefficients there is nothing to guard with, and the
        # curve does not propagate to find them
        def no_propagation(*args, **kwargs):
            raise AssertionError("the ratio curve propagated")

        monkeypatch.setattr(adiorbit.propagate, "_propagate", no_propagation)
        curve = ratio_probability_first_iteration(result.frame.coupling, grid, 0)
        assert curve.tobytes() == result.p_ratio.tobytes()
        with pytest.raises(RatioBreakdown):
            compact_condition_functional(
                result.frame.coupling, result.coefficients, grid, 0
            )


class TestCompactFunctional:
    def test_zero_coupling(self):
        grid = TimeGrid(tau_end=1.0, n_steps=100)
        coupling = np.zeros((101, 2, 2), dtype=complex)
        traj = evolve_coefficients(coupling, grid, 0)
        assert compact_condition_functional(coupling, traj, grid, 0) == 0.0

    def test_small_value_in_adiabatic_regime(self, spin_a_run, deep_adiabatic_run):
        value = compact_condition_functional(
            spin_a_run.frame.coupling, spin_a_run.coefficients, spin_a_run.grid, 0
        )
        assert spin_a_run.p_exact.min() > 0.995
        assert 0.0 < value < 1e-2
        # an order of magnitude slower drive pushes the value below 1e-3
        deep = compact_condition_functional(
            deep_adiabatic_run.frame.coupling,
            deep_adiabatic_run.coefficients,
            deep_adiabatic_run.grid,
            0,
        )
        assert deep_adiabatic_run.p_exact.min() > 0.999
        assert 0.0 <= deep < 1e-3

    def test_master_identity_on_random_paths(self):
        # brute-force oracle: the functional must equal -(1/2) ln P_exact
        grid = TimeGrid(tau_end=6.0, n_steps=12000)
        for seed in (10, 11, 12):
            coupling = seeded_three_level(grid, seed=seed, base=0.06)
            traj = evolve_coefficients(coupling, grid, 0)
            value = compact_condition_functional(coupling, traj, grid, 0)
            p_end = survival_probability_exact(traj)[-1]
            assert abs(value + 0.5 * np.log(p_end)) < 1e-8
            assert abs(np.exp(-2.0 * value) - p_end) < 1e-6

    def test_coefficients_of_another_grid_are_rejected(self, spin_a_run):
        # same number of samples, so only the grid check can tell
        grid = spin_a_run.grid
        other = TimeGrid(tau_end=2.0 * grid.tau_end, n_steps=grid.n_steps)
        traj = CoefficientTrajectory(other, spin_a_run.coefficients.coefficients, 0)
        with pytest.raises(ValueError, match="computed on a different grid"):
            compact_condition_functional(spin_a_run.frame.coupling, traj, grid, 0)


class TestConditionReport:
    def test_all_criteria_vanish_for_zero_coupling(self):
        grid = TimeGrid(tau_end=1.0, n_steps=100)
        coupling = np.zeros((101, 2, 2), dtype=complex)
        traj = evolve_coefficients(coupling, grid, 0)
        report = evaluate_conditions(coupling, traj, grid, 0)
        assert report.passed
        for rec in report.records:
            assert rec.value == 0.0

    def test_adiabatic_spin_a_passes(self, spin_a_run):
        report = evaluate_conditions(
            spin_a_run.frame.coupling, spin_a_run.coefficients, spin_a_run.grid, 0
        )
        assert report.passed
        assert set(r.criterion for r in report.records) == {
            "FirstOrder",
            "SecondOrder",
            "RatioFirstIter",
            "CompactFunctional",
        }
        first = report["FirstOrder"]
        assert first.per_level is not None and 1 in first.per_level
        assert first.value == pytest.approx(max(first.per_level.values()))
        for rec in report.records:
            assert np.isfinite(rec.value)
            assert rec.passed == (rec.value < rec.threshold)

    def test_threshold_controls_pass(self, spin_a_run):
        report = evaluate_conditions(
            spin_a_run.frame.coupling,
            spin_a_run.coefficients,
            spin_a_run.grid,
            0,
            threshold=1e-9,
        )
        assert not report.passed

    def test_report_equals_public_conditions_mid_grid(self):
        # the report shares one A and one D_mm across criteria; each record
        # must equal the value its public function builds on its own
        grid = TimeGrid(tau_end=10.0, n_steps=4000)
        initial_level = 1
        result = run_pipeline(smooth_random_model(3, 11), grid, initial_level)
        coupling, traj = result.frame.coupling, result.coefficients
        tau_end = grid.samples[2000]
        report = evaluate_conditions(coupling, traj, grid, initial_level, tau_end=tau_end)
        per_level = first_order_condition(coupling, grid, initial_level, tau_end)
        first = report["FirstOrder"]
        assert first.tau_end == tau_end
        assert first.per_level == per_level
        assert first.value == max(per_level.values())
        assert report["CompactFunctional"].value == compact_condition_functional(
            coupling, traj, grid, initial_level, tau_end
        )


def whole_grid_kernels(coupling, grid, level):
    """A and D_mm formed over the whole grid at once."""
    a = cumulative_trapezoid(coupling[:, :, level], grid.dtau)
    d_mm = cumulative_trapezoid(np.einsum("jk,jk->j", coupling[:, level, :], a), grid.dtau)
    return a, d_mm


def whole_grid_compact(coupling, coefficients, grid, level, idx):
    """The compact functional with every ratio formed at once."""
    c = coefficients[: idx + 1]
    ratios = c / c[:, level][:, None]
    integrand = np.einsum("jk,jk->j", coupling[: idx + 1, level, :], ratios)
    return float(np.trapezoid(integrand.imag, dx=grid.dtau))


class TestChunkEdges:
    """The kernels are walked one STEP_CHUNK of samples at a time; every
    curve and criterion must equal the whole-grid formula bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize(
        "n_samples",
        [STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1, 2 * STEP_CHUNK + 1, 200_001],
    )
    def test_curves_and_conditions_match_the_whole_grid_formulas(self, d, n_samples):
        rng = np.random.default_rng(n_samples + d)
        shape = (n_samples, d, d)
        coupling = 0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        grid = TimeGrid(tau_end=1e-3 * (n_samples - 1), n_steps=n_samples - 1)
        level = 1
        c = 0.1 * (rng.normal(size=(n_samples, d)) + 1j * rng.normal(size=(n_samples, d)))
        c[:, level] += 1.0  # |c_m| stays far above RATIO_FLOOR
        traj = CoefficientTrajectory(grid, c, level)
        a, d_mm = whole_grid_kernels(coupling, grid, level)
        curves = [
            (first_order_probability(coupling, grid, level), 1.0 - np.sum(np.abs(a) ** 2, axis=1)),
            (second_order_probability(coupling, grid, level), np.abs(1.0 - d_mm) ** 2),
            (
                ratio_probability_first_iteration(coupling, grid, level, traj),
                np.exp(-2.0 * np.real(d_mm)),
            ),
        ]
        for ours, expected in curves:
            assert ours.dtype == expected.dtype and ours.shape == expected.shape
            assert ours.tobytes() == expected.tobytes()

        # the last sample, and one in the middle of a chunk
        for idx in (n_samples - 1, n_samples - 1 - STEP_CHUNK // 2):
            tau_end = grid.samples[idx]
            report = evaluate_conditions(coupling, traj, grid, level, tau_end=tau_end)
            per_level = {k: float(np.abs(a[idx, k]) ** 2) for k in range(d) if k != level}
            assert report["FirstOrder"].tau_end == tau_end
            assert report["FirstOrder"].per_level == per_level
            assert report["FirstOrder"].value == max(per_level.values())
            assert report["SecondOrder"].value == float(np.abs(d_mm[idx]) ** 2)
            assert report["RatioFirstIter"].value == float(np.real(d_mm[idx]))
            assert report["CompactFunctional"].value == whole_grid_compact(
                coupling, c, grid, level, idx
            )

    def test_first_order_walks_only_a(self, monkeypatch):
        """One running integral per chunk for the first-order curve and
        criterion, two (A and D_mm) for the others."""
        n_samples, d, level = 2 * STEP_CHUNK + 1, 3, 1
        rng = np.random.default_rng(3)
        coupling = rng.normal(size=(n_samples, d, d)) + 1j * rng.normal(size=(n_samples, d, d))
        grid = TimeGrid(tau_end=1e-3 * (n_samples - 1), n_steps=n_samples - 1)
        integrals = []
        original = perturb.running_trapezoid

        def counting(*args):
            integrals.append(args)
            return original(*args)

        monkeypatch.setattr(perturb, "running_trapezoid", counting)
        first_order_probability(coupling, grid, level)
        first_order_condition(coupling, grid, level)
        assert len(integrals) == 2 * 3
        second_order_probability(coupling, grid, level)
        assert len(integrals) == 2 * 3 + 2 * 3

    def test_second_order_probability_holds_one_chunk(self):
        n_samples, d = 200_001, 2
        rng = np.random.default_rng(4)
        shape = (n_samples, d, d)
        coupling = 0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        grid = TimeGrid(tau_end=200.0, n_steps=n_samples - 1)
        tracemalloc.start()
        try:
            p2 = second_order_probability(coupling, grid, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chunk of A, D_mm and its integrand, and the curve's
        # temporaries (2.8 chunks of A, numpy 2.4); the whole-grid
        # formulas hold A, the integrand, D_mm and 1 - D_mm at once
        # (12.2 MB over this 1.5 MB curve, 98 chunks)
        chunk_bytes = STEP_CHUNK * d * np.dtype(complex).itemsize
        assert peak < p2.nbytes + 4 * chunk_bytes
