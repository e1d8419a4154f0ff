"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with ``pytest -v -s``).

Shared fixtures deliberately reuse the heavy fine-grid pipelines across
criteria; every tolerance below is asserted at the value it was frozen
at, not recalibrated.
"""

import json
import time

import numpy as np
import pytest

from adiorbit import (
    SpinHalfParams,
    SpinVariant,
    TimeGrid,
    apply_phase_redressing,
    build_frame,
    build_spin_half,
    check_linear_phase,
    compact_condition_functional,
    compute_nonadiabatic_coupling,
    conservation_residual,
    evaluate_conditions,
    evolve_coefficients,
    evolve_schrodinger,
    first_order_condition,
    first_order_probability,
    fourier_condition_report,
    fourier_decompose_coupling,
    run_pipeline,
    second_order_probability,
    solve_quasistationary,
    survival_probability_direct,
    survival_probability_exact,
    verify_conjugated_coupling,
)
from adiorbit.cli import main

W0, W, THETA = 1.0, 0.1, np.pi / 4
WTILDE = np.sqrt(W0**2 + W**2 + 2 * W0 * W * np.cos(THETA))


def report(criterion, ok, detail):
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def spin_a_closed_form(taus):
    return 1.0 - (W**2 * np.sin(THETA) ** 2 / WTILDE**2) * np.sin(WTILDE * taus / 2) ** 2


def spin_b_closed_form(taus):
    return 1.0 - np.sin(THETA) ** 2 * np.sin(W * taus / 2) ** 2


@pytest.fixture(scope="module")
def spin_a_default():
    """Spin variant A on the default 1e5-step grid, with build+run time."""
    grid = TimeGrid(tau_end=200.0, n_steps=100000)
    start = time.perf_counter()
    model = build_spin_half(SpinHalfParams(omega0=W0, omega=W, theta=THETA))
    result = run_pipeline(model, grid)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def spin_b_default():
    grid = TimeGrid(tau_end=200.0, n_steps=100000)
    start = time.perf_counter()
    model = build_spin_half(
        SpinHalfParams(omega0=W0, omega=W, theta=THETA, variant=SpinVariant.B)
    )
    result = run_pipeline(model, grid)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def conjugated_default(conjugated_example):
    _, model = conjugated_example
    grid = TimeGrid(tau_end=20.0, n_steps=100000)
    start = time.perf_counter()
    result = run_pipeline(model, grid)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def spin_a_fine():
    """Variant A at dtau = 1e-3 over the full [0, 200] window."""
    grid = TimeGrid(tau_end=200.0, n_steps=200000)
    model = build_spin_half(SpinHalfParams(omega0=W0, omega=W, theta=THETA))
    return run_pipeline(model, grid)


@pytest.fixture(scope="module")
def conjugated_fine(conjugated_example):
    params, model = conjugated_example
    grid = TimeGrid(tau_end=20.0, n_steps=20000)
    return params, run_pipeline(model, grid)


def test_a1_conservation(spin_a_default, spin_b_default, conjugated_default):
    details = []
    ok = True
    for name, (result, elapsed) in (
        ("spin_a", spin_a_default),
        ("spin_b", spin_b_default),
        ("conjugated", conjugated_default),
    ):
        residual = conservation_residual(result.coefficients)
        details.append(f"{name}: residual {residual:.2e}, {elapsed:.1f}s")
        ok = ok and residual < 1e-10 and elapsed < 5.0
    report("A1 conservation at 1e5 steps", ok, "; ".join(details))


def test_a2_dual_route_equivalence(spin_a_fine, conjugated_fine):
    gap_a = np.abs(spin_a_fine.p_exact - spin_a_fine.p_direct).max()
    _, conj = conjugated_fine
    gap_c = np.abs(conj.p_exact - conj.p_direct).max()

    def halving_gaps(make_model, tau_end, steps_list):
        gaps = []
        for n in steps_list:
            grid = TimeGrid(tau_end=tau_end, n_steps=n)
            res = run_pipeline(make_model(grid), grid)
            gaps.append(np.abs(res.p_exact - res.p_direct).max())
        return gaps

    spin_gaps = halving_gaps(
        lambda grid: build_spin_half(SpinHalfParams(omega0=W0, omega=W, theta=THETA)),
        40.0,
        [10000, 20000, 40000],
    )
    ratios = [spin_gaps[i] / spin_gaps[i + 1] for i in range(2)]
    ok = (
        gap_a < 1e-6
        and gap_c < 1e-6
        and all(2.5 < r < 6.0 for r in ratios)
    )
    report(
        "A2 dual-route equivalence",
        ok,
        f"spin_a {gap_a:.2e}, conjugated {gap_c:.2e}, halving ratios "
        + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_a3_spin_a_closed_form(spin_a_fine):
    err = np.abs(spin_a_fine.p_exact - spin_a_closed_form(spin_a_fine.grid.samples)).max()
    report("A3 rotating-field closed form", err < 1e-5, f"max error {err:.2e} < 1e-5")


def test_a4_spin_b_closed_form(spin_b_default):
    result, _ = spin_b_default
    err = np.abs(result.p_exact - spin_b_closed_form(result.grid.samples)).max()
    min_p = result.p_exact.min()
    ok = err < 1e-4 and abs(min_p - 0.5) < 1e-3
    report(
        "A4 conjugated-dual closed form",
        ok,
        f"max error {err:.2e} < 1e-4, min P {min_p:.6f} vs 0.5",
    )


def test_a5_condition_inconsistency_resolution():
    period = 2 * np.pi / W
    grid = TimeGrid(tau_end=period, n_steps=62832)  # dtau ~ 1e-3, commensurate

    model_a = build_spin_half(SpinHalfParams(omega0=W0, omega=W, theta=THETA))
    res_a = run_pipeline(model_a, grid)
    linearity = check_linear_phase(res_a.frame, (1, 0))
    harmonics = fourier_decompose_coupling(
        np.abs(res_a.frame.coupling[:, 1, 0]), grid, period, n_harmonics=4
    )
    fourier_a = fourier_condition_report(linearity, harmonics)
    analytic = (W * np.sin(THETA) / 2) / (W0 + W * np.cos(THETA))

    model_b = build_spin_half(
        SpinHalfParams(omega0=W0, omega=W, theta=THETA, variant=SpinVariant.B)
    )
    res_b = run_pipeline(model_b, grid)
    first_b = max(
        first_order_condition(
            res_b.frame.coupling, grid, 0, tau_end=10 * np.pi
        ).values()
    )

    ok = (
        abs(fourier_a.max_ratio - analytic) < 1e-6
        and 0.1 < first_b < 2.0  # order sin^2(theta)
        and first_b > 10.0 * fourier_a.max_ratio
    )
    report(
        "A5 systems a/b get different verdicts",
        ok,
        f"fourier(a) {fourier_a.max_ratio:.8f} (analytic {analytic:.8f}), "
        f"first-order(b) {first_b:.4f}, separation {first_b / fourier_a.max_ratio:.1f}x",
    )


def test_a6_conjugated_exactness(conjugated_fine):
    params, result = conjugated_fine
    coupling_err = verify_conjugated_coupling(params, result.frame)
    linearity = check_linear_phase(result.frame, (1, 0))
    ok = coupling_err < 1e-8 and linearity.max_residual < 1e-8
    report(
        "A6 conjugated-model exactness",
        ok,
        f"coupling error {coupling_err:.2e}, phase residual {linearity.max_residual:.2e}",
    )


def test_a7_perturbation_order_ladder():
    grid = TimeGrid(tau_end=10.0, n_steps=10000)
    taus = grid.samples
    rng = np.random.default_rng(0)
    pairs = [(0, 1), (0, 2), (1, 2)]
    amps = 0.1 * rng.uniform(0.5, 1.5, size=3)
    rates = rng.uniform(0.4, 1.6, size=3)
    phases = rng.uniform(0.0, 2 * np.pi, size=3)

    err1, err2 = [], []
    for eps in (1.0, 0.5, 0.25):
        coupling = np.zeros((taus.size, 3, 3), dtype=complex)
        for (i, j), a, w, p in zip(pairs, amps, rates, phases):
            coupling[:, i, j] = eps * a * np.exp(1j * (w * taus + p))
            coupling[:, j, i] = np.conj(coupling[:, i, j])
        p_exact = survival_probability_exact(evolve_coefficients(coupling, grid, 0))
        err1.append(np.abs(p_exact - first_order_probability(coupling, grid, 0)).max())
        err2.append(np.abs(p_exact - second_order_probability(coupling, grid, 0)).max())

    ok = (
        err1[0] > err1[1] > err1[2]
        and err2[0] > err2[1] > err2[2]
        and err2[1] < err1[1]
        and err2[2] < err1[2]
    )
    report(
        "A7 perturbation-order ladder",
        ok,
        "first-order errors "
        + ", ".join(f"{e:.2e}" for e in err1)
        + "; second-order "
        + ", ".join(f"{e:.2e}" for e in err2),
    )


def test_a8_master_identity(spin_a_fine, spin_b_default, conjugated_fine):
    gaps = {}
    for name, result in (
        ("spin_a", spin_a_fine),
        ("spin_b", spin_b_default[0]),
        ("conjugated", conjugated_fine[1]),
    ):
        value = compact_condition_functional(
            result.frame.coupling, result.coefficients, result.grid,
            result.initial_level,
        )
        gaps[name] = abs(np.exp(-2.0 * value) - result.p_exact[-1])
    ok = all(gap < 1e-6 for gap in gaps.values())
    report(
        "A8 exact-ratio master identity",
        ok,
        ", ".join(f"{k}: {v:.2e}" for k, v in gaps.items()),
    )


def test_a9_gauge_invariance():
    grid = TimeGrid(tau_end=20.0, n_steps=20000)
    model = build_spin_half(SpinHalfParams(omega0=W0, omega=W, theta=THETA))
    spec = solve_quasistationary(model, grid)

    def phase_fn(taus):
        return np.stack(
            [0.05 * np.sin(0.3 * taus), -0.04 * (1.0 - np.cos(0.25 * taus))], axis=1
        )

    deltas = {}
    runs = {}
    for tag, spectrum in (("ref", spec), ("dressed", apply_phase_redressing(spec, phase_fn))):
        frame = build_frame(spectrum, compute_nonadiabatic_coupling(spectrum))
        coeffs = evolve_coefficients(frame.coupling, grid, 0)
        state = evolve_schrodinger(model, frame.basis_vectors()[0, :, 0], grid)
        conditions = evaluate_conditions(frame.coupling, coeffs, grid, 0)
        runs[tag] = (
            survival_probability_exact(coeffs),
            survival_probability_direct(state, frame, 0),
            {r.criterion: r.value for r in conditions.records},
        )
    deltas["P_exact"] = np.abs(runs["ref"][0] - runs["dressed"][0]).max()
    deltas["P_direct"] = np.abs(runs["ref"][1] - runs["dressed"][1]).max()
    for crit, value in runs["ref"][2].items():
        deltas[crit] = abs(value - runs["dressed"][2][crit])
    ok = all(v < 1e-8 for v in deltas.values())
    report(
        "A9 gauge invariance",
        ok,
        ", ".join(f"{k}: {v:.1e}" for k, v in deltas.items()),
    )


def test_a10_adiabatic_limit_scaling(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "model.kind = spin_half\n"
        "model.variant = a\n"
        f"model.omega0 = {W0!r}\n"
        f"model.omega = {W!r}\n"
        f"model.theta = {THETA!r}\n"
        "grid.tau_end = 20.0\n"
        "grid.n_steps = 20000\n"
        "sweep.parameter = model.omega\n"
        "sweep.values = 0.1, 0.05, 0.025\n"
    )
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    rows = json.loads((out / "sweep_report.json").read_text())["rows"]
    deficits = [1.0 - row["min_p_exact"] for row in rows]
    ratios = [deficits[i] / deficits[i + 1] for i in range(2)]
    ok = code == 0 and all(3.5 < r < 4.5 for r in ratios)
    report(
        "A10 adiabatic-limit scaling",
        ok,
        "deficits "
        + ", ".join(f"{d:.3e}" for d in deficits)
        + "; halving ratios "
        + ", ".join(f"{r:.2f}" for r in ratios),
    )
