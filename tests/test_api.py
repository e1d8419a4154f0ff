import adiorbit

# The public names, spelled out: adding or removing one is a visible edit here.
PUBLIC_NAMES = [
    "AdiabaticSpectrum", "CoefficientTrajectory", "ConditionReport", "ConjugatedParams",
    "CouplingHarmonics", "CriterionRecord", "FourierConditionReport", "GammaMethod", "Gauge",
    "HamiltonianModel", "Harmonic", "InvariantFrame", "PhaseLinearity", "PipelineResult",
    "SpinHalfParams", "SpinVariant", "StateTrajectory", "TimeGrid", "apply_phase_redressing",
    "build_conjugated_model", "build_frame", "build_spin_half", "check_linear_phase",
    "compact_condition_functional", "compute_nonadiabatic_coupling",
    "conservation_residual", "coupling_route_discrepancy",
    "errors", "evaluate_conditions", "evolve_coefficients",
    "evolve_schrodinger", "first_order_condition", "first_order_probability",
    "fourier_condition_report", "fourier_decompose_coupling", "load_tabulated_model",
    "ratio_probability_first_iteration", "run_pipeline", "sample_hamiltonian",
    "second_order_probability", "solve_quasistationary", "survival_probability_direct",
    "survival_probability_exact", "verify_conjugated_coupling",
]


def test_public_names_are_pinned():
    assert sorted(adiorbit.__all__) == PUBLIC_NAMES
