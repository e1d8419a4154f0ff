"""adiorbit: adiabatic-orbit survival probabilities for driven quantum systems.

The package evolves small time-dependent quantum systems in the
phase-dressed instantaneous eigenframe, computes exact and perturbative
probabilities of staying on the initial adiabatic orbit, and evaluates
a family of adiabaticity criteria including a Fourier-harmonic
sufficient condition for linear-phase periodic couplings.
"""

from . import errors
from .frame import (
    InvariantFrame,
    build_frame,
    coupling_from_overlaps,
    coupling_route_discrepancy,
)
from .fourier import (
    CouplingHarmonics,
    FourierConditionReport,
    Harmonic,
    PhaseLinearity,
    check_linear_phase,
    conjugated_coupling_closed_form,
    fourier_condition_report,
    fourier_decompose_coupling,
    verify_conjugated_coupling,
)
from .grid import TimeGrid
from .model import (
    ConjugatedParams,
    HamiltonianModel,
    NormalizationRecord,
    SpinHalfParams,
    SpinVariant,
    build_conjugated_model,
    build_spin_half,
    load_tabulated_model,
    normalize,
    sample_hamiltonian,
)
from .perturb import (
    ConditionReport,
    CriterionRecord,
    compact_condition_functional,
    evaluate_conditions,
    first_order_condition,
    first_order_probability,
    ratio_condition_first_order,
    ratio_probability_first_iteration,
    second_order_condition,
    second_order_probability,
)
from .pipeline import PipelineResult, run_pipeline
from .propagate import (
    CoefficientTrajectory,
    StateTrajectory,
    conservation_residual,
    evolve_coefficients,
    evolve_schrodinger,
    survival_probability_direct,
    survival_probability_exact,
)
from .spectrum import (
    AdiabaticSpectrum,
    Gauge,
    GammaMethod,
    NonadiabaticCoupling,
    apply_phase_redressing,
    compute_nonadiabatic_coupling,
    solve_quasistationary,
)

__version__ = "0.1.0"

__all__ = [
    "AdiabaticSpectrum",
    "CoefficientTrajectory",
    "ConditionReport",
    "ConjugatedParams",
    "CouplingHarmonics",
    "CriterionRecord",
    "FourierConditionReport",
    "Gauge",
    "GammaMethod",
    "HamiltonianModel",
    "Harmonic",
    "InvariantFrame",
    "NonadiabaticCoupling",
    "NormalizationRecord",
    "PhaseLinearity",
    "PipelineResult",
    "SpinHalfParams",
    "SpinVariant",
    "StateTrajectory",
    "TimeGrid",
    "apply_phase_redressing",
    "build_conjugated_model",
    "build_frame",
    "build_spin_half",
    "check_linear_phase",
    "compact_condition_functional",
    "compute_nonadiabatic_coupling",
    "conjugated_coupling_closed_form",
    "conservation_residual",
    "coupling_from_overlaps",
    "coupling_route_discrepancy",
    "errors",
    "evaluate_conditions",
    "evolve_coefficients",
    "evolve_schrodinger",
    "first_order_condition",
    "first_order_probability",
    "fourier_condition_report",
    "fourier_decompose_coupling",
    "load_tabulated_model",
    "normalize",
    "ratio_condition_first_order",
    "ratio_probability_first_iteration",
    "run_pipeline",
    "sample_hamiltonian",
    "second_order_condition",
    "second_order_probability",
    "solve_quasistationary",
    "survival_probability_direct",
    "survival_probability_exact",
    "verify_conjugated_coupling",
]
