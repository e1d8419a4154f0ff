"""adiorbit: adiabatic-orbit survival probabilities for driven quantum systems.

The package evolves small time-dependent quantum systems in the
phase-dressed instantaneous eigenframe, computes exact and perturbative
probabilities of staying on the initial adiabatic orbit, and evaluates
a family of adiabaticity criteria including a Fourier-harmonic
sufficient condition for linear-phase periodic couplings.
"""

from importlib import import_module

from . import errors

# public name -> the submodule that defines it; each submodule is imported
# on the first read of one of its names (PEP 562), so a command loads only
# the modules it runs
_SOURCES = {
    "frame": (
        "InvariantFrame", "build_frame", "coupling_from_overlaps",
        "coupling_route_discrepancy",
    ),
    "fourier": (
        "CouplingHarmonics", "FourierConditionReport", "Harmonic", "PhaseLinearity",
        "check_linear_phase", "conjugated_coupling_closed_form", "fourier_condition_report",
        "fourier_decompose_coupling", "verify_conjugated_coupling",
    ),
    "grid": ("TimeGrid",),
    "model": (
        "ConjugatedParams", "HamiltonianModel", "SpinHalfParams", "SpinVariant",
        "build_conjugated_model", "build_spin_half", "load_tabulated_model", "normalize",
        "sample_hamiltonian",
    ),
    "perturb": (
        "ConditionReport", "CriterionRecord", "compact_condition_functional",
        "evaluate_conditions", "first_order_condition", "first_order_probability",
        "ratio_probability_first_iteration", "second_order_probability",
    ),
    "pipeline": ("PipelineResult", "run_pipeline"),
    "propagate": (
        "CoefficientTrajectory", "StateTrajectory", "conservation_residual",
        "evolve_coefficients", "evolve_schrodinger", "survival_probability_direct",
        "survival_probability_exact",
    ),
    "spectrum": (
        "AdiabaticSpectrum", "Gauge", "GammaMethod", "apply_phase_redressing",
        "compute_nonadiabatic_coupling", "solve_quasistationary",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(["errors", *_MODULE_OF])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
