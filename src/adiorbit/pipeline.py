"""End-to-end runs: model -> spectrum -> frame -> probabilities.

This is the programmatic counterpart of the CLI ``evolve`` command and
the work-horse of the test suite: one call produces the exact survival
probability (coefficient route), the perturbative approximations, and
the conservation residuals, all on a shared grid; :func:`run_frame`
runs only the stages up to the frame. A result keeps per sample only the
frame and the coefficients: their extremes are read one STEP_CHUNK at a
time, and every curve, |c_m|^2 and the norm residuals included, is
computed the first time it is read. The direct overlap runs the
Schrodinger route into a trajectory that is freed once the overlap is
formed, so no result keeps the (n + 1, d) states.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import STEP_CHUNK
from .errors import NormNotConserved
from .frame import InvariantFrame, build_frame
from .grid import TimeGrid
from .model import HamiltonianModel
from .perturb import (
    RATIO_FLOOR,
    first_order_probability,
    ratio_probability_first_iteration,
    second_order_probability,
)
from .propagate import (
    CoefficientTrajectory,
    conservation_residual,
    evolve_coefficients,
    evolve_schrodinger,
    norm_residuals,
    survival_probability_direct,
    survival_probability_exact,
)
from .spectrum import (
    AdiabaticSpectrum,
    Gauge,
    GammaMethod,
    compute_nonadiabatic_coupling,
    solve_quasistationary,
)

#: largest norm residual a run accepts; unitary steps drift by about 1e-16 per step
NORM_RESIDUAL_BOUND = 1e-8


@dataclass(frozen=True)
class PipelineResult:
    """Everything one scenario produces, on a single grid.

    ``min_p_exact``, ``max_norm_residual`` and ``ratio_valid`` are the
    extremes :func:`run_pipeline` reads from the coefficients. The
    curves are computed on first read and then kept: ``p_exact``
    (|c_m|^2) and ``norm_residual`` from the coefficients, ``p_first``,
    ``p_second`` and ``p_ratio`` (the perturbative approximations) from
    the coupling, and ``p_direct`` (the Schrodinger route's overlap with
    the dressed initial level). The route's states are not kept: a
    caller that needs them calls :func:`evolve_schrodinger`.
    """

    model: HamiltonianModel
    grid: TimeGrid
    initial_level: int
    spectrum: AdiabaticSpectrum
    frame: InvariantFrame
    coefficients: CoefficientTrajectory
    min_p_exact: float
    max_norm_residual: float
    ratio_valid: bool

    @cached_property
    def p_exact(self) -> np.ndarray:
        return survival_probability_exact(self.coefficients)

    @cached_property
    def norm_residual(self) -> np.ndarray:
        return norm_residuals(self.coefficients)

    @cached_property
    def p_first(self) -> np.ndarray:
        return first_order_probability(self.frame.coupling, self.grid, self.initial_level)

    @cached_property
    def p_second(self) -> np.ndarray:
        return second_order_probability(self.frame.coupling, self.grid, self.initial_level)

    @cached_property
    def p_ratio(self) -> np.ndarray:
        return ratio_probability_first_iteration(self.frame.coupling, self.grid, self.initial_level)

    @cached_property
    def p_direct(self) -> np.ndarray:
        initial_state = self.frame.dressed_column(self.initial_level, slice(0, 1))[0]
        states = evolve_schrodinger(self.model, initial_state, self.grid)
        return survival_probability_direct(states, self.frame, self.initial_level)


def run_frame(
    model: HamiltonianModel,
    grid: TimeGrid,
    gauge: Gauge = Gauge.CONTINUITY_FIXED,
    gamma_method: GammaMethod = GammaMethod.FINITE_DIFFERENCE,
    gap_tol: float = 1e-6,
) -> InvariantFrame:
    """Solve, then gamma, then the dressed frame, which keeps the spectrum."""
    spectrum = solve_quasistationary(model, grid, gap_tol=gap_tol, gauge=gauge)
    # the frame forms its coupling in gamma's storage, so no name keeps gamma
    return build_frame(
        spectrum, compute_nonadiabatic_coupling(spectrum, model=model, method=gamma_method)
    )


def run_pipeline(
    model: HamiltonianModel,
    grid: TimeGrid,
    initial_level: int = 0,
    gauge: Gauge = Gauge.CONTINUITY_FIXED,
    gamma_method: GammaMethod = GammaMethod.FINITE_DIFFERENCE,
    gap_tol: float = 1e-6,
) -> PipelineResult:
    """Run the full evolution pipeline for one scenario.

    The perturbative ratio probability is defined in every regime (and,
    like the other perturbative probabilities, computed on first read);
    ``ratio_valid`` records whether the exact coefficient magnitude stayed
    above the breakdown floor so downstream reporting can distrust it.
    A norm residual above :data:`NORM_RESIDUAL_BOUND` raises :class:`NormNotConserved`.
    """
    frame = run_frame(model, grid, gauge=gauge, gamma_method=gamma_method, gap_tol=gap_tol)
    coefficients = evolve_coefficients(frame.coupling, grid, initial_level)
    # |c_m| one STEP_CHUNK at a time: the minimum of the chunk minima is
    # the whole grid's, NaN included, and so is its square, since
    # squaring rounds monotonically
    c_m = coefficients.coefficients[:, initial_level]
    chunks = range(0, c_m.size, STEP_CHUNK)
    smallest = float(np.min([np.abs(c_m[s : s + STEP_CHUNK]).min() for s in chunks]))
    worst = conservation_residual(coefficients)
    # a NaN passes `>`, so the CLI's report check names the NaN entry
    if worst > NORM_RESIDUAL_BOUND:
        raise NormNotConserved(
            f"max norm residual {worst:.4g} exceeds the bound {NORM_RESIDUAL_BOUND:g}: "
            f"the propagation is not unitary"
        )

    return PipelineResult(
        model=model,
        grid=grid,
        initial_level=initial_level,
        spectrum=frame.spectrum,
        frame=frame,
        coefficients=coefficients,
        min_p_exact=smallest * smallest,
        max_norm_residual=worst,
        ratio_valid=smallest >= RATIO_FLOOR,
    )
