"""End-to-end runs: model -> spectrum -> frame -> probabilities.

This is the programmatic counterpart of the CLI ``evolve`` command and
the work-horse of the test suite: one call produces the exact survival
probability (coefficient route), the perturbative approximations, and
the conservation residuals, all on a shared grid; :func:`run_frame`
runs only the stages up to the frame. Once gamma is formed, the
spectrum's eigenvectors V are released: a run keeps per sample the
coupling M, the dressing phases Theta, the coefficients c and the one
column of V the direct overlap reads, and a read of the rest of V
solves again (see :class:`AdiabaticSpectrum`). The extremes of c are
read one STEP_CHUNK at a time, and every curve, |c_m|^2 and the norm
residuals included, is computed the first time it is read. The direct
overlap runs the Schrodinger route into a trajectory that is freed once
the overlap is formed, so no result keeps the (n + 1, d) states.
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

    ``spectrum`` (the frame's) is released: of V it keeps the column of
    ``initial_level``, which ``p_direct`` reads, and a read of
    ``spectrum.eigenvectors`` or of the frame's ``basis_vectors``
    re-derives V by one more solve.
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
    initial_level: int = 0,
) -> InvariantFrame:
    """Solve, then gamma, then the dressed frame, which keeps the spectrum.

    Once gamma is formed the spectrum is released before the frame is
    built: it keeps of the eigenvectors V only the column of
    ``initial_level``, which the dressed column and the direct overlap
    read, and any other read of V re-derives it by solving again (see
    :class:`AdiabaticSpectrum`). So no stage after gamma holds V.
    """
    spectrum = solve_quasistationary(model, grid, gap_tol=gap_tol, gauge=gauge)
    gamma = compute_nonadiabatic_coupling(spectrum, model=model, method=gamma_method)
    # rebinding the name drops the last reference to V
    spectrum = spectrum._released(model, gap_tol, initial_level)
    # the frame forms its coupling in gamma's storage, so nothing keeps gamma beside it
    return build_frame(spectrum, gamma)


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
    The frame comes from :func:`run_frame`, so V is released before the
    coefficient route runs, and the result holds M, Theta, c and V's
    ``initial_level`` column.
    """
    frame = run_frame(
        model, grid, gauge=gauge, gamma_method=gamma_method, gap_tol=gap_tol,
        initial_level=initial_level,
    )
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
