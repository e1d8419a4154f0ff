"""Unitary propagation of states and frame coefficients.

Both integrators use the exponential-midpoint rule: one step advances by
the exponential of the generator evaluated at the interval midpoint
(closed SU(2) form for d = 2, Taylor scaling and squaring otherwise).
Every step is unitary to roundoff, so norm conservation is a float-noise
check rather than a tolerance check, and the global error is second
order in the step. All steps are computed at once and multiplied
together by a blocked scan, so their products are grouped differently
from a step-by-step loop and agree with it to roundoff. Grids are
fixed-step; convergence is assessed by halving the step.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import max_hermiticity_defect, scan_states, unitary_steps
from .errors import GridMismatch
from .frame import InvariantFrame
from .grid import TimeGrid
from .model import HamiltonianModel, sample_hamiltonian


@dataclass(frozen=True)
class StateTrajectory:
    """Schrodinger states |Phi(tau_k)>, one unit vector per sample."""

    grid: TimeGrid
    states: np.ndarray


@dataclass(frozen=True)
class CoefficientTrajectory:
    """Frame coefficients c_n(tau_k) with c(0) concentrated on one level."""

    grid: TimeGrid
    coefficients: np.ndarray
    initial_level: int


def evolve_schrodinger(
    model: HamiltonianModel, initial_state: np.ndarray, grid: TimeGrid
) -> StateTrajectory:
    """Integrate i dPhi/dtau = h(tau) Phi with midpoint exponentials."""
    v0 = np.asarray(initial_state, dtype=complex)
    if v0.shape != (model.dimension,):
        raise ValueError("initial state has wrong dimension")
    norm = np.linalg.norm(v0)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"initial state is not normalized (|v| = {norm:.3e})")
    steps = unitary_steps(sample_hamiltonian(model, grid.midpoints), grid.dtau, sign=-1)
    return StateTrajectory(grid, scan_states(steps, v0))


def evolve_coefficients(
    coupling: np.ndarray, grid: TimeGrid, initial_level: int
) -> CoefficientTrajectory:
    """Integrate dc/dtau = i M(tau) c from c_n(0) = delta_nm.

    ``coupling`` holds M at the grid samples; midpoint values are linear
    interpolations of neighbouring samples.
    """
    coupling = np.asarray(coupling, dtype=complex)
    if coupling.shape[0] != grid.n_steps + 1:
        raise GridMismatch(
            f"{coupling.shape[0]} coupling samples for {grid.n_steps + 1} grid points"
        )
    scale = max(1.0, float(np.abs(coupling).max()))
    if max_hermiticity_defect(coupling) > 1e-9 * scale:
        raise ValueError("coupling samples must be Hermitian")
    diag = np.einsum("kii->ki", coupling)
    if np.abs(diag).max() > 1e-9 * scale:
        raise ValueError("coupling samples must have zero diagonal")
    d = coupling.shape[-1]
    if not 0 <= initial_level < d:
        raise ValueError("initial_level out of range")
    steps = unitary_steps(0.5 * (coupling[:-1] + coupling[1:]), grid.dtau, sign=+1)
    c0 = np.zeros(d, dtype=complex)
    c0[initial_level] = 1.0
    return CoefficientTrajectory(grid, scan_states(steps, c0), initial_level)


def survival_probability_exact(trajectory: CoefficientTrajectory) -> np.ndarray:
    """|c_m(tau_k)|^2 for the trajectory's initial level."""
    return np.abs(trajectory.coefficients[:, trajectory.initial_level]) ** 2


def survival_probability_direct(
    states: StateTrajectory, frame: InvariantFrame, level: int
) -> np.ndarray:
    """Overlap-squared of the evolved state with the dressed frame vector."""
    if not states.grid.matches(frame.grid):
        raise GridMismatch("state trajectory and frame live on different grids")
    basis = frame.dressed_column(level)
    overlaps = np.einsum("ki,ki->k", basis.conj(), states.states)
    return np.abs(overlaps) ** 2


def conservation_residual(trajectory: CoefficientTrajectory) -> float:
    """max_k | sum_n |c_n(tau_k)|^2 - 1 |, zero for unitary stepping."""
    return float(norm_residuals(trajectory).max())


def norm_residuals(trajectory: CoefficientTrajectory) -> np.ndarray:
    """Per-sample | sum_n |c_n|^2 - 1 |."""
    total = np.sum(np.abs(trajectory.coefficients) ** 2, axis=1)
    return np.abs(total - 1.0)
