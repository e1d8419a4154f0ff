"""Unitary propagation of states and frame coefficients.

Both integrators use the exponential-midpoint rule: one step advances by
the exponential of the generator evaluated at the interval midpoint
(closed SU(2) form for d = 2, Taylor scaling and squaring otherwise).
Every step is unitary to roundoff, so norm conservation is a float-noise
check rather than a tolerance check, and the global error is second
order in the step. Both run one scan chunk at a time: each pass forms
that chunk's midpoint generators and steps, and the blocked scan
multiplies them from the previous chunk's last state straight into the
trajectory's rows. The coefficient
route holds two (chunk, d, d) buffers for the whole call: the midpoint
generators, which the step kernel hermitizes and scales in place and
the scan then reuses for its blocked copy, and the steps. The
Schrodinger route forms its chunk's midpoint times and samples a new
stack of h per chunk, and holds no stack beyond its chunk. This module alone sizes the chunk
(:func:`_scan_chunk`); the scan makes one pass over what it is handed.
The products are grouped differently from a step-by-step loop and
agree with it to roundoff. Grids are fixed-step; convergence is
assessed by halving the step. The coupling checks, the direct overlap
of the states with a dressed frame column and the norm residuals run
STEP_CHUNK samples at a time, the last two into their results (the
largest residual from the chunks' maxima), so none holds a whole-grid
temporary.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._linalg import (
    SCAN_BLOCK,
    SCAN_CHUNK_BLOCKS,
    STEP_CHUNK,
    max_hermiticity_defect,
    scan_states,
    unitary_steps,
)
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
    half = 0.5 * grid.dtau  # step k's midpoint is tau_k + half
    states = _propagate(
        lambda lo, hi: sample_hamiltonian(model, grid.times(lo, hi) + half), grid, v0, sign=-1
    )
    return StateTrajectory(grid, states)


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
    # one STEP_CHUNK of samples at a time; a maximum of chunk maxima is
    # the whole grid's, NaN included
    scales, defects, diagonals = [], [], []
    for start in range(0, coupling.shape[0], STEP_CHUNK):
        chunk = coupling[start : start + STEP_CHUNK]
        scales.append(np.abs(chunk).max())
        defects.append(max_hermiticity_defect(chunk))
        diagonals.append(np.abs(np.einsum("kii->ki", chunk)).max())
    scale = max(1.0, float(np.max(scales)))
    if np.max(defects) > 1e-9 * scale:
        raise ValueError("coupling samples must be Hermitian")
    if np.max(diagonals) > 1e-9 * scale:
        raise ValueError("coupling samples must have zero diagonal")
    d = coupling.shape[-1]
    if not 0 <= initial_level < d:
        raise ValueError("initial_level out of range")
    c0 = np.zeros(d, dtype=complex)
    c0[initial_level] = 1.0

    def midpoints(lo, hi, out):
        np.add(coupling[lo:hi], coupling[lo + 1 : hi + 1], out=out)
        out *= 0.5
        return out

    return CoefficientTrajectory(
        grid, _propagate(midpoints, grid, c0, sign=+1, into_buffer=True), initial_level
    )


def _scan_chunk(d: int) -> int:
    """Steps per scan chunk of (d, d) steps: as many matrix entries as a
    d = 2 chunk of SCAN_BLOCK * SCAN_CHUNK_BLOCKS steps, rounded down to a
    multiple of STEP_CHUNK and at least STEP_CHUNK (16384 steps for
    d = 2, 4096 for d >= 3)."""
    entries = SCAN_BLOCK * SCAN_CHUNK_BLOCKS * 2 * 2
    return max(STEP_CHUNK, entries // (d * d) // STEP_CHUNK * STEP_CHUNK)


def _propagate(
    generators: Callable[..., np.ndarray],
    grid: TimeGrid,
    v0: np.ndarray,
    sign: int,
    into_buffer: bool = False,
) -> np.ndarray:
    """States (n + 1, d) from v0 under the midpoint steps of the
    generators of steps lo..hi - 1.

    One scan chunk (:func:`_scan_chunk`) at a time: STEP_CHUNK divides
    the chunk, so every step is the one a whole-grid unitary_steps would
    form, and only the state carried from one chunk to the next is
    rounded differently. With ``into_buffer``, ``generators(lo, hi, buf)``
    writes into the first of two buffers held for the call (see the
    module docstring); otherwise ``generators(lo, hi)`` returns a new
    stack, and no stack outlives its chunk.
    """
    chunk, d = _scan_chunk(v0.size), v0.size
    n, dtau = grid.n_steps, grid.dtau
    out = np.empty((n + 1, d), dtype=complex)
    out[0] = v0
    gens = None
    if into_buffer:
        # room for the scan's copy, padded to whole scan blocks
        rows = min(chunk, -(-n // SCAN_BLOCK) * SCAN_BLOCK)
        gens = np.empty((rows, d, d), dtype=complex)
        steps = np.empty_like(gens)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        if into_buffer:
            g = generators(lo, hi, gens[: hi - lo])
            g = unitary_steps(g, dtau, sign, out=steps[: hi - lo], overwrite=True)
        else:
            g = unitary_steps(generators(lo, hi), dtau, sign)
        scan_states(g, out[lo], work=gens, out=out[lo : hi + 1])
        # new steps are freed before the next chunk's generators are formed
        del g
    return out


def survival_probability_exact(trajectory: CoefficientTrajectory) -> np.ndarray:
    """|c_m(tau_k)|^2 for the trajectory's initial level."""
    return np.abs(trajectory.coefficients[:, trajectory.initial_level]) ** 2


def survival_probability_direct(
    states: StateTrajectory, frame: InvariantFrame, level: int
) -> np.ndarray:
    """Overlap-squared of the evolved state with the dressed frame vector.

    Formed STEP_CHUNK samples at a time into the (n + 1,) result, so only
    one chunk of the dressed column is held at a time; each sample's sum
    is the one a whole-grid einsum would form.
    """
    if not states.grid.matches(frame.grid):
        raise GridMismatch("state trajectory and frame live on different grids")
    out = np.empty(states.states.shape[0])
    for start in range(0, out.size, STEP_CHUNK):
        rows = slice(start, start + STEP_CHUNK)
        # deleted below, so it is not held while the next chunk's is formed
        bra = frame.dressed_column(level, rows).conj()
        out[rows] = np.abs(np.einsum("ki,ki->k", bra, states.states[rows])) ** 2
        del bra
    return out


def conservation_residual(trajectory: CoefficientTrajectory) -> float:
    """max_k | sum_n |c_n(tau_k)|^2 - 1 |, zero for unitary stepping: the
    maximum of the STEP_CHUNK maxima, NaN included, with no whole-grid array."""
    chunks = range(0, trajectory.coefficients.shape[0], STEP_CHUNK)
    return float(np.max([norm_residuals(trajectory, slice(s, s + STEP_CHUNK)).max() for s in chunks]))


def norm_residuals(trajectory: CoefficientTrajectory, rows: slice = slice(None)) -> np.ndarray:
    """Per-sample | sum_n |c_n|^2 - 1 | at the samples ``rows``, formed
    STEP_CHUNK samples at a time into the result, each sample's sum the
    whole-grid one's."""
    c = trajectory.coefficients[rows]
    out = np.empty(c.shape[0])
    for start in range(0, out.size, STEP_CHUNK):
        rows = slice(start, start + STEP_CHUNK)
        out[rows] = np.abs(np.sum(np.abs(c[rows]) ** 2, axis=1) - 1.0)
    return out
