"""Instantaneous eigenproblem on a time grid with continuous labels.

At each grid sample the frame of the Hermitian h(tau_k) comes from the
model's closed-form eigensystem when it has one
(``HamiltonianModel.analytic_frame``), verified against the samples of h,
and otherwise from an eigensolver: closed form for two-level models
(:func:`adiorbit._linalg.su2_eigh`), ``np.linalg.eigh`` for larger
ones. Either runs on one STEP_CHUNK of samples of h at a time, so h is
never held whole. In the default gauge, levels are then matched across
neighbouring samples by maximum eigenvector overlap (not by eigenvalue
order, which would swap labels at avoided crossings), and eigenvector
phases are fixed by discrete parallel transport: the overlap between
consecutive frames of the same level is made real and positive.
Transport starts from a fixed convention at tau = 0: each vector's
largest-modulus entry is real and positive, so the frame does not
depend on the phases its source happens to return. Tracking is
vectorized over STEP_CHUNK steps at a time and forms only the diagonal
overlaps where they decide the labels; Python visits only the steps
where the labels permute. In that gauge the numerical Berry connection
is close to zero; models with a closed-form eigensystem can instead
keep their analytic phases.

The nonadiabatic coupling gamma_nm = i <phi_n | d phi_m / dtau> is
computed either by second-order finite differences of the tracked
frames or from the Hamiltonian derivative (off-diagonal only, with the
diagonal taken from finite differences). Both routes form it
STEP_CHUNK samples at a time into its one output stack.
"""

import enum
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._linalg import STEP_CHUNK, central_difference, phase_convention, stacked_matmul, su2_eigh
from .errors import (
    AnalyticFrameUnavailable,
    AssignmentAmbiguous,
    DegenerateGap,
    DerivativeUnavailable,
    InvalidSamples,
)
from .grid import TimeGrid
from .model import HamiltonianModel, sample_derivative, sample_frame, sample_hamiltonian

_OVERLAP_FLOOR = 1.0 / np.sqrt(2.0)
# A row of a unitary overlap matrix whose |s_jj| exceeds 1/sqrt(2) has
# its largest entry at j. A chunk of steps whose diagonal overlaps all
# clear this margin above that keeps the diagonal without forming the
# rest; the margin absorbs the roundoff in the frames' orthonormality.
_DIAGONAL_MARGIN = 0.75
# Largest |h V - V diag(e)| (relative to max(1, max |e|)) and column norm
# defect |V^H V - 1|_jj accepted from a closed-form frame.
_FRAME_TOL = 1e-8
_FD_STEP = 1e-6


class Gauge(enum.Enum):
    CONTINUITY_FIXED = "continuity"
    ANALYTIC = "analytic"


class GammaMethod(enum.Enum):
    FINITE_DIFFERENCE = "fd"
    HELLMANN_FEYNMAN = "hf"


@dataclass(frozen=True)
class AdiabaticSpectrum:
    """Tracked instantaneous eigensystem on a grid.

    ``eigenvalues[k, n]`` and ``eigenvectors[k, :, n]`` belong to level
    n at tau_k; level labels are continuous in tau and the vectors are
    unit norm. ``min_gap`` is the smallest level separation encountered.
    """

    grid: TimeGrid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gauge: Gauge
    min_gap: float

    @property
    def dimension(self) -> int:
        return self.eigenvectors.shape[-1]


@dataclass(frozen=True)
class NonadiabaticCoupling:
    """Sampled coupling gamma_nm(tau_k) = i <phi_n | phi_m'>.

    Hermitian up to discretization error; the diagonal is the Berry
    connection of each level in the spectrum's gauge.
    """

    grid: TimeGrid
    values: np.ndarray
    method: GammaMethod


def _enforce_min_gap(evals: np.ndarray, taus: np.ndarray, gap_tol: float) -> float:
    """Smallest adjacent gap of each sample's eigenvalues in ascending
    order; rows are sorted only when one is out of order."""
    diffs = np.diff(evals, axis=1)
    if (diffs < 0).any():
        diffs = np.diff(np.sort(evals, axis=1), axis=1)
    min_gap = float(diffs.min())
    if min_gap < gap_tol:
        k, j = np.unravel_index(np.argmin(diffs), diffs.shape)
        raise DegenerateGap(taus[k], (j, j + 1), diffs[k, j], gap_tol)
    return min_gap


def _check_eigensystem(model: HamiltonianModel, taus, h, evals, evecs, tol: float):
    """Raise :class:`InvalidSamples` unless every sample of one chunk of a
    closed-form frame is an eigensystem of h with unit columns.

    ``tol`` bounds |h V - V diag(e)|; the caller takes it over the whole
    frame, so which frames pass does not depend on the chunks. Only a
    chunk that fails is searched for its first bad sample.
    """
    hv = stacked_matmul(h, evecs)
    hv -= evecs * evals[:, None, :]
    resid = np.abs(hv)
    norm_defect = np.abs(np.einsum("kij,kij->kj", evecs.conj(), evecs).real - 1.0)
    if resid.max() > tol or norm_defect.max() > _FRAME_TOL:
        resid, norm_defect = resid.max(axis=(1, 2)), norm_defect.max(axis=1)
        k = int(np.argmax((resid > tol) | (norm_defect > _FRAME_TOL)))
        raise InvalidSamples(
            f"model {model.name!r}: analytic frame is not a unit eigensystem of h at "
            f"tau={taus[k]:.6g} (|h V - V diag(e)| = {resid[k]:.3e}, "
            f"column norm defect {norm_defect[k]:.3e}; tolerance {_FRAME_TOL:g} relative)"
        )


def _track(evals: np.ndarray, evecs: np.ndarray, taus: np.ndarray):
    """Relabel a frame by maximum overlap and transport its phases.

    ``evals`` and ``evecs`` are overwritten. Each step's best-overlap
    column and the overlap it keeps are found one STEP_CHUNK of steps at
    a time: a chunk whose diagonal overlaps all exceed _DIAGONAL_MARGIN
    keeps them, and only the other chunks form the full d x d overlaps.
    A step whose best columns are the identity leaves the labels alone.
    Only at the other steps is the permutation composed and applied to
    every later sample, so the loop runs over permutation events.
    """
    n1, d, _ = evecs.shape
    ident = np.arange(d)
    kept = np.empty((n1 - 1, d), dtype=complex)
    events, event_cols = [np.empty(0, np.intp)], [np.empty((0, d), np.intp)]
    for start in range(0, n1 - 1, STEP_CHUNK):
        stop = min(start + STEP_CHUNK, n1 - 1)
        before, after = evecs[start:stop].conj(), evecs[start + 1 : stop + 1]
        kept[start:stop] = np.einsum("kij,kij->kj", before, after)
        if np.abs(kept[start:stop]).min() > _DIAGONAL_MARGIN:
            continue
        s = np.einsum("kij,kil->kjl", before, after)
        cols = np.abs(s).argmax(axis=2)
        if np.array_equal(cols, np.broadcast_to(ident, cols.shape)):
            continue
        kept[start:stop] = np.take_along_axis(s, cols[:, :, None], axis=2)[:, :, 0]
        moved = np.flatnonzero((cols != ident).any(axis=1))
        events.append(start + moved)
        event_cols.append(cols[moved])
    events, event_cols = np.concatenate(events), np.concatenate(event_cols)

    # a step whose best columns repeat one is not a permutation; labels
    # are only trusted up to the first such step
    clash = np.flatnonzero((np.sort(event_cols, axis=1) != ident).any(axis=1))
    n_ok = clash[0] if clash.size else events.size
    perm = ident
    ends = np.append(events[1:], n1 - 1)
    for k, cols, end in zip(events[:n_ok], event_cols[:n_ok], ends[:n_ok]):
        # samples k+1..end carry the labels composed up to step k, and so
        # do the overlaps of steps k+1..end
        perm = cols[perm]
        evals[k + 1 : end + 1] = evals[k + 1 : end + 1][:, perm]
        evecs[k + 1 : end + 1] = evecs[k + 1 : end + 1][:, :, perm]
        kept[k + 1 : end + 1] = kept[k + 1 : end + 1][:, perm]

    checked = n1 - 1 if n_ok == events.size else events[n_ok] + 1
    mag = np.abs(kept)
    if mag[:checked].min() < _OVERLAP_FLOOR:
        k = int(np.argmax(mag[:checked].min(axis=1) < _OVERLAP_FLOOR))
        raise AssignmentAmbiguous(
            f"level {int(mag[k].argmin())} has best overlap {mag[k].min():.3f} < 1/sqrt(2) "
            f"across tau={taus[k]:.6g} -> {taus[k+1]:.6g}; refine the grid"
        )
    if n_ok < events.size:
        raise AssignmentAmbiguous(
            f"overlap assignment is not a permutation at tau={taus[events[n_ok] + 1]:.6g}"
        )
    # transport phases accumulate multiplicatively; the product's modulus
    # drifts linearly with the step count, so it is divided out once
    phases = np.concatenate([np.ones((1, d)), np.cumprod(np.conj(kept) / mag, axis=0)])
    phases /= np.abs(phases)
    evecs *= phases[:, None, :]
    return evals, evecs


def solve_quasistationary(
    model: HamiltonianModel,
    grid: TimeGrid,
    gap_tol: float = 1e-6,
    gauge: Gauge = Gauge.CONTINUITY_FIXED,
) -> AdiabaticSpectrum:
    """Sample the eigensystem of h on the grid as a continuously labeled
    frame.

    The frame is the model's closed-form ``analytic_frame`` when it has
    one, checked against h at every sample (:class:`InvalidSamples` when
    it is not a unit eigensystem of h), and the eigensolver's otherwise;
    either walks h one STEP_CHUNK in grid order, so h is never whole.
    With the default gauge, levels are labeled by ascending eigenvalue at
    tau = 0 and followed by maximum overlap afterwards; each vector's
    largest-modulus entry is real and positive at tau = 0 and phases
    are then fixed by discrete parallel transport. ``Gauge.ANALYTIC``
    keeps the closed-form frame as it is (only for models that provide
    one).

    Raises :class:`DegenerateGap` when any two levels approach within
    ``gap_tol`` and :class:`AssignmentAmbiguous` when the overlap
    matching is not a clean permutation.
    """
    if model.dimension < 2:
        raise ValueError("need at least a two-level model")
    if gauge is Gauge.ANALYTIC and model.analytic_frame is None:
        raise AnalyticFrameUnavailable(f"model {model.name!r} has no closed-form eigenframe")
    taus, d = grid.samples, model.dimension
    frame = sample_frame(model, taus)
    if frame is None:
        evals, evecs = np.empty((taus.size, d)), np.empty((taus.size, d, d), dtype=complex)
    else:
        evals, evecs = frame
        tol = _FRAME_TOL * max(1.0, float(np.abs(evals).max()))
    for start in range(0, taus.size, STEP_CHUNK):
        rows = slice(start, start + STEP_CHUNK)
        h = sample_hamiltonian(model, taus[rows])
        if frame is None:
            evals[rows], evecs[rows] = su2_eigh(h) if d == 2 else np.linalg.eigh(h)
        else:
            _check_eigensystem(model, taus[rows], h, evals[rows], evecs[rows], tol)
        del h  # not held while the next chunk is sampled
    min_gap = _enforce_min_gap(evals, taus, gap_tol)
    if gauge is Gauge.CONTINUITY_FIXED:
        # transport keeps the tau = 0 phases, so they fix the whole gauge
        evecs[0] = phase_convention(evecs[0])
        evals, evecs = _track(evals, evecs, taus)
    return AdiabaticSpectrum(grid, evals, evecs, gauge, min_gap)


def apply_phase_redressing(
    spectrum: AdiabaticSpectrum, phase_fn: Callable[[np.ndarray], np.ndarray]
) -> AdiabaticSpectrum:
    """Redress each level with a smooth time-dependent phase.

    ``phase_fn(taus)`` must return real phases f_n(tau_k) of shape
    (n_samples, d) with f_n(0) = 0. Every gauge-invariant quantity
    downstream must be unchanged by this transformation; it exists for
    gauge-independence checks.
    """
    phases = np.asarray(phase_fn(spectrum.grid.samples), dtype=float)
    if phases.shape != spectrum.eigenvalues.shape:
        raise ValueError("phase samples must have shape (n_samples, d)")
    if np.abs(phases[0]).max() > 1e-12:
        raise ValueError("redressing phases must vanish at tau = 0")
    dressed = spectrum.eigenvectors * np.exp(1j * phases)[:, None, :]
    return replace(spectrum, eigenvectors=dressed)


def _hamiltonian_derivative(model, grid: TimeGrid, rows: slice) -> np.ndarray:
    """dh/dtau at the samples ``rows``: the model's analytic derivative,
    else central differences of h with step _FD_STEP, one-sided at the
    range ends. Never probes outside [0, tau_end], so models defined
    only on that range (tabulated, normalized raw evaluators) stay valid.
    """
    taus = grid.samples
    hdot = sample_derivative(model, taus[rows])
    if hdot is not None:
        return hdot
    n = taus.size
    start, stop, _ = rows.indices(n)
    delta, d = min(_FD_STEP, 0.5 * grid.dtau), model.dimension
    out = np.empty((stop - start, d, d), dtype=complex)
    lo, hi = max(start, 1), min(stop, n - 1)
    if hi > lo:
        plus = sample_hamiltonian(model, taus[lo:hi] + delta)
        minus = sample_hamiltonian(model, taus[lo:hi] - delta)
        out[lo - start : hi - start] = (plus - minus) / (2.0 * delta)
    if start == 0:
        h = sample_hamiltonian(model, taus[0] + delta * np.array([0.0, 1.0, 2.0]))
        out[0] = (-3.0 * h[0] + 4.0 * h[1] - h[2]) / (2.0 * delta)
    if stop == n:
        h = sample_hamiltonian(model, taus[-1] - delta * np.array([2.0, 1.0, 0.0]))
        out[-1] = (3.0 * h[2] - 4.0 * h[1] + h[0]) / (2.0 * delta)
    return out


def compute_nonadiabatic_coupling(
    spectrum: AdiabaticSpectrum,
    model: Optional[HamiltonianModel] = None,
    method: GammaMethod = GammaMethod.FINITE_DIFFERENCE,
) -> NonadiabaticCoupling:
    """Sample gamma_nm = i <phi_n | phi_m'> on the spectrum's grid.

    Both methods fill the result one STEP_CHUNK of samples at a time,
    each entry the one the whole-stack formula gives.
    ``FINITE_DIFFERENCE`` differentiates the tracked eigenvectors with
    second-order stencils. ``HELLMANN_FEYNMAN`` uses
    gamma_nm = i <phi_n| dh/dtau |phi_m> / (e_m - e_n) off the diagonal,
    taking dh/dtau from the model (or a central difference of h with
    step 1e-6 when the model has no analytic derivative); the diagonal
    is the finite-difference route's.
    """
    if method is GammaMethod.HELLMANN_FEYNMAN and model is None:
        raise DerivativeUnavailable("Hellmann-Feynman coupling needs the model")
    vecs, evals, dtau = spectrum.eigenvectors, spectrum.eigenvalues, spectrum.grid.dtau
    idx = np.arange(spectrum.dimension)
    off_diagonal = idx[:, None] != idx
    gamma = np.empty(vecs.shape, dtype=complex)
    for start in range(0, vecs.shape[0], STEP_CHUNK):
        rows = slice(start, start + STEP_CHUNK)
        g, bra = gamma[rows], vecs[rows].conj()
        if method is GammaMethod.FINITE_DIFFERENCE:
            np.einsum("kin,kim->knm", bra, central_difference(vecs, dtau, rows), out=g)
            np.multiply(1j, g, out=g)
        else:
            numer = stacked_matmul(_hamiltonian_derivative(model, spectrum.grid, rows), vecs[rows])
            numer = stacked_matmul(bra.swapaxes(-1, -2), numer)
            numer *= 1j
            np.divide(numer, evals[rows, None, :] - evals[rows, :, None], out=g, where=off_diagonal)
            del numer
            # only the d diagonal overlaps of the finite-difference route
            berry = np.einsum("kin,kin->kn", bra, central_difference(vecs, dtau, rows))
            g[:, idx, idx] = 1j * berry
        del bra
    return NonadiabaticCoupling(spectrum.grid, gamma, method)
