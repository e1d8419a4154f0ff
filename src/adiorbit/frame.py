"""The phase-dressed eigenframe and its coupling matrix.

Each tracked level m is dressed with the phase Theta_m, the accumulated
integral of its energy minus its Berry connection, which makes the
dressed frame invariant (up to a global phase) under smooth per-level
rephasing of the eigenvectors. In that frame the dynamics is generated
by the Hermitian, zero-diagonal coupling

    M_mn = gamma~_mn e^{i (Theta_m - Theta_n)},

the hermitized nonadiabatic coupling gamma~ conjugated by the dressing
phases, which :func:`build_frame` forms in the storage of gamma's plain
(n+1, d, d) array, in one pass of STEP_CHUNK samples at a time. Its
phase alpha_mn = arg M_mn = int(e_m - e_n) + int(gamma~_nn - gamma~_mm)
+ arg gamma~_mn is the U(1)-invariant phase whose linearity the Fourier
condition needs. :func:`coupling_route_discrepancy` assembles the
coupling directly, as i times the overlap of dressed frames with their
time derivative, and measures how far the two routes part.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import STEP_CHUNK, central_difference, hermitize
from .errors import GridMismatch, PhaseUnresolved
from .grid import running_trapezoid
from .spectrum import AdiabaticSpectrum

#: |M_mn| below which its argument is treated as undefined
ARG_UNDEFINED_TOL = 1e-14


@dataclass(frozen=True)
class InvariantFrame:
    """Phases and coupling of the dressed adiabatic frame.

    ``dynamical_phase[k, m]`` (Theta) is the integral of e_m minus the
    Berry connection up to tau_k, and ``coupling`` is the Hermitian
    zero-diagonal generator M_mn = gamma~_mn e^{i (Theta_m - Theta_n)}
    in the storage of the gamma that :func:`build_frame` consumed. Its
    phase alpha_mn = arg M_mn is read from ``coupling`` one pair at
    a time by :meth:`coupling_phase`; only the Fourier analysis reads it.
    """

    spectrum: AdiabaticSpectrum
    dynamical_phase: np.ndarray
    coupling: np.ndarray

    @property
    def grid(self):
        return self.spectrum.grid

    def basis_vectors(self, rows=slice(None)) -> np.ndarray:
        """Dressed frame e^{-i Theta_m(tau_k)} phi_m(tau_k) at the samples
        ``rows``, (n_rows, d, d). Reads the whole of V, so a released
        spectrum re-derives it (see :class:`AdiabaticSpectrum`)."""
        phase = np.exp(-1j * self.dynamical_phase[rows])
        return self.spectrum.eigenvectors[rows] * phase[:, None, :]

    def dressed_column(self, level: int, rows=slice(None)) -> np.ndarray:
        """``basis_vectors()[rows, :, level]``, shape (n_rows, d), from
        the same elementwise products without building the whole basis.
        It reads V's column ``level`` only, which a released spectrum
        keeps for the run's initial level, so that read re-derives
        nothing."""
        phase = np.exp(-1j * self.dynamical_phase[rows, level])
        return self.spectrum._column(level)[rows] * phase[:, None]

    def coupling_phase(self, m: int, n: int) -> np.ndarray:
        """alpha_mn = arg M_mn on the grid, continuously unwrapped, (n+1,).

        Where |M_mn| < :data:`ARG_UNDEFINED_TOL` the argument is undefined
        and is bridged by linear interpolation from its defined
        neighbours (zero when no sample is defined). The unwrap is right
        only while alpha moves by less than pi per step. Its energy part
        moves by up to max|e_m - e_n| dtau, so :class:`PhaseUnresolved`
        is raised once that reaches pi/2, which leaves the other half of
        the margin to the phase of gamma~_mn.
        """
        energies = self.spectrum.eigenvalues
        advance = float(np.abs(energies[:, m] - energies[:, n]).max()) * self.grid.dtau
        if advance >= np.pi / 2:
            raise PhaseUnresolved(
                f"alpha_{m}{n} advances by up to {advance:.4g} rad per step "
                f"(max|e_{m} - e_{n}| dtau >= pi/2), so arg M_{m}{n} cannot be "
                f"unwrapped; use more grid steps"
            )
        entry = self.coupling[:, m, n]
        undefined = np.abs(entry) < ARG_UNDEFINED_TOL
        if undefined.all():
            return np.zeros(entry.shape)
        defined = np.nonzero(~undefined)[0]
        unwrapped = np.unwrap(np.angle(entry[defined]))
        if undefined.any():
            return np.interp(np.arange(entry.size), defined, unwrapped)
        return unwrapped


def build_frame(spectrum: AdiabaticSpectrum, gamma: np.ndarray) -> InvariantFrame:
    """The dressed frame of a tracked spectrum and its coupling matrix.

    ``gamma``, the array of :func:`compute_nonadiabatic_coupling`, is
    consumed: M is formed in its storage in one pass over STEP_CHUNK
    samples at a time, which hermitizes the chunk in place, extends
    Theta_m = int_0^tau (e_m - gamma~_mm) by one ``running_trapezoid``
    call handed the previous chunk's carry (bit for bit the whole-grid
    integral; the seam between chunks is that function's), multiplies in
    the dressing phases, M_mn = gamma~_mn e^{i Theta_m} e^{-i Theta_n}
    = i <dressed_m | d/dtau dressed_n>, and zeroes the diagonal, which
    they absorb. Theta is the only whole-grid array formed, and no
    argument of gamma is taken.
    """
    energies, dtau = spectrum.eigenvalues, spectrum.grid.dtau
    n1, d = energies.shape
    # the shape of V, read from the eigenvalues so no V is re-derived
    if gamma.shape != (n1, d, d):
        raise GridMismatch(f"coupling {gamma.shape} for eigenvectors {(n1, d, d)}")
    diag = np.arange(d)
    theta = np.empty(energies.shape)
    integrand, carry = np.empty((min(STEP_CHUNK, n1), d)), None
    for start in range(0, n1, STEP_CHUNK):
        stop = min(start + STEP_CHUNK, n1)
        chunk, g = gamma[start:stop], integrand[: stop - start]
        # the continuum gamma is exactly Hermitian; averaging projects out
        # the discretization noise so phases stay real and M exactly Hermitian
        chunk[...] = hermitize(chunk)
        np.subtract(energies[start:stop], chunk[:, diag, diag].real, out=g)
        carry = running_trapezoid(g, dtau, theta[start:stop], carry)
        rot = np.exp(1j * theta[start:stop])
        chunk *= rot[:, :, None]
        chunk *= rot.conj()[:, None, :]
        chunk[:, diag, diag] = 0.0
    return InvariantFrame(spectrum=spectrum, dynamical_phase=theta, coupling=gamma)


def coupling_route_discrepancy(frame: InvariantFrame) -> float:
    """Max entrywise gap between the phase-formula coupling and the
    overlap route's i <B_m | d B_n / dtau>, the dressed frame B
    differentiated by second-order differences.

    The raw diagonal of the overlap route equals the level energies,
    which the dressing phases absorb, so it is zeroed to match the
    generator convention. B, its difference and the overlaps are formed
    one STEP_CHUNK of samples at a time, B with the halo the stencils
    read (one sample, two at the grid ends), so each entry is the whole
    stack's and the maximum of the chunk maxima is the whole maximum.
    It reads all of V, which a released spectrum re-derives.
    """
    n1 = frame.dynamical_phase.shape[0]
    # NaN included, as the whole-stack maximum would
    return float(np.max([_route_gap(frame, start) for start in range(0, n1, STEP_CHUNK)]))


def _route_gap(frame: InvariantFrame, start: int):
    """The discrepancy's maximum over the chunk of samples from ``start``;
    its stacks are freed on return, before the next chunk's are formed."""
    n1, d = frame.dynamical_phase.shape
    stop = min(start + STEP_CHUNK, n1)
    # the stencils' halo: one sample on each side, two at a grid end
    lo = max(0, start - 1 if stop < n1 else min(start - 1, n1 - 3))
    hi = min(n1, stop + 1 if start > 0 else max(stop + 1, 3))
    basis = frame.basis_vectors(slice(lo, hi))
    dbasis = central_difference(basis, frame.grid.dtau, slice(start - lo, stop - lo))
    overlaps = np.einsum("kim,kin->kmn", basis[start - lo : stop - lo].conj(), dbasis)
    np.multiply(1j, overlaps, out=overlaps)
    overlaps[:, np.arange(d), np.arange(d)] = 0.0
    np.subtract(frame.coupling[start:stop], overlaps, out=overlaps)
    return np.abs(overlaps).max()
