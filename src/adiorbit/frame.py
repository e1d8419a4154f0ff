"""The phase-dressed eigenframe and its coupling matrix.

Each tracked level m is dressed with the phase Theta_m, the accumulated
integral of its energy minus its Berry connection, which makes the
dressed frame invariant (up to a global phase) under smooth per-level
rephasing of the eigenvectors. In that frame the dynamics is generated
by the Hermitian, zero-diagonal coupling

    M_mn = gamma~_mn e^{i (Theta_m - Theta_n)},

where gamma~ is the hermitized nonadiabatic coupling: M is gamma~
conjugated by the dressing phases. :func:`build_frame` forms it with one
trapezoid sweep and one complex exponential per level and sample. It
takes no argument of gamma, so the coupling does not depend on how that
argument is continued where |gamma_mn| vanishes.

The phase decomposition of the coupling, xi (accumulated Berry-connection
difference plus the unwrapped arg gamma_mn) and alpha = xi plus the
accumulated energy difference, is only read by the Fourier analysis; the
frame derives it on first read. The coupling matrix is also assembled a
second way, directly as i times the overlap of dressed frames with their
time derivative (:func:`coupling_from_overlaps`). The two routes must
agree; :func:`coupling_route_discrepancy` measures it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import central_difference, hermitize
from .errors import GridMismatch
from .grid import cumulative_trapezoid
from .spectrum import AdiabaticSpectrum, NonadiabaticCoupling

#: |gamma_mn| below which its argument is treated as undefined
ARG_UNDEFINED_TOL = 1e-14


@dataclass(frozen=True)
class InvariantFrame:
    """Phases and coupling of the dressed adiabatic frame.

    ``dynamical_phase[k, m]`` (Theta) is the integral of e_m minus the
    Berry connection up to tau_k, and ``coupling`` is the Hermitian
    zero-diagonal generator gamma~_mn e^{i (Theta_m - Theta_n)}.

    ``geometric_phase[k, m, n]`` (xi), ``coupling_phase`` (alpha) and
    ``arg_undefined`` are computed from ``gamma`` and ``spectrum`` on
    first read and then kept; only the Fourier analysis reads them. xi
    is the accumulated Berry-connection difference plus the unwrapped
    arg gamma_mn, alpha adds the accumulated energy difference to it,
    and ``arg_undefined`` flags the samples where |gamma_mn| is below
    :data:`ARG_UNDEFINED_TOL` (there the argument is bridged by linear
    interpolation).
    """

    spectrum: AdiabaticSpectrum
    gamma: NonadiabaticCoupling
    dynamical_phase: np.ndarray
    coupling: np.ndarray

    @property
    def grid(self):
        return self.spectrum.grid

    def basis_vectors(self) -> np.ndarray:
        """Dressed frame e^{-i Theta_m(tau_k)} phi_m(tau_k), (n+1, d, d)."""
        return self.spectrum.eigenvectors * np.exp(-1j * self.dynamical_phase)[:, None, :]

    def dressed_column(self, level: int, rows=slice(None)) -> np.ndarray:
        """``basis_vectors()[rows, :, level]``, shape (n_rows, d), from
        the same elementwise products without building the whole basis."""
        phase = np.exp(-1j * self.dynamical_phase[rows, level])
        return self.spectrum.eigenvectors[rows, :, level] * phase[:, None]

    @cached_property
    def _arguments(self) -> tuple[np.ndarray, np.ndarray]:
        return _unwrapped_arguments(hermitize(self.gamma.values))

    @cached_property
    def arg_undefined(self) -> np.ndarray:
        return self._arguments[1]

    @cached_property
    def geometric_phase(self) -> np.ndarray:
        diag = np.arange(self.spectrum.dimension)
        # the real part of gamma's diagonal is that of the hermitized gamma
        berry_int = cumulative_trapezoid(self.gamma.values[:, diag, diag].real, self.grid.dtau)
        xi = berry_int[:, None, :] - berry_int[:, :, None]  # [k, m, n] = int(g_nn - g_mm)
        xi += self._arguments[0]
        xi[:, diag, diag] = 0.0
        return xi

    @cached_property
    def coupling_phase(self) -> np.ndarray:
        energy_int = cumulative_trapezoid(self.spectrum.eigenvalues, self.grid.dtau)
        alpha = energy_int[:, :, None] - energy_int[:, None, :]
        alpha += self.geometric_phase
        return alpha


def _unwrapped_arguments(gsym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuously unwrapped arg gamma_mn per pair, with undefined samples
    linearly interpolated from their defined neighbours."""
    n1, d, _ = gsym.shape
    magnitude = np.abs(gsym)
    args = np.zeros((n1, d, d))
    undefined = np.zeros((n1, d, d), dtype=bool)
    sample_idx = np.arange(n1)
    for m in range(d):
        for n in range(d):
            if m == n:
                continue
            undef = magnitude[:, m, n] < ARG_UNDEFINED_TOL
            undefined[:, m, n] = undef
            if undef.all():
                continue
            defined = np.nonzero(~undef)[0]
            unwrapped = np.unwrap(np.angle(gsym[defined, m, n]))
            if undef.any():
                args[:, m, n] = np.interp(sample_idx, defined, unwrapped)
            else:
                args[:, m, n] = unwrapped
    return args, undefined


def build_frame(spectrum: AdiabaticSpectrum, gamma: NonadiabaticCoupling) -> InvariantFrame:
    """The dressed frame of a tracked spectrum and its coupling matrix.

    The phase Theta_m of level m accumulates e_m(tau) - gamma_mm(tau) by
    composite trapezoid from tau = 0. The coupling is the hermitized
    gamma conjugated by the dressing phases,
    M_mn = gamma~_mn e^{i Theta_m} e^{-i Theta_n}, which reproduces
    i <dressed_m | d/dtau dressed_n> off the diagonal. The diagonal is
    exactly zero: its would-be entries are absorbed by the dressing
    phases. No argument of gamma is taken, so where |gamma_mn| vanishes
    the entry simply vanishes with it.
    """
    if not spectrum.grid.matches(gamma.grid):
        raise GridMismatch("spectrum and coupling live on different grids")
    diag = np.arange(spectrum.dimension)
    # the continuum gamma is exactly Hermitian; averaging projects out
    # the discretization noise so phases stay real and M exactly Hermitian
    coupling = hermitize(gamma.values)
    theta = cumulative_trapezoid(
        spectrum.eigenvalues - coupling[:, diag, diag].real, spectrum.grid.dtau
    )
    rot = np.exp(1j * theta)
    coupling *= rot[:, :, None]
    coupling *= rot.conj()[:, None, :]
    coupling[:, diag, diag] = 0.0
    return InvariantFrame(
        spectrum=spectrum, gamma=gamma, dynamical_phase=theta, coupling=coupling
    )


def coupling_from_overlaps(frame: InvariantFrame) -> np.ndarray:
    """The coupling by direct differentiation of the dressed frame.

    Computes i <B_m | d B_n / dtau> with second-order differences. The
    raw diagonal of this expression equals the level energies, which the
    dressing phases absorb, so it is zeroed to match the generator
    convention.
    """
    basis = frame.basis_vectors()
    dbasis = central_difference(basis, frame.grid.dtau)
    m2 = 1j * np.einsum("kim,kin->kmn", basis.conj(), dbasis)
    d = basis.shape[-1]
    m2[:, np.arange(d), np.arange(d)] = 0.0
    return m2


def coupling_route_discrepancy(frame: InvariantFrame) -> float:
    """Max entrywise gap between the phase-formula and overlap routes."""
    return float(np.abs(frame.coupling - coupling_from_overlaps(frame)).max())
