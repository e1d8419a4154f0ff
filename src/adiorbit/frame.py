"""The phase-dressed eigenframe and its coupling matrix.

Each tracked level is dressed with the accumulated phase of its energy
minus its Berry connection, which makes the dressed frame invariant (up
to a global phase) under smooth per-level rephasing of the eigenvectors.
In that frame the dynamics is generated by a Hermitian, zero-diagonal
coupling matrix whose entries carry the modulus of the nonadiabatic
coupling and a phase built from the accumulated energy differences, the
Berry-connection differences, and the argument of the coupling itself.

:func:`build_frame` derives all of it in one pass: gamma is hermitized
once, and the energies and Berry connection are integrated in one
trapezoid sweep. The coupling matrix is also assembled a second way,
directly as i times the overlap of dressed frames with their time
derivative (:func:`coupling_from_overlaps`). The two routes must agree;
:func:`coupling_route_discrepancy` measures it.
"""

from dataclasses import dataclass

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

    ``dynamical_phase[k, m]`` is the integral of e_m minus the Berry
    connection up to tau_k. ``geometric_phase[k, m, n]`` (xi) is the
    accumulated Berry-connection difference plus the unwrapped arg of
    gamma_mn, ``coupling_phase`` (alpha) adds the accumulated energy
    difference to it, and ``coupling`` is the Hermitian zero-diagonal
    generator. ``arg_undefined`` flags the samples where |gamma_mn| is
    below :data:`ARG_UNDEFINED_TOL`.
    """

    spectrum: AdiabaticSpectrum
    gamma: NonadiabaticCoupling
    dynamical_phase: np.ndarray
    geometric_phase: np.ndarray
    coupling_phase: np.ndarray
    coupling: np.ndarray
    arg_undefined: np.ndarray

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


def _unwrapped_arguments(gsym: np.ndarray, magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuously unwrapped arg gamma_mn per pair, with undefined samples
    linearly interpolated from their defined neighbours."""
    n1, d, _ = gsym.shape
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

    The phase of level m accumulates e_m(tau) - gamma_mm(tau) by
    composite trapezoid from tau = 0. xi_mn accumulates the
    Berry-connection difference gamma_nn - gamma_mm and adds the
    continuously unwrapped argument of gamma_mn. Where |gamma_mn| is
    below :data:`ARG_UNDEFINED_TOL` the argument is undefined; those
    samples are flagged and bridged by linear interpolation (the
    coupling entry vanishes there, so the choice cannot influence the
    dynamics).

    Entry (m, n) of the coupling carries modulus |gamma_mn| and phase
    alpha_mn = int(e_m - e_n) + xi_mn, which reproduces
    i <dressed_m | d/dtau dressed_n> off the diagonal. The diagonal is
    exactly zero: its would-be entries are absorbed by the dressing
    phases.
    """
    if not spectrum.grid.matches(gamma.grid):
        raise GridMismatch("spectrum and coupling live on different grids")
    d = spectrum.dimension
    diag = np.arange(d)
    # the continuum gamma is exactly Hermitian; averaging projects out
    # the discretization noise so phases stay real and M exactly Hermitian
    gsym = hermitize(gamma.values)
    magnitude = np.abs(gsym)
    args, undefined = _unwrapped_arguments(gsym, magnitude)
    energies = spectrum.eigenvalues
    berry = np.real(np.einsum("knn->kn", gsym))
    # the trapezoid acts column by column, so one sweep over the stacked
    # integrands gives each integral exactly as a separate sweep would
    integrals = cumulative_trapezoid(
        np.concatenate([energies - berry, berry, energies], axis=1), spectrum.grid.dtau
    )
    del gsym, berry
    theta = integrals[:, :d].copy()  # the frame keeps theta, not the stacked sweep
    berry_int, energy_int = integrals[:, d : 2 * d], integrals[:, 2 * d :]

    xi = berry_int[:, None, :] - berry_int[:, :, None]  # [k, m, n] = int(g_nn - g_mm)
    xi += args
    del args
    xi[:, diag, diag] = 0.0
    alpha = energy_int[:, :, None] - energy_int[:, None, :]
    alpha += xi
    del integrals, berry_int, energy_int
    coupling = np.exp(1j * alpha)
    coupling *= magnitude
    del magnitude
    coupling[:, diag, diag] = 0.0
    return InvariantFrame(
        spectrum=spectrum,
        gamma=gamma,
        dynamical_phase=theta,
        geometric_phase=xi,
        coupling_phase=alpha,
        coupling=coupling,
        arg_undefined=undefined,
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
