"""Sufficient adiabaticity condition for linear-phase periodic couplings.

When the phase of a coupling entry is linear in time (constant rate
Omega_0) and its modulus is periodic, the first-order deficit integral
becomes a sum of harmonic amplitudes divided by shifted frequencies.
Bounding the oscillatory numerators by 2 turns the per-harmonic ratios
|Gamma_l / (Omega_0 + Omega_l)| into a time-independent sufficient
condition. A harmonic whose frequency cancels Omega_0 is a resonance:
the bound does not exist there and the condition fails explicitly
instead of dividing by zero.

The conjugated constant-Hamiltonian family has exactly linear phases
and a constant coupling modulus, so it doubles as the exactness check
for the whole construction (:func:`verify_conjugated_coupling`).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linalg import phase_convention
from .errors import HarmonicsOutOfRange, PeriodMismatch, PhaseNotLinear
from .frame import InvariantFrame
from .grid import TimeGrid
from .model import ConjugatedParams
from .perturb import DEFAULT_THRESHOLD

#: default relative tolerance for the linear-phase fit
LINEARITY_TOL = 1e-6


@dataclass(frozen=True)
class PhaseLinearity:
    """Least-squares line fit of one coupling-entry phase."""

    pair: tuple[int, int]
    alpha0: float
    omega0: float
    max_residual: float
    is_linear: bool
    linearity_tol: float


@dataclass(frozen=True)
class Harmonic:
    """One Fourier component of the coupling modulus over a period."""

    index: int
    frequency: float
    amplitude: complex


@dataclass(frozen=True)
class CouplingHarmonics:
    """Truncated Fourier series of |gamma| with its tail energy.

    ``mean_square`` is the grid average of |gamma|^2 over one period;
    by Parseval it equals the sum of |amplitude|^2 over all modes, so
    ``tail_energy`` measures what the truncation dropped.
    """

    period: float
    harmonics: tuple[Harmonic, ...]
    mean_square: float
    tail_energy: float


@dataclass(frozen=True)
class FourierConditionReport:
    """Per-harmonic ratios and the resulting pass/fail verdict.

    ``max_ratio`` uses the harmonic amplitudes of |gamma| directly;
    ``rabi_ratio`` is the same bound expressed with the full transition
    amplitude 2 |gamma|, the convention in which the two-level
    rotating-field condition reads |omega sin(theta) / (omega_0 +
    omega cos(theta))|. Both are reported side by side.
    """

    pair: tuple[int, int]
    omega0: float
    ratios: tuple[float, ...]
    max_ratio: float
    rabi_ratio: float
    resonant_indices: tuple[int, ...]
    threshold: float
    passed: bool


def check_linear_phase(
    frame: InvariantFrame,
    pair: tuple[int, int],
    linearity_tol: float = LINEARITY_TOL,
) -> PhaseLinearity:
    """Fit alpha_km(tau) with a line and report the worst residual.

    ``is_linear`` holds when the residual is below
    ``linearity_tol * (1 + |Omega_0| tau_end)``, a relative criterion so
    fast phases are not penalized for accumulating more total angle. A
    fit that does not converge raises :class:`PhaseNotLinear`.
    """
    k, m = pair
    taus = frame.grid.samples
    alpha = frame.coupling_phase(k, m)
    try:
        slope, intercept = np.polyfit(taus, alpha, 1)
    except np.linalg.LinAlgError as exc:
        raise PhaseNotLinear(f"the line fit of the phase of pair {pair} failed: {exc}") from exc
    residual = float(np.abs(alpha - (intercept + slope * taus)).max())
    bound = linearity_tol * (1.0 + abs(slope) * frame.grid.tau_end)
    return PhaseLinearity(
        pair=(k, m),
        alpha0=float(intercept),
        omega0=float(slope),
        max_residual=residual,
        is_linear=bool(residual < bound),
        linearity_tol=linearity_tol,
    )


def fourier_decompose_coupling(
    magnitude_samples: np.ndarray,
    grid: TimeGrid,
    period: float,
    n_harmonics: int,
) -> CouplingHarmonics:
    """Discrete Fourier coefficients of |gamma| over one period.

    The period must cover an integer number of grid steps (within 1e-9
    relative) and fit inside the sampled range. Harmonics l in
    [-n_harmonics, n_harmonics] are kept; the dropped spectral weight is
    reported as ``tail_energy``.
    """
    g = np.asarray(magnitude_samples, dtype=float)
    steps_per_period = int(round(period / grid.dtau))
    if steps_per_period < 2:
        raise PeriodMismatch(f"period {period:g} spans fewer than two grid steps")
    if abs(steps_per_period * grid.dtau - period) > 1e-9 * max(1.0, abs(period)):
        raise PeriodMismatch(
            f"period {period:g} is not an integer number of grid steps "
            f"(dtau = {grid.dtau:g})"
        )
    if g.shape[0] < steps_per_period:
        raise PeriodMismatch("sampled range is shorter than one period")
    if n_harmonics < 0 or 2 * n_harmonics + 1 > steps_per_period:
        raise HarmonicsOutOfRange(
            f"n_harmonics = {n_harmonics} is outside [0, {(steps_per_period - 1) // 2}] "
            f"for {steps_per_period} samples per period"
        )

    window = g[:steps_per_period]
    spectrum = np.fft.fft(window) / steps_per_period
    base = 2.0 * np.pi / period
    harmonics = tuple(
        Harmonic(index=l, frequency=base * l, amplitude=complex(spectrum[l % steps_per_period]))
        for l in range(-n_harmonics, n_harmonics + 1)
    )
    # Parseval: the dropped harmonics' weight, a sum of squares and so >= 0
    dropped = spectrum[n_harmonics + 1 : steps_per_period - n_harmonics]
    return CouplingHarmonics(
        period=period,
        harmonics=harmonics,
        mean_square=float(np.mean(window**2)),
        tail_energy=float(np.sum(np.abs(dropped) ** 2)),
    )


def fourier_condition_report(
    linearity: PhaseLinearity,
    harmonics: CouplingHarmonics,
    threshold: float = DEFAULT_THRESHOLD,
    resonance_tol: Optional[float] = None,
) -> FourierConditionReport:
    """Evaluate |Gamma_l / (Omega_0 + Omega_l)| for every kept harmonic.

    Requires a linear phase (:class:`PhaseNotLinear` otherwise). A
    harmonic with non-negligible amplitude whose shifted frequency falls
    below ``resonance_tol`` is flagged resonant and fails the condition
    outright; negligible amplitudes at resonance are skipped.
    """
    if not linearity.is_linear:
        raise PhaseNotLinear(
            f"phase of pair {linearity.pair} deviates from a line by "
            f"{linearity.max_residual:.3e}; the harmonic bound does not apply"
        )
    freq_scale = max(
        abs(linearity.omega0),
        max((abs(h.frequency) for h in harmonics.harmonics), default=0.0),
        1e-30,
    )
    if resonance_tol is None:
        resonance_tol = 1e-9 * freq_scale
    amp_scale = max((abs(h.amplitude) for h in harmonics.harmonics), default=0.0)
    negligible = 1e-12 * max(1.0, amp_scale)

    ratios, resonant = [], []
    for h in harmonics.harmonics:
        denom = linearity.omega0 + h.frequency
        if abs(denom) < resonance_tol:
            if abs(h.amplitude) > negligible:
                resonant.append(h.index)
                ratios.append(np.inf)
            else:
                ratios.append(0.0)
        else:
            ratios.append(abs(h.amplitude) / abs(denom))
    max_ratio = max(ratios, default=0.0)
    passed = bool(not resonant and max_ratio < threshold)
    return FourierConditionReport(
        pair=linearity.pair,
        omega0=linearity.omega0,
        ratios=tuple(float(r) for r in ratios),
        max_ratio=float(max_ratio),
        rabi_ratio=float(2.0 * max_ratio),
        resonant_indices=tuple(resonant),
        threshold=threshold,
        passed=passed,
    )


def conjugated_coupling_closed_form(
    params: ConjugatedParams, taus: np.ndarray
) -> np.ndarray:
    """Closed-form coupling matrix of the conjugated model.

    Entry (n, m) is exp(i [(E_n - V_nn) - (E_m - V_mm)] tau) <E_n|V|E_m>
    with levels ordered by ascending energy, matching the tracked frame.
    The phase of each |E_n> follows the frame's convention at tau = 0:
    its largest-modulus entry is real and positive (the identity basis
    already is).
    """
    energies = np.asarray(params.energies, dtype=float)
    order = np.argsort(energies, kind="stable")
    basis = (
        np.eye(energies.size, dtype=complex)
        if params.eigenbasis is None
        else np.asarray(params.eigenbasis, dtype=complex)
    )
    basis = phase_convention(basis[:, order])
    v_frame = basis.conj().T @ np.asarray(params.generator, dtype=complex) @ basis
    rates = energies[order] - np.real(np.diagonal(v_frame))
    taus = np.asarray(taus, dtype=float)
    phase = np.exp(1j * np.multiply.outer(taus, rates[:, None] - rates[None, :]))
    closed = phase * v_frame[None, :, :]
    d = energies.size
    closed[:, np.arange(d), np.arange(d)] = 0.0
    return closed


def verify_conjugated_coupling(params: ConjugatedParams, frame: InvariantFrame) -> float:
    """Max entrywise error of the assembled coupling vs the closed form."""
    closed = conjugated_coupling_closed_form(params, frame.grid.samples)
    return float(np.abs(frame.coupling - closed).max())
