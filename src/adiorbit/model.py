"""Time-dependent Hamiltonian models in dimensionless form.

A model is one vectorized evaluator: a 1-D float array of n
dimensionless times maps to the (n, d, d) Hermitian samples h(tau_k).
An analytic dh/dtau, when the model has one, follows the same contract.
The library samples through :func:`sample_hamiltonian` and
:func:`sample_derivative`, which convert the times once. Raw,
dimensionful Hamiltonians enter only through :func:`normalize`, which
wraps a scalar raw evaluator into that contract, rescaling energies by
the initial energy of the chosen level and time accordingly; everything
downstream works with the dimensionless h.

Built-in models:

* :func:`build_spin_half` - spin-1/2 in a rotating field (variant A) and
  its conjugated dual -U_a^dag h_a U_a (variant B), which is itself a
  conjugated model in closed form.
* :func:`build_conjugated_model` - a constant Hamiltonian conjugated by
  the one-parameter unitary group of a second constant Hermitian
  generator; its coupling matrix has a closed form and exactly linear
  phases.
* :func:`load_tabulated_model` - Hermitian samples from a text file,
  linearly interpolated.

Models are immutable and their evaluators pure, so instances are safe to
share across threads.
"""

import enum
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from ._linalg import STEP_CHUNK, hermitize, max_hermiticity_defect, phase_convention

# Unused here; perfbench/spans.py rebinds model.unitary_steps when it
# traces a run. Drop it once the benchmark wraps only names that exist.
from ._linalg import unitary_steps  # noqa: F401
from .errors import (
    InvalidSamples,
    NonHermitianInput,
    NonHermitianSample,
    NonMonotoneTime,
    OutsideTabulatedRange,
    ParseError,
    ZeroHamiltonian,
)
from .grid import TimeGrid

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class HamiltonianModel:
    """Evaluator contract for a dimensionless Hermitian h(tau).

    ``evaluate_many`` maps a 1-D float array of n times to the (n, d, d)
    complex Hermitian samples. ``derivative_many`` is the analytic
    dh/dtau in the same shape, when available. ``period`` is the
    fundamental period of h when the drive is periodic.
    ``analytic_frame`` returns the closed-form instantaneous eigensystem
    (levels ordered by ascending eigenvalue at tau = 0) for models that
    have one.
    """

    dimension: int
    evaluate_many: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    derivative_many: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False
    )
    name: str = ""
    period: Optional[float] = None
    analytic_frame: Optional[Callable[[np.ndarray], tuple]] = field(
        default=None, repr=False
    )


@dataclass(frozen=True)
class NormalizationRecord:
    """How a raw Hamiltonian was made dimensionless.

    ``reference_energy`` is the initial energy of ``initial_level`` in
    the raw units (or the spectral norm fallback when that energy
    vanishes); ``time_scale`` converts dimensionless tau back to raw
    time, t = time_scale * tau.
    """

    reference_energy: float
    time_scale: float
    initial_level: int


class SpinVariant(enum.Enum):
    A = "a"
    B = "b"


@dataclass(frozen=True)
class SpinHalfParams:
    """Rotating-field spin-1/2 parameters (all dimensionless).

    ``omega0`` is the level splitting, ``omega`` the field rotation
    rate, ``theta`` the cone angle between rotation axis and field.
    """

    omega0: float
    omega: float
    theta: float
    variant: SpinVariant = SpinVariant.A

    def __post_init__(self):
        if not self.omega0 > 0:
            raise ValueError("omega0 must be positive")
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError("theta must lie in [0, pi]")


@dataclass(frozen=True)
class ConjugatedParams:
    """Constant Hamiltonian conjugated by exp(-i tau V).

    ``energies`` are the eigenvalues of the constant part, ``eigenbasis``
    its eigenvectors as columns (identity by default), and ``generator``
    the Hermitian V driving the conjugation.
    """

    energies: Sequence[float]
    generator: np.ndarray
    eigenbasis: Optional[np.ndarray] = None


def _require_hermitian(mat: np.ndarray, what: str):
    defect = max_hermiticity_defect(mat)
    scale = max(1.0, float(np.abs(mat).max()))
    if defect > HERMITICITY_TOL * scale:
        raise NonHermitianInput(f"{what} is not Hermitian (defect {defect:.3e})")


def sample_hamiltonian(model: HamiltonianModel, taus) -> np.ndarray:
    """Evaluate h on a time or an array of times, shape (n, d, d).

    Raises :class:`InvalidSamples` when the evaluator returns another
    shape or any non-finite entry.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    return _checked(model, taus, model.evaluate_many(taus), "h")


def sample_derivative(model: HamiltonianModel, taus) -> Optional[np.ndarray]:
    """Evaluate dh/dtau like :func:`sample_hamiltonian`, or None if unavailable."""
    if model.derivative_many is None:
        return None
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    return _checked(model, taus, model.derivative_many(taus), "dh/dtau")


def _checked(model: HamiltonianModel, taus: np.ndarray, samples, what: str) -> np.ndarray:
    expected = (taus.size, model.dimension, model.dimension)
    shape = getattr(samples, "shape", None)
    if shape != expected:
        raise InvalidSamples(
            f"model {model.name!r} returned {what} samples of shape {shape} "
            f"for {taus.size} times; expected {expected}"
        )
    finite = np.isfinite(samples)
    if not finite.all():
        k = int(np.argmin(finite.all(axis=(1, 2))))
        raise InvalidSamples(f"model {model.name!r}: {what} is not finite at tau={taus[k]:.6g}")
    return samples


def normalize(
    raw_evaluator: Callable[[float], np.ndarray],
    initial_level: int,
    t_probe: float = 0.0,
) -> tuple[HamiltonianModel, NormalizationRecord]:
    """Make a raw Hamiltonian dimensionless.

    The reference energy is the ``initial_level``-th eigenvalue
    (ascending) of the raw Hamiltonian at ``t_probe``. When that
    eigenvalue vanishes relative to the spectral norm, the spectral norm
    itself is used so that h stays order one. Returns the dimensionless
    model together with the record needed to undo the scaling.
    """
    h0 = np.asarray(raw_evaluator(t_probe), dtype=complex)
    if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
        raise ValueError("raw evaluator must produce a square matrix")
    d = h0.shape[0]
    if not 0 <= initial_level < d:
        raise ValueError(f"initial_level {initial_level} out of range for dimension {d}")
    _require_hermitian(h0, "raw H(t_probe)")
    evals = np.linalg.eigvalsh(h0)
    spectral_norm = float(np.abs(evals).max())
    if spectral_norm == 0.0:
        raise ZeroHamiltonian("raw Hamiltonian vanishes at the probe time")
    reference = float(evals[initial_level])
    if abs(reference) < 1e-12 * spectral_norm:
        reference = spectral_norm
    time_scale = 1.0 / reference

    def evaluate_many(taus: np.ndarray) -> np.ndarray:
        raw = [np.asarray(raw_evaluator(tau * time_scale), dtype=complex) for tau in taus]
        return np.array(raw) / reference

    model = HamiltonianModel(dimension=d, evaluate_many=evaluate_many, name="normalized")
    record = NormalizationRecord(
        reference_energy=reference, time_scale=time_scale, initial_level=initial_level
    )
    return model, record


def _spin_a_model(params: SpinHalfParams) -> HamiltonianModel:
    w0, w, th = params.omega0, params.omega, params.theta
    sin_t, cos_t = np.sin(th), np.cos(th)

    def evaluate_many(taus: np.ndarray) -> np.ndarray:
        # -(w0/2) (x sigma_x + y sigma_y + z sigma_z), filled entry by entry
        x, y = sin_t * np.cos(w * taus), sin_t * np.sin(w * taus)
        z = np.full(taus.shape, cos_t)
        h = np.empty(taus.shape + (2, 2), dtype=complex)
        for i, j in np.ndindex(2, 2):
            h[:, i, j] = -(w0 / 2.0) * (
                x * SIGMA_X[i, j] + y * SIGMA_Y[i, j] + z * SIGMA_Z[i, j]
            )
        return h

    def derivative_many(taus: np.ndarray) -> np.ndarray:
        return -(w0 * w * sin_t / 2.0) * (
            np.multiply.outer(-np.sin(w * taus), SIGMA_X)
            + np.multiply.outer(np.cos(w * taus), SIGMA_Y)
        )

    def analytic_frame(taus: np.ndarray):
        # level 0 is field-aligned with energy -omega0/2
        n = taus.shape[0]
        c, s = np.cos(th / 2.0), np.sin(th / 2.0)
        ph = np.exp(1j * w * taus)
        vecs = np.empty((n, 2, 2), dtype=complex)
        vecs[:, 0, 0] = c
        vecs[:, 1, 0] = ph * s
        vecs[:, 0, 1] = -np.conj(ph) * s
        vecs[:, 1, 1] = c
        evals = np.empty((n, 2))
        evals[:, 0] = -w0 / 2.0
        evals[:, 1] = w0 / 2.0
        return evals, vecs

    return HamiltonianModel(
        dimension=2,
        evaluate_many=evaluate_many,
        derivative_many=derivative_many,
        name="spin_half_a",
        period=(2.0 * np.pi / abs(w)) if w != 0.0 else None,
        analytic_frame=analytic_frame,
    )


def build_spin_half(
    params: SpinHalfParams, grid: Optional[TimeGrid] = None
) -> HamiltonianModel:
    """Build the rotating-field spin-1/2 model.

    Variant A is the standard rotating field with constant splitting
    ``omega0`` and cone angle ``theta``. Variant B is its conjugated
    dual, h_b = -U_a(tau)^dag h_a(tau) U_a(tau) (Marzlin & Sanders, PRL
    93, 160408, 2004), in closed form: h_a rotates about z at rate
    ``omega``, so U_a(tau) = exp(-i omega tau sigma_z / 2) exp(-i tau K)
    with K = h_a(0) - (omega / 2) sigma_z (Rabi's rotating frame), and
    h_b(tau) = -exp(i tau K) h_a(0) exp(-i tau K). That is
    :func:`build_conjugated_model` with H = -h_a(0) and V = -K, so
    variant B has an analytic derivative and frame too. ``grid`` is
    unused and accepted for callers that still pass one.
    """
    model_a = _spin_a_model(params)
    if params.variant is SpinVariant.A:
        return model_a
    h0 = model_a.evaluate_many(np.zeros(1))[0]
    energies, basis = np.linalg.eigh(-h0)
    k = h0 - (params.omega / 2.0) * SIGMA_Z
    model_b = build_conjugated_model(
        ConjugatedParams(energies=energies, generator=-k, eigenbasis=basis)
    )
    return replace(model_b, name="spin_half_b")


def build_conjugated_model(params: ConjugatedParams) -> HamiltonianModel:
    """Build h(tau) = exp(-i tau V) H exp(+i tau V) for constant H, V.

    The exponential is exact (eigendecomposition V = W diag(lambda) W^H
    of the Hermitian generator), the derivative is the analytic
    -i[V, h], and the closed-form eigenframe exp(-i tau V) |E_n> is
    attached for use with the analytic gauge, each |E_n> phased like the
    continuity gauge at tau = 0 (largest-modulus entry real and
    positive). With p = exp(-i tau lambda), h is W (p p^H o C) W^H for
    C = W^H H W, dh/dtau the same with C_jl scaled by
    -i (lambda_j - lambda_l), and the frame W (p o W^H |E_n>); all three
    are sampled by :func:`_factorized_sampler`.
    """
    energies = np.asarray(params.energies, dtype=float)
    if energies.ndim != 1 or energies.size < 2:
        raise ValueError("energies must be a list of at least two reals")
    if not np.all(np.isfinite(energies)):
        raise ValueError("energies must be finite")
    d = energies.size
    v = np.asarray(params.generator, dtype=complex)
    if v.shape != (d, d):
        raise ValueError(f"generator must be {d}x{d}")
    _require_hermitian(v, "generator V")
    if params.eigenbasis is None:
        basis = np.eye(d, dtype=complex)
    else:
        basis = np.asarray(params.eigenbasis, dtype=complex)
        if basis.shape != (d, d):
            raise ValueError(f"eigenbasis must be {d}x{d}")
        if np.abs(basis.conj().T @ basis - np.eye(d)).max() > 1e-10:
            raise ValueError("eigenbasis must be unitary")

    h_const = basis @ np.diag(energies).astype(complex) @ basis.conj().T
    h_const = hermitize(h_const)
    v_evals, v_evecs = np.linalg.eigh(v)
    order = np.argsort(energies, kind="stable")
    # the continuity gauge's convention at tau = 0, where the frame is the basis
    frame_basis = phase_convention(basis[:, order])

    inner = v_evecs.conj().T @ h_const @ v_evecs
    # (W^H H W)_jl -> d/dtau of its phase e^{-i tau (lambda_j - lambda_l)}
    inner_dot = -1j * np.subtract.outer(v_evals, v_evals) * inner

    def two_sided(c: np.ndarray) -> np.ndarray:
        # row (j, l), column (i, m): W_ij C_jl conj(W_ml)
        return np.einsum("ij,jl,ml->jlim", v_evecs, c, v_evecs.conj()).reshape(d * d, d * d)

    # row j, column (i, n): W_ij (W^H B)_jn
    one_sided = np.einsum("ij,jn->jin", v_evecs, v_evecs.conj().T @ frame_basis)
    frame_vectors = _factorized_sampler(v_evals, one_sided.reshape(d, d * d))

    def analytic_frame(taus: np.ndarray):
        evals = np.broadcast_to(energies[order], (taus.shape[0], d)).copy()
        return evals, frame_vectors(taus)

    return HamiltonianModel(
        dimension=d,
        evaluate_many=_factorized_sampler(v_evals, two_sided(inner)),
        derivative_many=_factorized_sampler(v_evals, two_sided(inner_dot)),
        name="conjugated",
        analytic_frame=analytic_frame,
    )


def _factorized_sampler(v_evals: np.ndarray, kernel: np.ndarray):
    """The sampler taus -> (n, d, d) of a conjugated model.

    With p_k = exp(-i tau_k lambda), row k of the output, flattened, is
    f_k @ ``kernel``, where f_k is p_k p_k^H flattened for a (d^2, d^2)
    kernel and p_k for a (d, d^2) one. So each quantity is one GEMM per
    STEP_CHUNK rows, written into the output; the only temporary is one
    chunk of f.
    """
    d = v_evals.size
    pairs = kernel.shape[0] == d * d

    def sample(taus: np.ndarray) -> np.ndarray:
        out = np.empty((taus.shape[0], d, d), dtype=complex)
        rows = out.reshape(taus.shape[0], d * d)
        for start in range(0, taus.shape[0], STEP_CHUNK):
            chunk = slice(start, start + STEP_CHUNK)
            f = np.exp(-1j * np.multiply.outer(taus[chunk], v_evals))
            if pairs:
                f = (f[:, :, None] * f.conj()[:, None, :]).reshape(-1, d * d)
            np.matmul(f, kernel, out=rows[chunk])
        return out

    return sample


def _parse_tabulated(text: str, origin: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{origin}: empty file")
    header = lines[0].replace(" ", "")
    if not header.startswith("dim="):
        raise ParseError(f"{origin}: first line must be 'dim=<d>'")
    try:
        d = int(header[4:])
    except ValueError as exc:
        raise ParseError(f"{origin}: bad dimension {header[4:]!r}") from exc
    if d < 1:
        raise ParseError(f"{origin}: dimension must be positive")

    n_upper = d * (d + 1) // 2
    n_cols = 1 + 2 * n_upper
    taus, mats = [], []
    for row, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != n_cols:
            raise ParseError(
                f"{origin}: data row {row} has {len(parts)} fields, expected {n_cols}"
            )
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"{origin}: data row {row} is not numeric") from exc
        if not all(math.isfinite(x) for x in nums):
            raise ParseError(f"{origin}: data row {row} has a non-finite entry")
        tau = nums[0]
        mat = np.zeros((d, d), dtype=complex)
        pos = 1
        for i in range(d):
            for j in range(i, d):
                val = nums[pos] + 1j * nums[pos + 1]
                pos += 2
                mat[i, j] = val
                mat[j, i] = np.conj(val)
        scale = max(1.0, float(np.abs(mat).max()))
        imag_diag = float(np.abs(np.imag(np.diagonal(mat))).max())
        if imag_diag > HERMITICITY_TOL * scale:
            raise NonHermitianSample(row, f"diagonal imaginary part {imag_diag:.3e}")
        taus.append(tau)
        mats.append(mat)

    if len(taus) < 2:
        raise ParseError(f"{origin}: need at least two samples")
    taus = np.asarray(taus)
    if not np.all(np.diff(taus) > 0):
        raise NonMonotoneTime(f"{origin}: sample times must be strictly increasing")
    return taus, np.asarray(mats)


def load_tabulated_model(path) -> HamiltonianModel:
    """Load Hermitian samples from a text file and interpolate linearly.

    Format: a header line ``dim=<d>`` followed by one row per sample,
    ``tau re(h00) im(h00) re(h01) im(h01) ...`` listing the upper
    triangle (including the diagonal) row major. The lower triangle is
    reconstructed by Hermiticity and each sample is validated. Times
    must be strictly increasing; evaluation outside the tabulated range
    raises :class:`OutsideTabulatedRange`.
    """
    path = Path(path)
    taus, mats = _parse_tabulated(path.read_text(), str(path))
    lo, hi = float(taus[0]), float(taus[-1])
    d = mats.shape[1]

    def evaluate_many(ts: np.ndarray) -> np.ndarray:
        if ts.min() < lo - 1e-12 or ts.max() > hi + 1e-12:
            raise OutsideTabulatedRange(
                f"{path}: tau in [{ts.min():g}, {ts.max():g}] is outside the "
                f"tabulated range [{lo:g}, {hi:g}]"
            )
        ts = np.clip(ts, lo, hi)
        idx = np.clip(np.searchsorted(taus, ts, side="right") - 1, 0, len(taus) - 2)
        w = (ts - taus[idx]) / (taus[idx + 1] - taus[idx])
        return mats[idx] * (1.0 - w)[:, None, None] + mats[idx + 1] * w[:, None, None]

    return HamiltonianModel(dimension=d, evaluate_many=evaluate_many, name=path.stem)
