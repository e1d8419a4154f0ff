"""Time-dependent Hamiltonian models in dimensionless form.

A model is one vectorized evaluator: a 1-D float array of n
dimensionless times maps to the (n, d, d) Hermitian samples h(tau_k).
An analytic dh/dtau, when the model has one, follows the same contract.
The library samples through :func:`sample_hamiltonian` and
:func:`sample_derivative`, which convert the times once. A raw,
dimensionful Hamiltonian is made dimensionless inside its own
``evaluate_many``: energies in units of the initial level's energy and
time rescaled by its inverse; everything downstream works with the
dimensionless h.

Built-in models:

* :func:`build_spin_half` - spin-1/2 in a rotating field (variant A,
  h_a(0) conjugated by exp(-i omega tau sigma_z / 2)) and its dual
  -U_a^dag h_a U_a (variant B); both are conjugated models in closed
  form.
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

from ._linalg import STEP_CHUNK, distinct_rows, hermitize, max_hermiticity_defect, phase_convention

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
)

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class HamiltonianModel:
    """Evaluator contract for a dimensionless Hermitian h(tau).

    ``evaluate_many`` maps a 1-D float array of n times to the (n, d, d)
    complex Hermitian samples. ``derivative_many`` is the analytic
    dh/dtau in the same shape, when available. ``period`` is the
    fundamental period of h when the drive is periodic.
    ``analytic_frame`` maps the same times to the closed-form
    instantaneous eigensystem of ``evaluate_many``, for models that have
    one: eigenvalues (n, d), levels ordered by ascending eigenvalue at
    tau = 0, and unit eigenvectors as columns (n, d, d). The
    eigenvectors are a new array the solver may overwrite; the
    eigenvalues may be read-only, as the conjugated models' are: one row
    of constant energies broadcast to (n, d). Both gauges of
    :func:`adiorbit.spectrum.solve_quasistationary` take their frame
    from it in place of an eigensolver, and verify it against h sample
    by sample.
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


def sample_frame(model: HamiltonianModel, taus) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Evaluate the closed-form eigenframe, or None if unavailable.

    Returns eigenvalues (n, d) and eigenvectors (n, d, d), checked like
    :func:`sample_hamiltonian`; whether they are an eigensystem of h is
    left to the caller, which holds the samples of h.
    """
    if model.analytic_frame is None:
        return None
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    evals, evecs = model.analytic_frame(taus)
    evals = _checked(model, taus, np.asarray(evals, dtype=float), "eigenvalue", rank=1)
    evecs = _checked(model, taus, np.asarray(evecs, dtype=complex), "eigenvector")
    return evals, evecs


def _checked(
    model: HamiltonianModel, taus: np.ndarray, samples, what: str, rank: int = 2
) -> np.ndarray:
    expected = (taus.size,) + (model.dimension,) * rank
    shape = getattr(samples, "shape", None)
    if shape != expected:
        raise InvalidSamples(
            f"model {model.name!r} returned {what} samples of shape {shape} "
            f"for {taus.size} times; expected {expected}"
        )
    # a broadcast row (constant eigenvalues) is checked once, as sample 0
    finite = np.isfinite(distinct_rows(samples))
    if not finite.all():
        k = int(np.argmin(finite.reshape(len(finite), -1).all(axis=1)))
        raise InvalidSamples(f"model {model.name!r}: {what} is not finite at tau={taus[k]:.6g}")
    return samples


def build_spin_half(params: SpinHalfParams) -> HamiltonianModel:
    """Build the rotating-field spin-1/2 model; both variants are
    conjugated models (:func:`build_conjugated_model`) in closed form.

    Variant A is the standard rotating field with constant splitting
    ``omega0`` and cone angle ``theta``: h_a(0) = -(omega0 / 2)
    (sin(theta) sigma_x + cos(theta) sigma_z) rotates about z at rate
    ``omega``, h_a(tau) = exp(-i omega tau sigma_z / 2) h_a(0)
    exp(+i omega tau sigma_z / 2), so H = h_a(0) and V = (omega / 2)
    sigma_z. Variant B is its conjugated dual, h_b = -U_a(tau)^dag
    h_a(tau) U_a(tau) (Marzlin & Sanders, PRL 93, 160408, 2004): its
    evolution operator is U_a(tau) = exp(-i omega tau sigma_z / 2)
    exp(-i tau K) with K = h_a(0) - (omega / 2) sigma_z (Rabi's rotating
    frame), so h_b(tau) = -exp(i tau K) h_a(0) exp(-i tau K), with
    H = -h_a(0) and V = -K. Both have an analytic derivative and a frame
    phased by the tau = 0 convention.
    """
    w0, w, th = params.omega0, params.omega, params.theta
    sin_t, cos_t = np.sin(th), np.cos(th)
    h0 = -(w0 / 2.0) * np.array([[cos_t, sin_t], [sin_t, -cos_t]], dtype=complex)
    rotation = (w / 2.0) * SIGMA_Z
    if params.variant is SpinVariant.A:
        h, v = h0, rotation
        period = (2.0 * np.pi / abs(w)) if w != 0.0 else None
    else:
        h, v, period = -h0, -(h0 - rotation), None  # V = -K
    energies, basis = np.linalg.eigh(h)
    model = build_conjugated_model(
        ConjugatedParams(energies=energies, generator=v, eigenbasis=basis)
    )
    return replace(model, name=f"spin_half_{params.variant.value}", period=period)


def build_conjugated_model(params: ConjugatedParams) -> HamiltonianModel:
    """Build h(tau) = exp(-i tau V) H exp(+i tau V) for constant H, V.

    The exponential is exact (eigendecomposition V = W diag(lambda) W^H
    of the Hermitian generator), the derivative is the analytic
    -i[V, h], and the closed-form eigenframe exp(-i tau V) |E_n> is
    attached, so the spectrum needs no eigensolver; each |E_n> is phased
    like the continuity gauge at tau = 0 (largest-modulus entry real and
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
        # constant energies: one row, broadcast read-only with row stride 0
        evals = np.broadcast_to(energies[order], (taus.shape[0], d))
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
    if d < 2:
        raise ParseError(f"{origin}: dimension must be at least 2 (a two-level model)")

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
