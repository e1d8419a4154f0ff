"""Dense-matrix helpers shared by the model builders and the propagators.

All generators here are Hermitian and small (d <= 64). Step
exponentials are exactly unitary up to roundoff: for d = 2 they use the
closed SU(2) form, for larger d an eigendecomposition. Sequences of
steps are multiplied with a blocked two-level scan (Blelloch, "Prefix
sums and their applications", 1990), so no Python loop runs once per
step.
"""

import numpy as np

# Steps per block of the two-level scan: the in-block prefix loops over
# this many positions, the chaining loop over n / SCAN_BLOCK blocks.
SCAN_BLOCK = 256


def hermitize(stack: np.ndarray) -> np.ndarray:
    """Average a stack of matrices with its conjugate transpose."""
    return 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))


def max_hermiticity_defect(mat: np.ndarray) -> float:
    return float(np.abs(mat - np.conj(np.swapaxes(mat, -1, -2))).max())


def unitary_steps(generators: np.ndarray, dtau: float, sign: int) -> np.ndarray:
    """exp(sign * 1j * dtau * G) for a stack of Hermitian generators G.

    Shape (n, d, d) in, (n, d, d) out. Like eigh, only the real diagonal
    and the lower triangle of each G are read.
    """
    s = sign * dtau
    if generators.shape[-1] == 2:
        return _su2_steps(generators, s)
    evals, evecs = np.linalg.eigh(generators)
    phases = np.exp(1j * s * evals)
    return np.einsum("nij,nj,nkj->nik", evecs, phases, evecs.conj())


def _su2_steps(generators: np.ndarray, s: float) -> np.ndarray:
    """exp(i s G) = e^{isa} (cos(s|b|) + i s sinc(s|b|/pi) b.sigma) for
    G = a + b.sigma; sinc keeps b = 0 exact."""
    g00, g11 = generators[..., 0, 0].real, generators[..., 1, 1].real
    bz = 0.5 * (g00 - g11)
    lower = generators[..., 1, 0]  # b_x + i b_y
    b_norm = np.sqrt(bz * bz + lower.real**2 + lower.imag**2)
    phase = np.exp(0.5j * s * (g00 + g11))
    cos_part = phase * np.cos(s * b_norm)
    sin_part = 1j * s * phase * np.sinc(s * b_norm / np.pi)
    out = np.empty(generators.shape, dtype=complex)
    out[..., 0, 0] = cos_part + sin_part * bz
    out[..., 1, 1] = cos_part - sin_part * bz
    out[..., 1, 0] = sin_part * lower
    out[..., 0, 1] = sin_part * lower.conj()
    return out


def scan_states(steps: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Apply a sequence of step matrices to v0, keeping every intermediate.

    Returns shape (n_steps + 1, d) with row 0 equal to v0.
    """
    return scan_operators(steps) @ v0


def scan_operators(steps: np.ndarray) -> np.ndarray:
    """Ordered products U_k = steps[k-1] @ ... @ steps[0], with U_0 = 1.

    Later steps multiply from the left, i.e. time ordering.
    """
    n, d, _ = steps.shape
    block = min(SCAN_BLOCK, max(n, 1))
    n_blocks = -(-n // block)
    # one buffer: U_0, then the steps padded with identities to whole blocks
    buf = np.empty((1 + n_blocks * block, d, d), dtype=complex)
    buf[0] = np.eye(d)
    buf[1 : 1 + n] = steps
    buf[1 + n :] = np.eye(d)
    blocks = buf[1:].reshape(n_blocks, block, d, d)
    # in-block prefixes, vectorized across blocks
    for j in range(1, block):
        np.matmul(blocks[:, j], blocks[:, j - 1], out=blocks[:, j])
    # after its update, the last entry of block b - 1 is U at that block's end
    for b in range(1, n_blocks):
        np.matmul(blocks[b], blocks[b - 1, -1], out=blocks[b])
    return buf[: n + 1]


def central_difference(stack: np.ndarray, dtau: float) -> np.ndarray:
    """d/dtau of a sampled quantity along axis 0, second order.

    Central differences in the interior, one-sided three-point stencils
    at both endpoints.
    """
    if stack.shape[0] < 3:
        raise ValueError("need at least 3 samples for second-order differences")
    out = np.empty_like(stack)
    out[1:-1] = (stack[2:] - stack[:-2]) / (2.0 * dtau)
    out[0] = (-3.0 * stack[0] + 4.0 * stack[1] - stack[2]) / (2.0 * dtau)
    out[-1] = (3.0 * stack[-1] - 4.0 * stack[-2] + stack[-3]) / (2.0 * dtau)
    return out
