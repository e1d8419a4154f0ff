"""Dense-matrix helpers shared by the model builders and the propagators.

All generators here are Hermitian and small (d <= 64). Step
exponentials are unitary up to roundoff: for d = 2 they use the closed
SU(2) form, for larger d a Taylor polynomial with scaling and squaring
(Moler & Van Loan, SIAM Rev. 45, 2003; Al-Mohy & Higham, SIAM J. Matrix
Anal. Appl. 31, 2009), evaluated as batched matrix products. Steps are
computed STEP_CHUNK generators at a time into one output array, so
temporaries stay bounded. Sequences of steps are multiplied with a
blocked two-level scan (Blelloch, "Prefix sums and their applications",
1990) that runs over chunks of whole blocks and carries the product
across chunks, so no Python loop runs once per step and no caller of
:func:`scan_states` holds all n + 1 operators.
"""

import math

import numpy as np

from .errors import NonFiniteStep

# Steps per block of the two-level scan: the in-block prefix loops over
# this many positions, the chaining loop over n / SCAN_BLOCK blocks.
SCAN_BLOCK = 256
# Blocks per scan chunk; only one chunk of operators is held at a time.
SCAN_CHUNK_BLOCKS = 256
# Generators exponentiated per pass of unitary_steps.
STEP_CHUNK = 4096
# Taylor steps: 1-norm after scaling, and the truncation bound of the
# first dropped term, (theta / 2^j)^(m+1) / (m+1)!.
TAYLOR_THETA = 0.5
TAYLOR_TOL = 1e-17


def hermitize(stack: np.ndarray) -> np.ndarray:
    """Average a stack of matrices with its conjugate transpose."""
    return 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))


def max_hermiticity_defect(mat: np.ndarray) -> float:
    return float(np.abs(mat - np.conj(np.swapaxes(mat, -1, -2))).max())


def unitary_steps(generators: np.ndarray, dtau: float, sign: int) -> np.ndarray:
    """exp(sign * 1j * dtau * G) for a stack of Hermitian generators G.

    Shape (n, d, d) in, (n, d, d) out. Like eigh, only the real diagonal
    and the lower triangle of each G are read. Raises
    :class:`NonFiniteStep` when a d > 2 generator is not finite.
    """
    s = sign * dtau
    kernel = _su2_steps if generators.shape[-1] == 2 else _taylor_steps
    out = np.empty(generators.shape, dtype=complex)
    for start in range(0, generators.shape[0], STEP_CHUNK):
        chunk = slice(start, start + STEP_CHUNK)
        kernel(generators[chunk], s, out[chunk])
    return out


def _su2_steps(generators: np.ndarray, s: float, out: np.ndarray):
    """exp(i s G) = e^{isa} (cos(s|b|) + i s sinc(s|b|/pi) b.sigma) for
    G = a + b.sigma; sinc keeps b = 0 exact."""
    g00, g11 = generators[..., 0, 0].real, generators[..., 1, 1].real
    bz = 0.5 * (g00 - g11)
    lower = generators[..., 1, 0]  # b_x + i b_y
    b_norm = np.sqrt(bz * bz + lower.real**2 + lower.imag**2)
    phase = np.exp(0.5j * s * (g00 + g11))
    cos_part = phase * np.cos(s * b_norm)
    sin_part = 1j * s * phase * np.sinc(s * b_norm / np.pi)
    out[..., 0, 0] = cos_part + sin_part * bz
    out[..., 1, 1] = cos_part - sin_part * bz
    out[..., 1, 0] = sin_part * lower
    out[..., 0, 1] = sin_part * lower.conj()


def _taylor_steps(generators: np.ndarray, s: float, out: np.ndarray):
    """exp(A) for A = i s G by a degree-m Taylor polynomial of A / 2^j,
    then j squarings. j and the smallest m >= 1 are chosen from the
    largest 1-norm in the stack so that the first dropped term is below
    TAYLOR_TOL. ``out`` doubles as one of the two product buffers."""
    a = np.tril(generators, -1).astype(complex, copy=False)
    np.conj(np.swapaxes(a, -1, -2), out=out)
    a += out
    for i in range(a.shape[-1]):
        a[:, i, i] = generators[:, i, i].real
    theta = abs(s) * float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(theta):
        raise NonFiniteStep(f"step generator has a non-finite 1-norm ({theta})")
    a *= 1j * s
    squarings = math.ceil(math.log2(theta / TAYLOR_THETA)) if theta > TAYLOR_THETA else 0
    a /= 2.0**squarings
    scaled = theta / 2.0**squarings
    degree, term = 1, scaled**2 / 2.0
    while term > TAYLOR_TOL:
        degree += 1
        term *= scaled / (degree + 1)
    # Horner: p = 1 + a/1 (1 + a/2 (... (1 + a/m)))
    p, q = out, np.empty_like(out)
    np.divide(a, degree, out=p)
    _add_identity(p)
    for k in range(degree - 1, 0, -1):
        np.matmul(a, p, out=q)
        q /= k
        _add_identity(q)
        p, q = q, p
    for _ in range(squarings):
        np.matmul(p, p, out=q)
        p, q = q, p
    if p is not out:
        out[...] = p


def _add_identity(stack: np.ndarray):
    # one strided column per diagonal entry: unlike a 2-D diagonal view,
    # this needs no ufunc buffer
    for i in range(stack.shape[-1]):
        stack[:, i, i] += 1.0


def scan_states(steps: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Apply a sequence of step matrices to v0, keeping every intermediate.

    Returns shape (n_steps + 1, d) with row 0 equal to v0. Equal, bit for
    bit, to ``scan_operators(steps) @ v0``, with one chunk of operators
    held at a time.
    """
    out = np.empty((steps.shape[0] + 1, steps.shape[-1]), dtype=complex)
    for start, ops in _scan_chunks(steps):
        np.matmul(ops, v0, out=out[start : start + len(ops)])
    return out


def scan_operators(steps: np.ndarray) -> np.ndarray:
    """Ordered products U_k = steps[k-1] @ ... @ steps[0], with U_0 = 1.

    Later steps multiply from the left, i.e. time ordering.
    """
    n, d, _ = steps.shape
    out = np.empty((n + 1, d, d), dtype=complex)
    for start, ops in _scan_chunks(steps):
        out[start : start + len(ops)] = ops
    return out


def _scan_chunks(steps: np.ndarray):
    """Yield (k, U_k ... U_{k+len-1}) over consecutive slices of U_0..U_n.

    Each chunk of whole SCAN_BLOCK-step blocks is copied into one reused
    buffer (the last padded with identities), prefix products inside its
    blocks are computed in place and vectorized across blocks, then each
    block is multiplied by the last product before it. The yielded view
    is overwritten by the next chunk.
    """
    n, d, _ = steps.shape
    block = min(SCAN_BLOCK, max(n, 1))
    chunk = block * SCAN_CHUNK_BLOCKS
    eye = np.eye(d)
    # U_0, then up to one chunk of steps
    buf = np.empty((1 + min(-(-n // block), SCAN_CHUNK_BLOCKS) * block, d, d), dtype=complex)
    buf[0] = eye
    carry = None
    for start in range(0, max(n, 1), chunk):
        size = min(chunk, n - start)
        n_blocks = -(-size // block)
        buf[1 : 1 + size] = steps[start : start + size]
        buf[1 + size : 1 + n_blocks * block] = eye
        blocks = buf[1 : 1 + n_blocks * block].reshape(n_blocks, block, d, d)
        for j in range(1, block):
            np.matmul(blocks[:, j], blocks[:, j - 1], out=blocks[:, j])
        # after its update, the last entry of block b - 1 is U at that block's end
        if carry is not None:
            np.matmul(blocks[0], carry, out=blocks[0])
        for b in range(1, n_blocks):
            np.matmul(blocks[b], blocks[b - 1, -1], out=blocks[b])
        carry = buf[size].copy()
        if start == 0:
            yield 0, buf[: 1 + size]
        else:
            yield start + 1, buf[1 : 1 + size]


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
