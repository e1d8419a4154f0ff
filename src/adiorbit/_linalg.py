"""Dense-matrix helpers shared by the model builders and the propagators.

All generators here are Hermitian and small (d <= 64). Step
exponentials are unitary up to roundoff: for d = 2 they use the closed
SU(2) form, for larger d a Taylor polynomial with scaling and squaring
(Moler & Van Loan, SIAM Rev. 45, 2003; Al-Mohy & Higham, SIAM J. Matrix
Anal. Appl. 31, 2009), evaluated as batched matrix products. Steps are
computed STEP_CHUNK generators at a time into one output array, which
the caller may hand in. Each chunk's generators are hermitized and
scaled in place, in a work buffer or, when the caller allows it, in
the caller's own stack; the degree and the squarings are chosen over
the chunk, and the polynomial is evaluated TAYLOR_BLOCK rows at a time
by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973), in fewer products
than Horner's rule and in work buffers of that many rows. The d = 2
eigensystem is closed-form too
(:func:`su2_eigh`), and :func:`phase_convention` fixes the free phase
of each eigenvector column.

Sequences of steps are multiplied with a blocked two-level scan
(Blelloch, "Prefix sums and their applications", 1990) in one pass
over the steps it is handed, so no Python loop runs once per step.
The steps are copied into d^2 contiguous complex arrays, one per matrix
entry, laid out (block, n_blocks), and overwritten by the in-block
prefix products: d ufunc calls per position (one product, d - 1 sums)
for all blocks at once, where a stacked matmul of small matrices pays
a per-matrix overhead. The propagators bound what the scan holds by
handing it one chunk of steps at a time, and may hand it a buffer for
its blocked copy.
"""

import math
from functools import reduce
from operator import add, mul

import numpy as np

from .errors import NonFiniteStep

# Steps per block of the two-level scan: the in-block prefix loops over
# this many positions, the chaining loop over n / SCAN_BLOCK blocks.
SCAN_BLOCK = 128
# Blocks per scan chunk of d = 2 steps, the most the propagators hand
# scan_states at once (larger steps: see propagate._scan_chunk). The
# scan's ufunc calls run over rows of SCAN_CHUNK_BLOCKS entries, so a
# chunk of 128 x 128 steps (1 MB for d = 2) is as fast as 256 x 256 at
# a quarter of the buffer.
SCAN_CHUNK_BLOCKS = 128
# Generators exponentiated per pass of unitary_steps.
STEP_CHUNK = 4096
# Rows of a chunk that the Taylor polynomial and its squarings take at
# once, so that its work buffers stay small.
TAYLOR_BLOCK = 256
# Taylor steps: 1-norm after scaling, and the truncation bound of the
# first dropped term, (theta / 2^j)^(m+1) / (m+1)!.
TAYLOR_THETA = 0.5
TAYLOR_TOL = 1e-17
# Columns whose largest moduli agree to this relative tolerance are a
# tie for phase_convention; the lowest row index wins.
PHASE_TIE = 1e-12


def hermitize(stack: np.ndarray) -> np.ndarray:
    """Average a stack of matrices with its conjugate transpose."""
    return 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))


def distinct_rows(a: np.ndarray) -> np.ndarray:
    """``a``, or only its first row when ``a`` is one row broadcast along
    axis 0 (stride 0), so a reduction over it reads that row once."""
    return a[:1] if a.strides[:1] == (0,) else a


def stacked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for stacks of square matrices. A stacked matmul of
    2 x 2 matrices pays a per-matrix overhead, so those are two
    elementwise products and a sum."""
    if a.shape[-1] == 2:
        return a[:, :, :1] * b[:, None, 0] + a[:, :, 1:] * b[:, None, 1]
    return a @ b


def max_hermiticity_defect(mat: np.ndarray) -> float:
    """max |M - M^H| over a matrix or a stack of matrices.

    One pass per row i over the entries j <= i, in one buffer of a row
    per matrix, so no temporary is a whole stack. |a - conj(b)| =
    |b - conj(a)| exactly, so the result equals the whole difference's
    maximum bit for bit, NaN included (np.max keeps a NaN that Python's
    max may drop).
    """
    buf = np.empty(mat.shape[:-1], dtype=complex)
    defects = []
    for i in range(mat.shape[-1]):
        diff = buf[..., : i + 1]
        np.conj(mat[..., : i + 1, i], out=diff)
        np.subtract(mat[..., i, : i + 1], diff, out=diff)
        defects.append(np.abs(diff).max())
    return float(np.max(defects))


def unitary_steps(
    generators: np.ndarray, dtau: float, sign: int, *, out=None, overwrite: bool = False
) -> np.ndarray:
    """exp(sign * 1j * dtau * G) for a stack of Hermitian generators G.

    Shape (n, d, d) in, (n, d, d) out, written into ``out`` when given.
    Like eigh, only the real diagonal and the lower triangle of each G
    are read. For d > 2 each chunk is copied into one work buffer, which
    the Taylor kernel hermitizes and scales in place; with ``overwrite``
    a complex ``generators`` stack is that buffer itself and is left
    overwritten, otherwise it is never written. Raises
    :class:`NonFiniteStep` when a step's exponent is not finite.
    """
    s = sign * dtau
    n, d = generators.shape[0], generators.shape[-1]
    if out is None:
        out = np.empty(generators.shape, dtype=complex)
    kernel, work = _su2_steps, None
    if d > 2:
        kernel = _taylor_steps
        if not (overwrite and generators.dtype == complex):
            work = np.empty((min(n, STEP_CHUNK), d, d), dtype=complex)
    for start in range(0, n, STEP_CHUNK):
        chunk = slice(start, start + STEP_CHUNK)
        g = generators[chunk]
        if work is not None:
            g = work[: g.shape[0]]
            g[...] = generators[chunk]
        kernel(g, s, out[chunk])
    return out


def _su2_steps(generators: np.ndarray, s: float, out: np.ndarray):
    """exp(i s G) = e^{isa} (cos(s|b|) + i s sinc(s|b|/pi) b.sigma) for
    G = a + b.sigma; sinc keeps b = 0 exact. |b| is formed by hypot
    where its sum of squares overflows. Raises
    :class:`NonFiniteStep` when s|b| or s tr G is not finite."""
    g00, g11 = generators[..., 0, 0].real, generators[..., 1, 1].real
    bz = 0.5 * (g00 - g11)
    lower = generators[..., 1, 0]  # b_x + i b_y
    with np.errstate(over="ignore"):
        b_norm = np.sqrt(bz * bz + lower.real**2 + lower.imag**2)
    # the squares overflow above about 1.3e154; hypot does not
    big = np.flatnonzero(np.isinf(b_norm))
    b_norm[big] = np.hypot(np.hypot(bz[big], lower.real[big]), lower.imag[big])
    trace = g00 + g11
    # s * max is infinite iff some s * entry is, and a NaN entry makes it NaN
    for name, part in (("|b|", b_norm), ("|tr G|", np.abs(trace))):
        largest = abs(s) * float(part.max(initial=0.0))
        if not math.isfinite(largest):
            raise NonFiniteStep(f"step generator has a non-finite dtau * {name} ({largest})")
    phase = np.exp(0.5j * s * trace)
    cos_part = phase * np.cos(s * b_norm)
    sin_part = 1j * s * phase * np.sinc(s * b_norm / np.pi)
    out[..., 0, 0] = cos_part + sin_part * bz
    out[..., 1, 1] = cos_part - sin_part * bz
    out[..., 1, 0] = sin_part * lower
    out[..., 0, 1] = sin_part * lower.conj()


def phase_convention(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column of a (..., d, d) stack so that its
    largest-modulus entry is real and positive.

    Of entries within PHASE_TIE (relative) of the largest, the lowest
    row index is the pivot. Returns a new array; an identity column is
    unchanged.
    """
    mag = np.abs(vecs)
    top = mag >= (1.0 - PHASE_TIE) * mag.max(axis=-2, keepdims=True)
    rows = top.argmax(axis=-2)[..., None, :]
    pivot = np.take_along_axis(vecs, rows, axis=-2)
    out = vecs * (pivot.conj() / np.abs(pivot))
    # exactly real, not real up to the roundoff of z * conj(z) / |z|
    np.put_along_axis(out, rows, np.abs(pivot), axis=-2)
    return out


def su2_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigensystem of a stack of 2x2 Hermitian matrices.

    Shape (n, 2, 2) in; eigenvalues (n, 2) in ascending order and unit
    eigenvectors as columns (n, 2, 2) out, like ``np.linalg.eigh``. Like
    eigh, only the real diagonal and the lower triangle are read. One
    pass over the stack, so its temporaries are as long as ``h``.

    h = m + z sigma_z + b_x sigma_x + b_y sigma_y has e = m -/+ r,
    r = |(b, z)|. The upper vector is the half-angle form
    (cos(theta/2), e^{i phi} sin(theta/2)), the lower its orthogonal
    complement. Each is written from the larger of cos and sin,
    (r + z, b) for z >= 0 and (b*, r - z) otherwise, over its norm, so no
    entry loses digits to cancellation. r = 0 (h a multiple of the
    identity) gives the standard basis instead of 0/0: the gap check,
    not a NaN, then reports the degeneracy.
    """
    h00, h11 = h[..., 0, 0].real, h[..., 1, 1].real
    b = h[..., 1, 0]  # b_x + i b_y
    m = 0.5 * (h00 + h11)
    z = 0.5 * (h00 - h11)
    bb = b.real**2 + b.imag**2
    r = np.sqrt(z * z + bb)
    evals = np.stack([m - r, m + r], axis=-1)
    t = r + np.abs(z)
    t[t == 0.0] = 1.0
    norm = np.sqrt(t * t + bb)
    big, small = t / norm, b / norm
    lower_z = z < 0.0
    top = np.where(lower_z, small.conj(), big)
    bottom = np.where(lower_z, big, small)
    evecs = np.empty(h.shape, dtype=complex)
    evecs[..., 0, 1] = top
    evecs[..., 1, 1] = bottom
    evecs[..., 0, 0] = -bottom.conj()
    evecs[..., 1, 0] = top.conj()
    return evals, evecs


def _taylor_steps(a: np.ndarray, s: float, out: np.ndarray):
    """exp(i s G) by a degree-m Taylor polynomial of A / 2^j, A = i s G,
    then j squarings, for the chunk of generators G in ``a``, which is
    overwritten by A / 2^j (only its real diagonal and lower triangle
    are read). j and the smallest m >= 1 are chosen from the chunk's
    largest 1-norm so that the first dropped term is below TAYLOR_TOL;
    the polynomial then runs TAYLOR_BLOCK rows at a time."""
    d = a.shape[-1]
    # hermitize in place: the upper triangle from the lower, a real diagonal
    for i in range(d):
        np.conj(a[:, i, :i], out=a[:, :i, i])
        a[:, i, i].imag = 0.0
    # column sums of |A|, one row of moduli at a time
    norms = np.abs(a[:, 0])
    row = np.empty_like(norms)
    for i in range(1, d):
        norms += np.abs(a[:, i], out=row)
    theta = abs(s) * float(norms.max(initial=0.0))
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
    work = np.empty((_ps_split(degree) + 2,) + a[:TAYLOR_BLOCK].shape, dtype=complex)
    for start in range(0, a.shape[0], TAYLOR_BLOCK):
        rows = slice(start, start + TAYLOR_BLOCK)
        block = a[rows]
        _taylor_polynomial(block, degree, squarings, work[:, : block.shape[0]], out[rows])


def _ps_split(degree: int) -> int:
    """Paterson-Stockmeyer's s for a degree-m polynomial: A^2 .. A^s take
    s - 1 products and the blocks of s coefficients (m - 1) // s more.
    The smallest s with the fewest products; s = 1 is Horner's rule."""
    return min(range(1, degree + 1), key=lambda s: s + (degree - 1) // s)


def _taylor_polynomial(a, degree: int, squarings: int, work, out):
    """out <- T(A)^(2^j), T(A) = sum_{k <= m} A^k / k!, for a stack A.

    Paterson-Stockmeyer (SIAM J. Comput. 2, 1973): T = B_0 + A^s (B_1 +
    A^s (B_2 + ...)) with B_i = sum_{j=1..s} A^j / (is + j)!, plus I; at
    m = 4, (I + A + A^2/2) + A^2 (A/6 + A^2/24), two products against
    Horner's three. ``work`` holds s + 2 stacks shaped like ``a``: A^2 ..
    A^s, the running sum, the next product and one scaled term.
    """
    s = _ps_split(degree)
    powers = [a, *work[: s - 1]]  # A^1 .. A^s
    for j in range(1, s):
        np.matmul(powers[j - 1], a, out=powers[j])
    p, q, term = work[s - 1 :]
    p[...] = 0.0
    # the blocks from the top: p <- B_i + A^s p, a product for all but the first
    for first in reversed(range(1, degree + 1, s)):
        if first + s <= degree:
            np.matmul(powers[-1], p, out=q)
            p, q = q, p
        for j, power in enumerate(powers[: degree + 1 - first]):
            p += np.multiply(power, 1.0 / math.factorial(first + j), out=term)
    _add_identity(p)
    for _ in range(squarings):
        np.matmul(p, p, out=q)
        p, q = q, p
    out[...] = p


def _add_identity(stack: np.ndarray):
    # one strided column per diagonal entry: unlike a 2-D diagonal view,
    # this needs no ufunc buffer
    for i in range(stack.shape[-1]):
        stack[:, i, i] += 1.0


def scan_states(steps: np.ndarray, v0: np.ndarray, *, work=None, out=None) -> np.ndarray:
    """Apply a sequence of step matrices to v0, keeping every intermediate.

    Returns shape (n_steps + 1, d) with out[k] = steps[k-1] @ ... @
    steps[0] @ v0, so row 0 is v0 and later steps multiply from the
    left (time ordering). Grouped differently from a step-by-step loop,
    so the two agree to roundoff, not bit for bit.

    One pass over the steps it is handed: they are copied into one
    buffer p[i, k, j, b] = entry (i, k) of step j of block b, blocks of
    SCAN_BLOCK steps with the last padded with identities, so the buffer
    is as large as the steps. The in-block prefix runs over j,
    vectorized across blocks; the state carried into each block is
    chained through the block products in a Python loop once per block,
    and each block's prefix times its carry is formed in p and copied
    into the (n + 1, d) result, ``out`` when given (row 0 may be v0
    itself). p is made in ``work`` when given, a contiguous complex
    buffer of at least as many entries as the padded steps.
    """
    n, d = steps.shape[0], steps.shape[-1]
    block = min(SCAN_BLOCK, max(n, 1))
    full, rem = divmod(n, block)
    n_blocks = full + (rem > 0)
    if out is None:
        out = np.empty((n + 1, d), dtype=complex)
    out[0] = v0
    size = d * d * block * n_blocks
    p = np.empty(size, dtype=complex) if work is None else work.reshape(-1)[:size]
    p = p.reshape(d, d, block, n_blocks)
    p[..., :full] = steps[: full * block].reshape(full, block, d, d).transpose(2, 3, 1, 0)
    if rem:
        p[:, :, :rem, full] = steps[full * block :].transpose(1, 2, 0)
        p[:, :, rem:, full] = np.eye(d)[:, :, None]
    tmp = np.empty((d, d, d, n_blocks), dtype=complex)
    for j in range(1, block):
        # tmp[i, k, l] = step_j[i, k] * prefix_{j-1}[k, l], summed over k
        np.multiply(p[:, :, None, j], p[None, :, :, j - 1], out=tmp)
        np.add(tmp[:, 0], tmp[:, 1], out=p[:, :, j])
        for k in range(2, d):
            p[:, :, j] += tmp[:, k]

    carries, carry = [], out[0].tolist()
    for rows in p[:, :, -1].transpose(2, 0, 1).tolist():
        carries.append(carry)
        carry = [reduce(add, map(mul, row, carry)) for row in rows]
    # p[:, 0] <- sum_k p[:, k] * carry[k], carry[k] indexed by block
    for k, c in enumerate(np.array(carries).T):
        p[:, k] *= c
    for k in range(1, d):
        p[:, 0] += p[:, k]
    out[1 : 1 + full * block].reshape(full, block, d).transpose(2, 1, 0)[...] = p[:, 0, :, :full]
    if rem:
        out[1 + full * block :] = p[:, 0, :rem, full].T
    return out


def central_difference(
    stack: np.ndarray, dtau: float, rows: slice = slice(None), *, out=None
) -> np.ndarray:
    """d/dtau of a sampled quantity along axis 0, second order.

    Central differences in the interior, one-sided three-point stencils
    at both endpoints. Only the derivative at ``rows`` is formed, each
    sample's the one the whole stack's would be, into ``out`` when given.
    """
    n = stack.shape[0]
    if n < 3:
        raise ValueError("need at least 3 samples for second-order differences")
    start, stop, _ = rows.indices(n)
    if out is None:
        out = np.empty((max(stop - start, 0),) + stack.shape[1:], stack.dtype)
    lo, hi, width = max(start, 1), min(stop, n - 1), 2.0 * dtau
    if hi > lo:
        inner = out[lo - start : hi - start]
        np.subtract(stack[lo + 1 : hi + 1], stack[lo - 1 : hi - 1], out=inner)
        inner /= width
    if start == 0 < stop:
        out[0] = (-3.0 * stack[0] + 4.0 * stack[1] - stack[2]) / width
    if stop == n > start:
        out[-1] = (3.0 * stack[-1] - 4.0 * stack[-2] + stack[-3]) / width
    return out
