import tracemalloc

import numpy as np
import pytest

from adiorbit._linalg import (
    SCAN_BLOCK,
    SCAN_CHUNK_BLOCKS,
    STEP_CHUNK,
    _su2_steps,
    _taylor_steps,
    central_difference,
    max_hermiticity_defect,
    phase_convention,
    scan_states,
    su2_eigh,
    unitary_steps,
)
from adiorbit.errors import NonFiniteStep
from adiorbit.propagate import _scan_chunk


def random_hermitian(rng, n, d, scale=1.0):
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return scale * 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def eigh_expm(generators, s):
    """exp(i s G) assembled from eigh, one matrix at a time."""
    out = []
    for g in generators:
        evals, evecs = np.linalg.eigh(g)
        out.append((evecs * np.exp(1j * s * evals)) @ evecs.conj().T)
    return np.array(out)


class TestUnitarySteps:
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("dtau", [1e-3, 0.3])
    def test_su2_closed_form_matches_eigh(self, sign, dtau):
        rng = np.random.default_rng(7)
        gens = random_hermitian(rng, 500, 2)
        # b = 0: a multiple of the identity, and the zero generator
        gens[0] = 1.7 * np.eye(2)
        gens[1] = 0.0
        steps = unitary_steps(gens, dtau, sign)
        assert np.abs(steps - eigh_expm(gens, sign * dtau)).max() < 1e-14
        assert np.array_equal(steps[1], np.eye(2))

    @pytest.mark.parametrize("d", [2, 5])
    def test_reads_lower_triangle_and_real_diagonal(self, d):
        rng = np.random.default_rng(8)
        gens = random_hermitian(rng, 50, d)
        garbled = gens.copy()
        upper = np.triu_indices(d, 1)
        garbled[:, upper[0], upper[1]] = 99.0
        garbled[:, 0, 0] += 5j
        assert np.array_equal(unitary_steps(garbled, 0.1, 1), unitary_steps(gens, 0.1, 1))

    def test_larger_d_matches_eigh(self):
        gens = random_hermitian(np.random.default_rng(9), 50, 5)
        steps = unitary_steps(gens, 0.2, -1)
        assert np.abs(steps - eigh_expm(gens, -0.2)).max() < 1e-13

    @pytest.mark.parametrize("d", [3, 5, 8])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize(
        "step_norm, tol",
        [(1e-4, 1e-13), (1e-2, 1e-13), (0.5, 1e-13), (3.0, 1e-13), (100.0, 1e-11)],
    )
    def test_taylor_matches_eigh(self, d, sign, step_norm, tol):
        """s ||G||_2 = step_norm for every generator in the stack."""
        gens = random_hermitian(np.random.default_rng(d), 40, d)
        gens /= np.linalg.norm(gens, ord=2, axis=(1, 2))[:, None, None]
        steps = unitary_steps(gens, step_norm, sign)
        assert np.abs(steps - eigh_expm(gens, sign * step_norm)).max() < tol

    def test_taylor_mixed_scales_in_one_stack(self):
        # one squaring count serves the whole stack, small steps included
        gens = random_hermitian(np.random.default_rng(10), 60, 5)
        gens /= np.linalg.norm(gens, ord=2, axis=(1, 2))[:, None, None]
        gens *= np.logspace(-4, 2, 60)[:, None, None]
        steps = unitary_steps(gens, 1.0, -1)
        assert np.abs(steps - eigh_expm(gens, -1.0)).max() < 1e-11

    @pytest.mark.parametrize("d", [2, 5])
    def test_real_generators(self, d):
        gens = random_hermitian(np.random.default_rng(13), 20, d).real
        assert np.array_equal(unitary_steps(gens, 0.1, 1), unitary_steps(gens + 0j, 0.1, 1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "d, entry", [(5, (2, 1)), (2, (0, 0)), (2, (1, 1)), (2, (1, 0))]
    )
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, d, entry, bad):
        gens = random_hermitian(np.random.default_rng(11), 10, d)
        gens[3][entry] = bad
        with pytest.raises(NonFiniteStep):
            unitary_steps(gens, 0.1, 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("entry", [(0, 0), (1, 1), (1, 0)])
    def test_su2_rejects_an_overflowing_exponent(self, entry):
        # 1e300 is finite, but dtau * 1e300 is not
        gens = random_hermitian(np.random.default_rng(11), 10, 2)
        gens[3][entry] = 1e300
        with pytest.raises(NonFiniteStep):
            unitary_steps(gens, 1e10, 1)

    def test_su2_accepts_a_large_finite_exponent(self):
        gens = random_hermitian(np.random.default_rng(11), 10, 2)
        gens[3] = [[3e150, 1e150], [1e150, -1e150]]
        steps = unitary_steps(gens, 1e-10, 1)
        assert np.isfinite(steps).all()

    @pytest.mark.parametrize("d, kernel", [(2, _su2_steps), (5, _taylor_steps)])
    @pytest.mark.parametrize("n", [1, STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1])
    def test_rows_match_unchunked_kernel(self, d, kernel, n):
        gens = random_hermitian(np.random.default_rng(n), n, d)
        whole = np.empty_like(gens)
        kernel(gens, 0.05, whole)
        steps = unitary_steps(gens, 0.05, 1)
        if d == 2:
            assert np.array_equal(steps, whole)
        else:
            # each chunk picks its own Taylor degree from its largest norm
            assert np.abs(steps - whole).max() < 1e-15

    def test_temporaries_are_bounded_by_chunks(self):
        n, d = 3 * STEP_CHUNK, 5
        gens = random_hermitian(np.random.default_rng(12), n, d)
        chunk_bytes = STEP_CHUNK * d * d * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            steps = unitary_steps(gens, 0.3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the Taylor kernel holds A and one product buffer per chunk; the
        # other buffer is the output itself (the 1% covers array headers)
        assert peak < steps.nbytes + 2.01 * chunk_bytes


def full_stack_defect(m):
    """The whole-stack formula max_hermiticity_defect must equal bit for bit."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).max()


class TestHermiticityDefect:
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_equals_the_full_stack_formula(self, d):
        rng = np.random.default_rng(30 + d)
        hermitian = random_hermitian(rng, 300, d)
        lopsided = rng.normal(size=(300, d, d)) + 1j * rng.normal(size=(300, d, d))
        nearly = hermitian + 1e-13 * lopsided
        for m in (hermitian, lopsided, nearly, lopsided[7], lopsided.real, hermitian.real + 0j):
            got = max_hermiticity_defect(m)
            assert type(got) is float
            assert got == full_stack_defect(m)
        # a defect on the diagonal is twice the imaginary part
        hermitian[100, d - 1, d - 1] += 0.25j
        assert max_hermiticity_defect(hermitian) == full_stack_defect(hermitian) == 0.5

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf])
    def test_non_finite_entries(self, d, value):
        # NaN must survive however many finite rows come after it: a
        # Python max(best, nan) would drop it
        rng = np.random.default_rng(40 + d)
        for i, j in {(0, 0), (d - 1, 0), (0, d - 1), (d - 1, d - 1), (d // 2, d // 2 - 1)}:
            m = random_hermitian(rng, 50, d)
            m[20, i, j] = value
            with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
                expected = full_stack_defect(m)
                got = max_hermiticity_defect(m)
            if np.isnan(expected):
                assert np.isnan(got)
            else:
                assert got == expected

    def test_temporaries_are_one_row(self):
        n, d = 40_000, 5
        m = random_hermitian(np.random.default_rng(41), n, d)
        tracemalloc.start()
        try:
            max_hermiticity_defect(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one buffer for a row of d entries per sample and its modulus;
        # the whole-stack formula holds 1.5 stacks of d * d entries
        row_bytes = n * d * np.dtype(complex).itemsize
        assert peak < 1.6 * row_bytes


def loop_states(steps, v0):
    out = [v0]
    for step in steps:
        out.append(step @ out[-1])
    return np.array(out)


def loop_operators(steps):
    out = [np.eye(steps.shape[-1], dtype=complex)]
    for step in steps:
        out.append(step @ out[-1])
    return np.array(out)


@pytest.mark.parametrize("d", [2, 3, 5])
# sizes around the block and chunk edges of the scan and between them;
# 65537 is four chunks and one step
@pytest.mark.parametrize(
    "n",
    [
        1,
        SCAN_BLOCK - 1,
        SCAN_BLOCK,
        SCAN_BLOCK + 1,
        255,
        256,
        257,
        1000,
        SCAN_BLOCK * SCAN_CHUNK_BLOCKS - 1,
        SCAN_BLOCK * SCAN_CHUNK_BLOCKS,
        SCAN_BLOCK * SCAN_CHUNK_BLOCKS + 1,
        65537,
        65836,
    ],
)
class TestBlockedScan:
    def steps(self, n, d):
        rng = np.random.default_rng(100 * d + n)
        return unitary_steps(random_hermitian(rng, n, d), 0.1, 1)

    def test_states_match_loop(self, n, d):
        steps = self.steps(n, d)
        v0 = np.zeros(d, dtype=complex)
        v0[d - 1] = 1.0
        out = scan_states(steps, v0)
        assert out.shape == (n + 1, d)
        assert np.array_equal(out[0], v0)
        assert np.abs(out - loop_states(steps, v0)).max() < 1e-12
        assert np.array_equal(scan_states(steps, v0), out)

    def test_operators_match_loop(self, n, d):
        # scanning each basis vector gives the columns of the ordered
        # products, and leaves the steps alone
        steps = self.steps(n, d)
        before = steps.copy()
        out = np.stack([scan_states(steps, e) for e in np.eye(d, dtype=complex)], axis=-1)
        assert np.array_equal(out[0], np.eye(d))
        assert np.abs(out - loop_operators(steps)).max() < 1e-12
        assert np.array_equal(steps, before)


# n.sigma for a unit Bloch vector n = (0.64, 0.48, 0.6) off every axis
TILTED_SIGMA = np.array([[0.6, 0.64 - 0.48j], [0.64 + 0.48j, -0.6]])


class TestSu2Eigh:
    def check_against_eigh(self, h):
        evals, evecs = su2_eigh(h)
        ref_vals = np.linalg.eigh(h)[0]
        scale = np.abs(ref_vals).max(axis=1, keepdims=True)
        assert np.all(np.abs(evals - ref_vals) <= 1e-14 * scale)
        resid = np.einsum("kij,kjn->kin", h, evecs) - evecs * evals[:, None, :]
        assert np.linalg.norm(resid, axis=1).max() <= 1e-14 * max(1.0, scale.max())
        gram = np.einsum("kin,kim->knm", evecs.conj(), evecs)
        assert np.abs(gram - np.eye(2)).max() < 1e-15

    def test_random_hermitian_stacks(self):
        rng = np.random.default_rng(21)
        # more than one STEP_CHUNK, entries over several decades
        h = random_hermitian(rng, STEP_CHUNK + 500, 2)
        h *= np.logspace(-3, 1, h.shape[0])[:, None, None]
        self.check_against_eigh(h)

    def test_z_negative(self):
        h = random_hermitian(np.random.default_rng(22), 200, 2)
        h[:, 0, 0] = -np.abs(h[:, 0, 0]) - 1.0
        h[:, 1, 1] = np.abs(h[:, 1, 1]) + 1.0
        h[:10, 1, 0] = h[:10, 0, 1] = 1e-9  # the small-sine corner
        self.check_against_eigh(h)

    def test_diagonal(self):
        # b = 0 on both sides of z = 0: the vectors are the standard basis
        h = np.zeros((2, 2, 2), dtype=complex)
        h[0] = np.diag([2.0, -1.0])
        h[1] = np.diag([-2.0, 1.0])
        self.check_against_eigh(h)
        evals, evecs = su2_eigh(h)
        assert np.array_equal(evals, [[-1.0, 2.0], [-2.0, 1.0]])
        assert np.array_equal(np.abs(evecs), [[[0, 1], [1, 0]], [[1, 0], [0, 1]]])

    def test_gap_just_above_tolerance(self):
        gap_tol = 1e-6
        h = np.zeros((3, 2, 2), dtype=complex)
        h[:, 0, 0], h[:, 1, 1] = 0.3, 0.3 + 1.01 * gap_tol
        h[1, 1, 0] = h[1, 0, 1] = 0.2 * gap_tol
        h[2] = 0.7 * np.eye(2) + 0.505 * gap_tol * TILTED_SIGMA
        evals, _ = su2_eigh(h)
        assert np.diff(evals, axis=1).min() > gap_tol
        self.check_against_eigh(h)

    def test_multiple_of_identity_forms_no_nan(self):
        h = np.array([np.eye(2), np.zeros((2, 2))], dtype=complex)
        with np.errstate(all="raise"):
            evals, evecs = su2_eigh(h)
        assert np.array_equal(evals, [[1.0, 1.0], [0.0, 0.0]])
        assert np.abs(np.einsum("kin,kim->knm", evecs.conj(), evecs) - np.eye(2)).max() == 0

    def test_ignores_upper_triangle_and_imaginary_diagonal(self):
        h = random_hermitian(np.random.default_rng(23), 50, 2)
        garbled = h.copy()
        garbled[:, 0, 1] = 99.0 - 3j
        garbled[:, 1, 1] += 5j
        for a, b in zip(su2_eigh(garbled), su2_eigh(h)):
            assert np.array_equal(a, b)


class TestPhaseConvention:
    def test_largest_entry_real_positive(self):
        vecs = np.linalg.qr(random_hermitian(np.random.default_rng(24), 20, 4))[0]
        fixed = phase_convention(vecs)
        assert np.allclose(np.abs(fixed), np.abs(vecs), rtol=0, atol=1e-15)
        pivots = np.take_along_axis(fixed, np.abs(fixed).argmax(axis=1)[:, None, :], axis=1)
        assert np.all(pivots.imag == 0) and np.all(pivots.real > 0)
        assert np.abs(phase_convention(fixed) - fixed).max() < 1e-15

    def test_identity_is_unchanged(self):
        for d in (2, 3, 5):
            assert np.array_equal(phase_convention(np.eye(d, dtype=complex)), np.eye(d))

    def test_tie_goes_to_lowest_index(self):
        col = np.array([[-1.0], [1j * (1.0 - 1e-13)]]) / np.sqrt(2.0)
        assert phase_convention(col)[0, 0].real > 0
        # outside the tie tolerance the larger entry wins
        col = np.array([[-1.0], [1j * (1.0 + 1e-11)]]) / np.sqrt(2.0)
        assert phase_convention(col)[1, 0].real > 0

    def test_removes_column_phases(self):
        rng = np.random.default_rng(25)
        vecs = np.linalg.qr(random_hermitian(rng, 30, 3))[0]
        rotated = vecs * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(30, 1, 3)))
        assert np.abs(phase_convention(rotated) - phase_convention(vecs)).max() < 1e-15


def su2_order_scan(steps, initial):
    """The d = 2 scan in the order of operations that fixes the bits of
    every d = 2 output, one SCAN_BLOCK-step block at a time: each
    in-block prefix entry is s[i, 0] p[0, l] + s[i, 1] p[1, l], the
    carry between blocks is chained in Python complex arithmetic, and
    each output entry is p[i, 0] c[0, l] + p[i, 1] c[1, l]."""
    out, carry = [initial], initial.tolist()
    for start in range(0, len(steps), SCAN_BLOCK):
        prefix = [steps[start]]
        for step in steps[start + 1 : start + SCAN_BLOCK]:
            t = step[:, :, None] * prefix[-1][None, :, :]
            prefix.append(t[:, 0] + t[:, 1])
        c = np.array(carry)
        out += [p[:, 0, None] * c[0] + p[:, 1, None] * c[1] for p in prefix]
        (t00, t01), (t10, t11) = prefix[-1].tolist()
        carry = [
            [t00 * x + t01 * y for x, y in zip(*carry)],
            [t10 * x + t11 * y for x, y in zip(*carry)],
        ]
    return np.array(out)


@pytest.mark.parametrize("n", [1, SCAN_BLOCK + 1, SCAN_BLOCK * SCAN_CHUNK_BLOCKS + 300])
def test_su2_scan_keeps_its_order_of_operations(n):
    # the bits of the d = 2 outputs (evolution.csv, sweep.csv) are fixed
    # by this order at d = 2 together with the propagators' chunks: each
    # SCAN_BLOCK * SCAN_CHUNK_BLOCKS steps they restart the scan from the
    # last state, which is rounded differently from the scan's own carry
    steps = unitary_steps(random_hermitian(np.random.default_rng(n), n, 2), 0.1, 1)
    v0 = np.array([0.6, 0.8j])
    assert np.array_equal(scan_states(steps, v0), su2_order_scan(steps, v0[:, None])[:, :, 0])
    eye = np.eye(2, dtype=complex)
    for l in range(2):
        assert np.array_equal(scan_states(steps, eye[l]), su2_order_scan(steps, eye)[:, :, l])


def test_su2_scan_of_no_steps():
    v0 = np.array([1.0, 0.0j])
    assert np.array_equal(scan_states(np.empty((0, 2, 2), complex), v0), [v0])


def test_scan_of_no_steps_d5():
    v0 = np.eye(5, dtype=complex)[0]
    assert np.array_equal(scan_states(np.empty((0, 5, 5), complex), v0), [v0])


def scan_states_peak(steps, v0):
    tracemalloc.start()
    try:
        out = scan_states(steps, v0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus the d^2 entry arrays, as large as the steps; ufunc
    # buffers, the in-block products and the per-block carries stay under
    # half of that more
    assert peak < out.nbytes + 1.5 * steps.nbytes
    return peak


def test_su2_scan_states_memory_bound():
    """tracemalloc peak of scan_states over one scan chunk of d = 2 steps,
    the most the propagators hand it at once."""
    n = _scan_chunk(2)
    steps = unitary_steps(random_hermitian(np.random.default_rng(26), n, 2), 1e-3, -1)
    scan_states_peak(steps, np.array([1.0, 0.0j]))


def test_scan_states_memory_bound_d5():
    """The same for one scan chunk of d = 5 steps."""
    n = _scan_chunk(5)
    steps = unitary_steps(random_hermitian(np.random.default_rng(27), n, 5), 1e-3, -1)
    scan_states_peak(steps, np.eye(5, dtype=complex)[0])


@pytest.mark.parametrize("n", [3, 4, 7])
def test_central_difference_rows_are_the_whole_stencil(n):
    # every contiguous range of rows, empty and one-row ranges at either
    # end included, is that range of the whole-stack derivative bit for bit
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(n, 2, 3)) + 1j * rng.normal(size=(n, 2, 3))
    whole = central_difference(stack, 0.01)
    for start in range(n + 1):
        for stop in range(start, n + 2):
            rows = slice(start, stop)
            part = central_difference(stack, 0.01, rows)
            assert part.shape == whole[rows].shape
            assert part.tobytes() == whole[rows].tobytes()
