import tracemalloc

import numpy as np
import pytest

from adiorbit._linalg import (
    SCAN_BLOCK,
    SCAN_CHUNK_BLOCKS,
    STEP_CHUNK,
    _su2_steps,
    _taylor_steps,
    scan_operators,
    scan_states,
    unitary_steps,
)
from adiorbit.errors import NonFiniteStep


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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_taylor_rejects_non_finite(self, bad):
        gens = random_hermitian(np.random.default_rng(11), 10, 5)
        gens[3, 2, 1] = bad
        with pytest.raises(NonFiniteStep):
            unitary_steps(gens, 0.1, 1)

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


@pytest.mark.parametrize("d", [2, 5])
# the last size spans more than one scan chunk
@pytest.mark.parametrize(
    "n",
    [1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 1000, SCAN_BLOCK * SCAN_CHUNK_BLOCKS + 300],
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

    def test_operators_match_loop(self, n, d):
        steps = self.steps(n, d)
        before = steps.copy()
        out = scan_operators(steps)
        assert out.shape == (n + 1, d, d)
        assert np.array_equal(out[0], np.eye(d))
        assert np.abs(out - loop_operators(steps)).max() < 1e-12
        assert np.array_equal(steps, before)
