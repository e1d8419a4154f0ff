import numpy as np
import pytest

from adiorbit._linalg import SCAN_BLOCK, scan_operators, scan_states, unitary_steps


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

    def test_reads_lower_triangle_and_real_diagonal(self):
        rng = np.random.default_rng(8)
        gens = random_hermitian(rng, 50, 2)
        garbled = gens.copy()
        garbled[:, 0, 1] = 99.0
        garbled[:, 0, 0] += 5j
        assert np.array_equal(unitary_steps(garbled, 0.1, 1), unitary_steps(gens, 0.1, 1))

    def test_larger_d_matches_eigh(self):
        gens = random_hermitian(np.random.default_rng(9), 50, 5)
        steps = unitary_steps(gens, 0.2, -1)
        assert np.abs(steps - eigh_expm(gens, -0.2)).max() < 1e-13


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
@pytest.mark.parametrize("n", [1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 1000])
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
