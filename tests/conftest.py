import numpy as np
import pytest

from adiorbit import (
    ConjugatedParams,
    HamiltonianModel,
    SpinHalfParams,
    TimeGrid,
    build_conjugated_model,
    build_spin_half,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def constant_model(matrix, name="constant"):
    """A model whose Hamiltonian never changes."""
    matrix = np.asarray(matrix, dtype=complex)
    d = matrix.shape[0]

    def evaluate_many(taus):
        return np.broadcast_to(matrix, (taus.shape[0], d, d)).copy()

    def derivative_many(taus):
        return np.zeros((taus.shape[0], d, d), dtype=complex)

    return HamiltonianModel(
        dimension=d,
        evaluate_many=evaluate_many,
        derivative_many=derivative_many,
        name=name,
    )


def smooth_random_model(dim, seed, base_gap=1.0, drive=0.1):
    """Seeded smooth Hermitian path with well-separated levels."""
    rng = np.random.default_rng(seed)

    def herm(scale):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return scale * (a + a.conj().T) / 2.0

    static = np.diag(base_gap * np.arange(dim)).astype(complex) + herm(0.05)
    wobble_c, wobble_s = herm(drive), herm(drive)
    w1, w2 = 0.3, 0.17

    def evaluate_many(taus):
        return (
            static[None, :, :]
            + np.multiply.outer(np.cos(w1 * taus), wobble_c)
            + np.multiply.outer(np.sin(w2 * taus), wobble_s)
        )

    def derivative_many(taus):
        return np.multiply.outer(-w1 * np.sin(w1 * taus), wobble_c) + np.multiply.outer(
            w2 * np.cos(w2 * taus), wobble_s
        )

    return HamiltonianModel(
        dimension=dim,
        evaluate_many=evaluate_many,
        derivative_many=derivative_many,
        name=f"smooth_random_{seed}",
    )


def conjugated_d5(seed=1):
    """A d = 5 conjugated model drawn like the benchmark's check workload."""
    rng = np.random.default_rng(seed)
    energies = np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 2.0, 4))])
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    params = ConjugatedParams(energies=energies, generator=0.05 * (g + g.conj().T) / 2.0)
    return build_conjugated_model(params)


def write_tabulated(path, taus, matrices):
    """Write samples in the tabulated-model text format."""
    matrices = np.asarray(matrices)
    d = matrices.shape[1]
    lines = [f"dim={d}"]
    for tau, mat in zip(taus, matrices):
        fields = [f"{tau:.17g}"]
        for i in range(d):
            for j in range(i, d):
                fields.append(f"{mat[i, j].real:.17g}")
                fields.append(f"{mat[i, j].imag:.17g}")
        lines.append(" ".join(fields))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="session")
def spin_a_params():
    return SpinHalfParams(omega0=1.0, omega=0.1, theta=np.pi / 4)


@pytest.fixture(scope="session")
def spin_a_model(spin_a_params):
    return build_spin_half(spin_a_params)


@pytest.fixture(scope="session")
def conjugated_example():
    """The two-level example H = diag(0, 1), V = sigma_x / 10."""
    params = ConjugatedParams(energies=[0.0, 1.0], generator=SX / 10.0)
    return params, build_conjugated_model(params)


@pytest.fixture(scope="session")
def medium_grid():
    return TimeGrid(tau_end=20.0, n_steps=20000)
