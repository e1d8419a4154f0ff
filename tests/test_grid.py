import numpy as np
import pytest

from adiorbit.grid import TimeGrid, running_trapezoid


@pytest.mark.parametrize(
    "tau_end, n_steps", [(200.0, 200_000), (20.0, 2000), (np.pi, 12_345), (1e-300, 100), (3.7, 7)]
)
def test_chunk_times_are_linspace_bit_for_bit(tau_end, n_steps):
    grid = TimeGrid(tau_end=tau_end, n_steps=n_steps)
    whole = np.linspace(0.0, tau_end, n_steps + 1)
    n1, mid = n_steps + 1, n_steps // 2
    # at the start, in the middle, at the end (hi = n + 1) and past it
    for lo, hi in [(0, 5), (0, 1), (mid - 3, mid + 4), (n1 - 4, n1), (n1 - 1, n1), (mid, n1 + 9)]:
        times = grid.times(lo, hi)
        assert times.dtype == whole.dtype and times.tobytes() == whole[lo:hi].tobytes()
    assert grid.samples.tobytes() == whole.tobytes()


def test_samples_are_not_kept():
    grid = TimeGrid(tau_end=2.0, n_steps=10)
    first = grid.samples
    assert grid.samples is not first
    assert vars(grid) == {"tau_end": 2.0, "n_steps": 10}


def chained(values, dtau, lengths):
    """The running trapezoid over ``values`` in chunks of ``lengths``, each
    call handed the carry of the one before."""
    out = np.empty(values.shape, np.result_type(values, dtau))
    carry, edges = None, np.cumsum([0, *lengths])
    assert edges[-1] == len(values)
    for lo, hi in zip(edges[:-1], edges[1:]):
        carry = running_trapezoid(values[lo:hi], dtau, out[lo:hi], carry)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["n", "n_d"])
@pytest.mark.parametrize("seed", range(4))
def test_chained_chunks_equal_the_whole_grid(dtype, shape, seed):
    rng = np.random.default_rng(seed)
    n = 1000
    values = rng.normal(size=(n, *shape))
    if dtype is np.complex128:
        values = values + 1j * rng.normal(size=(n, *shape))
    dtau = 0.37
    whole = np.empty_like(values)
    running_trapezoid(values, dtau, whole)
    # one-sample chunks first, in the middle and last, between random ones
    edges = {0, 1, 2, n // 2, n // 2 + 1, n - 1, n, *rng.integers(3, n - 1, size=12).tolist()}
    lengths = np.diff(sorted(edges)).tolist()
    assert lengths[:2] == [1, 1] and lengths[-1] == 1
    for split in (lengths, [1] * 40 + [n - 40], [n - 1, 1], [n]):
        ours = chained(values, dtau, split)
        assert ours.dtype == whole.dtype and ours.tobytes() == whole.tobytes()


def test_carry_is_the_last_sample_and_is_not_a_view():
    values, out = np.array([1.0, 3.0, 5.0]), np.empty(3)
    carry = running_trapezoid(values, 0.5, out)
    assert [c.tolist() for c in carry] == [[5.0], [3.0]]
    values[:], out[:] = np.nan, np.nan
    assert [c.tolist() for c in carry] == [[5.0], [3.0]]


@pytest.mark.parametrize("shape", [(0,), (0, 2), (1,), (1, 2)])
def test_running_trapezoid_of_0_and_1_samples(shape):
    values = np.ones(shape, complex)
    out = np.empty_like(values)
    running_trapezoid(values, 0.1, out)
    assert out.shape == shape and out.dtype == complex
    assert not out.any()
