import numpy as np
import pytest

from adiorbit.grid import TimeGrid


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
