"""Uniform time grids and the quadrature helpers built on them.

Everything downstream (eigenframe tracking, phase integrals, the
propagators) assumes the same uniform grid, so convergence studies are
done by step halving rather than adaptive control. The running
trapezoid is plain numpy and follows scipy's
``cumulative_trapezoid(..., initial=0)`` order of operations bit for
bit, so the package needs no scipy at run time; it writes each of those
operations in place into its one output array.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = tau_0 < tau_1 < ... < tau_n = tau_end.

    ``n_steps`` counts intervals, so there are ``n_steps + 1`` samples.
    The grid keeps no array: ``samples`` forms all of them on each read,
    and chunk loops take theirs from :meth:`times`, which forms only the
    samples lo..hi - 1, equal bit for bit to ``samples[lo:hi]``.
    """

    tau_end: float
    n_steps: int

    def __post_init__(self):
        if not self.tau_end > 0:
            raise ValueError("tau_end must be positive")
        if int(self.n_steps) != self.n_steps or self.n_steps < 2:
            raise ValueError("n_steps must be an integer >= 2")
        if self.n_steps >= np.iinfo(np.intp).max // 8:
            raise ValueError(f"n_steps = {self.n_steps} is too large for an array of samples")

    @property
    def dtau(self) -> float:
        return self.tau_end / self.n_steps

    @property
    def samples(self) -> np.ndarray:
        return self.times(0, self.n_steps + 1)

    def times(self, lo: int, hi: int) -> np.ndarray:
        """tau_lo .. tau_{hi - 1} (hi clipped to n_steps + 1): k * dtau,
        with the last sample set to tau_end, the operations of
        ``np.linspace(0, tau_end, n_steps + 1)``, so they equal its
        entries bit for bit."""
        hi = min(hi, self.n_steps + 1)
        out = np.arange(lo, hi, dtype=float)
        out *= self.dtau
        if hi == self.n_steps + 1 > lo:
            out[-1] = self.tau_end
        return out

    def index_of(self, tau: float) -> int:
        """Nearest sample index for ``tau``, clamped to the grid."""
        idx = int(round(tau / self.dtau))
        return min(max(idx, 0), self.n_steps)

    def matches(self, other: "TimeGrid") -> bool:
        return (
            self.n_steps == other.n_steps
            and abs(self.tau_end - other.tau_end) <= 1e-12 * max(1.0, abs(self.tau_end))
        )


def cumulative_trapezoid(values: np.ndarray, dtau: float) -> np.ndarray:
    """Running composite-trapezoid integral along axis 0, starting at 0.

    Output has the same shape as ``values``; entry k holds the integral
    over [tau_0, tau_k]. The same operations in the same order as
    ``scipy.integrate.cumulative_trapezoid(values, dx=dtau, axis=0,
    initial=0)`` (scipy 1.17), so the result is equal bit for bit; each
    one writes in place into rows 1: of the output, so the output is the
    only whole-grid array. ``np.cumsum`` rather than
    ``np.cumulative_sum``, which needs numpy 2.1.
    """
    values = np.asarray(values)
    out = np.empty(values.shape, np.result_type(values, dtau))
    out[:1] = 0
    running_trapezoid(values, dtau, out[1:])
    return out


def running_trapezoid(values: np.ndarray, dtau: float, out: np.ndarray, initial=None):
    """The running trapezoid integral at ``values[1:]``, written into
    ``out``, from ``initial``, its value at ``values[0]`` (0 when None).

    The steps of :func:`cumulative_trapezoid`, with ``initial`` added to
    the first before the cumsum, which is the addition the cumsum over
    the whole grid makes there: an integral formed a chunk at a time,
    each chunk from the previous chunk's last sample and value, equals
    the whole-grid one bit for bit.
    """
    np.add(values[1:], values[:-1], out=out)
    np.multiply(dtau, out, out=out)
    np.divide(out, 2.0, out=out)
    if initial is not None:
        out[:1] += initial
    np.cumsum(out, axis=0, out=out)
