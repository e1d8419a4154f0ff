"""Uniform time grids and the quadrature helpers built on them.

Everything downstream (eigenframe tracking, phase integrals, the
propagators) assumes the same uniform grid, so convergence studies are
done by step halving rather than adaptive control. The running
trapezoid is plain numpy and follows the order of operations of
scipy's ``cumulative_trapezoid`` started at 0 bit for bit, so the
package needs no scipy at run time; it writes each of those operations
in place into its one output array. It is also the one chunk seam of
every running integral in the package: :func:`running_trapezoid` takes
the integrand and integral at the sample before its chunk and returns
those at its last sample, so a caller walking the grid a chunk at a
time makes one call per chunk and keeps nothing else across edges.
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


def running_trapezoid(values: np.ndarray, dtau: float, out: np.ndarray, carry=None):
    """The running trapezoid integral at each of ``values``, written into
    ``out`` (of the same length); returns the carry for the next chunk.

    ``carry`` is ``(integrand, integral)`` at the sample before
    ``values[0]``, each a one-row array, as the previous call returned
    it; with None the integral is 0 at ``values[0]``. The operations,
    in their order, are those of
    ``scipy.integrate.cumulative_trapezoid(values, dx=dtau, axis=0)``
    with its initial value 0 (scipy 1.17), each written in place into
    ``out``, so a call over the whole grid equals scipy's bit for bit;
    ``np.cumsum`` rather than ``np.cumulative_sum``, which needs numpy
    2.1. A chunk after the first forms the step from the sample before
    as ``values[:1] + integrand`` (new + old, as the whole grid's
    ``values[1:] + values[:-1]``) and adds that sample's integral to it
    before the cumsum, which is the addition the cumsum over the whole
    grid makes there. So an integral formed a chunk at a time, each
    call handed the carry of the one before, equals the whole-grid one
    bit for bit, for chunks of any length down to one sample.
    """
    if carry is None:
        out[:1] = 0
        steps = out[1:]
    else:
        steps = out
        np.add(values[:1], carry[0], out=steps[:1])
    np.add(values[1:], values[:-1], out=out[1:])
    np.multiply(dtau, steps, out=steps)
    np.divide(steps, 2.0, out=steps)
    if carry is not None:
        steps[:1] += carry[1]
    np.cumsum(steps, axis=0, out=steps)
    return values[-1:].copy(), out[-1:].copy()
