"""Perturbative survival probabilities and adiabaticity criteria.

Everything here is a functional of the sampled coupling matrix M (and,
for the exact-ratio criterion, of the exact coefficients). Four
criteria are evaluated, all as non-negative deficits that vanish in the
adiabatic limit:

* first order: per-level |int_0^tau M_km|^2, and the probability
  P1 = 1 - sum of those deficits;
* second order: |D_mm(tau)|^2 with D the ordered double integral of
  M M, and the probability P2 = |1 - D_mm|^2;
* ratio, first iteration: Re D_mm(tau), which is identically half the
  first-order deficit, and the product-form probability built from the
  first-order coefficient ratios;
* the exact-ratio compact functional, which reproduces
  -(1/2) ln P_exact(tau) when fed the exact coefficients.

The first three read two kernels of M: the column integrals
A_k(tau) = int_0^tau M_km, and the ordered double integral D_mm, whose
inner integral is A itself. Two private walkers form the running
integrals one STEP_CHUNK of samples at a time, carrying their last
values across chunk edges: one forms A alone, for the first-order
curve and criterion, and the other extends it with D_mm. So the curves
are filled into their (n + 1,) results and the criteria walk only up
to their horizon, with no whole-grid temporary; every value equals the
whole-grid composite trapezoid's bit for bit.
:func:`evaluate_conditions` walks once for all three criteria. The cost stays linear in the number of steps.
Evaluation horizons (``tau_end``) snap to the nearest grid sample.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linalg import STEP_CHUNK
from .errors import RatioBreakdown
from .grid import TimeGrid, running_trapezoid
from .propagate import CoefficientTrajectory

#: |c_m| below which ratio-based quantities are meaningless
RATIO_FLOOR = 0.1

#: default pass threshold for all condition values
DEFAULT_THRESHOLD = 1e-2

FIRST_ORDER = "FirstOrder"
SECOND_ORDER = "SecondOrder"
RATIO_FIRST_ITER = "RatioFirstIter"
COMPACT_FUNCTIONAL = "CompactFunctional"


@dataclass(frozen=True)
class CriterionRecord:
    """One adiabaticity criterion evaluated over [0, tau_end]."""

    criterion: str
    value: float
    threshold: float
    passed: bool
    tau_end: float
    per_level: Optional[dict[int, float]] = None


@dataclass(frozen=True)
class ConditionReport:
    """All criteria for one scenario; passes iff every criterion does."""

    records: tuple[CriterionRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def __getitem__(self, criterion: str) -> CriterionRecord:
        for r in self.records:
            if r.criterion == criterion:
                return r
        raise KeyError(criterion)


def _end_index(grid: TimeGrid, tau_end: Optional[float]) -> int:
    return grid.n_steps if tau_end is None else grid.index_of(tau_end)


def _column_integral(coupling: np.ndarray, grid: TimeGrid, level: int, stop: Optional[int] = None):
    """Yield ``(rows, A[rows])`` one STEP_CHUNK of samples at a time, for
    the samples before ``stop`` (all by default).

    A_k(tau) = int_0^tau M_km. Each chunk continues the running
    trapezoid from the previous chunk's last value, so every row equals
    the whole-grid ``cumulative_trapezoid``'s bit for bit. The yielded
    array is a buffer that the next chunk overwrites.
    """
    column = coupling[:, :, level]
    stop = coupling.shape[0] if stop is None else stop
    dtype = np.result_type(coupling, grid.dtau)
    buf = np.empty((min(STEP_CHUNK, stop), column.shape[1]), dtype)
    a_end = None
    for start in range(0, stop, STEP_CHUNK):
        rows = slice(start, min(start + STEP_CHUNK, stop))
        a = buf[: rows.stop - start]
        if a_end is None:
            # A is 0 at sample 0; steps fill the rows after it
            a[0] = 0
            running_trapezoid(column[: rows.stop], grid.dtau, a[1:])
        else:
            running_trapezoid(column[start - 1 : rows.stop], grid.dtau, a, a_end)
        a_end = a[-1].copy()
        yield rows, a


def _kernels(coupling: np.ndarray, grid: TimeGrid, level: int, stop: Optional[int] = None):
    """Yield ``(rows, A[rows], D_mm[rows])`` one STEP_CHUNK of samples at
    a time, for the samples before ``stop`` (all by default).

    D_mm(tau) = int_0^tau sum_k M_mk A_k is the ordered double integral
    whose inner integral is A (:func:`_column_integral`). Each chunk
    continues its running trapezoid from the previous chunk's last value
    of D_mm and of its integrand, so every row equals the whole-grid
    ``cumulative_trapezoid``'s bit for bit. The yielded arrays are
    buffers that the next chunk overwrites.
    """
    row = coupling[:, level, :]
    stop = coupling.shape[0] if stop is None else stop
    chunk, dtype = min(STEP_CHUNK, stop), np.result_type(coupling, grid.dtau)
    # D_mm's integrand, after the value carried in from the previous chunk
    d_buf, g_buf = np.empty(chunk, dtype), np.empty(chunk + 1, dtype)
    carry = None
    for rows, a in _column_integral(coupling, grid, level, stop):
        n = rows.stop - rows.start
        d_mm, g = d_buf[:n], g_buf[: n + 1]
        np.einsum("jk,jk->j", row[rows], a, out=g[1:])
        if carry is None:
            d_mm[0] = 0
            running_trapezoid(g[1:], grid.dtau, d_mm[1:])
        else:
            g[0], d_end = carry
            running_trapezoid(g, grid.dtau, d_mm, d_end)
        carry = g[-1], d_mm[-1]
        yield rows, a, d_mm


def _kernels_at(coupling: np.ndarray, grid: TimeGrid, level: int, idx: int):
    """A and D_mm at sample ``idx``, walking no further."""
    for _, a, d_mm in _kernels(coupling, grid, level, idx + 1):
        pass
    return a[-1], d_mm[-1]


def _d_mm_curve(coupling: np.ndarray, grid: TimeGrid, level: int, of_d_mm) -> np.ndarray:
    """``of_d_mm(D_mm)`` at every sample, filled chunk by chunk."""
    out = np.empty(coupling.shape[0])
    for rows, _, d_mm in _kernels(coupling, grid, level):
        out[rows] = of_d_mm(d_mm)
    return out


def _first_order_deficits(a_end: np.ndarray, level: int) -> dict[int, float]:
    return {k: float(np.abs(a_end[k]) ** 2) for k in range(a_end.shape[0]) if k != level}


def first_order_probability(coupling: np.ndarray, grid: TimeGrid, initial_level: int) -> np.ndarray:
    """P1(tau_k) = 1 - sum_{k != m} |int_0^tau M_km|^2, from A alone."""
    out = np.empty(coupling.shape[0])
    for rows, a in _column_integral(coupling, grid, initial_level):
        out[rows] = 1.0 - np.sum(np.abs(a) ** 2, axis=1)
    return out


def first_order_condition(
    coupling: np.ndarray,
    grid: TimeGrid,
    initial_level: int,
    tau_end: Optional[float] = None,
) -> dict[int, float]:
    """Per-level first-order deficits |int_0^tau_end M_km|^2, k != m."""
    for _, a in _column_integral(coupling, grid, initial_level, _end_index(grid, tau_end) + 1):
        pass
    return _first_order_deficits(a[-1], initial_level)


def second_order_probability(coupling: np.ndarray, grid: TimeGrid, initial_level: int) -> np.ndarray:
    """P2(tau_k) = |1 - D_mm(tau_k)|^2 from the ordered double integral."""
    return _d_mm_curve(coupling, grid, initial_level, lambda d_mm: np.abs(1.0 - d_mm) ** 2)


def _guard_ratio(coefficients: np.ndarray, level: int, idx: int, what: str):
    floor = float(np.abs(coefficients[: idx + 1, level]).min())
    if floor < RATIO_FLOOR:
        raise RatioBreakdown(
            f"{what}: |c_{level}| dips to {floor:.3f} < {RATIO_FLOOR}; the state leaves "
            "the initial orbit and coefficient ratios are no longer a valid expansion"
        )


def ratio_probability_first_iteration(
    coupling: np.ndarray,
    grid: TimeGrid,
    initial_level: int,
    coefficients: Optional[CoefficientTrajectory] = None,
) -> np.ndarray:
    """Product-form survival probability with first-order ratios.

    Replaces each coefficient ratio by i int_0^tau M_km, which turns the
    exact product form into exp(-2 Re D_mm(tau)). Valid only while the
    exact |c_m| stays away from zero; when the exact ``coefficients`` are
    passed in, :class:`RatioBreakdown` is raised unless they do.
    """
    if coefficients is not None:
        _guard_ratio(
            coefficients.coefficients, initial_level, grid.n_steps,
            "first-iteration ratio probability",
        )
    return _d_mm_curve(coupling, grid, initial_level, lambda d_mm: np.exp(-2.0 * np.real(d_mm)))


def compact_condition_functional(
    coupling: np.ndarray,
    coefficients: CoefficientTrajectory,
    grid: TimeGrid,
    initial_level: int,
    tau_end: Optional[float] = None,
) -> float:
    """Exact-ratio adiabaticity functional over [0, tau_end].

    Evaluates the accumulated real rate of leaving the initial orbit
    using the exact coefficient ratios c_k / c_m; by construction the
    value equals -(1/2) ln P_exact(tau_end) up to quadrature error, so
    exp(-2 value) recovers the exact survival probability. Non-negative,
    and vanishing exactly in the adiabatic limit.

    Raises :class:`RatioBreakdown` when |c_m| dips below 0.1 anywhere in
    the range, where the expansion in ratios loses meaning. The ratios
    are formed one STEP_CHUNK of samples at a time; only the real
    integrand is kept over the range.
    """
    if not grid.matches(coefficients.grid):
        raise ValueError("coefficients were computed on a different grid")
    idx = _end_index(grid, tau_end)
    c = coefficients.coefficients
    _guard_ratio(c, initial_level, idx, "compact condition functional")
    integrand = np.empty(idx + 1)
    for start in range(0, idx + 1, STEP_CHUNK):
        rows = slice(start, min(start + STEP_CHUNK, idx + 1))
        ratios = c[rows] / c[rows, initial_level][:, None]
        integrand[rows] = np.einsum("jk,jk->j", coupling[rows, initial_level, :], ratios).imag
    # value = -Re{ i int ... } = Im int ...
    return float(np.trapezoid(integrand, dx=grid.dtau))


def evaluate_conditions(
    coupling: np.ndarray,
    coefficients: CoefficientTrajectory,
    grid: TimeGrid,
    initial_level: int,
    tau_end: Optional[float] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> ConditionReport:
    """Evaluate all four criteria at the same horizon and threshold.

    A and D_mm are walked once, up to the horizon, and shared by the
    first-order, second-order and first-iteration ratio criteria.
    """
    idx = _end_index(grid, tau_end)
    t_end = grid.samples[idx]
    a_end, d_end = _kernels_at(coupling, grid, initial_level, idx)
    per_level = _first_order_deficits(a_end, initial_level)
    first = max(per_level.values())
    second = float(np.abs(d_end) ** 2)
    ratio = float(np.real(d_end))
    compact = compact_condition_functional(
        coupling, coefficients, grid, initial_level, t_end
    )

    def record(name, value, levels=None):
        return CriterionRecord(
            criterion=name,
            value=float(value),
            threshold=threshold,
            passed=bool(value < threshold),
            tau_end=float(t_end),
            per_level=levels,
        )

    return ConditionReport(
        records=(
            record(FIRST_ORDER, first, per_level),
            record(SECOND_ORDER, second),
            record(RATIO_FIRST_ITER, ratio),
            record(COMPACT_FUNCTIONAL, compact),
        )
    )
