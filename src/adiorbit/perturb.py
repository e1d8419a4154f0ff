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
inner integral is A itself. One private walker forms both running
integrals one STEP_CHUNK of samples at a time, carrying their last
values across chunk edges, so the curves are filled into their (n + 1,)
results and the criteria walk only up to their horizon, with no
whole-grid temporary; every value equals the whole-grid composite
trapezoid's bit for bit. :func:`evaluate_conditions` walks once for
all three criteria. The cost stays linear in the number of steps.
Evaluation horizons (``tau_end``) snap to the nearest grid sample.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linalg import STEP_CHUNK
from .errors import RatioBreakdown
from .grid import TimeGrid, running_trapezoid
from .propagate import CoefficientTrajectory, evolve_coefficients

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


def _kernels(coupling: np.ndarray, grid: TimeGrid, level: int, stop: Optional[int] = None):
    """Yield ``(rows, A[rows], D_mm[rows])`` one STEP_CHUNK of samples at
    a time, for the samples before ``stop`` (all by default).

    A_k(tau) = int_0^tau M_km, and D_mm(tau) = int_0^tau sum_k M_mk A_k,
    the ordered double integral whose inner integral is A. Each chunk
    continues both running trapezoids from the previous chunk's last
    values of A, D_mm and D_mm's integrand, so every row equals the
    whole-grid ``cumulative_trapezoid``'s bit for bit. The yielded arrays
    are buffers that the next chunk overwrites.
    """
    column, row, dtau = coupling[:, :, level], coupling[:, level, :], grid.dtau
    stop = coupling.shape[0] if stop is None else stop
    chunk, dtype = min(STEP_CHUNK, stop), np.result_type(coupling, dtau)
    a_buf, d_buf = np.empty((chunk, column.shape[1]), dtype), np.empty(chunk, dtype)
    # D_mm's integrand, after the value carried in from the previous chunk
    g_buf = np.empty(chunk + 1, dtype)
    carry = None
    for start in range(0, stop, STEP_CHUNK):
        rows = slice(start, min(start + STEP_CHUNK, stop))
        n = rows.stop - start
        a, d_mm, g = a_buf[:n], d_buf[:n], g_buf[: n + 1]
        if carry is None:
            # both integrals are 0 at sample 0; steps fill the rows after it
            head, a_end, d_end = 1, None, None
            a[0] = d_mm[0] = 0
        else:
            head = 0
            a_end, g[0], d_end = carry
        running_trapezoid(column[start - 1 + head : rows.stop], dtau, a[head:], a_end)
        np.einsum("jk,jk->j", row[rows], a, out=g[1:])
        running_trapezoid(g[head:], dtau, d_mm[head:], d_end)
        carry = a[-1].copy(), g[-1], d_mm[-1]
        yield rows, a, d_mm


def _kernels_at(coupling: np.ndarray, grid: TimeGrid, level: int, idx: int):
    """A and D_mm at sample ``idx``, walking no further."""
    for _, a, d_mm in _kernels(coupling, grid, level, idx + 1):
        pass
    return a[-1], d_mm[-1]


def _curve(coupling: np.ndarray, grid: TimeGrid, level: int, of_kernels) -> np.ndarray:
    """``of_kernels(A, D_mm)`` at every sample, filled chunk by chunk."""
    out = np.empty(coupling.shape[0])
    for rows, a, d_mm in _kernels(coupling, grid, level):
        out[rows] = of_kernels(a, d_mm)
    return out


def _first_order_deficits(a_end: np.ndarray, level: int) -> dict[int, float]:
    return {k: float(np.abs(a_end[k]) ** 2) for k in range(a_end.shape[0]) if k != level}


def first_order_probability(coupling: np.ndarray, grid: TimeGrid, initial_level: int) -> np.ndarray:
    """P1(tau_k) = 1 - sum_{k != m} |int_0^tau M_km|^2."""
    return _curve(
        coupling, grid, initial_level, lambda a, _: 1.0 - np.sum(np.abs(a) ** 2, axis=1)
    )


def first_order_condition(
    coupling: np.ndarray,
    grid: TimeGrid,
    initial_level: int,
    tau_end: Optional[float] = None,
) -> dict[int, float]:
    """Per-level first-order deficits |int_0^tau_end M_km|^2, k != m."""
    idx = _end_index(grid, tau_end)
    a_end, _ = _kernels_at(coupling, grid, initial_level, idx)
    return _first_order_deficits(a_end, initial_level)


def second_order_probability(coupling: np.ndarray, grid: TimeGrid, initial_level: int) -> np.ndarray:
    """P2(tau_k) = |1 - D_mm(tau_k)|^2 from the ordered double integral."""
    return _curve(coupling, grid, initial_level, lambda _, d_mm: np.abs(1.0 - d_mm) ** 2)


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
    check_breakdown: bool = True,
) -> np.ndarray:
    """Product-form survival probability with first-order ratios.

    Replaces each coefficient ratio by i int_0^tau M_km, which turns the
    exact product form into exp(-2 Re D_mm(tau)). Valid only while the
    exact |c_m| stays away from zero; when ``check_breakdown`` is set the
    exact coefficients (computed on demand if not passed in) are used to
    enforce that and :class:`RatioBreakdown` is raised otherwise.
    """
    if check_breakdown:
        if coefficients is None:
            coefficients = evolve_coefficients(coupling, grid, initial_level)
        _guard_ratio(
            coefficients.coefficients, initial_level, grid.n_steps,
            "first-iteration ratio probability",
        )
    return _curve(
        coupling, grid, initial_level, lambda _, d_mm: np.exp(-2.0 * np.real(d_mm))
    )


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
