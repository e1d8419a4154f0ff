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
inner integral is A itself. :func:`evaluate_conditions` builds A once
and D_mm once from it; each public probability and condition function
is a thin view over the same two private helpers. Integrals use the
composite trapezoid, so the cost stays linear in the number of steps.
Evaluation horizons (``tau_end``) snap to the nearest grid sample.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RatioBreakdown
from .grid import TimeGrid, cumulative_trapezoid
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


def _column_integrals(coupling: np.ndarray, grid: TimeGrid, level: int) -> np.ndarray:
    """Running integrals A_k(tau) = int_0^tau M_km dlambda, shape (n+1, d)."""
    return cumulative_trapezoid(coupling[:, :, level], grid.dtau)


def _double_integral_kernel(
    coupling: np.ndarray, column_integrals: np.ndarray, grid: TimeGrid, level: int
) -> np.ndarray:
    """D_mm(tau_k) = int_0^tau dl1 sum_k M_mk(l1) int_0^l1 dl2 M_km(l2).

    ``column_integrals`` is the inner integral, A from
    :func:`_column_integrals` for the same level.
    """
    integrand = np.einsum("jk,jk->j", coupling[:, level, :], column_integrals)
    return cumulative_trapezoid(integrand, grid.dtau)


def _first_order_deficits(a_end: np.ndarray, level: int) -> dict[int, float]:
    return {k: float(np.abs(a_end[k]) ** 2) for k in range(a_end.shape[0]) if k != level}


def first_order_probability(coupling: np.ndarray, grid: TimeGrid, initial_level: int) -> np.ndarray:
    """P1(tau_k) = 1 - sum_{k != m} |int_0^tau M_km|^2."""
    a = _column_integrals(coupling, grid, initial_level)
    return 1.0 - np.sum(np.abs(a) ** 2, axis=1)


def first_order_condition(
    coupling: np.ndarray,
    grid: TimeGrid,
    initial_level: int,
    tau_end: Optional[float] = None,
) -> dict[int, float]:
    """Per-level first-order deficits |int_0^tau_end M_km|^2, k != m."""
    idx = _end_index(grid, tau_end)
    a = _column_integrals(coupling, grid, initial_level)
    return _first_order_deficits(a[idx], initial_level)


def second_order_probability(coupling: np.ndarray, grid: TimeGrid, initial_level: int) -> np.ndarray:
    """P2(tau_k) = |1 - D_mm(tau_k)|^2 from the ordered double integral."""
    a = _column_integrals(coupling, grid, initial_level)
    d_mm = _double_integral_kernel(coupling, a, grid, initial_level)
    return np.abs(1.0 - d_mm) ** 2


def second_order_condition(
    coupling: np.ndarray,
    grid: TimeGrid,
    initial_level: int,
    tau_end: Optional[float] = None,
) -> float:
    """|D_mm(tau_end)|^2, the squared second-order kernel."""
    idx = _end_index(grid, tau_end)
    a = _column_integrals(coupling, grid, initial_level)
    return float(np.abs(_double_integral_kernel(coupling, a, grid, initial_level)[idx]) ** 2)


def ratio_condition_first_order(
    coupling: np.ndarray,
    grid: TimeGrid,
    initial_level: int,
    tau_end: Optional[float] = None,
) -> float:
    """Re D_mm(tau_end): the first-iteration ratio criterion.

    Equals the real part of the second-order kernel, and identically
    half the total first-order deficit, so it is non-negative.
    """
    idx = _end_index(grid, tau_end)
    a = _column_integrals(coupling, grid, initial_level)
    return float(np.real(_double_integral_kernel(coupling, a, grid, initial_level)[idx]))


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
    a = _column_integrals(coupling, grid, initial_level)
    d_mm = _double_integral_kernel(coupling, a, grid, initial_level)
    return np.exp(-2.0 * np.real(d_mm))


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
    the range, where the expansion in ratios loses meaning.
    """
    if not grid.matches(coefficients.grid):
        raise ValueError("coefficients were computed on a different grid")
    idx = _end_index(grid, tau_end)
    c = coefficients.coefficients
    _guard_ratio(c, initial_level, idx, "compact condition functional")
    ratios = c[: idx + 1] / c[: idx + 1, initial_level][:, None]
    integrand = np.einsum("jk,jk->j", coupling[: idx + 1, initial_level, :], ratios)
    # value = -Re{ i int ... } = Im int ...
    return float(np.trapezoid(integrand.imag, dx=grid.dtau))


def evaluate_conditions(
    coupling: np.ndarray,
    coefficients: CoefficientTrajectory,
    grid: TimeGrid,
    initial_level: int,
    tau_end: Optional[float] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> ConditionReport:
    """Evaluate all four criteria at the same horizon and threshold.

    A and D_mm are built once here and shared by the first-order,
    second-order and first-iteration ratio criteria.
    """
    idx = _end_index(grid, tau_end)
    t_end = grid.samples[idx]
    a = _column_integrals(coupling, grid, initial_level)
    d_end = _double_integral_kernel(coupling, a, grid, initial_level)[idx]
    per_level = _first_order_deficits(a[idx], initial_level)
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
