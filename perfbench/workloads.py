"""Scenario workloads for the adiorbit benchmark and the checks on their outputs.

Each workload turns a seed into one scenario file and one CLI command.
The CLI sees only the generated scenario; the closed forms used to check
its outputs live here and never reach the program.

* ``evolve_spin_a`` - ``evolve`` on rotating-field spin-1/2 (variant a),
  the 2e5-step baseline scenario that writes the 41 MB evolution CSV.
* ``sweep_spin_b``  - ``sweep --threads 2`` over four rotation rates on the
  conjugated dual (variant b); every point rebuilds the model, which
  propagates variant a and fits a spline.
* ``check_conj_d5`` - ``check`` on a d=5 conjugated model, the d>2 eigh
  path with d^2 frame loops.

Checks return a list of human-readable failures (empty when the outputs
are right) and the largest survival-probability error the outputs show
against the closed form.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CRITERIA = ("FirstOrder", "SecondOrder", "RatioFirstIter", "CompactFunctional")
EVOLVE_HEADER = "tau,P_exact,P_direct,P_first,P_second,P_ratio,norm_residual"
SWEEP_VALUES = (0.4, 0.2, 0.1, 0.05)

# Tolerances, set from the scheme's error at these step sizes (observed
# errors are 1e-9 for spin a, 3e-6 for spin b and 1e-8 for the conjugated
# model) with at least 30x margin.
SPIN_A_TOL = 1e-6
SPIN_B_TOL = 1e-4
CONJ_TOL = 1e-6
DIRECT_TOL = 1e-6
NORM_TOL = 1e-9


@dataclass(frozen=True)
class Case:
    """One generated input: the scenario text plus what the checks need."""

    workload: str
    command: str
    threads: int
    config: dict
    params: dict = field(default_factory=dict)

    @property
    def tau_end(self) -> float:
        return float(self.config["grid.tau_end"])

    @property
    def n_steps(self) -> int:
        return int(self.config["grid.n_steps"])

    def samples(self) -> np.ndarray:
        return np.linspace(0.0, self.tau_end, self.n_steps + 1)

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())

    def cli_args(self, config_path, out_dir, threads=None) -> list:
        threads = self.threads if threads is None else threads
        return [self.command, "--config", str(config_path), "--out", str(out_dir),
                "--threads", str(threads)]


def _grid(tau_end: float, n_steps: int, scale: float) -> dict:
    # scale shrinks tau_end and n_steps together, keeping the step size
    return {
        "grid.tau_end": repr(tau_end * scale),
        "grid.n_steps": str(max(8, int(round(n_steps * scale)))),
    }


def _theta(rng) -> float:
    return float(rng.uniform(math.pi / 6, math.pi / 3))


def _complex_text(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _matrix_text(mat: np.ndarray) -> str:
    return "; ".join(", ".join(_complex_text(complex(z)) for z in row) for row in mat)


def make_case(workload: str, seed: int, scale: float = 1.0) -> Case:
    """The scenario for ``workload`` drawn from ``seed``.

    ``scale`` < 1 shrinks the time range and step count together (same
    step size), for smoke tests.
    """
    rng = np.random.default_rng(seed)
    if workload == "evolve_spin_a":
        theta = _theta(rng)
        config = {
            "model.kind": "spin_half",
            "model.variant": "a",
            "model.omega0": "1.0",
            "model.omega": "0.1",
            "model.theta": repr(theta),
            **_grid(200.0, 200_000, scale),
        }
        return Case(workload, "evolve", 1, config, {"theta": theta})
    if workload == "sweep_spin_b":
        theta = _theta(rng)
        config = {
            "model.kind": "spin_half",
            "model.variant": "b",
            "model.omega0": "1.0",
            "model.omega": "0.1",
            "model.theta": repr(theta),
            **_grid(200.0, 50_000, scale),
            "sweep.parameter": "model.omega",
            "sweep.values": ", ".join(repr(v) for v in SWEEP_VALUES),
        }
        return Case(workload, "sweep", 2, config, {"theta": theta})
    if workload == "check_conj_d5":
        d = 5
        energies = np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 2.0, d - 1))])
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        generator = 0.05 * (g + g.conj().T) / 2.0
        config = {
            "model.kind": "conjugated",
            "model.energies": ", ".join(repr(float(e)) for e in energies),
            "model.generator": _matrix_text(generator),
            **_grid(40.0, 40_000, scale),
        }
        return Case(workload, "check", 1, config,
                    {"energies": energies, "generator": generator})
    raise KeyError(f"unknown workload {workload!r}")


WORKLOADS = ("evolve_spin_a", "sweep_spin_b", "check_conj_d5")


# ---- closed forms -----------------------------------------------------------

def spin_a_survival(taus, theta, omega0=1.0, omega=0.1):
    wt = math.sqrt(omega0**2 + omega**2 + 2.0 * omega0 * omega * math.cos(theta))
    depth = omega**2 * math.sin(theta) ** 2 / wt**2
    return 1.0 - depth * np.sin(wt * taus / 2.0) ** 2


def spin_b_survival(taus, theta, omega):
    return 1.0 - math.sin(theta) ** 2 * np.sin(omega * taus / 2.0) ** 2


def conjugated_survival(taus, energies, generator, level=0):
    """|(exp(i tau (W - Delta)))_mm|^2 with W = V off its diagonal and
    Delta = diag(E - V_nn), for the identity eigenbasis."""
    v_diag = np.real(np.diag(generator))
    w = generator - np.diag(np.diag(generator))
    lam, u = np.linalg.eigh(w - np.diag(np.asarray(energies) - v_diag))
    amp = np.exp(1j * np.multiply.outer(taus, lam)) @ (np.abs(u[level]) ** 2)
    return np.abs(amp) ** 2


# ---- output checks ----------------------------------------------------------

def _read_json(path: Path, failures: list):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        failures.append(f"{path.name}: {exc}")
        return None


def _check_evolve(case: Case, out: Path, failures: list) -> float:
    report = _read_json(out / "evolve_report.json", failures)
    csv = out / "evolution.csv"
    try:
        with csv.open() as fh:
            header = fh.readline().strip()
        data = np.loadtxt(csv, delimiter=",", skiprows=1, usecols=(0, 1, 2, 6), ndmin=2)
    except (OSError, ValueError) as exc:
        failures.append(f"evolution.csv: {exc}")
        return math.inf
    if header != EVOLVE_HEADER + ",|c_0|^2,|c_1|^2":
        failures.append(f"evolution.csv: unexpected header {header!r}")
    taus = case.samples()
    if data.shape[0] != taus.size:
        failures.append(f"evolution.csv: {data.shape[0]} rows, expected {taus.size}")
        return math.inf
    tau, p_exact, p_direct, residual = data.T
    if np.abs(tau - taus).max() > 1e-9:
        failures.append("evolution.csv: tau column is not the scenario grid")
    err = float(np.abs(p_exact - spin_a_survival(taus, case.params["theta"])).max())
    if not err <= SPIN_A_TOL:
        failures.append(f"P_exact off the closed form by {err:.3e}")
    direct = float(np.abs(p_direct - p_exact).max())
    if not direct <= DIRECT_TOL:
        failures.append(f"P_direct differs from P_exact by {direct:.3e}")
    if not residual.max() < NORM_TOL:
        failures.append(f"norm residual {residual.max():.3e} >= {NORM_TOL}")
    if report is not None:
        if report.get("min_p_exact") != float(p_exact.min()):
            failures.append("evolve_report.json: min_p_exact disagrees with the CSV")
        if not report.get("max_norm_residual", math.inf) < NORM_TOL:
            failures.append("evolve_report.json: max_norm_residual too large")
    return err


def _check_sweep(case: Case, out: Path, failures: list) -> float:
    report = _read_json(out / "sweep_report.json", failures)
    try:
        header, *lines = (out / "sweep.csv").read_text().splitlines()
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines], ndmin=2)
    except (OSError, ValueError) as exc:
        failures.append(f"sweep.csv: {exc}")
        return math.inf
    if header != "model.omega,min_P_exact," + ",".join(CRITERIA):
        failures.append(f"sweep.csv: unexpected header {header!r}")
    if rows.shape != (len(SWEEP_VALUES), 2 + len(CRITERIA)):
        failures.append(f"sweep.csv: shape {rows.shape}")
        return math.inf
    if list(rows[:, 0]) != list(SWEEP_VALUES):
        failures.append("sweep.csv: rows are not in input order")
    taus = case.samples()
    err = 0.0
    for omega, min_p in zip(SWEEP_VALUES, rows[:, 1]):
        expected = float(spin_b_survival(taus, case.params["theta"], omega).min())
        err = max(err, abs(min_p - expected))
    if not err <= SPIN_B_TOL:
        failures.append(f"min_P_exact off the closed form by {err:.3e}")
    if not np.all(np.isfinite(rows)) or rows[:, 2:].min() < 0.0:
        failures.append("sweep.csv: criterion values must be finite and non-negative")
    if report is not None:
        got = [r.get("min_p_exact") for r in report.get("rows", [])]
        if got != list(rows[:, 1]):
            failures.append("sweep_report.json: rows disagree with sweep.csv")
    return err


def _check_conditions(case: Case, out: Path, failures: list) -> float:
    report = _read_json(out / "conditions.json", failures)
    if report is None:
        return math.inf
    values = {c.get("criterion"): c.get("value") for c in report.get("criteria", [])}
    if tuple(values) != CRITERIA:
        failures.append(f"conditions.json: criteria {tuple(values)}")
        return math.inf
    taus = case.samples()
    p_closed = conjugated_survival(taus, case.params["energies"], case.params["generator"])
    min_p = report.get("min_p_exact")
    if not isinstance(min_p, float):
        failures.append("conditions.json: min_p_exact missing")
        return math.inf
    err = abs(min_p - float(p_closed.min()))
    if not err <= CONJ_TOL:
        failures.append(f"min_p_exact off the closed form by {err:.3e}")
    compact = values["CompactFunctional"]
    compact_err = abs(compact + 0.5 * math.log(p_closed[-1]))
    if not compact_err <= CONJ_TOL:
        failures.append(f"CompactFunctional off -ln(P)/2 by {compact_err:.3e}")
    return err


_CHECKS = {"evolve": _check_evolve, "sweep": _check_sweep, "check": _check_conditions}


def check_outputs(case: Case, out_dir) -> tuple:
    """(failures, p_exact_err) for the outputs the case's command wrote."""
    failures: list = []
    try:
        err = _CHECKS[case.command](case, Path(out_dir), failures)
    except (KeyError, TypeError, AttributeError, IndexError, ValueError) as exc:
        # outputs of the wrong shape or type: a failed check, not a crash
        failures.append(f"malformed output: {type(exc).__name__}: {exc}")
        err = math.inf
    return failures, err
