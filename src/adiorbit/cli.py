"""Scenario-driven command line front end.

Scenarios are flat key-value text files (``section.key = value``, ``#``
comments). Four subcommands share them:

* ``evolve``  - run the pipeline, write the evolution CSV and a JSON summary;
* ``check``   - evaluate the adiabaticity criteria, write a JSON report;
* ``fourier`` - evaluate the harmonic sufficient condition per level pair;
* ``sweep``   - rerun a scenario over a list of parameter values.

All output is deterministic: fixed column order, floats printed with 17
significant digits, JSON keys sorted, and every report embeds the fully
resolved configuration. Exit codes: 0 success, 2 configuration or usage
error, 3 numerical failure.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ._csv import write_rows
from .errors import AdiorbitError, ConfigError, InputError, NumericalError
from .grid import TimeGrid
from .model import (
    ConjugatedParams,
    HamiltonianModel,
    SpinHalfParams,
    SpinVariant,
    build_conjugated_model,
    build_spin_half,
    load_tabulated_model,
)
from .perturb import DEFAULT_THRESHOLD, evaluate_conditions
from .pipeline import PipelineResult, run_pipeline
from .spectrum import Gauge, GammaMethod

_KNOWN_KEYS = {
    "model.kind",
    "model.variant",
    "model.omega0",
    "model.omega",
    "model.theta",
    "model.energies",
    "model.generator",
    "model.eigenbasis",
    "model.path",
    "grid.tau_end",
    "grid.n_steps",
    "evolve.initial_level",
    "spectrum.gauge",
    "spectrum.gamma_method",
    "spectrum.gap_tol",
    "conditions.threshold",
    "conditions.tau_end",
    "fourier.period",
    "fourier.n_harmonics",
    "fourier.linearity_tol",
    "fourier.resonance_tol",
    "sweep.parameter",
    "sweep.values",
}

_SWEEPABLE = {
    "model.omega0",
    "model.omega",
    "model.theta",
    "grid.tau_end",
    "grid.n_steps",
    "spectrum.gap_tol",
    "conditions.threshold",
    "conditions.tau_end",
}


def parse_config_text(text: str, origin: str = "config") -> dict[str, str]:
    """Flat ``key = value`` lines into a dict, validating key names."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def _get_float(cfg, key, default=None) -> Optional[float]:
    if key not in cfg:
        if default is None:
            return None
        return default
    try:
        value = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {cfg[key]!r}")
    return value


def _get_positive(cfg, key, default=None) -> Optional[float]:
    value = _get_float(cfg, key, default)
    if value is not None and not value > 0:
        raise ConfigError(f"{key} must be > 0, got {cfg[key]!r}")
    return value


def _get_int(cfg, key, default=None) -> Optional[int]:
    value = _get_float(cfg, key, default)
    if value is None:
        return None
    if value != int(value):
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}")
    return int(value)


def _parse_matrix(text: str, key: str) -> np.ndarray:
    try:
        rows = [
            [complex(entry.replace(" ", "")) for entry in row.split(",")]
            for row in text.split(";")
        ]
    except ValueError as exc:
        raise ConfigError(f"{key}: could not parse matrix entries") from exc
    lengths = {len(r) for r in rows}
    if len(lengths) != 1 or len(rows) != lengths.pop():
        raise ConfigError(f"{key}: matrix must be square ('; ' rows, ',' entries)")
    matrix = np.array(rows, dtype=complex)
    if not np.isfinite(matrix).all():
        raise ConfigError(f"{key}: matrix entries must be finite")
    return matrix


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario: the built model plus every resolved knob."""

    raw: dict[str, str]
    model: HamiltonianModel
    grid: TimeGrid
    initial_level: int
    gauge: Gauge
    gamma_method: GammaMethod
    gap_tol: float
    threshold: float
    conditions_tau_end: float
    fourier_period: Optional[float]
    fourier_harmonics: int
    linearity_tol: float
    resonance_tol: Optional[float]


def _build_model(cfg: dict[str, str]) -> HamiltonianModel:
    kind = cfg.get("model.kind")
    if kind is None:
        raise ConfigError("model.kind is required")
    if kind == "spin_half":
        variant_text = cfg.get("model.variant", "a").lower()
        try:
            variant = SpinVariant(variant_text)
        except ValueError as exc:
            raise ConfigError(f"model.variant must be 'a' or 'b', got {variant_text!r}") from exc
        omega0 = _get_float(cfg, "model.omega0")
        omega = _get_float(cfg, "model.omega")
        theta = _get_float(cfg, "model.theta")
        if omega0 is None or omega is None or theta is None:
            raise ConfigError("spin_half needs model.omega0, model.omega, model.theta")
        try:
            params = SpinHalfParams(omega0=omega0, omega=omega, theta=theta, variant=variant)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return build_spin_half(params)
    if kind == "conjugated":
        if "model.energies" not in cfg or "model.generator" not in cfg:
            raise ConfigError("conjugated needs model.energies and model.generator")
        try:
            energies = [float(e) for e in cfg["model.energies"].split(",")]
        except ValueError as exc:
            raise ConfigError("model.energies must be a comma list of reals") from exc
        generator = _parse_matrix(cfg["model.generator"], "model.generator")
        eigenbasis = (
            _parse_matrix(cfg["model.eigenbasis"], "model.eigenbasis")
            if "model.eigenbasis" in cfg
            else None
        )
        try:
            return build_conjugated_model(
                ConjugatedParams(energies=energies, generator=generator, eigenbasis=eigenbasis)
            )
        except (ValueError, InputError) as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "tabulated":
        if "model.path" not in cfg:
            raise ConfigError("tabulated needs model.path")
        path = Path(cfg["model.path"])
        if not path.exists():
            raise ConfigError(f"model file not found: {path}")
        return load_tabulated_model(path)
    raise ConfigError(f"unknown model.kind {kind!r}")


def build_scenario(cfg: dict[str, str]) -> ScenarioConfig:
    tau_end = _get_float(cfg, "grid.tau_end")
    n_steps = _get_int(cfg, "grid.n_steps")
    if tau_end is None or n_steps is None:
        raise ConfigError("grid.tau_end and grid.n_steps are required")
    try:
        grid = TimeGrid(tau_end=tau_end, n_steps=n_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    model = _build_model(cfg)
    initial_level = _get_int(cfg, "evolve.initial_level", 0)
    if not 0 <= initial_level < model.dimension:
        raise ConfigError(
            f"evolve.initial_level {initial_level} out of range for dimension {model.dimension}"
        )

    gauge_text = cfg.get("spectrum.gauge", "continuity")
    try:
        gauge = Gauge(gauge_text)
    except ValueError as exc:
        raise ConfigError("spectrum.gauge must be 'continuity' or 'analytic'") from exc
    if gauge is Gauge.ANALYTIC and model.analytic_frame is None:
        raise ConfigError(
            f"spectrum.gauge = analytic needs a closed-form eigenframe, "
            f"which model {model.name!r} does not have"
        )
    method_text = cfg.get("spectrum.gamma_method", "fd")
    try:
        gamma_method = GammaMethod(method_text)
    except ValueError as exc:
        raise ConfigError("spectrum.gamma_method must be 'fd' or 'hf'") from exc

    conditions_tau_end = _get_float(cfg, "conditions.tau_end", tau_end)
    if not 0 < conditions_tau_end <= tau_end:
        raise ConfigError(
            f"conditions.tau_end must lie in (0, grid.tau_end = {tau_end:g}], "
            f"got {cfg['conditions.tau_end']!r}"
        )
    period = _get_float(cfg, "fourier.period")
    if period is None:
        period = model.period

    return ScenarioConfig(
        raw=dict(cfg),
        model=model,
        grid=grid,
        initial_level=initial_level,
        gauge=gauge,
        gamma_method=gamma_method,
        gap_tol=_get_positive(cfg, "spectrum.gap_tol", 1e-6),
        threshold=_get_positive(cfg, "conditions.threshold", DEFAULT_THRESHOLD),
        conditions_tau_end=conditions_tau_end,
        fourier_period=period,
        fourier_harmonics=_get_int(cfg, "fourier.n_harmonics", 8),
        linearity_tol=_get_positive(cfg, "fourier.linearity_tol", 1e-6),
        resonance_tol=_get_positive(cfg, "fourier.resonance_tol"),
    )


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return build_scenario(parse_config_text(path.read_text(), str(path)))


def _execute(scenario: ScenarioConfig) -> PipelineResult:
    return run_pipeline(
        scenario.model,
        scenario.grid,
        initial_level=scenario.initial_level,
        gauge=scenario.gauge,
        gamma_method=scenario.gamma_method,
        gap_tol=scenario.gap_tol,
    )


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], columns):
    """Write a header line, then the rows of equal-length float columns."""
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        write_rows(fh, columns)


def _write_evolution_csv(path: Path, result: PipelineResult):
    """Stream the evolution table to ``path`` from its columns."""
    # The perturbative curves are computed on first read. Read before the
    # Schrodinger route, their temporaries are freed before the route's are
    # taken, so the heap's peak does not grow.
    p_first, p_second, p_ratio = result.p_first, result.p_second, result.p_ratio
    columns = [
        result.grid.samples,
        result.p_exact,
        result.p_direct,
        p_first,
        p_second,
        p_ratio,
        result.norm_residual,
    ]
    columns += [np.abs(c) ** 2 for c in result.coefficients.coefficients.T]
    header = ["tau", "P_exact", "P_direct", "P_first", "P_second", "P_ratio", "norm_residual"]
    header += [f"|c_{n}|^2" for n in range(result.model.dimension)]
    _write_csv(path, header, columns)


def run_evolve(scenario: ScenarioConfig, out_dir: Path) -> PipelineResult:
    """Run the pipeline and write evolution.csv plus a JSON summary."""
    result = _execute(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_evolution_csv(out_dir / "evolution.csv", result)
    _write_json(
        out_dir / "evolve_report.json",
        {
            "command": "evolve",
            "csv": "evolution.csv",
            "min_p_exact": result.min_p_exact,
            "max_norm_residual": float(result.norm_residual.max()),
            "min_gap": result.spectrum.min_gap,
            "ratio_valid": result.ratio_valid,
            "resolved_config": scenario.raw,
        },
    )
    return result


def _condition_payload(result: PipelineResult, scenario: ScenarioConfig):
    report = evaluate_conditions(
        result.frame.coupling,
        result.coefficients,
        result.grid,
        result.initial_level,
        tau_end=scenario.conditions_tau_end,
        threshold=scenario.threshold,
    )
    criteria = []
    for rec in report.records:
        entry = {
            "criterion": rec.criterion,
            "value": rec.value,
            "threshold": rec.threshold,
            "pass": rec.passed,
            "tau_end": rec.tau_end,
        }
        if rec.per_level is not None:
            entry["per_level"] = {str(k): v for k, v in rec.per_level.items()}
        criteria.append(entry)
    return report, criteria


def run_check(scenario: ScenarioConfig, out_dir: Path):
    """Evaluate all criteria and write conditions.json."""
    result = _execute(scenario)
    report, criteria = _condition_payload(result, scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(
        out_dir / "conditions.json",
        {
            "command": "check",
            "passed": report.passed,
            "criteria": criteria,
            "min_p_exact": result.min_p_exact,
            "resolved_config": scenario.raw,
        },
    )
    return report


def run_fourier(scenario: ScenarioConfig, out_dir: Path):
    """Evaluate the harmonic condition for every pair (k, m)."""
    # only this command reads the fourier module, so only it imports it
    from .fourier import check_linear_phase, fourier_condition_report, fourier_decompose_coupling

    if scenario.fourier_period is None:
        raise ConfigError(
            "the model declares no period; set fourier.period in the config"
        )
    result = _execute(scenario)
    frame = result.frame
    m = result.initial_level
    pairs = []
    for k in range(scenario.model.dimension):
        if k == m:
            continue
        linearity = check_linear_phase(frame, (k, m), scenario.linearity_tol)
        harmonics = fourier_decompose_coupling(
            np.abs(frame.coupling[:, k, m]),
            scenario.grid,
            scenario.fourier_period,
            scenario.fourier_harmonics,
        )
        report = fourier_condition_report(
            linearity,
            harmonics,
            threshold=scenario.threshold,
            resonance_tol=scenario.resonance_tol,
        )
        pairs.append(
            {
                "pair": [k, m],
                "omega0": report.omega0,
                "alpha0": linearity.alpha0,
                "is_linear": linearity.is_linear,
                "max_phase_residual": linearity.max_residual,
                "harmonics": [
                    {
                        "index": h.index,
                        "frequency": h.frequency,
                        "amplitude_re": h.amplitude.real,
                        "amplitude_im": h.amplitude.imag,
                        "ratio": report.ratios[i],
                    }
                    for i, h in enumerate(harmonics.harmonics)
                ],
                "tail_energy": harmonics.tail_energy,
                "max_ratio": report.max_ratio,
                "rabi_ratio": report.rabi_ratio,
                "resonant_indices": list(report.resonant_indices),
                "pass": report.passed,
            }
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(
        out_dir / "fourier.json",
        {
            "command": "fourier",
            "passed": all(p["pass"] for p in pairs),
            "pairs": pairs,
            "resolved_config": scenario.raw,
        },
    )
    return pairs


def _sweep_point(base_cfg: dict[str, str], parameter: str, value: float):
    cfg = dict(base_cfg)
    cfg[parameter] = repr(value)
    scenario = build_scenario(cfg)
    result = _execute(scenario)
    report, _ = _condition_payload(result, scenario)
    return {
        "value": value,
        "min_p_exact": result.min_p_exact,
        "FirstOrder": report["FirstOrder"].value,
        "SecondOrder": report["SecondOrder"].value,
        "RatioFirstIter": report["RatioFirstIter"].value,
        "CompactFunctional": report["CompactFunctional"].value,
    }


def run_sweep(scenario: ScenarioConfig, out_dir: Path, threads: int = 1):
    """Rerun the scenario for each sweep value; rows keep input order."""
    cfg = scenario.raw
    parameter = cfg.get("sweep.parameter")
    if parameter is None or "sweep.values" not in cfg:
        raise ConfigError("sweep needs sweep.parameter and sweep.values")
    if parameter not in _SWEEPABLE:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; allowed: {sorted(_SWEEPABLE)}"
        )
    try:
        values = [float(v) for v in cfg["sweep.values"].split(",")]
    except ValueError as exc:
        raise ConfigError("sweep.values must be a comma list of numbers") from exc
    if not values:
        raise ConfigError("sweep.values is empty")

    if threads > 1:
        # imported here, so the other commands do not load
        # concurrent.futures and the logging it pulls in
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda v: _sweep_point(cfg, parameter, v), values))
    else:
        rows = [_sweep_point(cfg, parameter, v) for v in values]

    criteria = ["FirstOrder", "SecondOrder", "RatioFirstIter", "CompactFunctional"]
    keys = ["value", "min_p_exact", *criteria]
    header = [parameter, "min_P_exact", *criteria]
    table = np.array([[row[key] for key in keys] for row in rows])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "sweep.csv", header, table.T)
    _write_json(
        out_dir / "sweep_report.json",
        {
            "command": "sweep",
            "parameter": parameter,
            "rows": rows,
            "csv": "sweep.csv",
            "resolved_config": cfg,
        },
    )
    return rows


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiorbit",
        description="Evolve driven quantum systems and check adiabaticity conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("evolve", "integrate a scenario and emit the evolution CSV"),
        ("check", "evaluate the adiabaticity criteria"),
        ("fourier", "evaluate the harmonic sufficient condition"),
        ("sweep", "rerun a scenario over a list of parameter values"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1, help="parallel sweep points")
        p.add_argument(
            "--threshold", type=float, default=None, help="override the pass threshold"
        )
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if args.threshold is not None:
            cfg = dict(scenario.raw)
            cfg["conditions.threshold"] = repr(args.threshold)
            scenario = build_scenario(cfg)
        out_dir = Path(args.out)
        if args.command == "evolve":
            run_evolve(scenario, out_dir)
        elif args.command == "check":
            report = run_check(scenario, out_dir)
            for rec in report.records:
                status = "pass" if rec.passed else "FAIL"
                print(f"{rec.criterion}: {rec.value:.6e} (threshold {rec.threshold:g}) {status}")
        elif args.command == "fourier":
            pairs = run_fourier(scenario, out_dir)
            for p in pairs:
                status = "pass" if p["pass"] else "FAIL"
                print(f"pair {tuple(p['pair'])}: max ratio {p['max_ratio']:.6e} {status}")
        elif args.command == "sweep":
            run_sweep(scenario, out_dir, threads=max(1, args.threads))
    except NumericalError as exc:
        print(
            f"numerical failure in {exc.module}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3
    except (InputError, OSError, MemoryError) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except AdiorbitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
