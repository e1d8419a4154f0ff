"""Scenario-driven command line front end.

Scenarios are flat key-value text files (``section.key = value``, ``#``
comments). Four subcommands share them:

* ``evolve``  - run the pipeline, write the evolution CSV and a JSON summary;
* ``check``   - evaluate the adiabaticity criteria, write a JSON report;
* ``fourier`` - evaluate the harmonic sufficient condition per level pair;
* ``sweep``   - rerun a scenario over a list of parameter values.

One table, ``_SCHEMA``, declares every key: its parser, its default or
that it is required, whether ``sweep`` may vary it, and the model kinds
it applies to. Every key present is parsed and checked, whatever the
command, and each of ``sweep.values`` is also parsed by the swept key's
row; a key of another model kind, or a ``sweep.parameter`` that the
model kind does not read, is a configuration error.

All output is deterministic: fixed column order, floats printed with 17
significant digits, JSON keys sorted, and every report embeds the fully
resolved configuration. Exit codes: 0 success, 2 configuration or usage
error, 3 numerical failure; a NaN or infinity in the report of
``evolve``, ``check`` or ``sweep`` is one, and no output is written.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._linalg import STEP_CHUNK
from .errors import AdiorbitError, ConfigError, InputError, NonFiniteReport, NumericalError
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
from .pipeline import PipelineResult, run_frame, run_pipeline
from .propagate import norm_residuals
from .spectrum import Gauge, GammaMethod


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


def _number(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def _positive(key: str, text: str) -> float:
    value = _number(key, text)
    if not value > 0:
        raise ConfigError(f"{key} must be > 0, got {text!r}")
    return value


def _count(key: str, text: str) -> int:
    value = _number(key, text)
    if value != int(value) or value < 0:
        raise ConfigError(f"{key} must be an integer >= 0, got {text!r}")
    return int(value)


def _numbers(key: str, text: str) -> list[float]:
    return [_number(f"each entry of {key}", entry) for entry in text.split(",")]


def _choice(key: str, text: str, choices):
    """The one of ``choices`` (strings, or an enum's members) that ``text`` names."""
    for choice in choices:
        if text == getattr(choice, "value", choice):
            return choice
    names = ", ".join(repr(getattr(choice, "value", choice)) for choice in choices)
    raise ConfigError(f"{key} must be one of {names}, got {text!r}")


def _matrix(key: str, text: str) -> np.ndarray:
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


_REQUIRED = object()

# key: (parser, default or _REQUIRED, sweepable, the model kinds it applies
# to or None for all). model.kind comes first: the rows after it read it.
_SCHEMA = {
    "model.kind": (
        lambda k, t: _choice(k, t, ("spin_half", "conjugated", "tabulated")), _REQUIRED, False, None
    ),
    "model.variant": (
        lambda k, t: _choice(k, t.lower(), SpinVariant), SpinVariant.A, False, ("spin_half",)
    ),
    "model.omega0": (_positive, _REQUIRED, True, ("spin_half",)),
    "model.omega": (_number, _REQUIRED, True, ("spin_half",)),
    "model.theta": (_number, _REQUIRED, True, ("spin_half",)),
    "model.energies": (_numbers, _REQUIRED, False, ("conjugated",)),
    "model.generator": (_matrix, _REQUIRED, False, ("conjugated",)),
    "model.eigenbasis": (_matrix, None, False, ("conjugated",)),
    "model.path": (lambda k, t: Path(t), _REQUIRED, False, ("tabulated",)),
    "grid.tau_end": (_positive, _REQUIRED, True, None),
    "grid.n_steps": (_count, _REQUIRED, True, None),
    "evolve.initial_level": (_count, 0, False, None),
    "spectrum.gauge": (lambda k, t: _choice(k, t, Gauge), Gauge.CONTINUITY_FIXED, False, None),
    "spectrum.gamma_method": (
        lambda k, t: _choice(k, t, GammaMethod), GammaMethod.FINITE_DIFFERENCE, False, None
    ),
    "spectrum.gap_tol": (_positive, 1e-6, True, None),
    "conditions.threshold": (_positive, DEFAULT_THRESHOLD, True, None),
    # build_scenario defaults these two to grid.tau_end and the model's period
    "conditions.tau_end": (_positive, None, True, None),
    "fourier.period": (_positive, None, False, None),
    "fourier.n_harmonics": (_count, 8, False, None),
    "fourier.linearity_tol": (_positive, 1e-6, False, None),
    "fourier.resonance_tol": (_positive, None, False, None),
    "sweep.parameter": (lambda k, t: _choice(k, t, _SWEEPABLE), None, False, None),
    "sweep.values": (_numbers, None, False, None),
}
_KNOWN_KEYS = frozenset(_SCHEMA)
_SWEEPABLE = tuple(key for key, row in _SCHEMA.items() if row[2])


def _resolve(cfg: dict[str, str]) -> dict:
    """Every key of the table that applies to the model kind, parsed from
    ``cfg`` or defaulted; a key of another kind is an error."""
    resolved = {}
    for key, (parse, default, _, kinds) in _SCHEMA.items():
        kind = resolved.get("model.kind")
        if kinds is not None and kind not in kinds:
            if key in cfg:
                raise ConfigError(f"{key} does not apply to model.kind = {kind}")
        elif key in cfg:
            resolved[key] = parse(key, cfg[key])
        elif default is _REQUIRED:
            raise ConfigError(f"{key} is required")
        else:
            resolved[key] = default
    parameter = resolved["sweep.parameter"]
    if parameter is not None and parameter not in resolved:
        raise ConfigError(f"sweep.parameter {parameter} does not apply to model.kind = {kind}")
    if parameter is not None and resolved["sweep.values"] is not None:
        # each value is checked as the sweep point that sets it will parse it
        for value in resolved["sweep.values"]:
            _SCHEMA[parameter][0](parameter, repr(value))
    return resolved


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario: the raw keys, the built model and grid, and the
    value of every key that applies to the model kind."""

    raw: dict[str, str]
    model: HamiltonianModel
    grid: TimeGrid
    resolved: dict


def _build_model(resolved: dict) -> HamiltonianModel:
    kind = resolved["model.kind"]
    # the keys of one model kind are named after the fields of its parameters
    params = {
        key.removeprefix("model."): value
        for key, value in resolved.items()
        if _SCHEMA[key][3] == (kind,)
    }
    try:
        if kind == "spin_half":
            return build_spin_half(SpinHalfParams(**params))
        if kind == "conjugated":
            return build_conjugated_model(ConjugatedParams(**params))
    except (ValueError, InputError) as exc:
        raise ConfigError(str(exc)) from exc
    if not params["path"].exists():
        raise ConfigError(f"model file not found: {params['path']}")
    return load_tabulated_model(params["path"])


def build_scenario(cfg: dict[str, str]) -> ScenarioConfig:
    resolved = _resolve(cfg)
    try:
        grid = TimeGrid(tau_end=resolved["grid.tau_end"], n_steps=resolved["grid.n_steps"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    model = _build_model(resolved)
    if resolved["evolve.initial_level"] >= model.dimension:
        raise ConfigError(
            f"evolve.initial_level {resolved['evolve.initial_level']} out of range "
            f"for dimension {model.dimension}"
        )
    if resolved["spectrum.gauge"] is Gauge.ANALYTIC and model.analytic_frame is None:
        raise ConfigError(
            f"spectrum.gauge = analytic needs a closed-form eigenframe, "
            f"which model {model.name!r} does not have"
        )
    # both are > 0 when set, so `or` falls back only when they are unset
    resolved["conditions.tau_end"] = resolved["conditions.tau_end"] or grid.tau_end
    if resolved["conditions.tau_end"] > grid.tau_end:
        raise ConfigError(
            f"conditions.tau_end must lie in (0, grid.tau_end = {grid.tau_end:g}], "
            f"got {cfg['conditions.tau_end']!r}"
        )
    resolved["fourier.period"] = resolved["fourier.period"] or model.period
    return ScenarioConfig(raw=dict(cfg), model=model, grid=grid, resolved=resolved)


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return build_scenario(parse_config_text(path.read_text(), str(path)))


def _stage_options(resolved: dict) -> dict:
    return {
        "gauge": resolved["spectrum.gauge"],
        "gamma_method": resolved["spectrum.gamma_method"],
        "gap_tol": resolved["spectrum.gap_tol"],
    }


def _execute(scenario: ScenarioConfig) -> PipelineResult:
    resolved = scenario.resolved
    return run_pipeline(
        scenario.model,
        scenario.grid,
        initial_level=resolved["evolve.initial_level"],
        **_stage_options(resolved),
    )


def _finite(value, key: str = ""):
    """``value``, unless a number in it or in its nested dicts and lists
    is NaN or infinite, which JSON cannot encode."""
    if isinstance(value, float) and not math.isfinite(value):
        raise NonFiniteReport(f"report entry {key} is {value}; no output was written")
    if isinstance(value, (dict, list)):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            _finite(v, f"{key}.{k}" if key else str(k))
    return value


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], columns):
    """Write a header line, then the rows of equal-length float columns
    (arrays, or callables ``(lo, hi) -> array``; see ``_csv.write_rows``)."""
    # only evolve and sweep write a CSV, so only they import the formatter
    from ._csv import write_rows

    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        write_rows(fh, columns)


def _evolution_table(result: PipelineResult):
    """evolution.csv's header and columns. Raises :class:`NonFiniteReport`
    naming the first column that holds a NaN or an infinity."""
    # tau, |c_m|^2 and the norm residuals are callables, formed a block
    # at a time. The curves are computed on first read, in the order
    # listed: P_direct first, so its transient Schrodinger states are held
    # while the fewest whole-grid arrays are live.
    coefficients, m = result.coefficients, result.initial_level

    def p_exact(lo, hi):
        return np.abs(coefficients.coefficients[lo:hi, m]) ** 2

    columns = [
        result.grid.times,
        p_exact,
        result.p_direct,
        result.p_first,
        result.p_second,
        result.p_ratio,
        lambda lo, hi: norm_residuals(coefficients, slice(lo, hi)),
    ]
    columns += [
        p_exact if n == m else np.abs(c) ** 2
        for n, c in enumerate(coefficients.coefficients.T)
    ]
    header = ["tau", "P_exact", "P_direct", "P_first", "P_second", "P_ratio", "norm_residual"]
    header += [f"|c_{n}|^2" for n in range(result.model.dimension)]
    n_rows = len(coefficients.coefficients)
    for name, column in zip(header, columns):
        # min and max both carry NaN and +-inf, and form no temporary; a
        # callable column is checked one STEP_CHUNK at a time
        if callable(column):
            blocks = (column(lo, lo + STEP_CHUNK) for lo in range(0, n_rows, STEP_CHUNK))
        else:
            blocks = (column,)
        for block in blocks:
            for value in (float(block.min()), float(block.max())):
                if not math.isfinite(value):
                    raise NonFiniteReport(
                        f"evolution.csv column {name} holds {value}; no output was written"
                    )
    return header, columns


def run_evolve(scenario: ScenarioConfig, out_dir: Path) -> PipelineResult:
    """Run the pipeline and write evolution.csv plus a JSON summary."""
    result = _execute(scenario)
    summary = _finite(
        {
            "command": "evolve",
            "csv": "evolution.csv",
            "min_p_exact": result.min_p_exact,
            "max_norm_residual": result.max_norm_residual,
            "min_gap": result.spectrum.min_gap,
            "ratio_valid": result.ratio_valid,
            "resolved_config": scenario.raw,
        }
    )
    header, columns = _evolution_table(result)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "evolution.csv", header, columns)
    _write_json(out_dir / "evolve_report.json", summary)
    return result


def _condition_payload(result: PipelineResult, scenario: ScenarioConfig):
    report = evaluate_conditions(
        result.frame.coupling,
        result.coefficients,
        result.grid,
        result.initial_level,
        tau_end=scenario.resolved["conditions.tau_end"],
        threshold=scenario.resolved["conditions.threshold"],
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
    summary = _finite(
        {
            "command": "check",
            "passed": report.passed,
            "criteria": criteria,
            "min_p_exact": result.min_p_exact,
            "resolved_config": scenario.raw,
        }
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "conditions.json", summary)
    return report


def run_fourier(scenario: ScenarioConfig, out_dir: Path):
    """Evaluate the harmonic condition for every pair (k, m)."""
    # only this command reads the fourier module, so only it imports it
    from .fourier import check_linear_phase, fourier_condition_report, fourier_decompose_coupling

    resolved = scenario.resolved
    if resolved["fourier.period"] is None:
        raise ConfigError("the model declares no period; set fourier.period in the config")
    # fourier reads only the frame, so nothing is propagated
    frame = run_frame(scenario.model, scenario.grid, **_stage_options(resolved))
    m = resolved["evolve.initial_level"]
    pairs = []
    for k in range(scenario.model.dimension):
        if k == m:
            continue
        linearity = check_linear_phase(frame, (k, m), resolved["fourier.linearity_tol"])
        harmonics = fourier_decompose_coupling(
            np.abs(frame.coupling[:, k, m]),
            scenario.grid,
            resolved["fourier.period"],
            resolved["fourier.n_harmonics"],
        )
        report = fourier_condition_report(
            linearity,
            harmonics,
            threshold=resolved["conditions.threshold"],
            resonance_tol=resolved["fourier.resonance_tol"],
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
    row = {"value": value, "min_p_exact": result.min_p_exact}
    return row | {rec.criterion: rec.value for rec in report.records}


def run_sweep(scenario: ScenarioConfig, out_dir: Path, threads: int = 1):
    """Rerun the scenario for each sweep value; rows keep input order."""
    cfg = scenario.raw
    parameter, values = scenario.resolved["sweep.parameter"], scenario.resolved["sweep.values"]
    if parameter is None or values is None:
        raise ConfigError("sweep needs sweep.parameter and sweep.values")

    if threads > 1:
        # imported here, so the other commands do not load
        # concurrent.futures and the logging it pulls in
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda v: _sweep_point(cfg, parameter, v), values))
    else:
        rows = [_sweep_point(cfg, parameter, v) for v in values]

    # a row's keys are the value, min_p_exact, then the criteria in report order
    header = [parameter, "min_P_exact", *list(rows[0])[2:]]
    table = np.array([list(row.values()) for row in rows])
    summary = _finite(
        {
            "command": "sweep",
            "parameter": parameter,
            "rows": rows,
            "csv": "sweep.csv",
            "resolved_config": cfg,
        }
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "sweep.csv", header, table.T)
    _write_json(out_dir / "sweep_report.json", summary)
    return rows


def _threads(text: str) -> int:
    """``--threads``: an integer >= 1; argparse exits 2 on anything else."""
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


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
        p.add_argument("--threads", type=_threads, default=1, help="parallel sweep points")
        p.add_argument(
            "--threshold", type=float, default=None, help="override the pass threshold"
        )
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if args.threshold is not None:
            # checked by the key's own row; no other key depends on it, so
            # the model is not built again
            key, text = "conditions.threshold", repr(args.threshold)
            scenario = replace(
                scenario,
                raw={**scenario.raw, key: text},
                resolved={**scenario.resolved, key: _SCHEMA[key][0](key, text)},
            )
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
            run_sweep(scenario, out_dir, threads=args.threads)
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
