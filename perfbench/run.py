"""Benchmark of the adiorbit CLI: end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload evolve_spin_a --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the program is taken from
``src/`` (no install step). Scratch files go under ``.bench_build/``.

``--trace 0`` is a closed loop with one client. Each round times one
set-up (a fresh interpreter that imports ``adiorbit.cli`` and loads the
scenario) and one CLI invocation, whose outputs are then checked against
closed forms; every child is waited for before the next starts. Rounds
repeat while ``--seconds`` allow, at least ``MIN_ROUNDS`` times. The
end-to-end metrics are medians over the rounds.

``--trace 1`` times ``import adiorbit.cli`` with ``python -X importtime``,
then repeats rounds of one untraced invocation and two traced ones
(``traced_cli.py``, at ``--threads 1`` and ``--threads 2``) and reports
per-layer metrics from the spans (medians over rounds).

The last line of standard output is the result JSON; the line before it
holds the run's provenance, which is also written with every invocation
record to ``.bench_build/perfbench/results/``.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import self_times, spans_from_json
from workloads import WORKLOADS, check_outputs, make_case

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

MIN_ROUNDS = 3
IMPORTTIME_REPS = 3
DEADLINE_S = 170.0  # every run ends, children included, before this

SETUP_CODE = "import sys; from adiorbit.cli import load_scenario; load_scenario(sys.argv[1])"
CLI_CODE = "from adiorbit.cli import entry; entry()"


class Deadline(Exception):
    pass


@dataclass
class Invocation:
    """One child process: what ran, how long, how much memory, and why it
    failed (empty when it did not)."""

    label: str
    wall_s: float
    exit_code: int
    maxrss_mb: float
    cpu_s: float
    failures: list = field(default_factory=list)
    p_exact_err: float = math.nan

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.failures


class Runner:
    """Spawns children with the checkout's ``src/`` on the path, one at a
    time, and keeps every invocation record."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.records: list = []
        signal.signal(signal.SIGALRM, _on_alarm)
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(SRC),
            TMPDIR=str(work),
            # one compute thread per worker: a sweep at --threads 2 then uses
            # exactly the machine's two cores
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def spawn(self, label: str, argv: list) -> Invocation:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining < 1.0:
            raise Deadline(label)
        log = self.work / "child.log"
        with log.open("wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=fh,
                                    stderr=subprocess.STDOUT)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except Deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                self.records.append(Invocation(label, time.perf_counter() - start, -9, 0.0,
                                               0.0, ["killed at the deadline"]))
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(label, wall, proc.returncode, usage.ru_maxrss / 1024.0,
                         usage.ru_utime + usage.ru_stime)
        if inv.exit_code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            inv.failures.append(f"exit {inv.exit_code}: {' | '.join(tail)}")
        self.records.append(inv)
        return inv

    def python(self, label: str, *args) -> Invocation:
        return self.spawn(label, [sys.executable, *args])


def _on_alarm(signum, frame):
    raise Deadline("child timed out")


def run_cli(runner: Runner, case, config: Path, label: str, threads=None,
            traced_spans: Path = None, run_id: str = "") -> Invocation:
    out = runner.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    cli_args = case.cli_args(config, out, threads)
    if traced_spans is None:
        inv = runner.python(label, "-c", CLI_CODE, *cli_args)
    else:
        inv = runner.python(label, str(TRACED_CLI), "--spans", str(traced_spans),
                            "--run", run_id, "--", *cli_args)
    if inv.exit_code == 0:
        failures, inv.p_exact_err = check_outputs(case, out)
        inv.failures.extend(failures)
    return inv


def median(values) -> float:
    return float(statistics.median(values))


def _keep_going(started: float, done: int, seconds: float, minimum: int) -> bool:
    """Closed-loop stop rule: at least ``minimum`` rounds, then another only
    if a round of the mean length still fits in ``seconds``."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


# ---- untraced: end-to-end metrics -------------------------------------------

def end_to_end(runner: Runner, case, config: Path, seconds: float) -> dict:
    # set-ups interleave with invocations, so both sample the whole window
    setups, invocations = [], []
    started = time.perf_counter()
    while _keep_going(started, len(invocations), seconds, MIN_ROUNDS):
        setups.append(runner.python("setup", "-c", SETUP_CODE, str(config)))
        invocations.append(run_cli(runner, case, config, "cli"))
    if all(inv.ok for inv in invocations):
        digits = -math.log10(max(max(inv.p_exact_err for inv in invocations), 1e-17))
    else:
        digits = 0.0
    children = setups + invocations
    return {
        "wall_s": (median(inv.wall_s for inv in invocations), "s"),
        "setup_s": (median(inv.wall_s for inv in setups), "s"),
        "peak_rss_mb": (median(inv.maxrss_mb for inv in invocations), "MB"),
        "ok_frac": (sum(inv.ok for inv in children) / len(children), "ratio"),
        "p_exact_digits": (digits, "digits"),
    }


# ---- traced: per-layer metrics ----------------------------------------------

# span name -> per-layer metric holding the summed duration of those spans
STAGE_SPANS = {
    "cli.load_scenario": "cli.scenario_s",
    "model.build": "model.build_s",
    "model.sample": "model.sample_s",
    "spectrum.solve": "spectrum.solve_s",
    "spectrum.gamma": "spectrum.gamma_s",
    "frame.build": "frame.build_s",
    "propagate.coefficients": "propagate.coefficients_s",
    "propagate.schrodinger": "propagate.schrodinger_s",
    "propagate.direct": "propagate.direct_s",
    "linalg.unitary_steps": "linalg.unitary_steps_s",
    "linalg.scan_states": "linalg.scan_states_s",
    "perturb.probabilities": "perturb.probabilities_s",
    "perturb.conditions": "perturb.conditions_s",
    "pipeline.run": "pipeline.run_s",
}
COUNTS = {"model.samples": "count", "propagate.steps": "count", "linalg.step_bytes": "bytes"}
HEALTH = ("frame.route_discrepancy", "propagate.norm_residual_max")
# the ROADMAP baseline rows, as shares of the traced invocation's wall time
SHARES = {
    "share.import": "cli.import_span_s",
    "share.solve": "spectrum.solve_s",
    "share.gamma": "spectrum.gamma_s",
    "share.frame": "frame.build_s",
    "share.coefficients": "propagate.coefficients_s",
    "share.unitary_steps": "linalg.unitary_steps_s",
    "share.scan_states": "linalg.scan_states_s",
    "share.schrodinger": "propagate.schrodinger_s",
    "share.conditions": "perturb.conditions_s",
    "share.write": "cli.write_s",
}


def parse_importtime(stderr: str) -> tuple:
    """(seconds to import adiorbit.cli, seconds spent in scipy modules)
    from ``python -X importtime`` output.

    The output lists children before their parent, indented two spaces a
    level. scipy time is the cumulative time of each scipy import whose
    ancestors are not scipy imports.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cumulative) * 1e-6, name.strip()))
    total, scipy_s, ancestors = math.nan, 0.0, []
    for depth, cumulative, name in reversed(rows):
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            scipy_s += cumulative
        if depth == 0 and name == "adiorbit.cli":
            total = cumulative
        ancestors.append(name)
    return total, scipy_s


def span_metrics(payload: dict) -> dict:
    spans = spans_from_json(payload)
    own = self_times(spans)
    out = {metric: 0.0 for metric in STAGE_SPANS.values()}
    out.update({"cli.import_span_s": 0.0, "cli.write_s": 0.0, "pipeline.self_s": 0.0,
                "cli.command_s": 0.0})
    for s in spans:
        if s.name in STAGE_SPANS:
            out[STAGE_SPANS[s.name]] += s.duration
        if s.name == "cli.import":
            out["cli.import_span_s"] += s.duration
        if s.name == "cli.command":
            out["cli.command_s"] += s.duration
            out["cli.write_s"] += own[s.id]
        if s.name == "pipeline.run":
            out["pipeline.self_s"] += own[s.id]
    for name in COUNTS:
        out[name] = float(payload["counts"].get(name, 0))
    for name in HEALTH:
        out[name] = payload["health"].get(name, math.nan)
    return out


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def per_layer(runner: Runner, case, config: Path, seconds: float, run_prefix: str):
    started = time.perf_counter()
    import_s, scipy_s = [], []
    for _ in range(IMPORTTIME_REPS):
        inv = runner.python("importtime", "-X", "importtime", "-c", "import adiorbit.cli")
        if inv.exit_code == 0:
            # the next spawn overwrites the log
            total, scipy = parse_importtime((runner.work / "child.log").read_text())
            import_s.append(total)
            scipy_s.append(scipy)
    other = 1 if case.threads == 2 else 2
    rounds = defaultdict(list)
    traces = []
    while _keep_going(started, len(rounds["trace.wall_s"]), seconds, 1):
        n = len(rounds["trace.wall_s"])
        plain = run_cli(runner, case, config, "cli")
        spans_path = runner.work / "spans.json"
        traced = run_cli(runner, case, config, "traced", traced_spans=spans_path,
                         run_id=f"{run_prefix}-r{n}-t{case.threads}")
        output_bytes = float(_output_bytes(runner.work / "out"))
        second_path = runner.work / "spans_other.json"
        second = run_cli(runner, case, config, "traced", threads=other,
                         traced_spans=second_path, run_id=f"{run_prefix}-r{n}-t{other}")
        if not (plain.ok and traced.ok and second.ok):
            break
        rounds["cli.output_bytes"].append(output_bytes)
        payload = json.loads(spans_path.read_text())
        traces.append(payload)
        stages = span_metrics(payload)
        for name, value in stages.items():
            if name != "cli.command_s":
                rounds[name].append(value)
        by_threads = {case.threads: stages["cli.command_s"],
                      other: span_metrics(json.loads(second_path.read_text()))["cli.command_s"]}
        rounds["cli.command_s.threads1"].append(by_threads[1])
        rounds["cli.command_s.threads2"].append(by_threads[2])
        rounds["cli.thread_speedup"].append(by_threads[1] / by_threads[2])
        rounds["proc.cpu_s"].append(traced.cpu_s)
        rounds["trace.wall_s"].append(traced.wall_s)
        rounds["trace.overhead_s"].append(traced.wall_s - plain.wall_s)
        for share, part in SHARES.items():
            rounds[share].append(100.0 * stages[part] / traced.wall_s)
    units = {"cli.output_bytes": "bytes", "cli.thread_speedup": "ratio",
             "frame.route_discrepancy": "abs", "propagate.norm_residual_max": "abs",
             **COUNTS, **{share: "%" for share in SHARES}}
    metrics = {"cli.import_s": (median(import_s) if import_s else math.nan, "s"),
               "cli.import_scipy_s": (median(scipy_s) if scipy_s else math.nan, "s")}
    for name, values in rounds.items():
        if values and name != "cli.import_span_s":
            metrics[name] = (median(values), units.get(name, "s"))
    return metrics, traces


# ---- provenance and output --------------------------------------------------

def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            size = subprocess.run(["getconf", name], capture_output=True, text=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            size = ""
        caches[name] = int(size) if size.isdigit() else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "adiorbit" / "cli.py").is_file():
        print(f"perfbench: no adiorbit sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started)
    case = make_case(args.workload, args.seed)
    config = work / "scenario.cfg"
    config.write_text(case.config_text())
    traces = []
    timed_out = None
    try:
        if args.trace:
            prefix = f"{args.workload}-s{args.seed}"
            metrics, traces = per_layer(runner, case, config, args.seconds, prefix)
        else:
            metrics = end_to_end(runner, case, config, args.seconds)
    except Deadline as exc:
        timed_out = f"deadline of {DEADLINE_S:g} s reached at {exc}"
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [inv for inv in runner.records if not inv.ok]
    for inv in failed:
        print(f"perfbench: {inv.label} failed: {'; '.join(inv.failures)}", file=sys.stderr)
    if timed_out:
        print(f"perfbench: {timed_out}", file=sys.stderr)
    meta = provenance(args.workload, args.seed, args.seconds, args.trace)
    meta["invocations"] = [
        {"label": inv.label, "wall_s": inv.wall_s, "exit_code": inv.exit_code,
         "maxrss_mb": inv.maxrss_mb, "cpu_s": inv.cpu_s, "failures": inv.failures,
         "p_exact_err": inv.p_exact_err, "n_steps": case.n_steps}
        for inv in runner.records
    ]
    meta["samples"] = {
        "setup_s": sum(inv.label == "setup" for inv in runner.records),
        "wall_s": sum(inv.label == "cli" for inv in runner.records),
        "traced": sum(inv.label == "traced" for inv in runner.records),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "metrics": metrics, "traces": traces},
                                 indent=1, default=str))
    finite = {name: pair for name, pair in metrics.items() if math.isfinite(pair[0])}
    result = {
        "correct": not failed and timed_out is None and len(finite) == len(metrics),
        "attempted": max(1, len(runner.records)),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in finite.items()},
    }
    print(json.dumps({"meta": {k: v for k, v in meta.items() if k != "invocations"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
