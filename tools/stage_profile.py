"""Peak memory, RSS, minor page faults and time of each stage of one CLI
command, run in this process.

    PYTHONPATH=src python tools/stage_profile.py check --config scenario.cfg --out out

The arguments are the CLI's own. The functions that ``adiorbit.pipeline``
and ``adiorbit.cli`` call by name are wrapped under the benchmark's stage
names (``spectrum.solve`` ... ``cli.write``), and when each returns one
line goes to stderr: the stage, VmHWM and VmRSS in MB after it, the minor
page faults during it (``getrusage``) and its seconds. The first line is
taken after import (faults since the process started), the last sums
the command. VmHWM and VmRSS are read
from ``/proc/self/status``; where that file is missing VmHWM is
``ru_maxrss`` and VmRSS is nan. The exit code is the CLI's.
"""

import resource
import sys
import time
from pathlib import Path

START = time.perf_counter()

from adiorbit import cli, pipeline  # noqa: E402  (imported after START, to time the import)

STAGES = {
    pipeline: {
        "solve_quasistationary": "spectrum.solve",
        "compute_nonadiabatic_coupling": "spectrum.gamma",
        "build_frame": "frame.build",
        "evolve_coefficients": "propagate.coefficients",
        "evolve_schrodinger": "propagate.schrodinger",
        "survival_probability_direct": "propagate.direct",
        "first_order_probability": "perturb.probabilities",
        "second_order_probability": "perturb.probabilities",
        "ratio_probability_first_iteration": "perturb.probabilities",
    },
    cli: {
        "evaluate_conditions": "perturb.conditions",
        "_write_csv": "cli.write",
        "_write_json": "cli.write",
    },
}
STATUS = Path("/proc/self/status")


def memory_mb() -> tuple[float, float]:
    """(VmHWM, VmRSS) of this process in MB."""
    if not STATUS.exists():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, float("nan")
    fields = dict(line.split(":", 1) for line in STATUS.read_text().splitlines() if ":" in line)
    return tuple(float(fields[key].split()[0]) / 1024.0 for key in ("VmHWM", "VmRSS"))


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def report(stage: str, faults: int, seconds: float):
    hwm, rss = memory_mb()
    print(
        f"{stage:<24} {hwm:9.2f} {rss:9.2f} {faults:9d} {seconds:9.4f}",
        file=sys.stderr,
        flush=True,
    )


def wrap(module, attr: str, stage: str):
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        faults, start = minor_faults(), time.perf_counter()
        result = original(*args, **kwargs)
        report(stage, minor_faults() - faults, time.perf_counter() - start)
        return result

    setattr(module, attr, timed)


def main(argv=None) -> int:
    for module, stages in STAGES.items():
        for attr, stage in stages.items():
            wrap(module, attr, stage)
    print(f"{'stage':<24} {'vmhwm_mb':>9} {'rss_mb':>9} {'minflt':>9} {'seconds':>9}",
          file=sys.stderr)
    report("after import", minor_faults(), time.perf_counter() - START)
    faults, start = minor_faults(), time.perf_counter()
    code = cli.main(argv)
    report("command", minor_faults() - faults, time.perf_counter() - start)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
