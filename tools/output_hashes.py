"""The first 16 hex digits of the sha256 of the six outputs of the
benchmark's scenarios, one ``name hash`` line each.

    PYTHONPATH=src python tools/output_hashes.py [--seed S] [--scale X]

``evolve``, ``sweep`` and ``check`` run on ``make_case(workload, seed,
scale)`` from ``perfbench/workloads.py``, which this tool only reads.
``fourier`` runs on ``check_conj_d5``'s scenario with ``fourier.period``
set to its ``tau_end``. Every command runs in this process, into a
temporary directory; what the commands print goes to stderr. Two trees
that print the same lines wrote byte-identical outputs, short of a
collision in 64 bits.
"""

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import make_case  # noqa: E402

from adiorbit import cli  # noqa: E402

#: (workload, command, files it writes)
RUNS = (
    ("evolve_spin_a", "evolve", ("evolution.csv", "evolve_report.json")),
    ("sweep_spin_b", "sweep", ("sweep.csv", "sweep_report.json")),
    ("check_conj_d5", "check", ("conditions.json",)),
    ("check_conj_d5", "fourier", ("fourier.json",)),
)


def output_hashes(seed: int, scale: float) -> dict:
    """{file name: first 16 hex digits of its sha256} over the four runs."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, command, files in RUNS:
            case = make_case(workload, seed, scale)
            text = case.config_text()
            if command == "fourier":
                text += f"fourier.period = {case.config['grid.tau_end']}\n"
            out = Path(tmp) / command
            config = Path(tmp) / f"{command}.cfg"
            config.write_text(text)
            args = case.cli_args(config, out)
            args[0] = command
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(args)
            if code != 0:
                raise SystemExit(f"{command} on {workload} exited {code}")
            for name in files:
                hashes[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    for name, digest in output_hashes(args.seed, args.scale).items():
        print(name, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
