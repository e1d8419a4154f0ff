"""Run one adiorbit CLI command in-process with every layer traced.

    python3 perfbench/traced_cli.py --spans OUT.json --run ID -- evolve --config ...

Imports ``adiorbit.cli`` under a span, rebinds the layers' public calls
(see ``spans.instrument``), calls ``adiorbit.cli.main`` with the
arguments after ``--`` and writes the spans to ``OUT.json`` when the
command has returned. The exit code is the command's.

``evolve`` never evaluates the adiabaticity criteria, so after an
``evolve`` one ``evaluate_conditions`` call on its result is timed as
well, outside the command span; that gives the conditions stage a time
on every workload.
"""

import argparse
import json
import sys
from pathlib import Path

from spans import Tracer, instrument


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run)
    with tracer.span("cli.import"):
        import adiorbit.cli as cli
    last = {}
    instrument(tracer, keep_result=lambda result: last.update(result=result))
    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    if code == 0 and "result" in last and not any(
        s.name == "perturb.conditions" for s in tracer.spans
    ):
        result = last.pop("result")
        # the wrapped call records its own perturb.conditions span
        cli.evaluate_conditions(result.frame.coupling, result.coefficients,
                                result.grid, result.initial_level)
    Path(args.spans).write_text(json.dumps(tracer.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
