#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the CESC monitor flow.

Run from the root of a checkout::

    python3 perfbench/run.py --workload vcd_check --seed 1 --seconds 15 \
        --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``vcd_check``      uncached ``repro check SPEC CHART --vcd DUMP``;
* ``cache_recheck``  ``repro check --cache DIR``: first sight, then warm;
* ``optimize_check`` ``repro check --optimize`` on short dumps;
* ``serve_mixed``    ``repro serve``: closed-loop streams and
  ``corpus`` ops, then open-loop streams and a rate search.

With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric (lines above it also print numbers too
noisy to gate on, marked "not gated"); with ``--trace 1`` it carries the
per-layer metrics of a traced run instead.  ``--workload all`` runs
the four workloads one after another, each in its own process, and
ends with one JSON object whose metric names are prefixed by workload.

Every verdict the program prints or replies is checked against the
interpreted reference; ``failed`` counts the operations that disagreed
or errored.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (SRC, WORK, Result, pin_to_one_cpu,  # noqa: E402
                    source_present)

WORKLOADS = ("vcd_check", "cache_recheck", "optimize_check", "serve_mixed")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process (a traced run rebinds the
    program's functions for the rest of its process)."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not source_present():
        print(f"error: no program source at {SRC}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    # ``repro serve`` stops cleanly on SIGINT, and a Python child
    # handles SIGINT only if it does not inherit it ignored, as it does
    # from a parent started in the background.  A handler set here is
    # reset to the default in every child at exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    cpu = pin_to_one_cpu()
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    # The program's temp files (native compiler scratch) stay inside
    # the checkout, in this process and in every child.
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    tempfile.tempdir = None

    result = Result()
    if args.trace:
        import traced

        traced.run(args.workload, args.seed, args.seconds, result)
    elif args.workload == "serve_mixed":
        import serve_workload

        serve_workload.run(args.seed, args.seconds, result)
    else:
        import cli_workloads

        cli_workloads.run_cli(args.workload, args.seed, args.seconds,
                              result)

    for name, metric in result.metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    for name, metric in result.ungated.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']} (not gated)")
    print(f"  note every process ran on CPU {cpu}; gated times are "
          "seconds at the reference speed (perfbench/README.md)")
    for note in result.notes:
        print(f"  note {note}")
    ratio = result.failed / max(result.attempted, 1)
    print(f"{args.workload} fail_ratio = {ratio:.6g} failed/attempted "
          f"({result.failed} of {result.attempted})")
    for failure in result.failures[:20]:
        print(f"  FAIL {failure}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
