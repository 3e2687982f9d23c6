"""Traced runs: the per-layer numbers behind each workload.

CLI workloads run in this process through ``repro.cli.main`` with the
span wrappers of :mod:`tracing` installed: one traced set-up pass (for
the native build layers), then one round in which every invocation
runs once untraced and once traced, so the difference is what tracing
costs.  ``import repro`` is timed separately, in fresh interpreters.
The spans are written to ``.perfbench_work/spans-<workload>.json``.

``serve_mixed`` runs set-up, closed-loop stream rounds, corpus ops and
the fixed-rate stream phase twice: against a plain ``repro serve`` and
against the same command started through :mod:`serve_launcher`, which
installs the wrappers in the server process and writes its spans out
at exit.  There the layers account for server CPU time, not wall
time: a server mostly waits.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time

import oracle
from common import WORK, Speed, median, percentile, program_env
from layers import PER_LAYER, SPAN_METRICS

IMPORT_PROBES = 3
#: Spans whose self time is no layer's: the benchmark's own, around
#: each traced invocation, and the CLI's, around every layer call.
UNATTRIBUTED_SPANS = ("bench.run", "cli.main")
_IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import repro\n"
    "print(time.perf_counter() - start, int('numpy' in sys.modules))\n"
)


def import_probe(env: dict):
    """``(median import seconds, numpy loaded)`` in fresh interpreters."""
    seconds, numpy_loaded = [], 0
    for _ in range(IMPORT_PROBES):
        output = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        seconds.append(float(output[0]))
        numpy_loaded = max(numpy_loaded, int(output[1]))
    return median(seconds), numpy_loaded


def _emit(result, values: dict) -> None:
    for name, unit, _ in PER_LAYER:
        result.metric(name, float(values.get(name, 0.0)), unit)


def _layer_values(self_s: dict, counts: dict) -> dict:
    values = {name: self_s.get(span, 0.0)
              for span, name in SPAN_METRICS.items()}
    for name, _, span in PER_LAYER:
        if span is None and name in counts:
            values[name] = counts[name]
    runs = counts.get("optimize.runs", 0)
    if runs:
        values["optimize.cell_reduction"] = \
            counts["optimize.cell_reduction_sum"] / runs
    return values


def run(workload: str, seed: int, seconds: float, result) -> None:
    if workload == "serve_mixed":
        run_serve(seed, seconds, result)
    else:
        run_cli(workload, seed, result)


# -- CLI workloads ------------------------------------------------------------
def _paired_rounds(cli, tracer, bench):
    """One round untraced and one traced, invocation by invocation.

    Each planned invocation runs once without and once with tracing,
    alternating which goes first, so machine drift during the round
    lands on both sides.  Each side gets its own round plan (a
    ``cache_recheck`` round owns a fresh cache).  Every traced
    invocation runs inside a ``bench.run`` span, whose self time is
    the benchmark's own, unattributed time.
    """
    plain, traced = [], []
    plain_wall = traced_wall = 0.0
    for index, (step, twin) in enumerate(zip(bench.round_plan(),
                                             bench.round_plan())):
        for side in ((0, 1) if index % 2 else (1, 0)):
            out = io.StringIO()
            if side:
                tracer.enabled = True
                tracer.enter("bench.run")
                status = cli.main(twin.argv, out=out)
                traced_wall += tracer.exit()
                tracer.enabled = False
                traced.append((twin, status, out.getvalue()))
            else:
                start = time.perf_counter()
                status = cli.main(step.argv, out=out)
                plain_wall += time.perf_counter() - start
                plain.append((step, status, out.getvalue()))
    return plain, traced, plain_wall, traced_wall


def run_cli(workload: str, seed: int, result) -> None:
    from cli_workloads import CliWorkload
    from tracing import Tracer, install

    bench = CliWorkload(workload, seed)
    env = program_env(bench.native_dir)
    import_s, numpy_loaded = import_probe(env)
    os.environ["REPRO_NATIVE_CACHE"] = bench.native_dir

    import repro.cli as cli

    tracer = Tracer()
    install(tracer)
    for argv in bench.setup_plan():
        cli.main(argv, out=io.StringIO())
    setup = dict(tracer.self_s)
    setup_builds = tracer.counts.get("runtime.native.builds", 0)

    tracer.reset()
    tracer.enabled = False
    plain, traced, untraced_wall, traced_wall = _paired_rounds(
        cli, tracer, bench)

    tracer.dump(os.path.join(WORK, f"spans-{workload}.json"))
    for step, status, stdout in plain + traced:
        result.check(oracle.check_cli(step.dumps, status, stdout))

    values = _layer_values(tracer.self_s, tracer.counts)
    # The CLI's own code (argument parsing, report printing, the glue
    # between layers) is the ``cli.main`` span's self time: no layer.
    unattributed = sum(tracer.self_s.get(name, 0.0)
                       for name in UNATTRIBUTED_SPANS)
    layers = sum(t for name, t in tracer.self_s.items()
                 if name not in UNATTRIBUTED_SPANS)
    values.update({
        "import.repro_s": import_s,
        "import.numpy_loaded": numpy_loaded,
        "runtime.native.setup_builds": setup_builds,
        "runtime.native.cc_s": setup.get("runtime.native.cc", 0.0),
        "bench.traced_wall_s": traced_wall,
        "bench.unattributed_s": unattributed,
        "bench.trace_overhead_s": traced_wall - untraced_wall,
    })
    _emit(result, values)
    result.notes.append(
        f"layers {layers:.4f} s + unattributed {unattributed:.4f} s = "
        f"{layers + unattributed:.4f} s; traced wall {traced_wall:.4f} s "
        f"(unattributed {100 * unattributed / traced_wall:.2f}%); "
        f"untraced wall {untraced_wall:.4f} s")
    result.notes.append(
        "plans: " + ", ".join(f"{k}={v:g}" for k, v in
                              sorted(tracer.counts.items())))


# -- serve --------------------------------------------------------------------
def run_serve(seed: int, seconds: float, result) -> None:
    from serve_workload import (PHASE_SHARES, TRACED_CYCLES, ServeSession,
                                drive)

    session = ServeSession(seed)
    env = program_env(session.native_dir)
    import_s, numpy_loaded = import_probe(env)
    spans_path = os.path.join(WORK, "tmp", "serve-spans.json")
    launcher = [os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "serve_launcher.py"), spans_path]

    # The same fixed work twice: a server start with its warm-up corpus
    # ops, a fixed number of closed-loop stream rounds and corpus ops,
    # and the fixed-rate phase (its length set by --seconds); no rate
    # search.
    def measure(launcher_argv):
        server, setup_checks = session.start(Speed(), launcher_argv)
        try:
            measured = drive(session, server, 0.0,
                             seconds * PHASE_SHARES[1],
                             cycles=TRACED_CYCLES)
        finally:
            _, cpu_s = server.stop()
        measured["checks"] += setup_checks
        return measured, cpu_s

    plain, plain_cpu = measure(None)
    traced, traced_cpu = measure(launcher)
    with open(spans_path) as stream:
        dumped = json.load(stream)

    for measured in (plain, traced):
        for failures in measured["checks"]:
            result.check(failures)

    values = _layer_values(dumped["self_s"], dumped["counts"])
    scraped = traced["metrics"]
    layers = sum(dumped["self_s"].values())
    values.update({
        "import.repro_s": import_s,
        "import.numpy_loaded": numpy_loaded,
        "serve.metrics.ticks": scraped["ticks"],
        "serve.metrics.chunks": scraped["chunks"],
        "serve.metrics.streams_opened": scraped["streams"]["opened"],
        "serve.metrics.streams_shed": scraped["streams"]["shed"],
        "serve.metrics.corpus_checks": scraped["corpus_checks"],
        "serve.metrics.corpus_ticks": scraped["corpus_ticks"],
        "serve.metrics.protocol_errors": scraped["protocol_errors"],
        "bench.generator_lag_ms":
            1000 * percentile(traced["fixed"].lags, 99),
        # A server's wall time is mostly waiting for requests: its CPU
        # time is what the layers must account for.
        "bench.traced_wall_s": traced_cpu,
        "bench.unattributed_s": traced_cpu - layers,
        "bench.trace_overhead_s": traced_cpu - plain_cpu,
    })
    _emit(result, values)
    result.notes.append(
        f"server CPU {traced_cpu:.3f} s traced, {plain_cpu:.3f} s plain; "
        f"layer self times {layers:.3f} s")
    result.notes.append(
        "counts: " + ", ".join(f"{k}={v:g}" for k, v in
                               sorted(dumped["counts"].items())))
