"""Seeded inputs for the benchmark, and their reference verdicts.

Everything here is built from the ``--seed`` argument with the public
fixture and serializer APIs (:mod:`repro.protocols.fixtures`,
:mod:`repro.cesc.serialize`), then cached on disk by seed so that
generation never lands inside a timed window or inside ``setup_s``.

A dump is a seeded sequence of *windows*: scenario traces from the
fixture builders (``*_scenario_trace(seed=..., repeats=1)``), each a
satisfying window padded with bus noise.  Faulted dumps draw from the
same windows after one seeded fault mutation each, which is what the
fixtures' ``faulty=True`` does to a whole trace.

This module imports the program and runs as its own process
(``python3 perfbench/inputs.py ...``, started by :mod:`dataset`), so
the benchmark process that later spawns and measures program
processes never holds the program's memory itself.

Reference verdicts come from the interpreted engine, ``run_monitor(
tr(chart), trace)`` semantics.  Stepping 10^5 AHB ticks through the
guard-tree interpreter takes minutes, so :func:`reference_run`
memoizes it per window: the interpreted engine is deterministic and
its whole configuration is ``(state, scoreboard counts)``, so a window
entered twice in the same configuration produces the same detections
and leaves the same configuration.  Each distinct ``(configuration,
window)`` pair is still stepped once by the interpreter.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import Dict, List, Sequence, Tuple

import dataset
from repro.cesc.serialize import clock_to_dsl, scesc_to_dsl
from repro.monitor.engine import MonitorEngine
from repro.monitor.scoreboard import Scoreboard
from repro.protocols import fixtures
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.faults import FaultCampaign
from repro.protocols.ocp.charts import ocp_burst_read_chart, ocp_simple_read_chart
from repro.semantics.generator import TraceGenerator
from repro.semantics.run import Trace
from repro.synthesis.tr import tr

#: Chart name -> (chart builder, fixture window builder).
CHARTS = {
    "ocp_simple_read": (ocp_simple_read_chart,
                        fixtures.ocp_simple_scenario_trace),
    "ocp_burst_read": (ocp_burst_read_chart,
                       fixtures.ocp_burst_scenario_trace),
    "ahb_transaction": (ahb_transaction_chart,
                        fixtures.amba_scenario_trace),
}

CLOCK = dataset.CLOCK
assert tuple(CHARTS) == dataset.CHARTS

#: Distinct windows per chart and window kind in one seed.
POOL_WINDOWS = 32

NOISE_WINDOW_TICKS = 8


def spec_text() -> str:
    """One CESC spec holding all three charts.

    ``scesc_to_dsl`` emits each chart's ``clock`` line; both OCP charts
    share ``ocp_clk``, and a clock declared twice fails to parse, so
    the clocks are emitted once up front.
    """
    charts = [build() for build, _ in CHARTS.values()]
    clocks = {}
    for chart in charts:
        clocks.setdefault(chart.clock.name, chart.clock)
    parts = [clock_to_dsl(clock) for clock in clocks.values()]
    parts += [scesc_to_dsl(chart, include_clock=False) for chart in charts]
    return "\n".join(parts)


@functools.lru_cache(maxsize=None)
def monitor_of(chart_name: str):
    """``tr`` of the chart, once per process."""
    return tr(CHARTS[chart_name][0]())


@functools.lru_cache(maxsize=None)
def window_pool(chart_name: str, seed: int, kind: str) -> List[Trace]:
    """``POOL_WINDOWS`` windows of one kind for ``chart_name``.

    ``clean`` windows are fixture scenario traces, ``faulted`` ones the
    same after one seeded fault mutation, and ``noise`` windows random
    bus traffic that rarely realises the scenario.  Memoized: callers
    must not change the list.
    """
    build, window = CHARTS[chart_name]
    base = seed * 1000
    pool = []
    for index in range(POOL_WINDOWS):
        if kind == "noise":
            pool.append(TraceGenerator(build(), seed=base + index)
                        .random_trace(NOISE_WINDOW_TICKS))
            continue
        trace = window(seed=base + index, repeats=1)
        if kind == "faulted":
            trace = FaultCampaign(
                trace, sorted(trace.alphabet), seed=base + index
            ).mutations(1)[0]
        pool.append(trace)
    return pool


def window_sequence(rng: random.Random, pool: Sequence[Trace],
                    ticks: int) -> List[int]:
    """Random window ids whose lengths add up to at least ``ticks``."""
    sequence, total = [], 0
    while total < ticks:
        index = rng.randrange(len(pool))
        sequence.append(index)
        total += len(pool[index])
    return sequence


def concat(pool: Sequence[Trace], sequence: Sequence[int]) -> Trace:
    valuations = []
    alphabet = set()
    for index in sequence:
        valuations.extend(pool[index].valuations)
        alphabet |= pool[index].alphabet
    return Trace(valuations, alphabet)


def render_vcd(trace: Trace) -> str:
    """``trace_to_vcd(trace, clock=CLOCK)``, byte for byte.

    The library writer samples every signal object on every clock edge
    (about 20 us a tick); this one writes only the changes.  The header
    and the first tick come from ``trace_to_vcd`` itself, so only the
    per-tick change lines are written here; ``selftest.py`` checks the
    whole text against ``trace_to_vcd``.
    """
    from repro.trace.bridge import trace_to_vcd

    symbols = sorted(trace.alphabet)
    # The clock is the first signal registered, then the sorted symbols.
    ids = [chr(34 + index) for index in range(len(symbols))]
    assert len(symbols) < 90, "identifiers past one character"
    valuations = trace.valuations
    parts = [trace_to_vcd(Trace(valuations[:1], trace.alphabet),
                          clock=CLOCK)]
    previous = valuations[0].true if valuations else set()
    for tick in range(1, len(valuations)):
        true = valuations[tick].true
        lines = [f"#{2 * tick}", "1!"]
        if true != previous:
            for symbol, ident in zip(symbols, ids):
                value = symbol in true
                if value != (symbol in previous):
                    lines.append(f"{1 if value else 0}{ident}")
        lines += [f"#{2 * tick + 1}", "0!", ""]
        parts.append("\n".join(lines))
        previous = true
    return "".join(parts)


def reference_run(monitor, pool: Sequence[Trace],
                  sequence: Sequence[int],
                  memo: Dict[tuple, tuple]) -> Tuple[int, List[int]]:
    """``(ticks, detections)`` of the interpreted engine on the dump.

    Equal to ``run_monitor(monitor, concat(pool, sequence))``; see the
    module docstring for why the per-window memo is exact.  ``memo``
    may be shared by every dump over the same monitor and pool.
    """
    state, board = monitor.initial, ()
    detections: List[int] = []
    offset = 0
    for index in sequence:
        key = (state, board, index)
        outcome = memo.get(key)
        if outcome is None:
            scoreboard = Scoreboard()
            scoreboard.restore(dict(board))
            engine = MonitorEngine(monitor, scoreboard=scoreboard,
                                   record_history=False)
            # Resume the interpreter in the configuration the previous
            # window left: the engine has no public setter for it.
            engine._state = state
            engine.feed(pool[index].valuations)
            outcome = (engine.state,
                       tuple(sorted(scoreboard.snapshot().items())),
                       tuple(engine.drain_detections()))
            memo[key] = outcome
        state, board, relative = outcome
        detections.extend(offset + tick for tick in relative)
        offset += len(pool[index])
    return offset, detections


def _write(path: str, text: str) -> None:
    with open(path + ".tmp", "w") as stream:
        stream.write(text)
    os.replace(path + ".tmp", path)


def build_spec(directory: str, seed: int, tag: str) -> dict:
    path = os.path.join(directory, "charts.cesc")
    _write(path, spec_text())
    return {"path": path}


def build_vcd(directory: str, seed: int, tag: str, charts: Sequence[str],
              ticks: int, kinds: Sequence[str]) -> dict:
    """One dump of about ``ticks`` ticks per chart and window kind."""
    rng = random.Random(f"{seed}:{tag}")
    dumps = []
    for chart_name in charts:
        monitor = monitor_of(chart_name)
        for kind in kinds:
            pool = window_pool(chart_name, seed, kind)
            sequence = window_sequence(rng, pool, ticks)
            path = os.path.join(directory, f"{tag}-{chart_name}-{kind}.vcd")
            _write(path, render_vcd(concat(pool, sequence)))
            length, detections = reference_run(monitor, pool, sequence, {})
            dumps.append({"chart": chart_name, "kind": kind, "path": path,
                          "ticks": length, "detections": detections})
    return {"dumps": dumps}


#: Window kinds cycled over serve streams and corpus lanes.
STREAM_KINDS = ("clean", "faulted", "noise")


def build_serve(directory: str, seed: int, tag: str, charts: Sequence[str],
                streams_per_chart: int, stream_ticks: int,
                corpus_lanes: int, corpus_ticks: int) -> dict:
    """Stream traces and one ``.rtrc`` corpus per served chart."""
    from repro.synthesis.tr import tr_compiled
    from repro.trace.columnar import ColumnarTraceSet

    rng = random.Random(f"{seed}:{tag}")
    streams, corpora = [], []
    for chart_name in charts:
        chart = CHARTS[chart_name][0]()
        monitor = monitor_of(chart_name)
        pools = {kind: window_pool(chart_name, seed, kind)
                 for kind in STREAM_KINDS}
        memos = {kind: {} for kind in STREAM_KINDS}

        def lane(kind, length):
            pool = pools[kind]
            sequence = window_sequence(rng, pool, length)
            # Trim to exactly ``length`` ticks: a detection depends only
            # on the ticks up to it, so dropping the ones past the end
            # gives the reference of the trimmed trace.
            _, detections = reference_run(monitor, pool, sequence,
                                          memos[kind])
            valuations = concat(pool, sequence).valuations[:length]
            return valuations, [t for t in detections if t < length]

        for index in range(streams_per_chart):
            kind = STREAM_KINDS[index % len(STREAM_KINDS)]
            valuations, detections = lane(kind, stream_ticks)
            streams.append({"monitor": chart_name, "kind": kind,
                            "ticks": [sorted(v.true) for v in valuations],
                            "detections": detections})
        compiled = tr_compiled(chart)
        traces, lanes = [], []
        for index in range(corpus_lanes):
            kind = STREAM_KINDS[index % len(STREAM_KINDS)]
            valuations, detections = lane(kind, corpus_ticks)
            traces.append(Trace(valuations))
            lanes.append([len(valuations), detections])
        columns = ColumnarTraceSet.from_traces(
            traces, alphabet=compiled.codec.symbols
        )
        path = os.path.join(directory, f"{tag}-{chart_name}.rtrc")
        columns.save(path)
        corpora.append({"monitor": chart_name, "path": path,
                        "total_ticks": columns.total_ticks,
                        "lanes": lanes})
    return {"streams": streams, "corpora": corpora}


BUILDERS = {"spec": build_spec, "vcd": build_vcd, "serve": build_serve}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="generate benchmark input sets, each as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", required=True,
                        help="JSON list of [what, out, tag, params]: the "
                        "builder, the JSON file it writes, its tag and "
                        "its keyword arguments")
    args = parser.parse_args(argv)
    for what, out, tag, params in json.loads(args.jobs):
        directory = os.path.dirname(os.path.abspath(out))
        document = BUILDERS[what](directory, args.seed, tag, **params)
        _write(out, json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
