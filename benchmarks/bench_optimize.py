"""Optimization-pipeline benchmarks: table size and tick-rate impact.

Records, per fixture chart, the dense-baseline vs optimized table
shape (``states``/``cells``/``bytes``), end-to-end tick rates and the
wall time of ``optimize_monitor`` itself, and *gates* three properties
the optimization pipeline promises:

* the optimized compiled tables of the OCP simple-read and AMBA
  charts are at least 2x smaller (rows x cells actually stored) than
  the dense baseline, with bit-identical verdicts and detection ticks
  across all five execution paths;
* compaction alone (``tr_compiled(compact=True)``) does not regress
  the sustained tick rate by more than 10% versus the dense tables —
  the memoizing ``CompactRow.__missing__`` keeps steady-state
  dispatch on the C dict fast path;
* ``optimize_monitor`` on the AMBA AHB chart takes at most 5 s
  (bit-parallel guard tabulation; it took 17-21 s when every guard was
  enumerated valuation by valuation).

Results land in ``BENCH_optimize.json`` (CI publishes the file).
"""

import json
import pathlib
import pickle
import sys
import time

from repro import StreamingChecker, TraceGenerator, tr, tr_compiled
from repro.codegen.python_gen import monitor_to_python
from repro.monitor.engine import run_monitor
from repro.optimize import optimize_monitor
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.runtime.compiled import run_compiled
from repro.trace import run_sharded

_REPO_ROOT = pathlib.Path(__file__).parent.parent
_RESULTS_PATH = _REPO_ROOT / "BENCH_optimize.json"

#: Long enough that each timed run spans ~100 ms at the observed
#: ~1M ticks/s — scheduler jitter on shared CI runners must not be
#: able to fake a >10% regression.
_TICK_TRACE_TICKS = 100_000
#: CI gate: compacted tables may cost at most this fraction of the
#: dense tick rate.
_MAX_TICK_REGRESSION = 0.10
#: Acceptance gate: stored cells must shrink at least this much on the
#: fixture protocol charts.
_MIN_CELL_REDUCTION = 2.0

#: CI gate: seconds ``optimize_monitor`` may take on the AHB chart.
_MAX_AHB_OPTIMIZE_S = 5.0

_CHARTS = {
    "ocp_simple_read": ocp_simple_read_chart,
    "ocp_burst_read": ocp_burst_read_chart,
    "ahb_transaction": ahb_transaction_chart,
}


def _record(results):
    existing = {}
    if _RESULTS_PATH.exists():
        try:
            existing = json.loads(_RESULTS_PATH.read_text())
        except (ValueError, OSError):
            existing = {}
    existing.update(results)
    _RESULTS_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n"
    )


def _table_bytes(compiled) -> int:
    """Container-level size of the dispatch table (rows + spine).

    Dense rows cost ``8 bytes x 2^|Sigma|`` each regardless of content;
    compact rows cost per *exception*, so their at-rest size stops
    scaling with the alphabet (a dict entry is ~3x a list slot, which
    is why tiny tables can measure larger while wide ones collapse).
    """
    table = compiled._table
    return sys.getsizeof(table) + sum(sys.getsizeof(row) for row in table)


def _pickle_bytes(compiled) -> int:
    """Serialized monitor size — what the sharded pipeline ships to
    workers and an on-disk compilation cache stores."""
    return len(pickle.dumps(compiled.without_source()))


def _long_trace(chart, ticks):
    generator = TraceGenerator(chart, seed=11)
    trace = generator.satisfying_trace(prefix=2, suffix=2)
    while trace.length < ticks:
        trace = trace.concat(generator.satisfying_trace(prefix=2, suffix=2))
    return trace


def _corpus(chart, count=24):
    generator = TraceGenerator(chart, seed=23)
    traces = []
    for index in range(count):
        if index % 2:
            traces.append(generator.random_trace(8 + index % 9))
        else:
            traces.append(
                generator.satisfying_trace(prefix=index % 3, suffix=1)
            )
    return traces


def _best_rates(runners, trace, repeats=7):
    """Best-of rates for several runners, measured *interleaved*.

    Round-robin sampling exposes every runner to the same share of
    scheduler and frequency drift; sequential best-of quietly biases
    whichever runner happens to go first on a warm machine.
    """
    best = [None] * len(runners)
    for _ in range(repeats):
        for index, runner in enumerate(runners):
            start = time.perf_counter()
            runner(trace)
            elapsed = time.perf_counter() - start
            if best[index] is None or elapsed < best[index]:
                best[index] = elapsed
    return [trace.length / elapsed for elapsed in best]


def test_optimized_tables_shrink_with_identical_verdicts(report):
    results = {}
    for name, build in _CHARTS.items():
        chart = build()
        monitor = tr(chart)
        dense = tr_compiled(chart)
        optimized = optimize_monitor(monitor)
        compiled = optimized.compiled

        namespace = {}
        exec(monitor_to_python(optimized.monitor, class_name="Generated"),
             namespace)
        generated_class = namespace["Generated"]

        corpus = _corpus(chart)
        sharded = run_sharded(compiled, corpus, jobs=2, oversubscribe=True)
        for trace, shard_result in zip(corpus, sharded):
            reference = run_monitor(monitor, trace).detections
            assert run_compiled(dense, trace).detections == reference
            assert run_compiled(compiled, trace).detections == reference
            assert StreamingChecker(
                compiled, stop_on_detection=False
            ).feed(trace).detections == reference
            assert list(shard_result.detections) == reference
            assert generated_class().feed(
                [valuation.true for valuation in trace]
            ).detections == reference

        reduction = dense.table_cells() / compiled.table_cells()
        dense_bytes = _table_bytes(dense)
        optimized_bytes = _table_bytes(compiled)
        dense_pickle = _pickle_bytes(dense)
        optimized_pickle = _pickle_bytes(compiled)
        report(
            f"{name}: states {dense.n_states}->{compiled.n_states}, "
            f"cells {dense.table_cells()}->{compiled.table_cells()} "
            f"({reduction:.1f}x), table bytes "
            f"{dense_bytes}->{optimized_bytes}, pickled bytes "
            f"{dense_pickle}->{optimized_pickle}"
        )
        if name in ("ocp_simple_read", "ahb_transaction"):
            assert reduction >= _MIN_CELL_REDUCTION, (
                f"{name}: optimized table only {reduction:.2f}x smaller"
            )
        results[name] = {
            "baseline_states": dense.n_states,
            "optimized_states": compiled.n_states,
            "baseline_cells": dense.table_cells(),
            "optimized_cells": compiled.table_cells(),
            "cell_reduction": round(reduction, 2),
            "baseline_table_bytes": dense_bytes,
            "optimized_table_bytes": optimized_bytes,
            "baseline_pickle_bytes": dense_pickle,
            "optimized_pickle_bytes": optimized_pickle,
            "five_path_verdicts_identical": True,
        }
    _record({"tables": results})


def test_compaction_tick_rate_within_budget(report):
    chart = ocp_simple_read_chart()
    trace = _long_trace(chart, _TICK_TRACE_TICKS)
    dense = tr_compiled(chart)
    compact = tr_compiled(chart, compact=True)
    optimized = optimize_monitor(tr(chart)).compiled

    assert (run_compiled(compact, trace).detections
            == run_compiled(dense, trace).detections
            == run_compiled(optimized, trace).detections)

    dense_rate, compact_rate, optimized_rate = _best_rates(
        [lambda t: run_compiled(dense, t),
         lambda t: run_compiled(compact, t),
         lambda t: run_compiled(optimized, t)],
        trace,
    )
    ratio = compact_rate / dense_rate
    report(
        f"tick rate ({trace.length} ticks): dense {dense_rate / 1e3:.0f}k/s, "
        f"compact {compact_rate / 1e3:.0f}k/s (ratio {ratio:.2f}), "
        f"optimized {optimized_rate / 1e3:.0f}k/s"
    )
    _record({
        "tick_rate": {
            "dense_ticks_per_s": round(dense_rate),
            "compact_ticks_per_s": round(compact_rate),
            "optimized_ticks_per_s": round(optimized_rate),
            "compact_over_dense": round(ratio, 3),
        }
    })
    assert ratio >= 1.0 - _MAX_TICK_REGRESSION, (
        f"compaction regressed tick rate to {ratio:.2f}x of dense "
        f"(budget {1.0 - _MAX_TICK_REGRESSION:.2f}x)"
    )


def _timed_stages(monkeypatch, tracked):
    """Accumulate the wall time of the pipeline's stage seams.

    The pipeline imports its stages at call time, so patching the
    defining modules routes every call through the timers.
    """
    spent = {stage: 0.0 for stage in tracked}

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - start
        return wrapper

    for stage, (module, attr) in tracked.items():
        monkeypatch.setattr(module, attr, timed(stage, getattr(module, attr)))
    return spent


def test_optimize_monitor_wall_time(report, monkeypatch):
    import repro.monitor.minimize as minimize_module
    import repro.synthesis.symbolic as symbolic_module

    spent = _timed_stages(monkeypatch, {
        "minimize_s": (minimize_module, "minimize_monitor"),
        "symbolic_s": (symbolic_module, "symbolic_monitor"),
    })
    results = {}
    for name, build in _CHARTS.items():
        monitor = tr(build())
        best = None
        for _ in range(3):
            for stage in spent:
                spent[stage] = 0.0
            start = time.perf_counter()
            optimize_monitor(monitor)
            wall = time.perf_counter() - start
            if best is None or wall < best["wall_s"]:
                best = {"wall_s": wall, **spent}
        best["rest_s"] = (
            best["wall_s"] - best["minimize_s"] - best["symbolic_s"]
        )
        results[name] = {key: round(value, 3) for key, value in best.items()}
        report(
            f"{name}: optimize_monitor {best['wall_s']:.2f}s (minimize "
            f"{best['minimize_s']:.2f}s, symbolic {best['symbolic_s']:.2f}s, "
            f"rest {best['rest_s']:.2f}s)"
        )
    _record({"optimize_wall": results})
    ahb = results["ahb_transaction"]["wall_s"]
    assert ahb <= _MAX_AHB_OPTIMIZE_S, (
        f"optimize_monitor on AHB took {ahb:.2f}s "
        f"(budget {_MAX_AHB_OPTIMIZE_S:.1f}s)"
    )
