"""The per-layer metrics of a traced run, in report order.

Names ending in ``_s`` are self times: the time inside the layer's
spans minus the time their child spans cover, summed over the traced
window, so the ``*_s`` layers plus ``bench.unattributed_s`` add up to
the traced wall time of a CLI workload.  The CLI's own code (the
``cli.main`` span's self time) is no layer: it counts as unattributed.
``runtime.native.cc_s`` and ``runtime.native.setup_builds`` come from
one traced set-up pass; the C source is emitted on every native kernel
lookup (its hash is the shared-object cache key), so
``codegen.c_gen.emit_s`` is timed in the window like the other layers.
"""

#: (metric name, unit, span name or None when the value is computed)
PER_LAYER = [
    ("import.repro_s", "s", None),
    ("import.numpy_loaded", "0/1", None),
    ("cesc.parse_s", "s", "cesc.parse"),
    ("synthesis.tr_s", "s", "synthesis.tr"),
    ("synthesis.tr_compiled_s", "s", "synthesis.tr_compiled"),
    ("trace.vcd_reader.header_s", "s", "trace.vcd_reader.header"),
    ("trace.vcd_reader.sample_s", "s", "trace.vcd_reader.sample"),
    ("trace.streaming.feed_s", "s", "trace.streaming.feed"),
    ("trace.streaming.push_chunk_s", "s", "trace.streaming.push_chunk"),
    ("trace.columnar.ingest_s", "s", "trace.columnar.ingest"),
    ("trace.columnar.tokenize_s", "s", "trace.columnar.tokenize"),
    ("trace.columnar.load_s", "s", "trace.columnar.load"),
    ("cache.load_s", "s", "cache.load"),
    ("cache.store_s", "s", "cache.store"),
    ("cache.hits", "count", None),
    ("cache.misses", "count", None),
    ("cache.repairs", "count", None),
    ("optimize.optimize_monitor_s", "s", "optimize.optimize_monitor"),
    ("monitor.minimize_s", "s", "monitor.minimize"),
    ("synthesis.symbolic_s", "s", "synthesis.symbolic"),
    ("optimize.prune_s", "s", "optimize.prune"),
    ("optimize.compile_s", "s", "optimize.compile"),
    ("optimize.ladders_s", "s", "optimize.ladders"),
    ("optimize.compact_s", "s", "optimize.compact"),
    ("optimize.states_removed", "count", None),
    ("optimize.cell_reduction", "ratio", None),
    ("runtime.engines.plan_s", "s", "runtime.engines.plan"),
    ("runtime.engines.plan.native", "count", None),
    ("runtime.engines.plan.vector", "count", None),
    ("runtime.engines.plan.compiled", "count", None),
    ("runtime.engines.plan.interpreted", "count", None),
    ("runtime.native.step_s", "s", "runtime.native.step"),
    ("runtime.vector.step_s", "s", "runtime.vector.step"),
    ("runtime.compiled.step_s", "s", "runtime.compiled.step"),
    ("runtime.native.lane_ticks", "ticks", None),
    ("runtime.vector.lane_ticks", "ticks", None),
    ("runtime.compiled.lane_ticks", "ticks", None),
    ("runtime.native.replays", "count", None),
    ("runtime.native.builds", "count", None),
    ("runtime.native.setup_builds", "count", None),
    ("codegen.c_gen.emit_s", "s", "codegen.c_gen.emit"),
    ("runtime.native.cc_s", "s", None),
    ("serve.protocol_s", "s", "serve.protocol"),
    ("serve.metrics.ticks", "ticks", None),
    ("serve.metrics.chunks", "count", None),
    ("serve.metrics.streams_opened", "count", None),
    ("serve.metrics.streams_shed", "count", None),
    ("serve.metrics.corpus_checks", "count", None),
    ("serve.metrics.corpus_ticks", "ticks", None),
    ("serve.metrics.protocol_errors", "count", None),
    ("bench.generator_lag_ms", "ms", None),
    ("bench.traced_wall_s", "s", None),
    ("bench.unattributed_s", "s", None),
    ("bench.trace_overhead_s", "s", None),
]

#: Span names whose self time is reported (everything a wrapper records).
SPAN_METRICS = {span: name for name, _, span in PER_LAYER if span}
