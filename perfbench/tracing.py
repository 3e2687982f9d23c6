"""Span and counter wrappers installed on the program from outside.

Nothing under ``src/`` knows about this module.  :func:`install`
replaces each layer's public function (and the few private seams that
are the only place a layer's work can be seen, such as the native
compiler call) with a wrapper that records a span around the call,
then rebinds every module attribute that referred to the original, so
callers that did ``from x import f`` at import time see the wrapper
too.  Only synchronous functions are wrapped: in the server they run
to completion between two ``await`` points, so one span stack per
process nests correctly even with many streams live.

A span records name, start, end and the name of its parent; the
tracer also keeps per-name *self* time (duration minus the time its
child spans cover) and named counters.  :meth:`Tracer.dump` writes all
of it out when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """Process-local spans, self times and counters."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        #: Wrappers call straight through while this is False, so one
        #: process can time the same work with and without tracing.
        self.enabled = True

    def reset(self) -> None:
        self.spans = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def exit(self) -> float:
        name, start, child = self._stack.pop()
        end = _clock()
        duration = end - start
        self.self_s[name] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.spans.append((name, start, end, parent))
        return duration

    def charge(self, name: str, duration: float) -> None:
        """Book ``duration`` spent in ``name`` inside the current span.

        For work done in many tiny slices (a generator's ``next``),
        where one span per slice would cost more than the work.
        """
        self.self_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def parent_name(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as stream:
            json.dump({
                "spans": self.spans,
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
            }, stream)


def span(tracer: Tracer, name: str, fn: Callable,
         after: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span; ``after(tracer, args, kwargs, result)``
    may record counters from the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def counted(tracer: Tracer, counter: str, fn: Callable) -> Callable:
    """``fn`` counting its calls, its time left to the caller's span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.count(counter)
        return fn(*args, **kwargs)

    return wrapper


#: Items a wrapped generator produces per timed block.  One pair of
#: clock reads per block, not per item, keeps the wrapper's own cost
#: out of the producer's time.
BLOCK_ITEMS = 256


def sampled_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Wrap a generator function: the time spent producing its items,
    ``BLOCK_ITEMS`` at a time, is charged to ``name`` inside whichever
    span consumes them.

    Items are produced a block ahead of the consumer, which is safe for
    generators whose items do not depend on what the consumer does
    between them (``VcdReader.valuations`` yields immutable values).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        if not tracer.enabled:
            yield from iterator
            return
        produced = 0
        while True:
            start = _clock()
            block = list(itertools.islice(iterator, BLOCK_ITEMS))
            tracer.charge(name, _clock() - start)
            produced += len(block)
            yield from block
            if len(block) < BLOCK_ITEMS:
                tracer.count(name + ".items", produced)
                return

    return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def wrap_function(tracer: Tracer, module: str, attr: str, name: str,
                  after: Optional[Callable] = None) -> None:
    original = getattr(importlib.import_module(module), attr)
    _rebind(original, span(tracer, name, original, after))


def wrap_method(tracer: Tracer, module: str, cls: str, attr: str,
                name: str, after: Optional[Callable] = None,
                generator: bool = False) -> None:
    owner = getattr(importlib.import_module(module), cls)
    original = owner.__dict__[attr]
    if generator:
        setattr(owner, attr, sampled_generator(tracer, name, original))
    else:
        setattr(owner, attr, span(tracer, name, original, after))


# -- counters read off call arguments and results ---------------------------
def _lane_ticks(layer: str):
    def after(tracer, args, kwargs, result):
        masks = kwargs.get("mask_arrays", args[1] if len(args) > 1 else ())
        tracer.count(layer + ".lane_ticks", sum(len(m) for m in masks))
    return after


def _chunk_ticks(layer: str):
    def after(tracer, args, kwargs, result):
        tracer.count(layer + ".lane_ticks", len(args[1]))
    return after


def _plan_count(tracer, args, kwargs, result):
    engine = getattr(result, "engine", result)
    tracer.count(f"runtime.engines.plan.{engine}")


def _ingest_count(tracer, args, kwargs, result):
    if kwargs.get("cache") is None:
        return
    tracer.count("cache.hits" if result[1] else "cache.misses")


def _optimize_stats(tracer, args, kwargs, result):
    stats = result.stats
    tracer.count("optimize.runs")
    tracer.count("optimize.states_removed",
                 stats["baseline_states"] - stats["optimized_states"])
    tracer.count("optimize.cell_reduction_sum", result.cell_reduction)


def _build_count(tracer, args, kwargs, result):
    tracer.count("runtime.native.builds")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    # Modules imported lazily inside functions are imported here first,
    # so every binding exists before it is rebound.
    for module in (
        "repro.cli", "repro.cache", "repro.trace.columnar",
        "repro.trace.shard", "repro.trace.streaming",
        "repro.trace.vcd_reader", "repro.optimize",
        "repro.optimize.pipeline", "repro.monitor.minimize",
        "repro.synthesis.symbolic", "repro.runtime.native",
        "repro.runtime.vector", "repro.runtime.compiled",
        "repro.runtime.engines", "repro.codegen.c_gen",
        "repro.serve", "repro.serve.server", "repro.serve.protocol",
    ):
        importlib.import_module(module)

    fn = functools.partial(wrap_function, tracer)
    method = functools.partial(wrap_method, tracer)

    fn("repro.cli", "main", "cli.main")
    fn("repro.cesc.parser", "parse_cesc", "cesc.parse")
    fn("repro.synthesis.tr", "tr", "synthesis.tr")
    fn("repro.synthesis.tr", "tr_compiled", "synthesis.tr_compiled")

    method("repro.trace.vcd_reader", "VcdReader", "__init__",
           "trace.vcd_reader.header")
    method("repro.trace.vcd_reader", "VcdReader", "alphabet",
           "trace.vcd_reader.header")
    method("repro.trace.vcd_reader", "VcdReader", "valuations",
           "trace.vcd_reader.sample", generator=True)
    method("repro.trace.streaming", "StreamingChecker", "feed",
           "trace.streaming.feed")
    method("repro.trace.streaming", "StreamingChecker", "push_chunk",
           "trace.streaming.push_chunk")

    fn("repro.trace.columnar", "ingest_vcd", "trace.columnar.ingest",
       _ingest_count)
    fn("repro.trace.columnar", "masks_from_vcd_text",
       "trace.columnar.tokenize")
    columnar_set = importlib.import_module("repro.trace.columnar") \
        .ColumnarTraceSet
    for attr in ("from_bytes", "load"):
        original = columnar_set.__dict__[attr].__func__
        setattr(columnar_set, attr, classmethod(
            span(tracer, "trace.columnar.load", original)
        ))
    method("repro.cache", "CorpusCache", "load_bytes", "cache.load")
    method("repro.cache", "CorpusCache", "store_bytes", "cache.store")
    corpus_cache = importlib.import_module("repro.cache").CorpusCache
    corpus_cache.invalidate = counted(tracer, "cache.repairs",
                                      corpus_cache.invalidate)

    fn("repro.optimize.pipeline", "optimize_monitor",
       "optimize.optimize_monitor", _optimize_stats)
    fn("repro.monitor.minimize", "minimize_monitor", "monitor.minimize")
    fn("repro.synthesis.symbolic", "symbolic_monitor",
       "synthesis.symbolic")
    fn("repro.optimize.prune", "prune_monitor", "optimize.prune")
    fn("repro.runtime.compiled", "compile_monitor", "optimize.compile")
    fn("repro.optimize.ladders", "harden_ladders", "optimize.ladders")
    fn("repro.optimize.pipeline", "_compact_when_smaller",
       "optimize.compact")

    fn("repro.runtime.engines", "plan_execution", "runtime.engines.plan",
       _plan_count)
    fn("repro.runtime.engines", "plan_streaming", "runtime.engines.plan",
       _plan_count)
    fn("repro.runtime.native", "run_many_native_encoded",
       "runtime.native.step", _lane_ticks("runtime.native"))
    fn("repro.runtime.vector", "run_many_vector_encoded",
       "runtime.vector.step", _lane_ticks("runtime.vector"))
    method("repro.runtime.vector", "VectorEngine", "feed_masks",
           "runtime.vector.step", _chunk_ticks("runtime.vector"))

    compiled_lane_ticks = _lane_ticks("runtime.compiled")

    def compiled_after(tracer, args, kwargs, result):
        # The native runner replays a whole batch through the scalar
        # loop on any kernel anomaly: that call nests under its span.
        if tracer.parent_name() == "runtime.native.step":
            tracer.count("runtime.native.replays")
        compiled_lane_ticks(tracer, args, kwargs, result)

    fn("repro.runtime.compiled", "run_many_encoded",
       "runtime.compiled.step", compiled_after)
    fn("repro.runtime.native", "_compile_so", "runtime.native.cc",
       _build_count)
    fn("repro.codegen.c_gen", "table_to_c", "codegen.c_gen.emit")

    for attr in ("decode_request", "encode_message", "ticks_from_wire",
                 "masks_from_wire"):
        fn("repro.serve.protocol", attr, "serve.protocol")
