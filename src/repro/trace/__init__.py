"""Streaming trace pipeline: external waveforms in, verdicts out.

The synthesis layer turns visual specs into monitors; this package
turns *real simulation dumps* into the valuation streams those
monitors consume, and scales checking beyond a single process:

* :mod:`repro.trace.vcd_reader` — :class:`VcdReader`, the one VCD
  front-end: a block-by-block delta tokenizer and sampling replay (the
  counterpart of :class:`~repro.sim.vcd.VcdWriter`) with a
  configurable signal-to-symbol :class:`SignalBinding`;
* :mod:`repro.trace.bridge` — :func:`trace_to_vcd`, rendering recorded
  traces as VCD dumps (fixtures, golden files, viewer hand-off);
* :mod:`repro.trace.columnar` — :class:`ColumnarTraceSet`, the binary
  ``.rtrc`` columnar store of pre-encoded mask arrays, with the
  chunk-parallel VCD converter (:func:`masks_from_vcd`, the same
  tokenizer and replay fanned out across worker processes) and the
  content-addressed corpus ingest (:func:`ingest_vcd`);
* :mod:`repro.trace.streaming` — :class:`StreamingChecker`, online
  checking with bounded memory and early exit;
* :mod:`repro.trace.shard` — :func:`run_sharded` /
  :func:`run_bank_sharded`, multiprocessing fan-out of compiled-table
  checking across worker processes.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.trace.bridge": ("trace_to_vcd",),
    "repro.trace.columnar": (
        "ColumnarTraceSet", "codec_fingerprint", "ingest_vcd",
        "masks_from_vcd", "masks_from_vcd_text",
    ),
    "repro.trace.shard": (
        "available_cores", "run_bank_sharded", "run_sharded",
        "run_sharded_vcd", "shutdown_worker_pools",
    ),
    "repro.trace.streaming": ("StreamingChecker", "StreamReport"),
    "repro.trace.vcd_reader": ("SignalBinding", "VcdReader", "VcdSignal"),
})

__all__ = [
    "ColumnarTraceSet",
    "SignalBinding",
    "StreamReport",
    "StreamingChecker",
    "VcdReader",
    "VcdSignal",
    "available_cores",
    "codec_fingerprint",
    "ingest_vcd",
    "masks_from_vcd",
    "masks_from_vcd_text",
    "run_bank_sharded",
    "run_sharded",
    "run_sharded_vcd",
    "shutdown_worker_pools",
    "trace_to_vcd",
]
