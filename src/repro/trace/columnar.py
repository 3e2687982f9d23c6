"""Columnar trace store + chunk-parallel VCD conversion.

The vector kernel (:mod:`repro.runtime.vector`) checks 18-28M ticks/s,
far faster than any VCD dump parses — on real-waveform workloads
*parsing*, not checking, is the wall.  This module closes that gap
twice over:

* **``.rtrc``** — a versioned binary columnar trace format storing
  per-trace symbol-mask arrays pre-encoded against an
  :class:`~repro.logic.codec.AlphabetCodec` (the exact int layout the
  vector kernel gathers over), plus trace lengths, the codec
  fingerprint, and sampling metadata.  A loaded set's lanes are
  zero-copy int32 ``memoryview`` slices over the ``mmap``'d (or read)
  payload; every batch kernel takes them as they are, and NumPy is
  never needed to load one.

* **chunk-parallel VCD conversion** — the change stream is split at
  timestamp lines (``\\n#``); workers of the persistent
  :mod:`repro.trace.shard` pools parse one chunk each with the delta
  tokenizer of :mod:`repro.trace.vcd_reader`, and the parent applies
  that module's sampling replay, so the masks are byte-identical to
  :meth:`VcdReader.valuations <repro.trace.vcd_reader.VcdReader.valuations>`
  whatever the seams.  A chunk whose seam cuts a directive fails, and
  the conversion retries once as a single stream.

* **content-addressed corpus cache** — :func:`ingest_vcd` keys an
  on-disk :class:`~repro.cache.CorpusCache` entry by the dump's
  content digest, the signal binding, the codec fingerprint, and the
  sampling parameters, so a regression corpus is parsed once and warm
  re-checks read pre-encoded mask arrays straight off disk.

``.rtrc`` layout (version 1, all integers little-endian)::

    bytes 0..3    magic b"RTRC"
    bytes 4..7    format version (uint32)
    bytes 8..11   JSON header length in bytes (uint32)
    ...           UTF-8 JSON header: symbols, fingerprint, lengths,
                  payload crc32, free-form "meta" (clock, period,
                  source digest, ...)
    ...           zero padding to a 64-byte boundary
    payload       sum(lengths) int32 mask values, trace-major

A file is rejected (and a cache entry treated as a miss) when the
magic or version mismatches, the size disagrees with the header, or
the payload crc32 does not verify.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.cache import CorpusCache
from repro.errors import TraceError
from repro.logic.codec import AlphabetCodec
from repro.semantics.run import Trace
from repro.trace.vcd_reader import VcdReader, _check_discipline, _parse_chunk

__all__ = [
    "RTRC_VERSION",
    "ColumnarTraceSet",
    "codec_fingerprint",
    "corpus_key",
    "ingest_vcd",
    "masks_from_vcd",
    "masks_from_vcd_text",
]

RTRC_MAGIC = b"RTRC"
RTRC_VERSION = 1

#: Payload alignment: mask arrays start on this boundary so an mmap'd
#: int32 view is aligned whatever the JSON header length.
_ALIGN = 64

#: Change streams smaller than this parse in-process — pool dispatch
#: and result pickling would cost more than the parse itself.
_MIN_PARALLEL_BYTES = 1 << 16

def codec_fingerprint(codec: Union[AlphabetCodec, Iterable[str]]) -> str:
    """Stable hex digest of a codec's symbol ordering.

    Two codecs with the same fingerprint produce identical mask
    streams for any trace, so the fingerprint is what a ``.rtrc`` file
    records and what cache keys embed.
    """
    symbols = (codec.symbols if isinstance(codec, AlphabetCodec)
               else tuple(sorted(set(codec))))
    payload = "\x00".join(symbols).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _lanes(payload) -> memoryview:
    """Native int32 lanes over a little-endian payload (zero-copy)."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian copy
        flat = array("i")
        flat.frombytes(payload)
        flat.byteswap()
        return memoryview(flat)
    return memoryview(payload).cast("i")


def _le_bytes(flat: memoryview):
    """The little-endian payload under native int32 lanes."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian copy
        swapped = array("i", flat)
        swapped.byteswap()
        return swapped.tobytes()
    return flat.cast("B")


class ColumnarTraceSet:
    """An ordered set of pre-encoded mask streams over one codec.

    ``masks(i)`` / ``mask_arrays()`` return zero-copy int32
    ``memoryview`` slices of one flat buffer — the file payload
    (``mmap``'d or read) for loaded sets, an ``array('i')`` for built
    ones — which every batch kernel consumes as it is.  They are
    read-only for loaded sets, and do not pickle (``tolist()`` copies
    one out).
    """

    __slots__ = ("symbols", "lengths", "meta", "_flat", "_offsets",
                 "_crc")

    def __init__(self, symbols: Sequence[str], lengths: Sequence[int],
                 flat, meta: Optional[dict] = None,
                 payload_crc: Optional[int] = None):
        self.symbols: Tuple[str, ...] = tuple(symbols)
        self.lengths: Tuple[int, ...] = tuple(int(n) for n in lengths)
        if any(n < 0 for n in self.lengths):
            raise TraceError("negative trace length in columnar set")
        self.meta = dict(meta) if meta else {}
        offsets = [0]
        for length in self.lengths:
            offsets.append(offsets[-1] + length)
        self._offsets = offsets
        if len(flat) != offsets[-1]:
            raise TraceError(
                f"columnar payload holds {len(flat)} masks; lengths "
                f"sum to {offsets[-1]}"
            )
        if type(flat) is not memoryview:
            flat = memoryview(array("i", flat))
        self._flat = flat
        self._crc = payload_crc

    # -- construction ----------------------------------------------------
    @classmethod
    def from_mask_arrays(cls, mask_arrays: Sequence[Sequence[int]],
                         symbols: Sequence[str],
                         meta: Optional[dict] = None) -> "ColumnarTraceSet":
        lengths = [len(masks) for masks in mask_arrays]
        flat = array("i")
        for masks in mask_arrays:
            flat.extend(masks)
        return cls(symbols, lengths, memoryview(flat), meta=meta)

    @classmethod
    def from_traces(cls, traces: Sequence[Trace],
                    alphabet: Optional[Iterable[str]] = None,
                    meta: Optional[dict] = None) -> "ColumnarTraceSet":
        """Encode whole traces; ``alphabet`` defaults to their union."""
        if alphabet is None:
            symbols: set = set()
            for trace in traces:
                symbols |= set(trace.alphabet)
            alphabet = symbols
        codec = AlphabetCodec(alphabet)
        return cls.from_mask_arrays(
            codec.encode_many(list(traces)), codec.symbols, meta=meta
        )

    # -- observers -------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        return codec_fingerprint(self.symbols)

    @property
    def n_traces(self) -> int:
        return len(self.lengths)

    @property
    def total_ticks(self) -> int:
        return self._offsets[-1]

    def codec(self) -> AlphabetCodec:
        return AlphabetCodec(self.symbols)

    def masks(self, index: int):
        """Trace ``index``'s mask stream (a zero-copy view; read-only)."""
        start, end = self._offsets[index], self._offsets[index + 1]
        return self._flat[start:end]

    def mask_arrays(self) -> list:
        return [self.masks(index) for index in range(self.n_traces)]

    def trace(self, index: int) -> Trace:
        """Decode one stream back into a :class:`Trace` (tests, tools)."""
        codec = self.codec()
        return Trace([codec.decode(int(mask)) for mask in self.masks(index)],
                     self.symbols)

    def __len__(self) -> int:
        return self.n_traces

    def __repr__(self):
        return (
            f"ColumnarTraceSet({self.n_traces} traces, "
            f"{self.total_ticks} ticks, "
            f"alphabet {list(self.symbols)})"
        )

    # -- serialisation ---------------------------------------------------
    def to_bytes(self) -> bytes:
        payload = _le_bytes(self._flat)
        header = json.dumps({
            "symbols": list(self.symbols),
            "fingerprint": self.fingerprint,
            "lengths": list(self.lengths),
            "payload_crc32": zlib.crc32(payload),
            "meta": self.meta,
        }, sort_keys=True).encode("utf-8")
        prefix = RTRC_MAGIC + struct.pack("<II", RTRC_VERSION, len(header))
        pad = (-(len(prefix) + len(header))) % _ALIGN
        return b"".join((prefix, header, b"\x00" * pad, payload))

    def save(self, path: Union[str, "os.PathLike[str]"]) -> str:
        """Write atomically (tmp file + rename); returns the path."""
        path = os.fspath(path)
        data = self.to_bytes()
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as stream:
            stream.write(data)
        os.replace(tmp, path)
        return path

    @classmethod
    def from_bytes(cls, data, verify: bool = True) -> "ColumnarTraceSet":
        """Parse a ``.rtrc`` payload (``bytes``, ``mmap``, ...).

        The lanes are views over ``data`` itself, which they keep alive.
        """
        if len(data) < 12 or bytes(data[:4]) != RTRC_MAGIC:
            raise TraceError("not a columnar trace (.rtrc) payload")
        version, header_len = struct.unpack("<II", data[4:12])
        if version != RTRC_VERSION:
            raise TraceError(
                f"columnar trace format version {version} unsupported "
                f"(this build reads version {RTRC_VERSION})"
            )
        if len(data) < 12 + header_len:
            raise TraceError("truncated columnar trace header")
        try:
            header = json.loads(bytes(data[12:12 + header_len]))
            symbols = header["symbols"]
            lengths = header["lengths"]
            crc = header["payload_crc32"]
            meta = header.get("meta", {})
        except (ValueError, KeyError, TypeError):
            raise TraceError("corrupt columnar trace header")
        offset = 12 + header_len
        offset += (-offset) % _ALIGN
        total = sum(lengths)
        if len(data) != offset + 4 * total:
            raise TraceError(
                f"columnar payload is {len(data) - offset} bytes; header "
                f"promises {4 * total}"
            )
        payload = memoryview(data)[offset:]
        if verify and zlib.crc32(payload) != crc:
            raise TraceError("columnar payload failed its crc32 check")
        return cls(symbols, lengths, _lanes(payload), meta=meta,
                   payload_crc=crc)

    def verify_payload(self) -> "ColumnarTraceSet":
        """Run (or re-run) the payload crc32 check; returns ``self``.

        Lazy loads defer this check so no page of the mapping is
        touched before a kernel reads it — call this to pay for the
        full scan explicitly.  Raises :class:`TraceError` on mismatch,
        like the eager path would have at load time.
        """
        if self._crc is None:
            return self
        if zlib.crc32(_le_bytes(self._flat)) != self._crc:
            raise TraceError("columnar payload failed its crc32 check")
        return self

    @classmethod
    def load(cls, path: Union[str, "os.PathLike[str]"],
             verify: bool = True, lazy: bool = False) -> "ColumnarTraceSet":
        """Read a ``.rtrc`` file through a read-only memory map.

        ``lazy=True`` *defers* the whole-payload crc32 — the eager
        check faults in every page, which defeats the mapping for
        corpora larger than RAM.  Structural validation (magic,
        version, header shape, payload size) still runs up front, and
        every failure mode stays a :class:`TraceError`;
        :meth:`verify_payload` runs the deferred check on demand.  A
        file that cannot be mapped (an empty one) is read and verified
        eagerly regardless of ``lazy``.
        """
        with open(os.fspath(path), "rb") as stream:
            try:
                mapped = mmap.mmap(stream.fileno(), 0,
                                   access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                return cls.from_bytes(stream.read(), verify=verify)
        return cls.from_bytes(mapped, verify=verify and not lazy)


# -- chunk-parallel VCD conversion ------------------------------------------
def _split_points(body: str, n_chunks: int) -> List[int]:
    """Chunk start offsets into ``body`` at ``\\n#`` timestamp lines."""
    points = [0]
    for chunk in range(1, n_chunks):
        target = (len(body) * chunk) // n_chunks
        found = body.find("\n#", target)
        if found < 0:
            break
        point = found + 1
        if point > points[-1]:
            points.append(point)
    return points


def masks_from_vcd_text(
    text: str,
    codec: AlphabetCodec,
    binding=None,
    clock: Optional[str] = None,
    period: Optional[int] = None,
    offset: int = 0,
    until: Optional[int] = None,
    jobs: Optional[int] = 1,
    mp_context: Optional[str] = None,
    oversubscribe: bool = False,
    _force_splits: Optional[List[int]] = None,
) -> array:
    """Encode a VCD document to one per-tick mask array.

    Byte-identical to encoding
    :meth:`VcdReader.valuations <repro.trace.vcd_reader.VcdReader.valuations>`
    through ``codec`` tick by tick: both run the same delta parser and
    sampling replay.  With ``jobs > 1`` on a large dump the body is
    split at timestamp lines and parsed across the persistent worker
    pools, one chunk per worker.  A seam that cuts a directive body (or
    parts a value from its id) fails its chunk; the conversion then
    retries once as a single sequential stream, which has no seams.
    ``_force_splits`` pins chunk boundaries (tests).
    """
    from repro.trace.shard import _get_pool, resolve_jobs

    _check_discipline(clock, period)
    reader = VcdReader.from_text(text, binding=binding)
    bound, clock_codes = reader._sampling_bound(clock)
    body = text[reader._body_offset:]
    jobs = resolve_jobs(jobs, oversubscribe=oversubscribe)
    splits = _force_splits
    if splits is None:
        if jobs > 1 and len(body) >= _MIN_PARALLEL_BYTES:
            splits = _split_points(body, jobs)
        else:
            splits = [0]
    bounds = list(zip(splits, splits[1:] + [len(body)]))

    def parse_in_pool(actions, code_bits, clock_codes, drop_quiet):
        pool = _get_pool(mp_context, min(jobs, len(bounds)))
        return [records for records, _ in pool.starmap(_parse_chunk, [
            (body[start:end], actions, code_bits, clock_codes, drop_quiet)
            for start, end in bounds
        ])]

    def sampled(reader, parse=None) -> array:
        masks = array("i")
        for part in reader._sample(bound, clock_codes, codec.bit_of, period,
                                   offset, until, parse):
            masks.extend(part)
        return masks

    if len(bounds) > 1:
        try:
            return sampled(reader, parse_in_pool)
        except TraceError:
            # A seam may have cut a directive body: retry once without
            # seams before blaming the dump itself.
            reader = VcdReader.from_text(text, binding=binding)
    return sampled(reader)


def masks_from_vcd(
    source: Union[str, "os.PathLike[str]"],
    codec: AlphabetCodec,
    **kwargs,
) -> array:
    """:func:`masks_from_vcd_text` over a dump file."""
    with open(os.fspath(source), "rb") as stream:
        text = stream.read().decode("utf-8", "replace")
    return masks_from_vcd_text(text, codec, **kwargs)


# -- content-addressed ingest ------------------------------------------------
def corpus_key(
    content_digest: str,
    codec: Union[AlphabetCodec, Iterable[str]],
    binding=None,
    clock: Optional[str] = None,
    period: Optional[int] = None,
    offset: int = 0,
    until: Optional[int] = None,
) -> str:
    """Cache key of one (dump, binding, codec, sampling) combination.

    Any ingredient changing — dump bytes, signal binding, codec symbol
    ordering, sampling discipline, or the ``.rtrc`` format version —
    yields a different key, so stale entries are never *read*, only
    orphaned (and rewritten under the new key on the next miss).
    """
    payload = json.dumps({
        "format": RTRC_VERSION,
        "content": content_digest,
        "codec": codec_fingerprint(codec),
        "binding": binding.fingerprint() if binding is not None else None,
        "clock": clock,
        "period": period,
        "offset": offset,
        "until": until,
    }, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def ingest_vcd(
    path: Union[str, "os.PathLike[str]"],
    codec: AlphabetCodec,
    cache: Optional[Union[CorpusCache, str]] = None,
    binding=None,
    clock: Optional[str] = None,
    period: Optional[int] = None,
    offset: int = 0,
    until: Optional[int] = None,
    jobs: Optional[int] = 1,
    mp_context: Optional[str] = None,
    oversubscribe: bool = False,
    refresh: bool = False,
) -> Tuple[ColumnarTraceSet, bool, Optional[str]]:
    """One dump -> ``(columnar set, cache_hit, cache_path)``.

    With a ``cache`` (a :class:`~repro.cache.CorpusCache` or its root
    directory), a warm call skips parsing entirely: the entry keyed by
    the dump's content digest + binding + codec fingerprint + sampling
    parameters is loaded and verified (crc32, version, fingerprint) —
    a corrupted, truncated, or stale entry is treated as a miss,
    evicted, and rebuilt from the dump.  ``refresh=True`` forces the
    rebuild.
    """
    path = os.fspath(path)
    with open(path, "rb") as stream:
        data = stream.read()
    fingerprint = codec_fingerprint(codec)
    entry_path: Optional[str] = None
    key: Optional[str] = None
    if cache is not None:
        if not isinstance(cache, CorpusCache):
            cache = CorpusCache(cache)
        key = corpus_key(hashlib.sha256(data).hexdigest(), codec,
                         binding=binding, clock=clock, period=period,
                         offset=offset, until=until)
        entry_path = cache.path_for(key)
        if not refresh:
            blob = cache.load_bytes(key)
            if blob is not None:
                try:
                    loaded = ColumnarTraceSet.from_bytes(blob)
                    if loaded.fingerprint != fingerprint:
                        raise TraceError("cached codec fingerprint mismatch")
                    return loaded, True, entry_path
                except TraceError:
                    # Never serve a doubtful entry: drop it, re-parse.
                    cache.invalidate(key)
    text = data.decode("utf-8", "replace")
    masks = masks_from_vcd_text(
        text, codec, binding=binding, clock=clock, period=period,
        offset=offset, until=until, jobs=jobs, mp_context=mp_context,
        oversubscribe=oversubscribe,
    )
    built = ColumnarTraceSet.from_mask_arrays([masks], codec.symbols, meta={
        "source": os.path.basename(path),
        "source_sha256": hashlib.sha256(data).hexdigest(),
        "clock": clock,
        "period": period,
        "offset": offset,
        "until": until,
    })
    if cache is not None and key is not None:
        cache.store_bytes(key, built.to_bytes())
    return built, False, entry_path


def check_vcd_cached(
    monitor,
    paths: Sequence[str],
    cache: Union[CorpusCache, str],
    jobs: Optional[int] = None,
    clock: Optional[str] = None,
    period: Optional[int] = None,
    offset: int = 0,
    until: Optional[int] = None,
    binding=None,
    mp_context: Optional[str] = None,
    oversubscribe: bool = False,
    engine: str = "auto",
    max_recorded: int = 10_000,
) -> list:
    """Check dumps through the corpus cache; one StreamReport per path.

    The cache-aware twin of
    :func:`~repro.trace.shard.run_sharded_vcd`: each dump is resolved
    through :func:`ingest_vcd` (warm hits read pre-encoded masks off
    disk; misses run the chunk-parallel converter and populate the
    cache) and the mask stream is fed to the batch kernel selected by
    ``engine`` (the planner resolves ``"auto"`` per dump — each dump
    is one width-1 batch, so auto takes the scalar compiled loop) —
    verdicts are identical to the streaming path on detector specs.
    """
    from repro.runtime.compiled import as_compiled
    from repro.runtime.engines import (
        AUTO,
        Workload,
        plan_execution,
        require_backend,
    )
    from repro.trace.streaming import StreamReport

    if engine != AUTO:
        # Validate up front so an empty path list still rejects a bad
        # engine with the registry's uniform wording.
        require_backend(engine, "batch", error_cls=TraceError)
    compiled = as_compiled(monitor)
    if not isinstance(cache, CorpusCache):
        cache = CorpusCache(cache)
    reports = []
    for path in paths:
        columns, _, _ = ingest_vcd(
            path, compiled.codec, cache=cache, binding=binding,
            clock=clock, period=period, offset=offset, until=until,
            jobs=jobs, mp_context=mp_context, oversubscribe=oversubscribe,
        )
        masks = columns.masks(0)
        plan = plan_execution(compiled, Workload(1, len(masks)), engine,
                              capability="batch", error_cls=TraceError)
        result = plan.encoded_runner()(compiled, [masks])[0]
        detections = list(result.detections)
        reports.append(StreamReport(
            compiled.name,
            ticks=len(masks),
            detections=detections[:max_recorded],
            n_detections=len(detections),
            violations=[],
            n_violations=0,
            n_passes=0,
            n_pending=0,
            stopped_early=False,
        ))
    return reports
