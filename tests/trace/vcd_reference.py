"""Frozen reference VCD reader for differential tests and benchmarks.

A verbatim copy of the original sequential ``VcdReader`` parser: the
``_TokenStream`` batch tokenizer, the header parser, the per-change
value loop and the ``counts``/``true_now`` sampling loop of
``valuations``.  The production reader (:mod:`repro.trace.vcd_reader`)
now runs the delta-record tokenizer and replay shared with the
chunk-parallel converter; this module is the fixed semantics both are
checked against, byte for byte.  It is test-side code: do not edit it
to match a production change - a difference is a finding.

Importable from the tests (``tests/trace`` is on ``sys.path`` under
pytest's default import mode) and from the benchmarks, which add the
directory explicitly.
"""

from __future__ import annotations

import io
import os
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import TraceError
from repro.logic.valuation import Valuation
from repro.semantics.run import Trace
from repro.trace.vcd_reader import SignalBinding, VcdSignal

__all__ = ["ReferenceVcdReader", "reference_masks"]

#: Scalar change tokens.  ``x``/``z`` map to ``None`` — "no known
#: value" — which samples as false, never rises a clock, and does not
#: count as the dump's first real value (see repro.trace.vcd_reader).
_SCALAR_VALUES = {"0": 0, "1": 1, "x": None, "X": None, "z": None, "Z": None}

#: Directives whose body is skipped wholesale (up to ``$end``).
_SKIP_DIRECTIVES = {"$date", "$version", "$comment"}

#: Dump-section markers that bracket ordinary value-change tokens.
_DUMP_DIRECTIVES = {"$dumpvars", "$dumpall", "$dumpon", "$dumpoff"}


class _TokenStream:
    """Buffered whitespace tokenizer with batch access.

    Tokenizes one chunk of the stream at a time with a single
    ``str.split`` and exposes the result as an indexable buffer: the
    hot value-change parser walks ``_buffer``/``_pos`` directly (no
    generator resume per token), while header parsing and rare
    directives use the ordinary iterator protocol.  A token cut
    mid-chunk is carried over to the next refill.
    """

    __slots__ = ("_stream", "_chunk_size", "_buffer", "_pos", "_pending")

    def __init__(self, stream, chunk_size: int):
        self._stream = stream
        self._chunk_size = chunk_size
        self._buffer: List[str] = []
        self._pos = 0
        self._pending = ""

    def _refill(self) -> bool:
        """Load the next non-empty token batch; False at end of input."""
        while True:
            chunk = self._stream.read(self._chunk_size)
            if not chunk:
                if self._pending:
                    self._buffer = [self._pending]
                    self._pending = ""
                    self._pos = 0
                    return True
                return False
            parts = (self._pending + chunk).split()
            # The final fragment may be a token cut mid-chunk; keep it
            # back unless the chunk ended on whitespace.
            if parts and not chunk[-1].isspace():
                self._pending = parts.pop()
            else:
                self._pending = ""
            if parts:
                self._buffer = parts
                self._pos = 0
                return True

    def next_token(self) -> Optional[str]:
        if self._pos >= len(self._buffer) and not self._refill():
            return None
        token = self._buffer[self._pos]
        self._pos += 1
        return token

    def __iter__(self) -> "_TokenStream":
        return self

    def __next__(self) -> str:
        token = self.next_token()
        if token is None:
            raise StopIteration
        return token


class VcdReader:
    """Chunked, incremental reader of VCD waveform dumps.

    ``source`` is a filesystem path or an open text stream; text
    passed directly is supported via :meth:`from_text`.  The header is
    parsed eagerly (so :attr:`signals` is available immediately); value
    changes stream lazily through :meth:`changes` and the sampling
    iterators, holding only one chunk and one value per signal in
    memory.
    """

    def __init__(self, source: Union[str, "os.PathLike[str]", io.TextIOBase],
                 binding: Optional[SignalBinding] = None,
                 chunk_size: int = 1 << 16):
        if chunk_size <= 0:
            raise TraceError("chunk_size must be positive")
        self._owns_stream = False
        if hasattr(source, "read"):
            self._stream = source
        else:
            self._stream = open(os.fspath(source), "r")
            self._owns_stream = True
        self._chunk_size = chunk_size
        self.binding = binding if binding is not None else SignalBinding()
        self.timescale: Optional[str] = None
        self.signals: List[VcdSignal] = []
        self._by_code: Dict[str, VcdSignal] = {}
        self._tokens = _TokenStream(self._stream, chunk_size)
        try:
            self._parse_header()
        except Exception:
            # The context manager is never entered when __init__
            # raises, so an owned handle must be released here.
            self.close()
            raise
        self._consumed = False

    @classmethod
    def from_text(cls, text: str, binding: Optional[SignalBinding] = None,
                  chunk_size: int = 1 << 16) -> "VcdReader":
        """Read a VCD document already held as a string."""
        return cls(io.StringIO(text), binding=binding, chunk_size=chunk_size)

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "VcdReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- tokenization ----------------------------------------------------
    def _directive_body(self, name: str) -> List[str]:
        body: List[str] = []
        for token in self._tokens:
            if token == "$end":
                return body
            body.append(token)
        raise TraceError(f"unterminated {name} directive (missing $end)")

    # -- header ----------------------------------------------------------
    def _parse_header(self) -> None:
        scopes: List[str] = []
        for token in self._tokens:
            if token == "$enddefinitions":
                self._directive_body("$enddefinitions")
                return
            if token == "$timescale":
                self.timescale = " ".join(self._directive_body("$timescale"))
            elif token == "$scope":
                body = self._directive_body("$scope")
                if len(body) < 2:
                    raise TraceError(f"malformed $scope: {body}")
                scopes.append(body[1])
            elif token == "$upscope":
                self._directive_body("$upscope")
                if scopes:
                    scopes.pop()
            elif token == "$var":
                body = self._directive_body("$var")
                if len(body) < 4:
                    raise TraceError(f"malformed $var: {body}")
                kind, width, code, name = body[0], body[1], body[2], body[3]
                try:
                    parsed_width = int(width)
                except ValueError:
                    raise TraceError(f"bad $var width {width!r}")
                signal = VcdSignal(
                    code, name, ".".join(scopes), parsed_width, kind
                )
                self.signals.append(signal)
                self._by_code[code] = signal
            elif token in _SKIP_DIRECTIVES:
                self._directive_body(token)
            elif token.startswith("$"):
                # Unknown directive: skip its body defensively.
                self._directive_body(token)
            else:
                raise TraceError(
                    f"unexpected token {token!r} before $enddefinitions"
                )
        raise TraceError("VCD header ended without $enddefinitions")

    # -- value changes ---------------------------------------------------
    def changes(self) -> Iterator[Tuple[int, str, Optional[int]]]:
        """Yield ``(time, identifier_code, value)`` change records.

        ``value`` is an int (vectors parse as binary), ``0``/``1`` for
        scalars, or ``None`` for ``x``/``z``.  Records inside
        ``$dumpvars``-style sections are yielded like ordinary changes
        (their surrounding markers are skipped).

        A reader streams its dump exactly once — a second consumption
        would silently yield nothing (the underlying stream is spent),
        so it raises instead; construct a fresh ``VcdReader`` to
        re-read.
        """
        batches = self._change_batches()

        def flattened() -> Iterator[Tuple[int, str, Optional[int]]]:
            for batch in batches:
                yield from batch

        return flattened()

    def _change_batches(self) -> Iterator[List[Tuple[int, str, Optional[int]]]]:
        """One list of change records per tokenizer refill (see
        :meth:`_iter_change_batches`); single-consumption guarded."""
        if self._consumed:
            raise TraceError(
                "VCD value changes already consumed; open a new VcdReader "
                "to re-read the dump"
            )
        self._consumed = True
        return self._iter_change_batches()

    def _change_directive(self, token: str) -> None:
        """Rare-path handling of a directive in the change stream."""
        if token == "$dumpoff":
            # A blackout section: every signal is dumped as x/z purely
            # to mark the gap.  Applying those would read all symbols
            # false and register a phantom clock edge at $dumpon, so
            # the section is skipped wholesale — values hold until
            # $dumpon re-dumps them.
            for skipped in self._tokens:
                if skipped == "$end":
                    return
            raise TraceError("unterminated $dumpoff section (missing $end)")
        if token in _DUMP_DIRECTIVES or token == "$end":
            return
        if token[0] == "$":
            self._directive_body(token)
            return
        raise TraceError(f"unexpected value-change token {token!r}")

    def _iter_change_batches(
        self,
    ) -> Iterator[List[Tuple[int, str, Optional[int]]]]:
        """Value-change records, one list per tokenizer refill.

        The hot loop walks the token buffer by index — ``str.split``
        already tokenized the whole chunk — and dispatches on the first
        character with the most frequent kinds (scalar changes, then
        timestamps) tested first.  Only directives and a value token
        cut at a buffer boundary leave the fast loop.  Consumers get
        whole batches, so the per-record generator resume of a naive
        token pipeline disappears from both sides.
        """
        time = 0
        miss = object()
        scalar_get = _SCALAR_VALUES.get
        tokens = self._tokens
        while True:
            if tokens._pos >= len(tokens._buffer) and not tokens._refill():
                return
            buffer = tokens._buffer
            index = tokens._pos
            n = len(buffer)
            out: List[Tuple[int, str, Optional[int]]] = []
            append = out.append
            while index < n:
                token = buffer[index]
                lead = token[0]
                value = scalar_get(lead, miss)
                if value is not miss:
                    index += 1
                    code = token[1:]
                    if not code:
                        raise TraceError(
                            f"scalar change {token!r} lacks an id"
                        )
                    append((time, code, value))
                elif lead == "#":
                    index += 1
                    try:
                        time = int(token[1:])
                    except ValueError:
                        raise TraceError(f"bad timestamp token {token!r}")
                    append((time, "", None))  # timestamp marker
                elif lead in "bBrR":
                    index += 1
                    if index < n:
                        code = buffer[index]
                        index += 1
                    else:
                        # Value token cut at the buffer boundary: pull
                        # its identifier through the stream (refills).
                        tokens._pos = index
                        code = tokens.next_token()
                        buffer = tokens._buffer
                        index = tokens._pos
                        n = len(buffer)
                    if lead in "bB":
                        if code is None:
                            raise TraceError(
                                f"vector change {token!r} lacks an id"
                            )
                        bits = token[1:]
                        if any(c in "xXzZ" for c in bits):
                            append((time, code, None))
                        else:
                            try:
                                append((time, code, int(bits, 2)))
                            except ValueError:
                                raise TraceError(
                                    f"bad vector value {token!r}"
                                )
                    else:
                        if code is None:
                            raise TraceError(
                                f"real change {token!r} lacks an id"
                            )
                        try:
                            append((time, code, int(float(token[1:]) != 0.0)))
                        except ValueError:
                            raise TraceError(f"bad real value {token!r}")
                else:
                    # Directive (or junk): hand the stream back at this
                    # position and let the slow path consume it.
                    tokens._pos = index + 1
                    self._change_directive(token)
                    buffer = tokens._buffer
                    index = tokens._pos
                    n = len(buffer)
            tokens._pos = index
            if out:
                yield out

    # -- sampling --------------------------------------------------------
    def _bound_symbols(self) -> Dict[str, Tuple[str, ...]]:
        """``identifier code -> symbols`` for every bound signal.

        One code may carry several symbols: VCD aliases identical nets
        across scopes by declaring multiple ``$var`` entries with a
        shared identifier, and a change record drives all of them.
        """
        bound: Dict[str, Tuple[str, ...]] = {}
        for signal in self.signals:
            symbol = self.binding.symbol_for(signal)
            if symbol is not None:
                existing = bound.get(signal.code, ())
                if symbol not in existing:
                    bound[signal.code] = existing + (symbol,)
        return bound

    def alphabet(self, clock: Optional[str] = None) -> frozenset:
        """The symbols this reader's binding exposes.

        Pass the same ``clock`` as the sampling call to get the
        alphabet the emitted valuations will carry (the sampling clock
        is infrastructure, excluded unless explicitly bound).
        """
        bound, _ = self._sampling_bound(clock)
        return frozenset(s for symbols in bound.values() for s in symbols)

    def _sampling_bound(self, clock: Optional[str]):
        """``(code -> symbol, clock codes)`` for one sampling setup."""
        bound = self._bound_symbols()
        clock_codes = frozenset(
            s.code for s in self.signals
            if clock is not None and (s.name == clock or s.reference == clock)
        )
        if clock is not None and not clock_codes:
            known = sorted(s.reference for s in self.signals)
            raise TraceError(
                f"clock signal {clock!r} not declared in dump "
                f"(signals: {known})"
            )
        if len(clock_codes) > 1:
            # Distinct nets (different identifier codes) sharing the
            # unscoped name: unioning their edges would corrupt the
            # tick grid, so demand a scoped reference.  A single code
            # declared in several scopes is one net — fine.
            matches = sorted(
                s.reference for s in self.signals
                if s.name == clock or s.reference == clock
            )
            raise TraceError(
                f"clock name {clock!r} is ambiguous in this dump "
                f"({matches}); use a scoped reference"
            )
        infrastructure = frozenset(
            s.name for s in self.signals
            if s.code in clock_codes and not self.binding.maps(s)
        )
        if infrastructure:
            # The sampling clock is infrastructure, not part of the
            # observed alphabet — unless a mapping names it on purpose.
            # Only the clock's own symbols are dropped: an identifier
            # code aliasing the clock with a bound data net keeps the
            # data symbol.
            trimmed: Dict[str, Tuple[str, ...]] = {}
            for code, symbols in bound.items():
                if code in clock_codes:
                    symbols = tuple(
                        s for s in symbols if s not in infrastructure
                    )
                if symbols:
                    trimmed[code] = symbols
            bound = trimmed
        return bound, clock_codes

    def valuations(
        self,
        clock: Optional[str] = None,
        period: Optional[int] = None,
        offset: int = 0,
        until: Optional[int] = None,
    ) -> Iterator[Valuation]:
        """Stream one :class:`Valuation` per clock tick.

        Exactly one discipline applies: ``clock`` names a signal whose
        rising edges define the ticks (the signal itself is excluded
        from the emitted symbols unless explicitly bound); ``period``
        samples every ``period`` time units starting at ``offset`` up
        to ``until`` (default: the dump's last timestamp); with
        neither, every timestamp in the dump is a tick.

        ``offset``/``until`` (time units, inclusive) window every
        discipline: ticks before ``offset`` are skipped and reading
        stops early once the dump passes ``until``.

        Ticks sample values *after* the changes at their instant — the
        synchronous convention that a change dumped at time ``t`` is
        what the monitor reads at tick ``t``.
        """
        if clock is not None and period is not None:
            raise TraceError("choose clock or period sampling, not both")
        if period is not None and period <= 0:
            raise TraceError("sampling period must be positive")
        bound, clock_codes = self._sampling_bound(clock)
        alphabet = frozenset(s for symbols in bound.values() for s in symbols)

        true_now: set = set()
        counts: Dict[str, int] = {}  # symbol -> number of high drivers
        clock_high = False
        clock_rose = False
        block_time = 0
        next_sample = offset
        # A dump whose only content is an all-x $dumpvars block has no
        # sampled instant at all (that is how an empty trace renders);
        # event/periodic ticks only start once a real value appears.
        saw_value = False

        # Snapshots are cached per symbol-state version: idle stretches
        # (periodic sampling across gaps, clock ticks with no data
        # activity) then reuse one immutable Valuation instead of
        # rebuilding an identical one per tick.
        state_version = 0
        snap_version = -1
        snap_value: Optional[Valuation] = None

        def snapshot() -> Valuation:
            nonlocal snap_version, snap_value
            if snap_version != state_version:
                snap_value = Valuation(frozenset(true_now), alphabet)
                snap_version = state_version
            return snap_value

        def in_window(time: int) -> bool:
            return time >= offset and (until is None or time <= until)

        # Per-code high/low tracking; a symbol is true when any of its
        # driving codes is high (multiple signals may bind one symbol).
        code_high: Dict[str, bool] = {}

        def flush_periodic(limit: int) -> Iterator[Valuation]:
            """Emit samples at every point strictly before ``limit``."""
            nonlocal next_sample
            while next_sample < limit and (until is None or next_sample <= until):
                yield snapshot()
                next_sample += period

        pending_block = False
        bound_get = bound.get
        code_high_get = code_high.get
        counts_get = counts.get
        # The change stream arrives in tokenizer-refill batches; the
        # per-change work below is a plain loop over those lists, with
        # the set-code bookkeeping inlined (it runs once per change
        # record — the dominant count in any dump).
        for changes in self._change_batches():
            for time, code, value in changes:
                if code:
                    # Changes before any timestamp (e.g. a bare
                    # $dumpvars section) belong to an implicit instant
                    # at time 0.
                    pending_block = True
                    if value is not None:
                        saw_value = True
                        high = value != 0
                    else:
                        high = False
                    if code in clock_codes:
                        if high and not clock_high:
                            clock_rose = True
                        clock_high = high
                    symbols = bound_get(code)
                    if not symbols or code_high_get(code, False) == high:
                        continue
                    code_high[code] = high
                    state_version += 1
                    for symbol in symbols:
                        if high:
                            counts[symbol] = counts_get(symbol, 0) + 1
                            true_now.add(symbol)
                        else:
                            remaining = counts_get(symbol, 0) - 1
                            counts[symbol] = remaining
                            if remaining <= 0:
                                true_now.discard(symbol)
                    continue
                # Timestamp marker.
                if pending_block and time == block_time:
                    # Same instant continues — e.g. an initial-value
                    # section written *before* the first '#0' marker
                    # belongs to the '#0' block, not to a tick of its
                    # own.
                    continue
                if pending_block:
                    # close the previous instant
                    if clock is not None:
                        if clock_rose and in_window(block_time):
                            yield snapshot()
                        clock_rose = False
                    elif period is None and saw_value and in_window(block_time):
                        yield snapshot()
                if period is not None:
                    if saw_value:
                        yield from flush_periodic(time)
                    else:
                        # No value has appeared yet, so grid points up
                        # to here would be phantom ticks back-filled
                        # with future values; skip them, keeping the
                        # grid's offset phase.
                        while next_sample < time:
                            next_sample += period
                if until is not None and time > until:
                    # The rest of the dump is outside the window —
                    # stop reading (this is the early exit that makes
                    # until= a bounded-work window on huge dumps).
                    return
                block_time = time
                pending_block = True
        # Close the final instant.
        if pending_block:
            if clock is not None:
                if clock_rose and in_window(block_time):
                    yield snapshot()
            elif period is None and saw_value and in_window(block_time):
                yield snapshot()
            if period is not None and saw_value:
                stop = block_time if until is None else until
                while next_sample <= stop:
                    yield snapshot()
                    next_sample += period

    def trace(self, clock: Optional[str] = None, period: Optional[int] = None,
              offset: int = 0, until: Optional[int] = None) -> Trace:
        """Materialise the sampled valuation stream as a :class:`Trace`.

        Convenience for small dumps and tests; for multi-GB dumps feed
        :meth:`valuations` straight into a
        :class:`~repro.trace.streaming.StreamingChecker` instead.
        """
        alphabet = self.alphabet(clock=clock)
        valuations = list(
            self.valuations(clock=clock, period=period, offset=offset,
                            until=until)
        )
        return Trace(valuations, alphabet)


#: The reference under the name the tests and benchmarks use.
ReferenceVcdReader = VcdReader


def reference_masks(text: str, codec, binding=None, chunk_size: int = 1 << 16,
                    **sampling) -> List[int]:
    """Encode the reference reader's valuations through ``codec``."""
    reader = VcdReader.from_text(text, binding=binding, chunk_size=chunk_size)
    return [codec.encode(valuation)
            for valuation in reader.valuations(**sampling)]
