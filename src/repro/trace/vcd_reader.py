"""Incremental VCD parsing: waveform dumps to valuation streams.

The counterpart of :class:`~repro.sim.vcd.VcdWriter` — but built for
dumps the repo did *not* write: standard four-value VCD as produced by
simulators and waveform tools.  This module is the repo's one VCD
front-end.  The header is tokenized eagerly; the value-change body is
then parsed in two stages that every consumer shares:

* :func:`_parse_chunk` turns a stretch of the body into compact
  per-instant *delta records* (set/clear bits of the bound signals,
  clock-edge and validity flags);
* :func:`_replay` applies the sampling discipline to those records and
  emits one symbol mask per tick.

:meth:`VcdReader.valuations` feeds the stream through both stages one
``chunk_size`` block at a time, so a multi-gigabyte dump streams
through in bounded memory;
:func:`~repro.trace.columnar.masks_from_vcd_text` runs the same two
stages with the body split across worker processes.

Three sampling disciplines turn value changes into the per-clock
:class:`~repro.logic.valuation.Valuation` elements monitors consume:

* **event sampling** (default) — one valuation per timestamp present
  in the dump;
* **clock sampling** (``clock="clk"``) — one valuation per rising edge
  of a designated clock signal, the usual discipline for synchronous
  protocol traces;
* **periodic sampling** (``period=n``) — one valuation every ``n``
  time units (gaps hold their last value), which reconstructs exactly
  the tick grid :class:`~repro.sim.vcd.VcdWriter` sampled on.

A :class:`SignalBinding` maps VCD signal references to alphabet
symbols; unmapped signals are ignored, multi-bit signals read true
when non-zero, and ``x``/``z`` read false.

x/z sampling semantics
----------------------
Four-value VCD has no direct image in the two-valued synchronous
model, so unknown (``x``) and high-impedance (``z``) parse to "no
known value" — *not* to 0.  The distinction matters in three places:

* a symbol whose driver is ``x``/``z`` reads **false** at sampling
  time, the conservative choice for event symbols ("no occurrence
  observed");
* a clock driven to ``x``/``z`` reads **low**: the unknown itself can
  never be a sampling edge (no tick fires on ``1 -> x``), while the
  next real ``1`` — whether from ``0`` or from ``x`` — is the rising
  edge that ticks the monitor;
* a dump whose only content so far is all-``x`` (``$dumpvars`` of an
  uninitialised design, or a ``$dumpoff`` blackout) has produced **no
  value** yet: event/periodic sampling starts at the first real value
  (``saw_value``), so uninitialised preambles do not emit all-false
  phantom ticks.
"""

from __future__ import annotations

import io
import os
import re
from array import array
from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.errors import TraceError
from repro.logic.valuation import Valuation
from repro.semantics.run import Trace

__all__ = ["SignalBinding", "VcdReader", "VcdSignal"]

#: Scalar change tokens.  ``x``/``z`` map to ``None`` — "no known
#: value" — which samples as false, never rises a clock, and does not
#: count as the dump's first real value (see module docstring).
_SCALAR_VALUES = {"0": 0, "1": 1, "x": None, "X": None, "z": None, "Z": None}

#: Dump-section markers that bracket ordinary value-change tokens.
_DUMP_DIRECTIVES = {"$dumpvars", "$dumpall", "$dumpon", "$dumpoff"}

# Per-instant clock/validity flags carried by delta records.
_F_ROSE = 1          # clock rose within the instant (previous level known low)
_F_ROSE_IF_LOW = 2   # clock went high but the incoming level is chunk-unknown
_F_LEVEL_LOW = 4     # clock level at end of instant: low
_F_LEVEL_HIGH = 8    # clock level at end of instant: high
_F_SAW = 16          # some change carried a real (non-x/z) value

#: Distinct sampled masks whose :class:`Valuation` one stream keeps
#: for reuse; the cache is dropped when full, so memory stays bounded
#: on wide alphabets.
_VALUATION_CACHE_LIMIT = 4096

_TOKEN = re.compile(r"\S+")


class VcdSignal:
    """One declared signal: identifier code, hierarchical name, width."""

    __slots__ = ("code", "name", "scope", "width", "kind")

    def __init__(self, code: str, name: str, scope: str, width: int,
                 kind: str = "wire"):
        self.code = code
        self.name = name
        self.scope = scope
        self.width = int(width)
        self.kind = kind

    @property
    def reference(self) -> str:
        """Fully scoped ``scope.name`` reference."""
        return f"{self.scope}.{self.name}" if self.scope else self.name

    def __repr__(self):
        return (
            f"VcdSignal({self.reference!r}, code={self.code!r}, "
            f"width={self.width})"
        )


class SignalBinding:
    """Maps VCD signal references to monitor alphabet symbols.

    ``mapping`` keys may be plain signal names (``"req"``) or scoped
    references (``"top.req"``); scoped keys win on collision.  The
    mapping *overlays* the identity binding: unmapped signals still
    bind to their own (unscoped) name, so renaming one net does not
    silently drop the others.  ``only`` restricts that identity
    fallback to a symbol subset — pass ``only=()`` to bind strictly
    the mapped signals and nothing else.
    """

    def __init__(self, mapping: Optional[Mapping[str, str]] = None,
                 only: Optional[Iterable[str]] = None):
        self._mapping = dict(mapping) if mapping else {}
        self._only = frozenset(only) if only is not None else None

    @classmethod
    def parse(cls, specs: Iterable[str]) -> "SignalBinding":
        """Build a binding from ``SIGNAL=SYMBOL`` strings (CLI form)."""
        mapping: Dict[str, str] = {}
        for spec in specs:
            signal, separator, symbol = spec.partition("=")
            if not separator or not signal or not symbol:
                raise TraceError(
                    f"bad binding {spec!r}: expected SIGNAL=SYMBOL"
                )
            mapping[signal] = symbol
        return cls(mapping)

    @property
    def explicit(self) -> bool:
        """Was an explicit signal->symbol mapping supplied?"""
        return bool(self._mapping)

    def maps(self, signal: VcdSignal) -> bool:
        """Is ``signal`` explicitly named in the mapping?"""
        return (signal.reference in self._mapping
                or signal.name in self._mapping)

    def fingerprint(self) -> str:
        """Canonical text form for cache keys: equal bindings (same
        mapping, same ``only`` restriction) fingerprint equally."""
        mapping = ",".join(
            f"{signal}={symbol}"
            for signal, symbol in sorted(self._mapping.items())
        )
        only = ("*" if self._only is None
                else ",".join(sorted(self._only)))
        return f"map[{mapping}]only[{only}]"

    def symbol_for(self, signal: VcdSignal) -> Optional[str]:
        """The alphabet symbol ``signal`` feeds, or ``None`` to ignore."""
        symbol = self._mapping.get(signal.reference)
        if symbol is None:
            symbol = self._mapping.get(signal.name)
        if symbol is not None:
            return symbol
        if self._only is not None and signal.name not in self._only:
            return None
        return signal.name

    def __repr__(self):
        if self._mapping:
            return f"SignalBinding({self._mapping!r})"
        return f"SignalBinding(identity, only={self._only})"



def _check_discipline(clock: Optional[str], period: Optional[int]) -> None:
    """Reject an inconsistent sampling setup (both entry points)."""
    if clock is not None and period is not None:
        raise TraceError("choose clock or period sampling, not both")
    if period is not None and period <= 0:
        raise TraceError("sampling period must be positive")


class _HeaderTokens:
    """Whitespace tokens of a VCD header, read one block at a time.

    ``_text[_pos:]`` is the text already read past the last token
    taken; ``_base + _pos`` is where it starts in the stream.
    """

    __slots__ = ("_read", "_size", "_text", "_pos", "_base")

    def __init__(self, stream, chunk_size: int):
        self._read = stream.read
        self._size = chunk_size
        self._text = ""
        self._pos = 0
        self._base = 0  # stream offset of _text[0]

    def __iter__(self) -> "_HeaderTokens":
        return self

    def __next__(self) -> str:
        while True:
            match = _TOKEN.search(self._text, self._pos)
            # A token running to the end of the text may continue in
            # the next block.
            if match is not None and match.end() < len(self._text):
                break
            block = self._read(self._size)
            if not block:
                if match is None:
                    raise StopIteration
                break
            self._base += self._pos
            self._text = self._text[self._pos:] + block
            self._pos = 0
        self._pos = match.end()
        return match.group()


def _directive_body(tokens: Iterator[str], name: str) -> List[str]:
    body: List[str] = []
    for token in tokens:
        if token == "$end":
            return body
        body.append(token)
    raise TraceError(f"unterminated {name} directive (missing $end)")


class VcdReader:
    """Chunked, incremental reader of VCD waveform dumps.

    ``source`` is a filesystem path or an open text stream; text
    passed directly is supported via :meth:`from_text`.  The header is
    parsed eagerly (so :attr:`signals` is available immediately); value
    changes stream lazily through the sampling iterators, one
    ``chunk_size`` block at a time, holding only that block and one
    bit per bound signal in memory.
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
        tokens = _HeaderTokens(self._stream, chunk_size)
        try:
            self._parse_header(tokens)
        except Exception:
            # The context manager is never entered when __init__
            # raises, so an owned handle must be released here.
            self.close()
            raise
        #: Stream offset of the value-change body, and the part of the
        #: body the header parse has already read.
        self._body_offset = tokens._base + tokens._pos
        self._body_head = tokens._text[tokens._pos:]
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

    # -- header ----------------------------------------------------------
    def _parse_header(self, tokens: _HeaderTokens) -> None:
        scopes: List[str] = []
        for token in tokens:
            if token == "$enddefinitions":
                _directive_body(tokens, "$enddefinitions")
                return
            if token == "$timescale":
                self.timescale = " ".join(_directive_body(tokens, token))
            elif token == "$scope":
                body = _directive_body(tokens, token)
                if len(body) < 2:
                    raise TraceError(f"malformed $scope: {body}")
                scopes.append(body[1])
            elif token == "$upscope":
                _directive_body(tokens, token)
                if scopes:
                    scopes.pop()
            elif token == "$var":
                body = _directive_body(tokens, token)
                if len(body) < 4:
                    raise TraceError(f"malformed $var: {body}")
                kind, width, code, name = body[0], body[1], body[2], body[3]
                try:
                    parsed_width = int(width)
                except ValueError:
                    raise TraceError(f"bad $var width {width!r}")
                self.signals.append(VcdSignal(
                    code, name, ".".join(scopes), parsed_width, kind
                ))
            elif token.startswith("$"):
                # $date/$version/$comment and unknown directives: skip
                # the body.
                _directive_body(tokens, token)
            else:
                raise TraceError(
                    f"unexpected token {token!r} before $enddefinitions"
                )
        raise TraceError("VCD header ended without $enddefinitions")

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

    def _sample(self, bound, clock_codes: frozenset,
                bit_of: Mapping[str, int], period: Optional[int],
                offset: int, until: Optional[int],
                parse: Optional[Callable] = None) -> Iterator[List[int]]:
        """The one sampler: delta-parse the body, replay the discipline.

        Returns an iterator of sampled symbol masks (bit layout
        ``bit_of``), one list per parsed chunk.  The body is parsed
        from the stream block by block (:meth:`_parse_blocks`) unless
        ``parse(actions, code_bits, clock_codes, drop_quiet)`` supplies
        the parsed chunks — the chunk-parallel converter does.
        """
        if self._consumed:
            raise TraceError(
                "VCD value changes already consumed; open a new VcdReader "
                "to re-read the dump"
            )
        self._consumed = True
        code_bits, direct, symbol_bits_of = _conversion_plan(bound, bit_of)
        has_clock = bool(clock_codes)
        actions = _scalar_actions(
            (signal.code for signal in self.signals), code_bits, clock_codes
        )
        # Under clock sampling, instants without deltas or a rise are
        # never sampled: the parser elides them (see _parse_chunk).
        chunks = (parse or self._parse_blocks)(
            actions, code_bits, clock_codes, has_clock
        )
        return _replay(chunks, has_clock, period, offset, until, direct,
                       symbol_bits_of)

    def _parse_blocks(self, actions, code_bits, clock_codes,
                      drop_quiet) -> Iterator[tuple]:
        """Delta records of the body, parsed one block at a time.

        Each block is cut after its last newline and the remainder
        carried into the next, so no token is split.  The parser state
        a cut can fall inside travels on as ``carry``: the current
        instant (its two halves merge in the replay under the
        same-time rule) and a directive or value token still open, so
        an open directive is neither an error nor read twice — only
        the end of the stream makes it unterminated.  Memory stays
        bounded by ``chunk_size`` plus the longest line.
        """
        text = self._body_head
        self._body_head = ""
        carry = (0, None)
        scan = 0
        while True:
            cut = text.rfind("\n", scan) + 1
            if cut:
                records, carry = _parse_chunk(
                    text[:cut], actions, code_bits, clock_codes, drop_quiet,
                    carry, final=False,
                )
                yield records
                text = text[cut:]
            block = self._stream.read(self._chunk_size)
            if not block:
                break
            scan = len(text)
            text += block
        yield _parse_chunk(text, actions, code_bits, clock_codes, drop_quiet,
                           carry)[0]

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

        A reader streams its dump exactly once; a second consumption
        raises (construct a fresh ``VcdReader`` to re-read).
        """
        _check_discipline(clock, period)
        bound, clock_codes = self._sampling_bound(clock)
        symbols = sorted({s for names in bound.values() for s in names})
        alphabet = frozenset(symbols)
        bit_of = {symbol: 1 << index for index, symbol in enumerate(symbols)}
        # Idle stretches (clock ticks with no data activity, periodic
        # samples across gaps) reuse one immutable Valuation per mask.
        cache: Dict[int, Valuation] = {}
        for masks in self._sample(bound, clock_codes, bit_of, period,
                                  offset, until):
            for mask in masks:
                valuation = cache.get(mask)
                if valuation is None:
                    if len(cache) >= _VALUATION_CACHE_LIMIT:
                        cache.clear()
                    valuation = cache[mask] = Valuation(
                        [s for i, s in enumerate(symbols) if mask >> i & 1],
                        alphabet,
                    )
                yield valuation

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


# -- delta-record tokenizer and sampling replay ------------------------------
def _conversion_plan(bound: Mapping[str, Tuple[str, ...]],
                     bit_of: Mapping[str, int]):
    """``(code_bits, direct, symbol_bits_of)`` for one sampling setup.

    In the common 1:1 case (every code drives exactly the symbols no
    other code drives) codes are tracked directly in symbol-bit space
    and the replay's mask *is* the code snapshot.  When several codes
    drive one symbol (aliased nets bound to the same name), each code
    gets a private bit and the replay folds code bits to symbol bits —
    a symbol reads true while any of its drivers is high.
    """
    drivers: Dict[str, List[str]] = {}
    for code, symbols in bound.items():
        for symbol in symbols:
            drivers.setdefault(symbol, []).append(code)
    direct = all(len(codes) == 1 for codes in drivers.values())
    if direct:
        code_bits = {}
        for code, symbols in bound.items():
            bits = 0
            for symbol in symbols:
                bits |= bit_of.get(symbol, 0)
            if bits:
                code_bits[code] = bits
        return code_bits, True, None
    codes = sorted(bound)
    code_bits = {code: 1 << position for position, code in enumerate(codes)}
    symbol_bits_of = []
    for code in codes:
        bits = 0
        for symbol in bound[code]:
            bits |= bit_of.get(symbol, 0)
        symbol_bits_of.append(bits)
    return code_bits, False, symbol_bits_of


def _scalar_actions(all_codes: Iterable[str], code_bits: Dict[str, int],
                    clock_codes: frozenset) -> Dict[str, tuple]:
    """Precompiled scalar-change dispatch: token -> ``(hi, lo, saw, clk)``.

    Scalar changes are drawn from a small finite vocabulary — a value
    character (``01xXzZ``) glued to one of the declared identifier
    codes — so the whole per-token decision (slice off the code, look
    up its bits, classify the value, test clock membership) collapses
    into a single dict probe computed once per conversion.  ``clk`` is
    0 for non-clock codes, 1 for a high clock edge, 2 for low/unknown.
    """
    actions: Dict[str, tuple] = {}
    for code in all_codes:
        bits = code_bits.get(code, 0)
        if code in clock_codes:
            high_clk, low_clk = 1, 2
        else:
            high_clk = low_clk = 0
        actions["1" + code] = (bits, 0, _F_SAW, high_clk)
        actions["0" + code] = (0, bits, _F_SAW, low_clk)
        for unknown in ("x", "X", "z", "Z"):
            # x/z read as value None: no saw_value, symbol goes low.
            actions[unknown + code] = (0, bits, 0, low_clk)
    return actions


def _parse_chunk(text: str, actions: Dict[str, tuple],
                 code_bits: Dict[str, int],
                 clock_codes: frozenset,
                 drop_quiet: bool = False,
                 carry: tuple = (0, None),
                 final: bool = True) -> tuple:
    """One stretch of the change stream -> per-instant delta records.

    Context-free by design: the parser knows nothing about values set
    before its text, so each record carries only what changed —
    ``set``/``clear`` bit deltas over the (code or symbol) bitspace,
    and clock flags whose "did it rise?" question may be deferred to
    the replay (``_F_ROSE_IF_LOW``) when the incoming level is
    unknown.  Records are ``(times, sets, clears, flags)`` arrays, one
    entry per instant, cheap to pickle back from a worker.

    ``drop_quiet`` (clock sampling only) elides instants that carry no
    bit deltas and no clock rise — typically every falling clock edge,
    half of a synchronous dump.  The replay never samples on them and
    ``saw_value`` is not consulted under clock sampling; the one thing
    they feed, the level seen by the *next* chunk's deferred-rise
    resolution, is preserved by a trailing zero-delta record whenever
    the chunk's final level differs from the last level shipped.

    ``carry`` is ``(time, open)``: the instant the previous block of a
    sequential stream ended in, and the directive or vector/real value
    token left open at its end (``None`` if none).  A block that is not
    ``final`` hands its own open token on in the returned carry; a
    ``final`` one reports it as unterminated.  Returns
    ``(records, carry)``.
    """
    cur_time, opened = carry
    tokens = text.split()
    if opened is not None:
        tokens.insert(0, opened)
        opened = None
    times = array("q")
    # Bit deltas wider than an int64 (bitspaces of 64+ signals) stay
    # Python ints.
    wide = max(code_bits.values(), default=0).bit_length() > 63
    sets = [] if wide else array("q")
    clears = [] if wide else array("q")
    flags = bytearray()
    times_append = times.append
    sets_append = sets.append
    clears_append = clears.append
    flags_append = flags.append

    pending = False
    hi = 0
    lo = 0
    flag = 0
    quiet_level = 0    # latest level bits seen (shipped or elided)
    shipped_level = 0  # latest level bits actually shipped
    clock_level: Optional[bool] = None  # unknown at chunk entry
    scalar_get = _SCALAR_VALUES.get
    actions_get = actions.get
    bits_get = code_bits.get
    has_clock = bool(clock_codes)
    # Hot-loop locals: global flag constants cost a dict probe per use.
    f_rose = _F_ROSE
    f_rose_if_low = _F_ROSE_IF_LOW
    f_level_low = _F_LEVEL_LOW
    f_level_high = _F_LEVEL_HIGH
    rose_bits = f_rose | f_rose_if_low
    level_bits = f_level_low | f_level_high
    miss = object()
    stream = iter(tokens)
    for token in stream:
        act = actions_get(token)
        if act is not None:
            # Scalar change of a declared code: the precompiled path.
            token_hi, token_lo, saw, clk = act
            pending = True
            if token_hi or token_lo:
                hi = (hi | token_hi) & ~token_lo
                lo = (lo | token_lo) & ~token_hi
            flag |= saw
            if clk:
                if clk == 1:
                    if clock_level is None:
                        flag |= f_rose_if_low
                    elif not clock_level:
                        flag |= f_rose
                    clock_level = True
                    flag = (flag & ~f_level_low) | f_level_high
                else:
                    clock_level = False
                    flag = (flag & ~f_level_high) | f_level_low
            continue
        lead = token[0]
        if lead == "#":
            try:
                time = int(token[1:])
            except ValueError:
                raise TraceError(f"bad timestamp token {token!r}")
            if pending and time == cur_time:
                continue  # same instant continues
            if pending:
                if drop_quiet and not hi and not lo and not (
                    flag & rose_bits
                ):
                    level = flag & level_bits
                    if level:
                        quiet_level = level
                else:
                    times_append(cur_time)
                    sets_append(hi)
                    clears_append(lo)
                    flags_append(flag)
                    level = flag & level_bits
                    if level:
                        quiet_level = shipped_level = level
                hi = lo = flag = 0
            cur_time = time
            pending = True
            continue
        value = scalar_get(lead, miss)
        if value is not miss:
            # Scalar change of an *undeclared* code (malformed dumps
            # are tolerated): generic handling.
            code = token[1:]
            if not code:
                raise TraceError(f"scalar change {token!r} lacks an id")
        elif lead in "bBrR":
            code = next(stream, None)
            if code is None:
                if not final:
                    opened = token
                    break
                kind = "vector" if lead in "bB" else "real"
                raise TraceError(f"{kind} change {token!r} lacks an id")
            if lead in "bB":
                bits = token[1:]
                if any(c in "xXzZ" for c in bits):
                    value = None
                else:
                    try:
                        value = int(bits, 2)
                    except ValueError:
                        raise TraceError(f"bad vector value {token!r}")
            else:
                try:
                    value = int(float(token[1:]) != 0.0)
                except ValueError:
                    raise TraceError(f"bad real value {token!r}")
        elif token in _DUMP_DIRECTIVES and token != "$dumpoff" \
                or token == "$end":
            continue  # section markers around ordinary changes
        elif lead == "$":
            # A $dumpoff blackout dumps every signal as x/z purely to
            # mark the gap: applying those would read all symbols
            # false and fake a clock edge at $dumpon, so the section is
            # skipped wholesale (values hold), like any other
            # directive's body.
            for skipped in stream:
                if skipped == "$end":
                    break
            else:
                if not final:
                    opened = token
                    break
                if token == "$dumpoff":
                    raise TraceError(
                        "unterminated $dumpoff section (missing $end)"
                    )
                raise TraceError(
                    f"unterminated {token} directive (missing $end)"
                )
            continue
        else:
            raise TraceError(f"unexpected value-change token {token!r}")
        # One change record (scalar or vector/real) for `code`.
        pending = True
        if value is not None:
            flag |= _F_SAW
            high = value != 0
        else:
            high = False
        if has_clock and code in clock_codes:
            if high:
                if clock_level is None:
                    flag |= f_rose_if_low
                elif not clock_level:
                    flag |= f_rose
            clock_level = high
            flag = (flag & ~level_bits) | (
                f_level_high if high else f_level_low
            )
        bits = bits_get(code)
        if bits:
            if high:
                hi |= bits
                lo &= ~bits
            else:
                lo |= bits
                hi &= ~bits
    if pending:
        if drop_quiet and not hi and not lo and not (flag & rose_bits):
            level = flag & level_bits
            if level:
                quiet_level = level
        else:
            times_append(cur_time)
            sets_append(hi)
            clears_append(lo)
            flags_append(flag)
            level = flag & level_bits
            if level:
                quiet_level = shipped_level = level
    if drop_quiet and quiet_level != shipped_level:
        # Resync the level the next chunk's deferred rise will read.
        times_append(cur_time)
        sets_append(0)
        clears_append(0)
        flags_append(quiet_level)
    return (times, sets, clears, flags), (cur_time, opened)


def _symbol_mask(code_vals: int, symbol_bits_of: List[int]) -> int:
    """Symbol mask of a code-bit snapshot (multi-driver general case)."""
    mask = 0
    vals = code_vals
    while vals:
        low = vals & -vals
        mask |= symbol_bits_of[low.bit_length() - 1]
        vals ^= low
    return mask


def _replay(chunks: Iterable[tuple], has_clock: bool,
            period: Optional[int], offset: int, until: Optional[int],
            direct: bool,
            symbol_bits_of: Optional[List[int]]) -> Iterator[List[int]]:
    """Apply the sampling discipline over consecutive delta records.

    This is the single sequential pass that owns the sampling
    semantics — same-instant merging, ``saw_value`` gating, periodic
    phase skipping, window early exit — over per-instant bit deltas,
    emitting mask ints.  Chunks are consumed lazily and each yields
    one list of masks (the close of the final instant yields one
    more), so a window that ends early leaves the rest unparsed.
    """
    code_vals = 0
    mask = 0
    level = False
    rose = False
    saw = False
    pending = False
    block_time = 0
    next_sample = offset
    for chunk in chain(chunks, (None,)):
        if chunk is None:
            # The end of the dump closes the final instant exactly as a
            # record just past it (or past the window) would.
            end = (block_time if until is None else until) + 1
            chunk = ((end,), (0,), (0,), (0,))
        times, sets, clears, flags = chunk
        out: List[int] = []
        append = out.append
        for time, hi, lo, flag in zip(times, sets, clears, flags):
            if not (pending and time == block_time):
                # A new instant: close the previous one.
                if pending:
                    if has_clock:
                        if rose and block_time >= offset and (
                            until is None or block_time <= until
                        ):
                            append(mask)
                        rose = False
                    elif period is None and saw and block_time >= offset \
                            and (until is None or block_time <= until):
                        append(mask)
                if period is not None:
                    if saw:
                        while next_sample < time and (
                            until is None or next_sample <= until
                        ):
                            append(mask)
                            next_sample += period
                    else:
                        # No value has appeared yet, so grid points up
                        # to here would be phantom ticks back-filled
                        # with future values; skip them, keeping the
                        # grid's offset phase.
                        while next_sample < time:
                            next_sample += period
                if until is not None and time > until:
                    # The rest of the dump is outside the window.
                    yield out
                    return
                block_time = time
                pending = True
            if hi or lo:
                new_vals = (code_vals | hi) & ~lo
                if new_vals != code_vals:
                    code_vals = new_vals
                    mask = (code_vals if direct
                            else _symbol_mask(code_vals, symbol_bits_of))
            if flag:
                if flag & _F_SAW:
                    saw = True
                if has_clock:
                    if (flag & _F_ROSE) or (
                        (flag & _F_ROSE_IF_LOW) and not level
                    ):
                        rose = True
                    if flag & _F_LEVEL_HIGH:
                        level = True
                    elif flag & _F_LEVEL_LOW:
                        level = False
        yield out
