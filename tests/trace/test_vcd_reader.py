"""Tests for the incremental VCD reader and signal binding."""

import io

import pytest

from repro.errors import TraceError
from repro.semantics.run import Trace
from repro.trace import SignalBinding, VcdReader, trace_to_vcd

#: A hand-written dump exercising scopes, vectors, x values and
#: $dumpvars — the kind of header a real simulator writes.
EXTERNAL_VCD = """\
$date today $end
$version handwritten $end
$timescale 1 ns $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 1 " req $end
$scope module slave $end
$var wire 8 # data [7:0] $end
$var wire 1 $ ack $end
$upscope $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
0!
0"
bxxxxxxxx #
x$
$end
#1
1!
1"
#2
0!
#3
1!
b1010 #
1$
0"
#4
0!
#5
1!
0$
b0 #
"""


def _reader(binding=None, chunk_size=1 << 16):
    return VcdReader.from_text(EXTERNAL_VCD, binding=binding,
                               chunk_size=chunk_size)


def test_header_parsing_signals_and_scopes():
    reader = _reader()
    assert reader.timescale == "1 ns"
    refs = [signal.reference for signal in reader.signals]
    assert refs == ["top.clk", "top.req", "top.slave.data", "top.slave.ack"]
    widths = {s.name: s.width for s in reader.signals}
    assert widths == {"clk": 1, "req": 1, "data": 8, "ack": 1}


def test_clock_sampling_excludes_clock_and_reads_vectors():
    trace = _reader().trace(clock="clk")
    assert trace.length == 3  # rising edges at #1, #3, #5
    assert [sorted(v.true) for v in trace] == [
        ["req"],            # tick at #1
        ["ack", "data"],    # tick at #3: req dropped, data nonzero
        [],                 # tick at #5: everything low / zero
    ]
    assert "clk" not in trace.alphabet


def test_event_sampling_one_valuation_per_timestamp():
    trace = _reader(binding=SignalBinding(only={"req", "ack"})).trace()
    assert trace.length == 6  # timestamps 0..5
    assert [sorted(v.true) for v in trace] == [
        [], ["req"], ["req"], ["ack"], ["ack"], [],
    ]


def test_periodic_sampling_fills_gaps():
    text = (
        "$timescale 1ns $end\n"
        "$var wire 1 ! a $end\n"
        "$enddefinitions $end\n"
        "#0\n1!\n#4\n0!\n"
    )
    trace = VcdReader.from_text(text).trace(period=1)
    assert [v.is_true("a") for v in trace] == [True, True, True, True, False]
    until = VcdReader.from_text(text).trace(period=2, until=8)
    assert [v.is_true("a") for v in until] == [True, True, False, False, False]


def test_offset_and_until_window_clock_sampling():
    # Rising edges at #1, #3, #5; keep only the middle one.
    trace = _reader().trace(clock="clk", offset=2, until=4)
    assert [sorted(v.true) for v in trace] == [["ack", "data"]]


def test_offset_and_until_window_event_sampling():
    binding = SignalBinding(only={"req", "ack"})
    trace = _reader(binding=binding).trace(offset=1, until=3)
    assert [sorted(v.true) for v in trace] == [["req"], ["req"], ["ack"]]


def test_until_stops_reading_early():
    # A tiny chunk size forces the dump to span many blocks; the
    # window's early exit must leave the later blocks unread (this is
    # what bounds the work on huge dumps — the parser reads at most
    # one block beyond the window).
    reader = _reader(chunk_size=8)
    valuations = reader.valuations(clock="clk", until=1)
    assert [sorted(v.true) for v in valuations] == [["req"]]
    # The stream was abandoned mid-dump, not drained: the remaining
    # raw text is still unread.
    assert reader._stream.read()


def test_explicit_binding_overlays_identity():
    """A partial mapping renames the named nets; the rest keep binding
    to their own names (regression: they used to be dropped)."""
    binding = SignalBinding({"top.req": "request", "ack": "acknowledge"})
    trace = _reader(binding=binding).trace(clock="clk")
    assert [sorted(v.true) for v in trace] == [
        ["request"], ["acknowledge", "data"], [],
    ]
    assert "clk" not in trace.alphabet  # clock stays infrastructure


def test_binding_only_empty_binds_strictly_the_mapping():
    binding = SignalBinding(
        {"top.req": "request", "ack": "acknowledge"}, only=()
    )
    trace = _reader(binding=binding).trace(clock="clk")
    assert [sorted(v.true) for v in trace] == [
        ["request"], ["acknowledge"], [],
    ]


def test_binding_can_expose_the_sampling_clock_explicitly():
    binding = SignalBinding({"clk": "clk", "req": "req"}, only=())
    trace = _reader(binding=binding).trace(clock="clk")
    # The clock is high at every rising-edge sample, by construction.
    assert [sorted(v.true) for v in trace] == [
        ["clk", "req"], ["clk"], ["clk"],
    ]


def test_reader_is_single_use():
    reader = _reader()
    assert reader.trace(clock="clk").length == 3
    with pytest.raises(TraceError, match="already consumed"):
        reader.trace(clock="clk")
    with pytest.raises(TraceError, match="already consumed"):
        list(reader.valuations())


def test_binding_parse_and_errors():
    binding = SignalBinding.parse(["sig=sym", "top.a=b"])
    assert binding.explicit
    with pytest.raises(TraceError):
        SignalBinding.parse(["missing_separator"])
    with pytest.raises(TraceError):
        SignalBinding.parse(["=sym"])


def test_tiny_chunks_do_not_split_tokens():
    for chunk_size in (1, 2, 3, 7):
        trace = _reader(chunk_size=chunk_size).trace(clock="clk")
        assert [sorted(v.true) for v in trace] == [
            ["req"], ["ack", "data"], [],
        ]


def test_unknown_clock_is_reported():
    with pytest.raises(TraceError, match="clock signal 'nope'"):
        list(_reader().valuations(clock="nope"))


def test_ambiguous_unscoped_clock_is_reported():
    """Two distinct nets named 'clk' in different scopes: unioning
    their edges would corrupt the tick grid, so demand a scope."""
    text = (
        "$timescale 1ns $end\n"
        "$scope module a $end\n$var wire 1 ! clk $end\n$upscope $end\n"
        "$scope module b $end\n$var wire 1 \" clk $end\n$upscope $end\n"
        "$var wire 1 # req $end\n"
        "$enddefinitions $end\n"
        "#0\n1!\n0\"\n1#\n#1\n0!\n1\"\n#2\n1!\n0\"\n"
    )
    with pytest.raises(TraceError, match="ambiguous"):
        list(VcdReader.from_text(text).valuations(clock="clk"))
    # A scoped reference disambiguates.
    trace = VcdReader.from_text(text).trace(clock="a.clk")
    assert trace.length == 2


def test_malformed_header_closes_owned_file(tmp_path):
    import gc
    import warnings

    path = tmp_path / "broken.vcd"
    path.write_text("$timescale 1ns\n")  # unterminated directive
    with pytest.raises(TraceError, match="unterminated"):
        VcdReader(path)
    # A leaked handle would surface as a ResourceWarning when the
    # abandoned reader is collected.
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        gc.collect()


def test_clock_and_period_are_exclusive():
    with pytest.raises(TraceError):
        list(_reader().valuations(clock="clk", period=1))


def test_missing_enddefinitions_is_reported():
    with pytest.raises(TraceError, match="enddefinitions"):
        VcdReader.from_text("$timescale 1ns $end\n#0\n")
    with pytest.raises(TraceError, match="enddefinitions"):
        VcdReader.from_text("$timescale 1ns $end\n")


def test_unterminated_directive_is_reported():
    with pytest.raises(TraceError, match="unterminated"):
        VcdReader.from_text("$timescale 1ns\n")


def test_bad_value_tokens_are_reported():
    header = "$var wire 1 ! a $end\n$enddefinitions $end\n"
    with pytest.raises(TraceError, match="bad timestamp"):
        list(VcdReader.from_text(header + "#zzz\n").valuations())
    with pytest.raises(TraceError, match="unexpected value-change"):
        list(VcdReader.from_text(header + "#0\nqq\n").valuations())


def test_initial_values_before_first_timestamp_merge_into_tick_zero():
    """Some tools write $dumpvars *before* '#0'; both layouts must read
    identically (regression: the pre-marker block duplicated tick 0 and
    hid changes dumped at '#0')."""
    header = (
        "$timescale 1ns $end\n"
        "$var wire 1 ! clk $end\n"
        "$var wire 1 \" req $end\n"
        "$enddefinitions $end\n"
    )
    before = header + "$dumpvars\n1!\n0\"\n$end\n#0\n1\"\n#1\n0!\n#2\n1!\n0\"\n#3\n0!\n"
    after = header + "#0\n$dumpvars\n1!\n0\"\n$end\n1\"\n#1\n0!\n#2\n1!\n0\"\n#3\n0!\n"
    for layout in (before, after):
        event = VcdReader.from_text(
            layout, binding=SignalBinding(only={"req"})
        ).trace()
        assert [sorted(v.true) for v in event] == [["req"], ["req"], [], []]
        clocked = VcdReader.from_text(layout).trace(clock="clk")
        assert [sorted(v.true) for v in clocked] == [["req"], []]


def test_dumpoff_blackout_sections_are_ignored():
    """$dumpoff x-dumps must not read as real changes or fake a clock
    edge at $dumpon."""
    text = (
        "$timescale 1ns $end\n"
        "$var wire 1 ! clk $end\n"
        "$var wire 1 \" req $end\n"
        "$enddefinitions $end\n"
        "#0\n$dumpvars\n1!\n1\"\n$end\n"
        "#1\n0!\n"
        "#2\n$dumpoff\nx!\nx\"\n$end\n"
        "#5\n$dumpon\n1!\n1\"\n$end\n"
        "#6\n0!\n"
        "#7\n1!\n0\"\n"
    )
    # Event sampling: the blackout instant #2 must hold the last real
    # values (regression: the x-dump read req as false).
    event = VcdReader.from_text(
        text, binding=SignalBinding(only={"req"})
    ).trace()
    assert [sorted(v.true) for v in event] == [
        ["req"], ["req"], ["req"], ["req"], ["req"], [],
    ]
    # Clock sampling: rising edges at #0, #5 (clk genuinely resumed
    # high after dropping at #1 — a real edge) and #7.
    clocked = VcdReader.from_text(text).trace(clock="clk")
    assert [sorted(v.true) for v in clocked] == [["req"], ["req"], []]


def test_truncated_dumpoff_section_is_reported():
    text = (
        "$timescale 1ns $end\n"
        "$var wire 1 ! a $end\n"
        "$enddefinitions $end\n"
        "#0\n1!\n#1\n$dumpoff\nx!\n"  # file ends mid-blackout
    )
    with pytest.raises(TraceError, match="unterminated \\$dumpoff"):
        list(VcdReader.from_text(text).valuations())


def test_reader_streams_without_materialising(tmp_path):
    """A dump far larger than the chunk size parses in one pass."""
    path = tmp_path / "big.vcd"
    with path.open("w") as stream:
        stream.write("$timescale 1ns $end\n$var wire 1 ! a $end\n"
                     "$enddefinitions $end\n")
        for time in range(5000):
            stream.write(f"#{time}\n{time % 2}!\n")
    with VcdReader(path, chunk_size=512) as reader:
        count = 0
        for valuation in reader.valuations():
            count += 1
        assert count == 5000


def test_aliased_identifier_codes_drive_all_their_symbols():
    """One identifier code declared for several nets (VCD aliasing)
    must feed every bound symbol (regression: last declaration won)."""
    text = (
        "$timescale 1ns $end\n"
        "$scope module a $end\n"
        "$var wire 1 ! req $end\n"
        "$upscope $end\n"
        "$scope module b $end\n"
        "$var wire 1 ! req_alias $end\n"
        "$upscope $end\n"
        "$enddefinitions $end\n"
        "#0\n1!\n#1\n0!\n"
    )
    reader = VcdReader.from_text(text)
    assert reader.alphabet() == {"req", "req_alias"}
    trace = reader.trace()
    assert [sorted(v.true) for v in trace] == [["req", "req_alias"], []]


def test_periodic_sampling_starts_at_first_dumped_instant():
    """Grid points before the dump's first timestamp are phantom ticks
    and must not be emitted (regression: they carried the first block's
    values back in time)."""
    text = (
        "$timescale 1ns $end\n"
        "$var wire 1 ! req $end\n"
        "$enddefinitions $end\n"
        "#100\n1!\n#120\n0!\n"
    )
    trace = VcdReader.from_text(text).trace(period=10)
    assert [v.is_true("req") for v in trace] == [True, True, False]


def test_periodic_sampling_skips_value_free_leading_markers():
    """Markers before the first value must not back-fill grid points
    with future values (regression: ticks 0..9 all read the #10
    value)."""
    text = (
        "$timescale 1ns $end\n"
        "$var wire 1 ! req $end\n"
        "$enddefinitions $end\n"
        "#0\n#10\n1!\n#12\n0!\n"
    )
    trace = VcdReader.from_text(text).trace(period=1)
    assert [v.is_true("req") for v in trace] == [True, True, False]


def test_empty_trace_round_trips_to_zero_ticks():
    """An empty trace's dump (all-x $dumpvars only) reads back empty
    under every discipline (regression: event/period sampling emitted a
    phantom all-false tick)."""
    empty = Trace.from_sets([], {"req", "ack"})
    text = trace_to_vcd(empty)
    assert VcdReader.from_text(text).trace(period=1).length == 0
    assert VcdReader.from_text(text).trace().length == 0
    clocked = trace_to_vcd(empty, clock="clk")
    assert VcdReader.from_text(clocked).trace(clock="clk").length == 0


def test_round_trip_via_bridge_alphabet():
    trace = Trace.from_sets([{"x"}, set(), {"x", "y"}], {"x", "y"})
    text = trace_to_vcd(trace, clock="clk")
    reader = VcdReader.from_text(text)
    assert reader.alphabet() >= {"x", "y"}
    back = reader.trace(clock="clk")
    assert [v.true for v in back] == [v.true for v in trace]


def test_trace_to_vcd_rejects_clock_collision():
    trace = Trace.from_sets([{"clk"}], {"clk"})
    with pytest.raises(TraceError):
        trace_to_vcd(trace, clock="clk")
