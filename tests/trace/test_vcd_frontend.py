"""The one VCD front-end, pinned to the frozen reference reader.

:class:`~repro.trace.vcd_reader.VcdReader` (block-by-block streaming)
and :func:`~repro.trace.columnar.masks_from_vcd_text` (chunk-parallel)
share one delta tokenizer and one sampling replay.  Both are checked
here against ``vcd_reference`` — a frozen copy of the original
sequential parser — on random dumps at every block size and seam, on
every error message, and on directives that straddle block ends.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.logic.codec import AlphabetCodec
from repro.trace import vcd_reader as vcd_reader_module
from repro.trace.columnar import masks_from_vcd_text
from repro.trace.vcd_reader import VcdReader
from vcd_reference import ReferenceVcdReader

CHUNK_SIZES = (1, 2, 7, 64, 65536)


def _outcome(produce):
    """``("ok", value)`` or ``("error", message)`` of one parse."""
    try:
        return "ok", produce()
    except TraceError as error:
        return "error", str(error)


def _seams(text):
    """Chunk starts at every ``\\n#`` line of the body (``[0]`` when
    the header itself is rejected)."""
    try:
        body = text[VcdReader.from_text(text)._body_offset:]
    except TraceError:
        return [0]
    return [0] + [m.start() + 1 for m in re.finditer(r"\n#", body)]


# ------------------------------------------------------ random dumps ----
_CODES = ["!", '"', "#", "$", "%", "&", "(", "*", "+", "ab"]
_NAMES = ["req", "ack", "data", "gnt", "req"]
_REALS = ["0", "0.0", "1.5", "-2e3", "7"]
_COMMENT_WORDS = ["#12", "1!", "$enddefinitions", "$dumpoff", "b101 !",
                  "note"]


@st.composite
def vcd_dumps(draw):
    """A random dump: scopes, aliased and multi-driver codes, vectors,
    reals, x/z, ``$dumpvars``/``$dumpoff``/``$dumpall`` sections,
    repeated timestamps and ``$comment`` bodies holding ``\\n#`` lines
    or ``$enddefinitions``."""
    signals = [("top", "wire", 1, draw(st.sampled_from(_CODES)), "clk")]
    for _ in range(draw(st.integers(1, 5))):
        kind, width = draw(st.sampled_from(
            [("wire", 1), ("wire", 1), ("wire", 4), ("real", 64)]
        ))
        scope = draw(st.sampled_from(["top", "top.sub"]))
        signals.append((scope, kind, width, draw(st.sampled_from(_CODES)),
                        draw(st.sampled_from(_NAMES))))
    # The first declaration of a code decides how its changes are dumped.
    shape = {}
    for _, kind, width, code, _ in signals:
        shape.setdefault(code, (kind, width))

    def comment():
        words = draw(st.lists(st.sampled_from(_COMMENT_WORDS), max_size=4))
        return "$comment\n" + "\n".join(words) + "\n$end"

    def change(code, unknown=False):
        kind, width = shape[code]
        if kind == "real":
            return f"r{draw(st.sampled_from(_REALS))} {code}"
        if width > 1:
            digits = "xz" if unknown else "01xz"
            bits = draw(st.text(st.sampled_from(digits), min_size=1,
                                max_size=width))
            return f"{draw(st.sampled_from('bB'))}{bits} {code}"
        return draw(st.sampled_from("xzXZ" if unknown else "01xzXZ")) + code

    codes = sorted(shape)
    lines = ["$date today $end", "$timescale 1 ns $end"]
    if draw(st.booleans()):
        lines.append("$comment header $enddefinitions\n#3 $end")
    lines.append("$scope module top $end")
    for scope, kind, width, code, name in signals:
        if scope == "top":
            lines.append(f"$var {kind} {width} {code} {name} $end")
    lines.append("$scope module sub $end")
    for scope, kind, width, code, name in signals:
        if scope == "top.sub":
            lines.append(f"$var {kind} {width} {code} {name} $end")
    lines += ["$upscope $end", "$upscope $end", "$enddefinitions $end"]
    if draw(st.booleans()):
        # Initial values before the first timestamp, often all-x.
        unknown = draw(st.booleans())
        lines += ["$dumpvars"] + [change(c, unknown) for c in codes] \
            + ["$end"]
    time = 0
    clock = signals[0][3]
    for _ in range(draw(st.integers(0, 20))):
        time += draw(st.sampled_from([0, 1, 1, 2, 5]))
        lines.append(f"#{time}")
        for _ in range(draw(st.integers(0, 3))):
            item = draw(st.sampled_from(
                ["clock", "change", "change", "dumpoff", "dumpall",
                 "comment", "undeclared"]
            ))
            if item == "clock":
                lines.append(draw(st.sampled_from("01x")) + clock)
            elif item == "change":
                lines.append(change(draw(st.sampled_from(codes))))
            elif item == "dumpoff":
                lines += ["$dumpoff"] + [change(c, True) for c in codes] \
                    + ["$end", "$dumpon"] \
                    + [change(c) for c in codes] + ["$end"]
            elif item == "dumpall":
                lines += ["$dumpall"] + [change(c) for c in codes] + ["$end"]
            elif item == "comment":
                lines.append(comment())
            else:
                lines.append("1~~")
    return "\n".join(lines) + "\n"


@st.composite
def samplings(draw):
    kwargs = draw(st.sampled_from(
        [{"clock": "clk"}, {}, {"period": 1}, {"period": 3}]
    ))
    kwargs = dict(kwargs, offset=draw(st.integers(0, 6)))
    until = draw(st.one_of(st.none(), st.integers(0, 40)))
    if until is not None:
        kwargs["until"] = until
    return kwargs


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=vcd_dumps(), sampling=samplings(), data=st.data())
def test_random_dumps_match_the_reference(text, sampling, data):
    reference = _outcome(lambda: list(
        ReferenceVcdReader.from_text(text).valuations(**sampling)
    ))
    for chunk_size in CHUNK_SIZES:
        streamed = _outcome(lambda: list(
            VcdReader.from_text(text, chunk_size=chunk_size)
            .valuations(**sampling)
        ))
        assert streamed == reference, f"chunk_size={chunk_size}"

    if reference[0] == "ok":
        codec = AlphabetCodec(
            ReferenceVcdReader.from_text(text).alphabet(sampling.get("clock"))
        )
        expected = ("ok", [codec.encode(v) for v in reference[1]])
    else:
        codec = AlphabetCodec([])
        expected = reference
    single = _outcome(lambda: list(masks_from_vcd_text(text, codec,
                                                       **sampling)))
    assert single == expected
    seams = _seams(text)[1:]
    if seams:
        chosen = data.draw(st.lists(st.sampled_from(seams), min_size=1,
                                    max_size=4, unique=True))
        split = _outcome(lambda: list(masks_from_vcd_text(
            text, codec, _force_splits=[0] + sorted(chosen), **sampling
        )))
        assert split == expected, f"seams at {sorted(chosen)}"


# ------------------------------------------------- error-string table ----
_HEADER = ("$timescale 1ns $end\n$var wire 1 ! clk $end\n"
           "$var wire 1 \" a $end\n$enddefinitions $end\n")
_AMBIGUOUS = (
    "$scope module a $end\n$var wire 1 ! clk $end\n$upscope $end\n"
    "$scope module b $end\n$var wire 1 \" clk $end\n$upscope $end\n"
    "$enddefinitions $end\n#0\n1!\n"
)

#: Every TraceError text the front-end raises, as the original
#: sequential reader worded it: ``(id, dump, sampling, message)``.
ERROR_CASES = [
    ("bad-timestamp", _HEADER + "#0\n1!\n#zzz\n", {},
     "bad timestamp token '#zzz'"),
    ("scalar-no-id", _HEADER + "#0\n1\n", {},
     "scalar change '1' lacks an id"),
    ("vector-no-id", _HEADER + "#0\nb1010\n", {},
     "vector change 'b1010' lacks an id"),
    ("real-no-id", _HEADER + "#0\nr1.5\n", {},
     "real change 'r1.5' lacks an id"),
    ("bad-vector", _HEADER + "#0\nb10q1 !\n", {},
     "bad vector value 'b10q1'"),
    ("bad-real", _HEADER + "#0\nrfoo !\n", {},
     "bad real value 'rfoo'"),
    ("unterminated-body-directive",
     _HEADER + "#0\n1!\n$comment never\n#1 closed\n", {},
     "unterminated $comment directive (missing $end)"),
    ("unterminated-header-directive", "$timescale 1ns\n", {},
     "unterminated $timescale directive (missing $end)"),
    ("unterminated-dumpoff", _HEADER + "#0\n1!\n#1\n$dumpoff\nx!\n#2\n", {},
     "unterminated $dumpoff section (missing $end)"),
    ("unexpected-body-token", _HEADER + "#0\nqq\n", {},
     "unexpected value-change token 'qq'"),
    ("unexpected-header-token",
     "$timescale 1ns $end\nfoo\n$enddefinitions $end\n", {},
     "unexpected token 'foo' before $enddefinitions"),
    ("missing-enddefinitions",
     "$timescale 1ns $end\n$var wire 1 ! a $end\n", {},
     "VCD header ended without $enddefinitions"),
    ("timestamp-in-header", "$timescale 1ns $end\n#0\n", {},
     "unexpected token '#0' before $enddefinitions"),
    ("malformed-var", "$var wire 1 ! $end\n$enddefinitions $end\n", {},
     "malformed $var: ['wire', '1', '!']"),
    ("malformed-scope", "$scope module $end\n$enddefinitions $end\n", {},
     "malformed $scope: ['module']"),
    ("bad-width", "$var wire w ! a $end\n$enddefinitions $end\n", {},
     "bad $var width 'w'"),
    ("unknown-clock", _HEADER + "#0\n1!\n", {"clock": "nope"},
     "clock signal 'nope' not declared in dump (signals: ['a', 'clk'])"),
    ("ambiguous-clock", _AMBIGUOUS, {"clock": "clk"},
     "clock name 'clk' is ambiguous in this dump (['a.clk', 'b.clk']); "
     "use a scoped reference"),
    ("clock-and-period", _HEADER + "#0\n1!\n", {"clock": "clk", "period": 1},
     "choose clock or period sampling, not both"),
    ("period-zero", _HEADER + "#0\n1!\n", {"period": 0},
     "sampling period must be positive"),
]


def _stream(chunk_size):
    def run(text, sampling):
        reader = VcdReader.from_text(text, chunk_size=chunk_size)
        return list(reader.valuations(**sampling))
    return run


def _masks(seams):
    def run(text, sampling):
        splits = _seams(text) if seams else None
        return masks_from_vcd_text(text, AlphabetCodec(["a"]),
                                   _force_splits=splits, **sampling)
    return run


ENTRY_POINTS = {
    "reader-1": _stream(1),
    "reader-7": _stream(7),
    "reader-64k": _stream(1 << 16),
    "reference": lambda text, sampling: list(
        ReferenceVcdReader.from_text(text).valuations(**sampling)
    ),
    "masks": _masks(False),
    "masks-seams": _masks(True),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("case", ERROR_CASES, ids=[c[0] for c in ERROR_CASES])
def test_error_strings_are_pinned(case, entry):
    _, text, sampling, message = case
    with pytest.raises(TraceError) as raised:
        ENTRY_POINTS[entry](text, sampling)
    assert str(raised.value) == message


@pytest.mark.parametrize("reader_cls", [VcdReader, ReferenceVcdReader])
def test_consumed_reader_error_is_pinned(reader_cls):
    reader = reader_cls.from_text(_HEADER + "#0\n1!\n")
    list(reader.valuations())
    with pytest.raises(TraceError) as raised:
        list(reader.valuations(clock="clk"))
    assert str(raised.value) == (
        "VCD value changes already consumed; open a new VcdReader to "
        "re-read the dump"
    )


# ---------------------------------------------- directives at seams ----
#: A dump whose directive bodies run over many lines: a ``$comment``
#: full of timestamp-like lines and a long ``$dumpoff`` blackout.
DIRECTIVE_VCD = _HEADER + "#0\n1!\n1\"\n$comment\n" + "".join(
    f"#{time}\n1! b101 !\n" for time in range(1, 12)
) + "$end\n#1\n0!\n#2\n1!\n0\"\n#3\n0!\n$dumpoff\n" + "x!\nx\"\n" * 12 \
    + "$end\n#4\n$dumpon\n1!\n1\"\n$end\n#5\n0!\n#6\n1!\n"


@pytest.mark.parametrize("chunk_size", range(1, 65))
def test_open_directive_carries_into_the_next_block(chunk_size, monkeypatch):
    """A directive open at a block end is carried as parser state: the
    stream neither raises nor re-reads it, and no block grows past
    ``chunk_size`` plus one line."""
    parsed = []
    parse_chunk = vcd_reader_module._parse_chunk

    def spy(text, *args, **kwargs):
        parsed.append(len(text))
        return parse_chunk(text, *args, **kwargs)

    monkeypatch.setattr(vcd_reader_module, "_parse_chunk", spy)
    expected = list(ReferenceVcdReader.from_text(DIRECTIVE_VCD)
                    .valuations(clock="clk"))
    assert len(expected) == 4  # rising edges at #0, #2, #4, #6
    reader = VcdReader.from_text(DIRECTIVE_VCD, chunk_size=chunk_size)
    assert list(reader.valuations(clock="clk")) == expected
    assert sum(parsed) == len(DIRECTIVE_VCD) - reader._body_offset
    longest_line = max(len(line) for line in DIRECTIVE_VCD.splitlines())
    assert max(parsed) <= chunk_size + longest_line + 1


@pytest.mark.parametrize("chunk_size", range(1, 65))
def test_directive_open_at_eof_is_unterminated(chunk_size):
    for tail, message in [
        ("$comment\n#1\n1!\n", "unterminated $comment directive"),
        ("$dumpoff\nx!\n#1\n", "unterminated $dumpoff section"),
    ]:
        reader = VcdReader.from_text(_HEADER + "#0\n1!\n" + tail,
                                     chunk_size=chunk_size)
        with pytest.raises(TraceError, match=re.escape(message)):
            list(reader.valuations())


# ------------------------------------------------------- wide dumps ----
def test_wide_dumps_stream_like_the_reference():
    """Bitspaces past 64 signals, with same-named nets in two scopes
    (multi-driver symbols), stream exactly like the reference."""
    lines = ["$scope module top $end", "$var wire 1 ! clk $end"]
    codes = [f"s{index}" for index in range(80)]
    lines += [f"$var wire 1 {code} n{index % 70} $end"
              for index, code in enumerate(codes)]
    lines += ["$upscope $end", "$enddefinitions $end"]
    for time in range(40):
        lines.append(f"#{time}")
        lines.append(f"{time % 2}!")
        lines += [f"{(time >> (index % 5)) & 1}{code}"
                  for index, code in enumerate(codes) if index % 3 == time % 3]
    text = "\n".join(lines) + "\n"
    for sampling in ({"clock": "clk"}, {}, {"period": 2}):
        expected = list(ReferenceVcdReader.from_text(text)
                        .valuations(**sampling))
        assert len(expected) >= 20
        for chunk_size in (7, 65536):
            reader = VcdReader.from_text(text, chunk_size=chunk_size)
            assert list(reader.valuations(**sampling)) == expected
