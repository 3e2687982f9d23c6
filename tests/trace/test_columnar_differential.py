"""Differential suite: the chunk-parallel VCD front-end is byte-exact.

Every case checks the delta parser + replay behind
:func:`~repro.trace.columnar.masks_from_vcd_text` against the frozen
sequential reference reader (``vcd_reference``) — identical mask
streams whatever the chunk seams, in both NumPy and fallback modes —
and that all three checking paths (streaming VCD, chunk-parallel
conversion, warm cached columnar) hand the monitor identical verdicts.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.cesc.builder import ev, scesc
from repro.cesc.charts import Loop
from repro.errors import MonitorError
from repro.logic.codec import AlphabetCodec
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.fixtures import amba_vcd, ocp_simple_vcd
from repro.protocols.ocp import ocp_simple_read_chart
from repro.semantics.generator import TraceGenerator
from repro.synthesis.compose import synthesize_chart
from repro.synthesis.tr import tr_compiled
from repro.trace import columnar as columnar_module
from repro.trace.columnar import masks_from_vcd_text
from repro.trace.shard import run_sharded_vcd
from repro.trace.streaming import StreamingChecker
from repro.trace.vcd_reader import SignalBinding, VcdReader
from vcd_reference import reference_masks


@pytest.fixture(params=["numpy", "fallback"])
def columnar_mode(request, vector_kernel):
    """Run each differential on both vector-kernel legs."""
    return vector_kernel(request.param)


_sequential = reference_masks


def _body(text):
    """The value-change body, located by the tokenized header parse."""
    return text[VcdReader.from_text(text)._body_offset:]


def _assert_equivalent(text, codec, binding=None, **kwargs):
    """Parallel output == sequential output at *every* legal seam."""
    expected = _sequential(text, codec, binding=binding, **kwargs)
    single = masks_from_vcd_text(text, codec, binding=binding, **kwargs)
    assert list(single) == expected
    body = _body(text)
    seams = [m.start() + 1 for m in re.finditer(r"\n#", body)]
    # Every two-chunk split...
    for seam in seams:
        masks = masks_from_vcd_text(text, codec, binding=binding,
                                    _force_splits=[0, seam], **kwargs)
        assert list(masks) == expected, f"two-chunk seam at byte {seam}"
    # ... and the maximal split: every timestamp line its own chunk.
    if seams:
        masks = masks_from_vcd_text(text, codec, binding=binding,
                                    _force_splits=[0] + seams, **kwargs)
        assert list(masks) == expected, "one chunk per timestamp line"
    return expected


# A dump built to stress every seam-sensitive semantic at once:
# $dumpvars initial x values, duplicate timestamp markers (one logical
# instant split over several blocks), vectors, a mid-stream directive,
# a $dumpoff blackout, and changes for signals outside the binding.
TRICKY_VCD = """\
$timescale 1 ns $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 1 " req $end
$var wire 8 # data [7:0] $end
$var wire 1 $ ack $end
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
#1
b1010 #
#2
0!
$comment seam bait $end
#3
1!
1$
#3
0"
#4
0!
$dumpoff
x!
x"
$end
$dumpon
0!
0"
b0 #
0$
$end
#5
1!
b11 #
#6
0!
#7
1!
"""

TRICKY_CODEC = AlphabetCodec(["req", "data", "ack"])


# --------------------------------------------------- seam differentials ----
def test_tricky_dump_clock_sampling(columnar_mode):
    expected = _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, clock="clk")
    assert len(expected) == 4  # rising edges at #1, #3, #5, #7


def test_tricky_dump_event_sampling(columnar_mode):
    expected = _assert_equivalent(TRICKY_VCD, TRICKY_CODEC)
    assert len(expected) == 8  # timestamps 0..7


def test_tricky_dump_periodic_sampling(columnar_mode):
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, period=2)
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, period=3, offset=1)


def test_tricky_dump_windows(columnar_mode):
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, clock="clk", offset=2)
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, clock="clk", until=4)
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, clock="clk",
                       offset=2, until=5)
    _assert_equivalent(TRICKY_VCD, TRICKY_CODEC, period=2, offset=1, until=5)


def test_seam_inside_directive_falls_back(columnar_mode):
    """A seam cutting a directive body still yields the exact stream."""
    body = _body(TRICKY_VCD)
    bait = body.index("seam bait")
    expected = _sequential(TRICKY_VCD, TRICKY_CODEC, clock="clk")
    masks = masks_from_vcd_text(TRICKY_VCD, TRICKY_CODEC, clock="clk",
                                _force_splits=[0, bait])
    assert list(masks) == expected


def test_seam_mid_token_falls_back(columnar_mode):
    """Even a byte-level mid-token seam cannot corrupt the stream."""
    body = _body(TRICKY_VCD)
    cut = body.index("b1010") + 2  # splits the vector value token
    expected = _sequential(TRICKY_VCD, TRICKY_CODEC, clock="clk")
    masks = masks_from_vcd_text(TRICKY_VCD, TRICKY_CODEC, clock="clk",
                                _force_splits=[0, cut])
    assert list(masks) == expected


def test_multi_driver_binding(columnar_mode):
    """Two nets aliased onto one symbol: true while either is high."""
    binding = SignalBinding({"req": "busy", "ack": "busy", "data": "data"})
    codec = AlphabetCodec(["busy", "data"])
    _assert_equivalent(TRICKY_VCD, codec, binding=binding, clock="clk")
    _assert_equivalent(TRICKY_VCD, codec, binding=binding)


@pytest.mark.parametrize("fixture_text,chart_builder", [
    (amba_vcd(seed=0), ahb_transaction_chart),
    (amba_vcd(seed=2, faulty=True), ahb_transaction_chart),
    (ocp_simple_vcd(seed=1, repeats=2), ocp_simple_read_chart),
])
def test_protocol_fixture_differential(columnar_mode, fixture_text,
                                       chart_builder):
    compiled = tr_compiled(chart_builder())
    _assert_equivalent(fixture_text, compiled.codec, clock="clk")


def test_jobs_path_through_real_pool(columnar_mode):
    """jobs>1 with oversubscribe exercises the worker pool for real."""
    text = ocp_simple_vcd(seed=4, repeats=8)
    compiled = tr_compiled(ocp_simple_read_chart())
    expected = _sequential(text, compiled.codec, clock="clk")
    monkey_min = columnar_module._MIN_PARALLEL_BYTES
    try:
        columnar_module._MIN_PARALLEL_BYTES = 1
        masks = masks_from_vcd_text(text, compiled.codec, clock="clk",
                                    jobs=3, oversubscribe=True)
    finally:
        columnar_module._MIN_PARALLEL_BYTES = monkey_min
    assert list(masks) == expected


def test_no_numpy_subprocess_differential():
    """REPRO_NO_NUMPY=1 end-to-end: NumPy-free kernels, same masks."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    script = (
        "from repro.protocols.fixtures import ocp_simple_vcd\n"
        "from repro.protocols.ocp import ocp_simple_read_chart\n"
        "from repro.synthesis.tr import tr_compiled\n"
        "from repro.runtime import vector\n"
        "from repro.trace import columnar\n"
        "from vcd_reference import reference_masks\n"
        "assert vector._numpy() is None\n"
        "text = ocp_simple_vcd(seed=5)\n"
        "compiled = tr_compiled(ocp_simple_read_chart())\n"
        "codec = compiled.codec\n"
        "expected = reference_masks(text, codec, clock='clk')\n"
        "masks = columnar.masks_from_vcd_text(text, codec, clock='clk')\n"
        "assert list(masks) == expected, (list(masks), expected)\n"
        "print('ok', len(expected))\n"
    )
    env = dict(os.environ, REPRO_NO_NUMPY="1",
               PYTHONPATH=os.pathsep.join([os.path.abspath(src),
                                           os.path.dirname(__file__)]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok")


# ------------------------------------------- three-path verdict identity ----
def _report_tuple(report):
    return (report.name, report.ticks, report.detections,
            report.n_detections, report.stopped_early)


@pytest.mark.parametrize("engine", ["compiled", "vector"])
def test_three_path_verdict_identity(columnar_mode, tmp_path, engine):
    """Sequential stream, parallel parse, warm cache: one verdict."""
    compiled = tr_compiled(ocp_simple_read_chart())
    dumps = []
    for seed in range(3):
        path = tmp_path / f"ocp{seed}.vcd"
        path.write_text(ocp_simple_vcd(seed=seed, repeats=1 + seed))
        dumps.append(str(path))
    cache = tmp_path / "cache"
    streamed = run_sharded_vcd(compiled, dumps, jobs=1, clock="clk",
                               engine=engine)
    cold = run_sharded_vcd(compiled, dumps, jobs=1, clock="clk",
                           engine=engine, cache=str(cache))
    assert len(list(cache.glob("*.rtrc"))) == len(dumps)
    warm = run_sharded_vcd(compiled, dumps, jobs=1, clock="clk",
                           engine=engine, cache=str(cache))
    for a, b, c in zip(streamed, cold, warm):
        assert _report_tuple(a) == _report_tuple(b) == _report_tuple(c)
    if engine == "vector":
        # Cold and warm columnar lanes both ran the leg under test.
        assert columnar_mode.runs[columnar_mode] == 2 * len(dumps)


# ----------------------------------- streaming over pre-encoded masks ----
def _handshake_chart():
    return (
        scesc("hs").instances("M", "S")
        .tick(ev("req")).tick(ev("ack"))
        .arrow("done", cause="req", effect="ack")
        .build()
    )


def test_bank_push_groups_share_one_encode():
    """A shared-alphabet bank encodes once per tick, same verdicts."""
    bank = synthesize_chart(Loop(_handshake_chart(), name="hs_loop"))
    assert len(bank.monitors) > 1
    trace = TraceGenerator(_handshake_chart(), seed=7).satisfying_trace(
        prefix=2, suffix=2
    )
    expected = bank.run(trace).detections
    for engine in ("interpreted", "compiled", "vector"):
        checker = StreamingChecker(bank, engine=engine)
        if engine != "interpreted":
            # The grouping fast path is active and fully grouped.
            assert checker._push_groups is not None
            assert len(checker._push_groups) == 1
        report = checker.feed(trace)
        assert report.detections == expected, engine


def test_feed_masks_matches_feed(columnar_mode):
    chart = _handshake_chart()
    compiled = tr_compiled(chart)
    trace = TraceGenerator(chart, seed=3).satisfying_trace(prefix=1,
                                                           suffix=3)
    masks = [compiled.codec.encode(v) for v in trace]
    baseline = StreamingChecker(compiled, engine="vector").feed(trace)
    encoded = StreamingChecker(compiled, engine="vector").feed_masks(masks)
    assert _report_tuple(encoded) == _report_tuple(baseline)
    # Early exit stays early in mask form too.
    stopping = StreamingChecker(compiled, engine="vector",
                                stop_on_detection=True)
    report = stopping.feed_masks(masks)
    assert report.stopped_early
    assert report.detections == baseline.detections[:1]
    assert report.ticks == baseline.detections[0] + 1


def test_push_masks_guards():
    # Any table backend accepts pre-encoded masks; only the interpreted
    # engine (guard trees step valuations) refuses them.
    compiled = tr_compiled(_handshake_chart())
    checker = StreamingChecker(compiled, engine="compiled")
    checker.push_masks([0])
    assert checker.report().ticks == 1
    interpreted = StreamingChecker(_handshake_chart(), engine="interpreted")
    with pytest.raises(MonitorError, match="push_masks"):
        interpreted.push_masks([0])
