"""Tests for the ``.rtrc`` columnar trace store (format + round-trips)."""

import mmap
import os
import struct
import subprocess
import sys

import pytest

from repro.errors import TraceError
from repro.logic.codec import AlphabetCodec
from repro.semantics.run import Trace
from repro.trace.columnar import (
    RTRC_VERSION,
    ColumnarTraceSet,
    codec_fingerprint,
)


@pytest.fixture(params=["numpy", "fallback"])
def columnar_mode(request, vector_kernel):
    """Run each case on both vector-kernel legs (lanes are NumPy-free)."""
    return vector_kernel(request.param)


def _sample_set(meta=None):
    return ColumnarTraceSet.from_mask_arrays(
        [[0, 1, 3, 2], [5], [], [7, 0]],
        symbols=("a", "b", "c"),
        meta=meta or {"clock": "clk"},
    )


# ------------------------------------------------------------ observers ----
def test_shape_and_views(columnar_mode):
    columns = _sample_set()
    assert columns.n_traces == 4
    assert len(columns) == 4
    assert columns.total_ticks == 7
    assert columns.lengths == (4, 1, 0, 2)
    assert list(columns.masks(0)) == [0, 1, 3, 2]
    assert list(columns.masks(2)) == []
    assert list(columns.masks(3)) == [7, 0]
    assert [list(m) for m in columns.mask_arrays()] == \
        [[0, 1, 3, 2], [5], [], [7, 0]]
    assert "4 traces" in repr(columns)


def test_fingerprint_tracks_symbol_ordering():
    left = _sample_set()
    assert left.fingerprint == codec_fingerprint(("a", "b", "c"))
    assert left.fingerprint == codec_fingerprint(AlphabetCodec("abc"))
    assert left.fingerprint != codec_fingerprint(("a", "b", "d"))
    # Iterables are canonicalised the way AlphabetCodec sorts them.
    assert codec_fingerprint(["b", "a", "c"]) == \
        codec_fingerprint(AlphabetCodec(["c", "b", "a"]))


def test_payload_length_must_match_lengths(columnar_mode):
    with pytest.raises(TraceError, match="lengths"):
        ColumnarTraceSet(("a",), (3,), [1, 2])
    with pytest.raises(TraceError, match="negative"):
        ColumnarTraceSet(("a",), (-1,), [])


def test_trace_decode_round_trip(columnar_mode):
    trace = Trace.from_sets(
        [{"a"}, set(), {"a", "c"}, {"b", "c"}],
        alphabet=("a", "b", "c"),
    )
    columns = ColumnarTraceSet.from_traces([trace, trace])
    decoded = columns.trace(1)
    assert [sorted(v.true) for v in decoded] == [sorted(v.true) for v in trace]
    assert set(decoded.alphabet) == set(trace.alphabet)


def test_from_traces_matches_codec_encoding(columnar_mode):
    trace = Trace.from_sets([{"x"}, {"x", "y"}, set()], alphabet=("x", "y"))
    codec = AlphabetCodec(trace.alphabet)
    columns = ColumnarTraceSet.from_traces([trace], alphabet=trace.alphabet)
    assert list(columns.masks(0)) == [codec.encode(v) for v in trace]


# --------------------------------------------------------- serialisation ----
def test_bytes_round_trip(columnar_mode):
    columns = _sample_set(meta={"clock": "clk", "note": "round-trip"})
    blob = columns.to_bytes()
    loaded = ColumnarTraceSet.from_bytes(blob)
    assert loaded.symbols == columns.symbols
    assert loaded.lengths == columns.lengths
    assert loaded.meta == columns.meta
    assert loaded.fingerprint == columns.fingerprint
    assert [list(m) for m in loaded.mask_arrays()] == \
        [list(m) for m in columns.mask_arrays()]


def test_payload_is_aligned():
    blob = _sample_set().to_bytes()
    header_len = struct.unpack("<I", blob[8:12])[0]
    payload_offset = 12 + header_len
    payload_offset += (-payload_offset) % 64
    assert payload_offset % 64 == 0
    assert len(blob) == payload_offset + 4 * 7


def test_save_load_round_trip(columnar_mode, tmp_path):
    columns = _sample_set()
    path = tmp_path / "corpus.rtrc"
    assert columns.save(path) == str(path)
    # Atomic write leaves no temp droppings behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.rtrc"]
    loaded = ColumnarTraceSet.load(path)
    assert loaded.lengths == columns.lengths
    assert [list(m) for m in loaded.mask_arrays()] == \
        [list(m) for m in columns.mask_arrays()]


def test_empty_set_round_trip(columnar_mode, tmp_path):
    columns = ColumnarTraceSet.from_mask_arrays([], symbols=("a",))
    path = tmp_path / "empty.rtrc"
    columns.save(path)
    loaded = ColumnarTraceSet.load(path)
    assert loaded.n_traces == 0
    assert loaded.total_ticks == 0


# ------------------------------------------------------------- rejection ----
def test_rejects_bad_magic(columnar_mode):
    blob = bytearray(_sample_set().to_bytes())
    blob[:4] = b"NOPE"
    with pytest.raises(TraceError, match="not a columnar"):
        ColumnarTraceSet.from_bytes(bytes(blob))
    with pytest.raises(TraceError, match="not a columnar"):
        ColumnarTraceSet.from_bytes(b"RT")  # shorter than the prefix


def test_rejects_version_mismatch(columnar_mode):
    blob = bytearray(_sample_set().to_bytes())
    blob[4:8] = struct.pack("<I", RTRC_VERSION + 1)
    with pytest.raises(TraceError, match="version"):
        ColumnarTraceSet.from_bytes(bytes(blob))


def test_rejects_truncation(columnar_mode):
    blob = _sample_set().to_bytes()
    with pytest.raises(TraceError, match="truncated|payload"):
        ColumnarTraceSet.from_bytes(blob[:10])
    with pytest.raises(TraceError, match="payload"):
        ColumnarTraceSet.from_bytes(blob[:-3])
    with pytest.raises(TraceError, match="payload"):
        ColumnarTraceSet.from_bytes(blob + b"\x00\x00\x00\x00")


def test_rejects_corrupt_header_and_payload(columnar_mode):
    blob = bytearray(_sample_set().to_bytes())
    corrupt = bytearray(blob)
    corrupt[13] ^= 0xFF  # inside the JSON header
    with pytest.raises(TraceError, match="header"):
        ColumnarTraceSet.from_bytes(bytes(corrupt))
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0x01  # inside the mask payload
    with pytest.raises(TraceError, match="crc32"):
        ColumnarTraceSet.from_bytes(bytes(corrupt))
    # ... but an explicit verify=False load trusts the bytes.
    loaded = ColumnarTraceSet.from_bytes(bytes(corrupt), verify=False)
    assert loaded.n_traces == 4


def test_load_rejects_corrupt_file(columnar_mode, tmp_path):
    path = tmp_path / "corrupt.rtrc"
    blob = bytearray(_sample_set().to_bytes())
    blob[-2] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceError, match="crc32"):
        ColumnarTraceSet.load(path)


# ------------------------------------------------------------ lazy mmap ----
def test_lazy_load_views_are_mmap_backed(columnar_mode, tmp_path):
    path = tmp_path / "lazy.rtrc"
    _sample_set().save(path)
    columns = ColumnarTraceSet.load(path, lazy=True)
    assert [list(m) for m in columns.mask_arrays()] == \
        [[0, 1, 3, 2], [5], [], [7, 0]]
    # Views window the mapping itself: zero-copy, read-only, NumPy or
    # not.
    assert isinstance(columns.masks(0).obj, mmap.mmap)
    assert columns.masks(0).readonly
    # The deferred check passes on an undamaged file.
    assert columns.verify_payload() is columns


def test_lazy_load_defers_crc_until_verify_payload(columnar_mode,
                                                   tmp_path):
    path = tmp_path / "damaged.rtrc"
    blob = bytearray(_sample_set().to_bytes())
    blob[-2] ^= 0x40  # flip a bit inside the mask payload
    path.write_bytes(bytes(blob))
    # Eager load still fails closed...
    with pytest.raises(TraceError, match="crc32"):
        ColumnarTraceSet.load(path)
    # ...while the lazy load admits the mapping but the deferred check
    # surfaces the identical TraceError on demand.
    columns = ColumnarTraceSet.load(path, lazy=True)
    with pytest.raises(TraceError, match="crc32"):
        columns.verify_payload()


def test_lazy_load_structural_damage_still_raises_trace_error(
        columnar_mode, tmp_path):
    """Every non-crc failure mode is checked up front even when lazy:
    magic, version, header JSON, and the payload-size promise."""
    blob = bytearray(_sample_set().to_bytes())
    cases = []
    bad_magic = bytearray(blob)
    bad_magic[:4] = b"NOPE"
    cases.append((bad_magic, "not a columnar"))
    bad_version = bytearray(blob)
    bad_version[4:8] = struct.pack("<I", RTRC_VERSION + 9)
    cases.append((bad_version, "version"))
    bad_header = bytearray(blob)
    bad_header[13] ^= 0xFF
    cases.append((bad_header, "header"))
    truncated = bytearray(blob[:-3])
    cases.append((truncated, "payload"))
    for index, (damaged, match) in enumerate(cases):
        path = tmp_path / f"damaged{index}.rtrc"
        path.write_bytes(bytes(damaged))
        with pytest.raises(TraceError, match=match):
            ColumnarTraceSet.load(path, lazy=True)


def test_verify_payload_tracks_recorded_crc(columnar_mode):
    # In-memory sets carry no recorded crc: nothing to re-verify.
    fresh = _sample_set()
    assert fresh.verify_payload() is fresh
    # Round-tripped sets do, and an intact payload passes.
    loaded = ColumnarTraceSet.from_bytes(_sample_set().to_bytes())
    assert loaded.verify_payload() is loaded


# --------------------------------------------------- memoryview lanes ----
def _loaded_sets(tmp_path):
    """The same set built, parsed from bytes, loaded and lazily loaded."""
    built = _sample_set()
    path = tmp_path / "lanes.rtrc"
    built.save(path)
    return {
        "built": built,
        "bytes": ColumnarTraceSet.from_bytes(built.to_bytes()),
        "load": ColumnarTraceSet.load(path),
        "lazy": ColumnarTraceSet.load(path, lazy=True).verify_payload(),
    }


def test_lanes_are_int32_memoryviews(columnar_mode, tmp_path):
    """One lane form however the set was made; every observer agrees."""
    sets = _loaded_sets(tmp_path)
    blob = sets["built"].to_bytes()
    for how, columns in sets.items():
        for lane in columns.mask_arrays():
            assert type(lane) is memoryview and lane.format == "i", how
        assert [m.tolist() for m in columns.mask_arrays()] == \
            [[0, 1, 3, 2], [5], [], [7, 0]], how
        assert columns.to_bytes() == blob, how
        assert [sorted(v.true) for v in columns.trace(0)] == \
            [[], ["a"], ["a", "b"], ["b"]], how


def test_from_mask_arrays_takes_lanes_of_another_set(columnar_mode,
                                                     tmp_path):
    loaded = _loaded_sets(tmp_path)["load"]
    copied = ColumnarTraceSet.from_mask_arrays(
        loaded.mask_arrays(), loaded.symbols, meta=loaded.meta)
    assert copied.to_bytes() == loaded.to_bytes()


@pytest.mark.parametrize("engine", ["compiled", "vector", "native"])
def test_loaded_lanes_feed_every_batch_kernel(columnar_mode, tmp_path,
                                              engine):
    """Memoryview lanes run as they are on every batch backend, with
    the verdicts of the lists they were saved from."""
    from repro.protocols.fixtures import ocp_simple_scenario_trace
    from repro.runtime.compiled import run_many_encoded
    from repro.runtime.engines import backend
    from repro.protocols.ocp import ocp_simple_read_chart
    from repro.synthesis.tr import tr_compiled

    if backend(engine).unavailable_reason() is not None:
        pytest.skip(backend(engine).unavailable_reason())
    compiled = tr_compiled(ocp_simple_read_chart())
    traces = [ocp_simple_scenario_trace(seed=seed, repeats=2)
              for seed in range(3)]
    masks = compiled.codec.encode_many(traces, as_list=True)
    path = tmp_path / "corpus.rtrc"
    ColumnarTraceSet.from_mask_arrays(masks, compiled.codec.symbols).save(path)
    lanes = ColumnarTraceSet.load(path).mask_arrays()
    expected = [r.detections for r in run_many_encoded(compiled, masks)]
    assert any(expected)
    runner = backend(engine).encoded_runner()
    assert [r.detections for r in runner(compiled, lanes)] == expected
    if engine == "vector":
        assert columnar_mode.runs[columnar_mode] == 1


# (magic, version, header, payload) damage -> the TraceError text every
# loader raises, eager or lazy (strings as the format has always read).
_DAMAGE = [
    ("empty", lambda blob, hl: b"",
     "not a columnar trace (.rtrc) payload"),
    ("short", lambda blob, hl: blob[:3],
     "not a columnar trace (.rtrc) payload"),
    ("bad_magic", lambda blob, hl: b"NOPE" + blob[4:],
     "not a columnar trace (.rtrc) payload"),
    ("bad_version",
     lambda blob, hl: blob[:4] + struct.pack("<I", RTRC_VERSION + 9)
     + blob[8:],
     f"columnar trace format version {RTRC_VERSION + 9} unsupported "
     f"(this build reads version {RTRC_VERSION})"),
    ("header_truncated", lambda blob, hl: blob[:12 + hl - 1],
     "truncated columnar trace header"),
    ("header_json", lambda blob, hl: blob[:13] + bytes([blob[13] ^ 0xFF])
     + blob[14:],
     "corrupt columnar trace header"),
    ("payload_truncated", lambda blob, hl: blob[:-3],
     "columnar payload is 25 bytes; header promises 28"),
    ("payload_extra", lambda blob, hl: blob + b"\x00" * 4,
     "columnar payload is 32 bytes; header promises 28"),
    ("payload_bitflip",
     lambda blob, hl: blob[:-2] + bytes([blob[-2] ^ 0x40]) + blob[-1:],
     "columnar payload failed its crc32 check"),
]


@pytest.mark.parametrize("how", ["bytes", "load", "lazy"])
@pytest.mark.parametrize("name,damage,message", _DAMAGE,
                         ids=[case[0] for case in _DAMAGE])
def test_damage_raises_the_same_trace_error(tmp_path, how, name, damage,
                                            message):
    blob = _sample_set().to_bytes()
    damaged = damage(blob, struct.unpack("<I", blob[8:12])[0])
    with pytest.raises(TraceError) as caught:
        if how == "bytes":
            ColumnarTraceSet.from_bytes(damaged)
        else:
            path = tmp_path / f"{name}.rtrc"
            path.write_bytes(damaged)
            ColumnarTraceSet.load(path, lazy=how == "lazy").verify_payload()
    assert str(caught.value) == message


# ---------------------------------------------------------- lazy NumPy ----
@pytest.mark.parametrize("module", [
    "repro", "repro.trace.vcd_reader", "repro.cli", "repro.runtime.vector",
    "repro.runtime.native", "repro.codegen.c_gen", "repro.trace.columnar",
])
def test_import_does_not_load_numpy(module):
    """NumPy loads inside a vector batch only, never at import time."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("REPRO_NO_NUMPY", None)
    script = f"import sys, {module}; assert 'numpy' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
