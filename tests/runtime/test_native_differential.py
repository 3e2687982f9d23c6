"""Differential suite for the native C table-stepper backend.

The same contract the vector kernel is pinned to, one layer down:
whatever the host compiler emits must be observationally identical to
the interpreted reference and the scalar compiled loop — verdicts,
detection ticks, state histories, and (via whole-batch scalar replay)
the exact error message and trace-index ordering for every anomaly
class.  Cache behaviour (fingerprint keying, damaged-object rebuild)
and every delegation path (no compiler, injected scoreboards,
transition recording, non-lowerable tables) are covered here too.
"""

import os
import random

import pytest

from repro.errors import MonitorError, ScoreboardError
from repro.logic.expr import EventRef, Not, ScoreboardCheck, TRUE
from repro.monitor.automaton import AddEvt, DelEvt, Monitor, Transition
from repro.monitor.scoreboard import Scoreboard
from repro.runtime.compiled import compile_monitor, run_many
from repro.runtime.native import (
    native_kernel,
    run_many_native,
    run_many_native_encoded,
    unavailable_reason,
)
from repro.runtime.vector import vector_table
from repro.semantics.run import Trace
from repro.synthesis.tr import tr, tr_compiled
from repro.trace.shard import run_sharded

pytestmark = pytest.mark.skipif(
    unavailable_reason() is not None,
    reason=f"native backend unavailable: {unavailable_reason()}",
)

CHART_NAMES = ("ocp_simple", "ocp_burst", "amba_ahb",
               "random_a", "random_b", "random_c")


# ------------------------------------------------- fixture charts ----
@pytest.mark.parametrize("which", CHART_NAMES)
def test_native_matches_interpreted_and_scalar(which, diff_harness):
    chart = diff_harness.chart(which)
    monitor = tr(chart)
    traces = diff_harness.traces(chart, 15, seed=7)
    reference = diff_harness.reference(monitor, traces)
    # Direct emission (exclusive first-match ladders).
    direct = tr_compiled(chart)
    assert native_kernel(direct) is not None, "kernel must actually run"
    diff_harness.assert_identity(reference, run_many_native(direct, traces))
    # Guard lowering (full-scan ladders, non-exclusive semantics).
    lowered = compile_monitor(monitor)
    diff_harness.assert_identity(reference,
                                 run_many_native(lowered, traces))
    # And both agree with the scalar loop on the same objects.
    diff_harness.assert_identity(run_many(direct, traces),
                                 run_many_native(direct, traces))


# --------------------------------------------------- ladder stress ----
def _stress_monitor(seed: int, n_states: int = 4) -> Monitor:
    """Seeded 100%-ladder-density monitor (the vector suite's shape):
    every compiled cell is a predicated check ladder, ``Del_evt`` only
    fires under ``Chk`` (including the del-then-re-add floor case), so
    runs never raise and every path must agree on verdicts."""
    rng = random.Random(seed)
    transitions = []
    for state in range(n_states):
        for a_high in (False, True):
            for x_present in (False, True):
                literal = EventRef("a") if a_high else Not(EventRef("a"))
                check = ScoreboardCheck("x")
                guard = literal & (check if x_present else Not(check))
                actions = []
                roll = rng.random()
                if x_present and roll < 0.4:
                    actions.append(DelEvt("x"))
                elif x_present and roll < 0.6:
                    actions.extend((DelEvt("x"), AddEvt("x")))
                elif not x_present and roll < 0.6:
                    actions.append(AddEvt("x"))
                if rng.random() < 0.3:
                    actions.append(AddEvt("y"))
                transitions.append(Transition(
                    state, guard, tuple(actions), rng.randrange(n_states)
                ))
    return Monitor(
        f"native_stress_{seed}", n_states=n_states, initial=0,
        final=n_states - 1, transitions=transitions, alphabet={"a", "b"},
    )


def _stress_traces(seed: int, count: int = 6):
    rng = random.Random(1000 + seed)
    traces = [
        Trace.from_sets(
            [
                {s for s in ("a", "b") if rng.random() < 0.5}
                for _ in range(rng.randint(1, 25))
            ],
            alphabet={"a", "b"},
        )
        for _ in range(count)
    ]
    traces.append(Trace([], {"a", "b"}))
    return traces


@pytest.mark.parametrize("seed", range(8))
def test_ladder_stress_native_identity(seed, diff_harness):
    monitor = _stress_monitor(seed)
    compiled = compile_monitor(monitor)
    table = vector_table(compiled)
    assert table.escape_ratio == 1.0 and table.vectorizable
    assert native_kernel(compiled) is not None
    traces = _stress_traces(seed)
    reference = diff_harness.reference(monitor, traces)
    diff_harness.assert_identity(reference,
                                 run_many_native(compiled, traces))
    sharded = run_sharded(compiled, traces[:-1], jobs=2,
                          oversubscribe=True, engine="native")
    assert ([r.detections for r in sharded]
            == [r.detections for r in reference[:-1]])


# --------------------------------------------------- failure replay ----
def test_native_dead_rung_replays_run_many_error():
    monitor = Monitor(
        "dead_rung_native", n_states=1, initial=0, final=0,
        transitions=[
            Transition(0, EventRef("a") & Not(ScoreboardCheck("x")),
                       (AddEvt("x"),), 0),
            Transition(0, Not(EventRef("a")) & ScoreboardCheck("x"),
                       (), 0),
            # a-high with x present / a-low with x absent: dead.
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    assert native_kernel(compiled) is not None
    traces = [
        Trace.from_sets([{"a"}, {"a"}, {"a"}], alphabet={"a"}),
        Trace.from_sets([{"a"}, {"a"}], alphabet={"a"}),
        Trace.from_sets([{"a"}, set(), set()], alphabet={"a"}),
    ]
    outcomes = []
    for runner in (run_many, run_many_native):
        with pytest.raises(MonitorError) as info:
            runner(compiled, traces)
        outcomes.append(str(info.value))
    assert outcomes[0] == outcomes[1]
    assert "(trace 0, tick 1)" in outcomes[0]


def test_native_mixed_failures_surface_lowest_index():
    """Under-run vs dead rung at the same tick: the surfaced error —
    type and message — is the lowest trace index's, in both orders."""
    monitor = Monitor(
        "mixed_fail_native", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, EventRef("a") & ScoreboardCheck("x"), (), 1),
            Transition(0, Not(EventRef("a")) & ScoreboardCheck("x"),
                       (), 0),
            Transition(0, Not(EventRef("a")) & Not(ScoreboardCheck("x")),
                       (DelEvt("y"),), 0),
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    assert native_kernel(compiled) is not None
    underrun = Trace.from_sets([set()], alphabet={"a"})
    dead = Trace.from_sets([{"a"}], alphabet={"a"})
    for traces, expected in (
        ([underrun, dead], ScoreboardError),
        ([dead, underrun], MonitorError),
    ):
        outcomes = []
        for runner in (run_many, run_many_native):
            with pytest.raises(expected) as info:
                runner(compiled, traces)
            outcomes.append(f"{type(info.value).__name__}: {info.value}")
        assert outcomes[0] == outcomes[1]


def test_native_runtime_nondeterminism_matches_scalar():
    monitor = Monitor(
        "nd_runtime_native", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, ScoreboardCheck("x"), (), 1),
            Transition(0, TRUE, (AddEvt("x"),), 0),
            Transition(1, TRUE, (), 1),
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    assert not compiled.ladder_exclusive
    assert native_kernel(compiled) is not None
    traces = [Trace.from_sets([set(), set()], alphabet={"a"})]
    outcomes = []
    for runner in (run_many, run_many_native):
        with pytest.raises(MonitorError) as info:
            runner(compiled, traces)
        outcomes.append(str(info.value))
    assert outcomes[0] == outcomes[1]
    assert "nondeterministic in state" in outcomes[0]


# ---------------------------------------------------- delegations ----
def test_native_empty_batch_and_empty_traces():
    compiled = compile_monitor(_stress_monitor(30))
    assert run_many_native(compiled, []) == []
    traces = [Trace([], {"a", "b"}), Trace([], {"a", "b"})]
    results = run_many_native(compiled, traces)
    assert [r.states for r in results] == [[compiled.initial]] * 2
    assert [r.detections for r in results] == [[], []]


def test_native_injected_scoreboards_delegate_to_scalar():
    compiled = compile_monitor(_stress_monitor(31))
    traces = _stress_traces(31)
    left = [Scoreboard() for _ in traces]
    right = [Scoreboard() for _ in traces]
    scalar = run_many(compiled, traces, scoreboards=left)
    native = run_many_native(compiled, traces, scoreboards=right)
    assert ([r.detections for r in scalar]
            == [r.detections for r in native])
    assert [b.snapshot() for b in left] == [b.snapshot() for b in right]
    with pytest.raises(MonitorError, match="exactly one scoreboard"):
        run_many_native(compiled, traces, scoreboards=[Scoreboard()])


def test_native_record_transitions_delegates_to_scalar():
    compiled = compile_monitor(_stress_monitor(32))
    traces = _stress_traces(32, count=3)
    scalar = run_many(compiled, traces, record_transitions=True)
    native = run_many_native(compiled, traces, record_transitions=True)
    assert ([r.transitions for r in scalar]
            == [r.transitions for r in native])


def test_native_unlowerable_table_falls_back_to_scalar():
    """A 40-literal DNF blowup resists predication: no kernel, but the
    runner still answers — through the scalar loop."""
    wide = ScoreboardCheck("e0")
    for index in range(1, 40):
        wide = wide | ScoreboardCheck(f"e{index}")
    monitor = Monitor(
        "wide_or_native", n_states=2, initial=0, final=1,
        transitions=[
            Transition(0, wide, (), 1),
            Transition(0, Not(wide), (), 0),
            Transition(1, TRUE, (), 1),
        ],
        alphabet={"a"},
    )
    compiled = compile_monitor(monitor)
    assert not vector_table(compiled).vectorizable
    assert native_kernel(compiled) is None
    traces = [Trace.from_sets([set(), {"a"}], alphabet={"a"})]
    assert (run_many_native(compiled, traces)[0].states
            == run_many(compiled, traces)[0].states)


def test_native_no_cc_runs_scalar_silently(monkeypatch):
    """REPRO_NO_CC at run time: the drop-in runners keep answering
    (scalar path), only planner selection and explicit engine
    resolution change — that contract lives in the registry tests."""
    monkeypatch.setenv("REPRO_NO_CC", "1")
    compiled = compile_monitor(_stress_monitor(33))
    traces = _stress_traces(33, count=3)
    assert native_kernel(compiled) is None
    assert ([r.detections for r in run_many_native(compiled, traces)]
            == [r.detections for r in run_many(compiled, traces)])


# ------------------------------------------------------ so cache ----
def test_native_so_cache_reuse_and_damaged_entry_rebuild(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    first = compile_monitor(_stress_monitor(34))
    kernel = native_kernel(first)
    assert kernel is not None
    assert os.path.dirname(kernel.path) == str(tmp_path)
    assert kernel.path.endswith(".so")
    # An identical table from a fresh compile reuses the same object.
    twin = compile_monitor(_stress_monitor(34))
    assert twin is not first
    twin_kernel = native_kernel(twin)
    assert twin_kernel is not None
    assert twin_kernel.fingerprint == kernel.fingerprint
    assert twin_kernel.path == kernel.path
    # Damage the cached object: the next fresh build fails closed —
    # evicts the entry, rebuilds from source, and still runs.  Damage
    # arrives as a new inode (the cache only publishes via atomic
    # rename; clobbering a dlopen-mapped file in place is UB).
    damaged = tmp_path / "damaged.tmp"
    damaged.write_bytes(b"not a shared object")
    os.replace(damaged, kernel.path)
    rebuilt = native_kernel(compile_monitor(_stress_monitor(34)))
    assert rebuilt is not None
    assert rebuilt.path == kernel.path
    traces = _stress_traces(34, count=3)
    assert ([r.detections for r in
             run_many_native(compile_monitor(_stress_monitor(34)), traces)]
            == [r.detections for r in run_many(first, traces)])


# ------------------------------------------------- encoded inputs ----
def test_native_encoded_accepts_every_stream_type():
    """Lists, array('i') streams and NumPy arrays flatten identically."""
    from array import array

    compiled = compile_monitor(_stress_monitor(35))
    traces = _stress_traces(35, count=4)
    masks = compiled.codec.encode_many(traces, as_list=True)
    expected = [r.detections
                for r in run_many(compiled, traces)]
    as_lists = run_many_native_encoded(compiled, masks)
    assert [r.detections for r in as_lists] == expected
    as_arrays = run_many_native_encoded(
        compiled, [array("i", stream) for stream in masks])
    assert [r.detections for r in as_arrays] == expected
    np = pytest.importorskip("numpy")
    as_numpy = run_many_native_encoded(
        compiled,
        [np.asarray(stream, dtype=np.int32) for stream in masks])
    assert [r.detections for r in as_numpy] == expected


def test_native_flatten_copies_memoryview_lanes_raw():
    """Columnar lanes (cast int32 memoryviews, any offset) take the raw
    byte copy; other memoryviews still flatten element by element."""
    from array import array

    from repro.runtime.native import _flatten_masks

    payload = memoryview(array("i", range(-3, 9)).tobytes()).cast("i")
    lanes = [payload[:4], payload[4:4], payload[5:12]]
    assert _flatten_masks(lanes) == array("i", [-3, -2, -1, 0, 2, 3, 4, 5,
                                                6, 7, 8])
    assert _flatten_masks([memoryview(b"\x01\x02")]) == array("i", [1, 2])
