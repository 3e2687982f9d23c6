#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py          # oracle checks + smoke runs
    python3 perfbench/selftest.py --quick  # oracle checks only

* The oracle flags deliberately wrong verdicts: a wrong exit status, a
  shifted detection tick, a wrong ``(first N of M)`` total, a wrong
  serve ``close`` report and a wrong ``corpus`` lane.
* The memoized reference equals the plain interpreted run, and the
  dump writer's text equals ``trace_to_vcd``'s.
* Without the program source next to it, the benchmark exits non-zero
  and prints no result.
* Smoke-size runs of every workload emit exactly the metric names and
  units ``BENCHMARK.json`` declares, untraced and traced, with no
  failed operation; on the CLI workloads the traced layers plus
  ``bench.unattributed_s`` add up to the traced wall time.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, SRC, WORK  # noqa: E402

sys.path.insert(0, SRC)


def check_oracle() -> None:
    import oracle
    from dataset import Dump, StreamInput

    dump = Dump("ocp_simple_read", "clean", "/x/a.vcd", 10, [3, 5, 7])
    good = "/x/a.vcd: 10 ticks; detections at [3, 5, 7]\n"
    assert oracle.check_cli([dump], 0, good) == []
    truncated = "/x/a.vcd: 10 ticks; detections at [3, 5] (first 2 of 3)\n"
    assert oracle.check_cli([dump], 0, truncated) == []
    wrong = {
        "exit status": (3, good),
        "detection tick": (0, good.replace("5", "6")),
        "truncated total": (0, truncated.replace("of 3", "of 4")),
        "tick count": (0, good.replace("10 ticks", "11 ticks")),
        "missing line": (0, "note: nothing\n"),
    }
    for what, (status, stdout) in wrong.items():
        assert oracle.check_cli([dump], status, stdout), \
            f"oracle accepted a wrong {what}"
    undetected = Dump("ocp_simple_read", "noise", "/x/b.vcd", 4, [])
    assert oracle.check_cli(
        [dump, undetected], 3,
        good + "/x/b.vcd: 4 ticks; detections at []\n") == []
    assert oracle.check_cli(
        [dump, undetected], 0,
        good + "/x/b.vcd: 4 ticks; detections at []\n")

    stream = StreamInput("ocp_simple_read", "clean", [[]] * 10, [3, 5, 7])
    report = {"ticks": 10, "accepted": True, "detections": [3, 5, 7],
              "n_detections": 3}
    assert oracle.check_stream(stream, {"ok": True, "report": report}) == []
    assert oracle.check_stream(stream, {"ok": True, "report": dict(
        report, detections=[3, 5, 8])})
    assert oracle.check_stream(stream, {"ok": False, "error": "x"})

    class Corpus:
        monitor, total_ticks, lanes = "m", 10, [(10, [3, 5, 7])]

    lane = {"trace": 0, "ticks": 10, "accepted": True,
            "detections": [3, 5, 7], "n_detections": 3}
    reply = {"ok": True, "total_ticks": 10, "reports": [lane]}
    assert oracle.check_corpus(Corpus, reply) == []
    assert oracle.check_corpus(Corpus, dict(
        reply, reports=[dict(lane, n_detections=4)]))
    print("oracle: flags every wrong verdict")


def check_reference() -> None:
    import inputs
    from repro.monitor.engine import run_monitor

    for chart in ("ocp_simple_read", "ahb_transaction"):
        monitor = inputs.tr(inputs.CHARTS[chart][0]())
        for kind in ("clean", "faulted", "noise"):
            pool = inputs.window_pool(chart, 7, kind)
            sequence = inputs.window_sequence(random.Random(kind), pool,
                                              400)
            expected = run_monitor(monitor, inputs.concat(pool, sequence))
            ticks, detections = inputs.reference_run(monitor, pool,
                                                     sequence, {})
            assert ticks == expected.ticks
            assert detections == expected.detections, (chart, kind)
    print("reference: memoized run equals run_monitor")


def check_vcd_writer() -> None:
    import inputs
    from repro.trace.bridge import trace_to_vcd

    for chart in inputs.CHARTS:
        for kind in ("clean", "faulted", "noise"):
            pool = inputs.window_pool(chart, 7, kind)
            trace = inputs.concat(pool, inputs.window_sequence(
                random.Random(kind), pool, 600))
            assert inputs.render_vcd(trace) == trace_to_vcd(
                trace, clock=inputs.CLOCK), (chart, kind)
    print("dumps: render_vcd equals trace_to_vcd byte for byte")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=os.path.join(WORK, "tmp")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "vcd_check",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    assert done.returncode != 0, "ran without the program source"
    assert '"metrics"' not in done.stdout, "printed a result"
    print("bare directory: exits", done.returncode, "without a result")


#: Per-layer ``*_s`` metrics that are not self times of the traced
#: window: a fresh interpreter's import and the set-up pass's compiler.
_OUTSIDE_WINDOW = {"import.repro_s", "runtime.native.cc_s"}


def check_additive(workload: str, metrics: dict) -> None:
    """Layer self times plus unattributed time make up the traced wall,
    and unattributed time is at most a tenth of it."""
    value = {name: m["value"] for name, m in metrics.items()}
    layers = sum(v for name, v in value.items()
                 if name.endswith("_s") and not name.startswith("bench.")
                 and name not in _OUTSIDE_WINDOW)
    wall = value["bench.traced_wall_s"]
    unattributed = value["bench.unattributed_s"]
    assert abs(layers + unattributed - wall) <= 1e-6 * wall + 1e-9, \
        (workload, layers, unattributed, wall)
    assert unattributed <= 0.1 * wall, (workload, unattributed, wall)


def smoke_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        declared = json.load(stream)
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "101", "--seconds", "1",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            last = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed",
                                 "metrics"}
            assert last["correct"] and last["failed"] == 0, done.stdout
            units = {name: metric["unit"]
                     for name, metric in last["metrics"].items()}
            assert units == expected[trace], (workload, trace, units)
            for name in units:
                assert f"{workload} {name} = " in done.stdout, name
            if trace and workload != "serve_mixed":
                check_additive(workload, last["metrics"])
            print(f"smoke {workload} --trace {trace}: "
                  f"{len(units)} metrics, {last['attempted']} checked")


def main() -> int:
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    check_oracle()
    check_reference()
    check_vcd_writer()
    check_refuses_without_source()
    if "--quick" not in sys.argv[1:]:
        smoke_runs()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
