"""Benchmark inputs as the measuring process sees them.

Generation runs in a separate process (:mod:`inputs`, which imports the
program); this side only reads the JSON it writes.  The measuring
process therefore never imports the program, so the peak RSS read off
each program process it spawns is the program's own, not inherited
from a large parent at spawn time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import List, Sequence

from common import WORK, program_env

#: Bumped whenever the generated inputs change shape, so stale cached
#: inputs are never reused.
INPUT_VERSION = 1
CLOCK = "clk"
CHARTS = ("ocp_simple_read", "ocp_burst_read", "ahb_transaction")
_HERE = os.path.dirname(os.path.abspath(__file__))


class Dump:
    """One generated VCD dump and its reference verdict."""

    __slots__ = ("chart", "kind", "path", "ticks", "detections")

    def __init__(self, chart, kind, path, ticks, detections):
        self.chart = chart
        self.kind = kind
        self.path = path
        self.ticks = ticks
        self.detections = detections

    @property
    def accepted(self) -> bool:
        return bool(self.detections)


class StreamInput:
    """One serve stream: its wire ticks and reference verdict."""

    __slots__ = ("monitor", "kind", "ticks", "detections")

    def __init__(self, monitor, kind, ticks, detections):
        self.monitor = monitor
        self.kind = kind
        self.ticks = ticks
        self.detections = detections


class Corpus:
    """One ``.rtrc`` corpus and the reference verdict of every lane."""

    __slots__ = ("monitor", "path", "total_ticks", "lanes")

    def __init__(self, monitor, path, total_ticks, lanes):
        self.monitor = monitor
        self.path = path
        self.total_ticks = total_ticks
        self.lanes = lanes  # [(ticks, detections)] per lane


def _path(seed: int, tag: str) -> str:
    directory = os.path.join(WORK, "inputs", f"v{INPUT_VERSION}",
                             f"seed{seed}")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{tag}.json")


def prepare(seed: int, jobs: Sequence[tuple]) -> None:
    """Generate every input set of ``jobs`` not on disk yet, in one
    process (which then imports the program and synthesizes each chart
    once).  A job is ``(what, tag, params)``, as the ``*_job``
    functions below build it."""
    missing = [[what, _path(seed, tag), tag, params]
               for what, tag, params in jobs
               if not os.path.exists(_path(seed, tag))]
    if missing:
        subprocess.run(
            [sys.executable, os.path.join(_HERE, "inputs.py"),
             "--seed", str(seed), "--jobs", json.dumps(missing)],
            env=program_env(os.path.join(WORK, "native", "inputs")),
            check=True, timeout=600,
        )


def _generated(seed: int, job: tuple) -> dict:
    """Load one input set, generating it (once per seed) if missing."""
    prepare(seed, [job])
    with open(_path(seed, job[1])) as stream:
        return json.load(stream)


SPEC_JOB = ("spec", "spec", {})


def vcd_job(charts: Sequence[str], ticks: int, tag: str,
            kinds: Sequence[str] = ("clean", "faulted")) -> tuple:
    return ("vcd", tag, {"charts": list(charts), "ticks": ticks,
                         "kinds": list(kinds)})


def serve_job(charts: Sequence[str], streams_per_chart: int,
              stream_ticks: int, corpus_lanes: int,
              corpus_ticks: int) -> tuple:
    tag = (f"serve-{streams_per_chart}x{stream_ticks}-"
           f"{corpus_lanes}x{corpus_ticks}")
    return ("serve", tag, {"charts": list(charts),
                           "streams_per_chart": streams_per_chart,
                           "stream_ticks": stream_ticks,
                           "corpus_lanes": corpus_lanes,
                           "corpus_ticks": corpus_ticks})


def spec(seed: int) -> str:
    """The three-chart CESC spec file."""
    return _generated(seed, SPEC_JOB)["path"]


def vcd_dumps(seed: int, charts: Sequence[str], ticks: int, tag: str,
              kinds: Sequence[str] = ("clean", "faulted")) -> List[Dump]:
    """One dump of about ``ticks`` ticks per chart and window kind."""
    return dumps_of(seed, vcd_job(charts, ticks, tag, kinds))


def dumps_of(seed: int, job: tuple) -> List[Dump]:
    """The dumps of one :func:`vcd_job`."""
    return [Dump(**dump) for dump in _generated(seed, job)["dumps"]]


def serve_inputs(seed: int, charts: Sequence[str], streams_per_chart: int,
                 stream_ticks: int, corpus_lanes: int, corpus_ticks: int):
    """``(streams, corpora)``: stream traces and one corpus per chart."""
    document = _generated(seed, serve_job(
        charts, streams_per_chart, stream_ticks, corpus_lanes,
        corpus_ticks))
    return ([StreamInput(**s) for s in document["streams"]],
            [Corpus(**c) for c in document["corpora"]])
