"""Check what the program printed or replied against the reference.

The reference verdicts come from :mod:`inputs` (the interpreted
engine).  Every check returns a list of failure strings; an empty list
means the output agreed in every detail the program reported.
"""

from __future__ import annotations

import json
import re
from typing import List, Sequence

_REPORT = re.compile(
    r"^(?P<path>.+): (?P<ticks>\d+) ticks; detections at "
    r"(?P<list>\[[0-9, ]*\])(?: \(first (?P<shown>\d+) of "
    r"(?P<total>\d+)\))?$"
)


def _compare_detections(label: str, shown: List[int], total: int,
                        expected: Sequence[int]) -> List[str]:
    failures = []
    if total != len(expected):
        failures.append(f"{label}: {total} detections, reference "
                        f"{len(expected)}")
    if list(shown) != list(expected[:len(shown)]):
        failures.append(f"{label}: detection ticks differ from the "
                        "reference")
    return failures


def check_cli(dumps, status: int, stdout: str) -> List[str]:
    """One ``repro check --vcd ...`` invocation over ``dumps``.

    Exit status 0 means every dump was detected, 3 that at least one
    was not; each dump's line must carry the reference tick count and
    detections, in full or in the ``(first N of M)`` truncated form.
    """
    failures = []
    expected_status = 0 if all(d.accepted for d in dumps) else 3
    if status != expected_status:
        failures.append(f"exit status {status}, reference "
                        f"{expected_status}: {stdout[-300:]!r}")
    lines = {}
    for line in stdout.splitlines():
        match = _REPORT.match(line)
        if match:
            lines[match.group("path")] = match
    for dump in dumps:
        match = lines.get(dump.path)
        label = f"{dump.chart}/{dump.kind}"
        if match is None:
            failures.append(f"{label}: no report line")
            continue
        if int(match.group("ticks")) != dump.ticks:
            failures.append(f"{label}: {match.group('ticks')} ticks, "
                            f"reference {dump.ticks}")
        shown = json.loads(match.group("list"))
        if match.group("total") is not None:
            if int(match.group("shown")) != len(shown):
                failures.append(f"{label}: 'first N' disagrees with the "
                                "list printed")
            total = int(match.group("total"))
        else:
            total = len(shown)
        failures += _compare_detections(label, shown, total,
                                        dump.detections)
    return failures


def check_stream(stream, reply: dict) -> List[str]:
    """A serve ``close`` reply against the stream's reference verdict."""
    label = f"stream {stream.monitor}/{stream.kind}"
    if not reply.get("ok"):
        return [f"{label}: close failed: {reply.get('error')}"]
    report = reply["report"]
    failures = []
    if report.get("error") or report.get("shed"):
        failures.append(f"{label}: {report.get('error') or 'shed'}")
    if report["ticks"] != len(stream.ticks):
        failures.append(f"{label}: {report['ticks']} ticks, reference "
                        f"{len(stream.ticks)}")
    if report["accepted"] != bool(stream.detections):
        failures.append(f"{label}: accepted={report['accepted']}")
    failures += _compare_detections(label, report["detections"],
                                    report["n_detections"],
                                    stream.detections)
    return failures


def check_corpus(corpus, reply: dict) -> List[str]:
    """A serve ``corpus`` reply against every lane's reference."""
    label = f"corpus {corpus.monitor}"
    if not reply.get("ok"):
        return [f"{label}: {reply.get('error')}"]
    failures = []
    if reply["total_ticks"] != corpus.total_ticks:
        failures.append(f"{label}: {reply['total_ticks']} ticks, "
                        f"reference {corpus.total_ticks}")
    reports = reply["reports"]
    if len(reports) != len(corpus.lanes):
        return failures + [f"{label}: {len(reports)} lanes reported, "
                           f"reference {len(corpus.lanes)}"]
    for report, (ticks, detections) in zip(reports, corpus.lanes):
        lane = f"{label} lane {report['trace']}"
        if report["ticks"] != ticks:
            failures.append(f"{lane}: {report['ticks']} ticks")
        if report["accepted"] != bool(detections):
            failures.append(f"{lane}: accepted={report['accepted']}")
        failures += _compare_detections(lane, report["detections"],
                                        report["n_detections"],
                                        detections)
    return failures
