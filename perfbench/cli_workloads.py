"""The three ``repro check`` workloads: plans, set-up and metrics.

A workload is a fixed *round* of CLI invocations, repeated until the
run's ``--seconds`` are spent (at least one round).  Every invocation
is a fresh ``python -m repro check ...`` process, timed from spawn to
exit and scaled to reference speed (:func:`common.run_program`), and
every verdict it prints is checked against the reference.
"""

from __future__ import annotations

import os
import time
from typing import List, Sequence

import dataset
import oracle
from common import (WORK, Speed, fresh_dir, keep_going, median,
                    program_env, run_program, tail)

CHARTS = list(dataset.CHARTS)

#: Ticks per dump in ``vcd_check`` / ``cache_recheck``.  The dumps are
#: half of the 10^5 ticks a bus regression dump typically holds, so a
#: round of six dumps fits a 15-second run with room for a second.
DUMP_TICKS = 50_000
#: Warm re-checks that follow each first-sight check in ``cache_recheck``.
WARM_RECHECKS = 3
#: Ticks per dump in ``optimize_check``: the work is the optimizer's.
OPTIMIZE_TICKS = 4_000
OPTIMIZE_CHARTS = ["ahb_transaction", "ocp_simple_read"]
#: Set-up checks run over a tiny dump per chart.
SETUP_TICKS = 256
#: Set-up passes per run; ``setup_s`` is their median.
SETUP_PASSES = 3


class Step:
    """One planned invocation of a round."""

    __slots__ = ("argv", "dumps", "role")

    def __init__(self, argv: List[str], dumps: Sequence, role: str):
        self.argv = argv
        self.dumps = list(dumps)
        self.role = role  # "plain", "first" (cold cache) or "warm"

    @property
    def ticks(self) -> int:
        return sum(d.ticks for d in self.dumps)


def _check_argv(spec: str, chart: str, dumps, *extra: str) -> List[str]:
    argv = ["check", spec, chart]
    for dump in dumps:
        argv += ["--vcd", dump.path]
    return argv + ["--clock", dataset.CLOCK, *extra]


class CliWorkload:
    """Inputs, set-up and round plan of one CLI workload."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        if name == "optimize_check":
            job = dataset.vcd_job(OPTIMIZE_CHARTS, OPTIMIZE_TICKS,
                                  "optimize", ("clean", "faulted", "noise"))
        else:
            job = dataset.vcd_job(CHARTS, DUMP_TICKS, "vcd")
        tiny = dataset.vcd_job(CHARTS, SETUP_TICKS, "tiny", ("clean",))
        dataset.prepare(seed, [dataset.SPEC_JOB, tiny, job])
        self.spec = dataset.spec(seed)
        self.dumps = dataset.dumps_of(seed, job)
        self.tiny = {d.chart: d for d in dataset.dumps_of(seed, tiny)}
        self.native_dir = os.path.join(WORK, "native", name)
        self._rounds = 0

    # -- set-up ------------------------------------------------------------
    def setup_plan(self) -> List[List[str]]:
        """The invocations of one set-up pass (fresh native cache).

        Each pass runs the workload's own command shape over a tiny
        dump per chart, so the program pays its one-off costs here: the
        native kernel build of every chart the cached path steps
        natively, and bytecode compilation on a fresh checkout.
        """
        fresh_dir(self.native_dir)
        if self.name == "optimize_check":
            # AHB's optimizer run is the timed work itself; nothing of
            # it is cached by the program, so it is no set-up.
            return [_check_argv(self.spec, "ocp_simple_read",
                                [self.tiny["ocp_simple_read"]],
                                "--optimize")]
        extra: List[str] = []
        if self.name == "cache_recheck":
            extra = ["--cache", fresh_dir(os.path.join(WORK, "cache",
                                                       "setup"))]
        return [_check_argv(self.spec, chart, [self.tiny[chart]], *extra)
                for chart in CHARTS]

    # -- the timed round ---------------------------------------------------
    def round_plan(self) -> List[Step]:
        self._rounds += 1
        if self.name == "vcd_check":
            return [Step(_check_argv(self.spec, d.chart, [d]), [d], "plain")
                    for d in self.dumps]
        if self.name == "optimize_check":
            steps = []
            for chart in OPTIMIZE_CHARTS:
                dumps = [d for d in self.dumps if d.chart == chart]
                steps.append(Step(_check_argv(self.spec, chart, dumps,
                                              "--optimize"),
                                  dumps, "plain"))
            return steps
        # cache_recheck: every round starts from an empty cache.
        cache = fresh_dir(os.path.join(WORK, "cache",
                                       f"round{self._rounds}"))
        steps = []
        for dump in self.dumps:
            argv = _check_argv(self.spec, dump.chart, [dump],
                               "--cache", cache)
            steps.append(Step(argv, [dump], "first"))
            steps += [Step(argv, [dump], "warm")
                      for _ in range(WARM_RECHECKS)]
        return steps

    def native_objects(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.native_dir)
                       if name.endswith(".so"))
        except FileNotFoundError:
            return 0


def cli_metrics(result, rounds, setup_times, builds: int) -> None:
    """Every end-to-end metric from the invocations of a CLI run.

    ``rounds`` holds one list of ``(step, invocation)`` pairs per round,
    in run order.  Gated times are at reference speed
    (:class:`common.Speed`); the raw wall time is printed beside them.
    """
    done = [pair for round_ in rounds for pair in round_]
    warm = [(s, i) for s, i in done if s.role == "warm"]
    verdict = [i.norm for _, i in (warm or done)]
    # A round's wall time, each of its steps taken at its median over
    # the run's rounds: one slow invocation moves no round.
    wall = sum(median([round_[k][1].norm for round_ in rounds])
               for k in range(len(rounds[0])))
    raw_wall = sum(median([round_[k][1].elapsed for round_ in rounds])
                   for k in range(len(rounds[0])))
    ticks = sum(s.ticks for s, _ in done)
    busy = sum(i.norm for _, i in done)
    verdict_tail, q = tail(verdict)
    steps = len(rounds[0])
    result.metric("setup_s", median(setup_times), "s",
                  f"median of {len(setup_times)} set-up passes "
                  f"{[round(t, 3) for t in setup_times]}")
    result.metric("wall_s", wall, "s",
                  f"one round of {steps} invocations, each at its median "
                  f"over {len(rounds)} round(s); raw {raw_wall:.3f} s")
    result.metric("verdict_p50_s", median(verdict), "s",
                  f"n={len(verdict)} "
                  f"{'warm re-checks' if warm else 'invocations'}")
    result.metric("peak_rss_mb", max(i.rss_mb for _, i in done),
                  "MB", "largest program process")
    result.report("verdict_tail_s", verdict_tail, "s",
                  f"p{q:g} of n={len(verdict)}")
    result.report("ticks_per_s", ticks / busy, "ticks/s",
                  f"{ticks} ticks over {busy:.3f} s of invocations")
    first = [i.norm for s, i in done if s.role == "first"]
    if first:
        result.report("first_sight_p50_s", median(first), "s",
                      f"n={len(first)} first checks of a dump")
    result.notes.append(f"runtime.native.builds in timed window: {builds}")


def run_cli(name: str, seed: int, seconds: float, result) -> None:
    """The untraced run: set-up passes, then timed rounds."""
    workload = CliWorkload(name, seed)
    env = program_env(workload.native_dir)
    speed = Speed()
    setup_times = []
    for _ in range(SETUP_PASSES):
        total = 0.0
        for argv in workload.setup_plan():
            invocation = run_program(argv, env, speed)
            if invocation.status not in (0, 3):
                raise RuntimeError(f"set-up check failed: "
                                   f"{invocation.stdout[-500:]}")
            total += invocation.norm
        setup_times.append(total)
    objects_before = workload.native_objects()
    rounds, round_walls = [], []
    started = time.perf_counter()
    while keep_going(started, seconds, round_walls):
        round_start = time.perf_counter()
        rounds.append([(step, run_program(step.argv, env, speed))
                       for step in workload.round_plan()])
        round_walls.append(time.perf_counter() - round_start)
    builds = workload.native_objects() - objects_before
    for step, invocation in (pair for r in rounds for pair in r):
        result.check(oracle.check_cli(step.dumps, invocation.status,
                                      invocation.stdout))
    cli_metrics(result, rounds, setup_times, builds)
