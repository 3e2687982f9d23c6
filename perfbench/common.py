"""Shared plumbing: checkout paths, program processes, statistics."""

from __future__ import annotations

import math
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Sequence

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes goes under here (git-ignored).
WORK = os.path.join(ROOT, ".perfbench_work")


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def program_env(native_dir: str) -> dict:
    """Environment of every program process the benchmark starts.

    The native shared-object cache and the temp directory (the native
    compiler's scratch files) both live in the benchmark's own work
    tree, so runs neither share state with the host nor write outside
    the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_NATIVE_CACHE"] = native_dir
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    # Set iteration order, and with it how much work some passes do
    # (the optimizer's minimisation), follows the string hash seed:
    # fixed, the same inputs make the same work in every process.
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_NO_CC", None)
    env.pop("REPRO_NO_NUMPY", None)
    return env


#: Iterations of the reference loop (about 20-40 ms on a 2-vCPU VM).
REFERENCE_LOOP = 100_000
#: What the reference loop takes at the *reference speed*: every gated
#: time is reported in seconds at that speed (see :class:`Speed`).
REFERENCE_LOOP_S = 0.022
#: How often a running CLI invocation is paused to sample the speed.
SPEED_INTERVAL_S = 0.25


def pin_to_one_cpu() -> int:
    """Run this process, and every process it starts, on one CPU.

    The reference loop of :class:`Speed` only tells how fast the CPU
    the program runs on is going if it runs on the same one; children
    inherit the affinity.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speed:
    """The host's current speed, read off a fixed pure-Python loop.

    The benchmark runs on a VM whose CPU speed swings by up to 2x from
    one second to the next (whatever else the physical core is
    running), in process CPU time exactly as in wall time.  A fixed
    loop, run on the same CPU just before, during and just after a
    timed sample, measures that speed; a gated time is the measured
    time scaled to the reference speed::

        normalized = measured * REFERENCE_LOOP_S / mean(loop times)

    so it moves with what the program does, not with the host.  The
    loop is the benchmark's, so no change to the program moves it.
    """

    def sample(self) -> float:
        """Seconds the reference loop takes now."""
        start = time.perf_counter()
        total = 0
        table = {}
        for i in range(REFERENCE_LOOP):
            key = i & 63
            table[key] = table.get(key, 0) + (i * i) % 7
            total += key
        return time.perf_counter() - start

    @staticmethod
    def scale(loop_times: Sequence[float]) -> float:
        """Factor from measured seconds to reference-speed seconds."""
        return REFERENCE_LOOP_S * len(loop_times) / sum(loop_times)


class Invocation:
    """One finished program process.

    ``elapsed`` is its wall time from spawn to exit, less the pauses in
    which the speed was sampled; ``norm`` the same at reference speed.
    """

    __slots__ = ("argv", "elapsed", "norm", "status", "rss_mb", "stdout")

    def __init__(self, argv, elapsed, norm, status, rss_mb, stdout):
        self.argv = argv
        self.elapsed = elapsed
        self.norm = norm
        self.status = status
        self.rss_mb = rss_mb
        self.stdout = stdout


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:  # every process of the group has ended
        pass


def pause_and_sample(pid: int, speed: Speed,
                     loop_times: List[float]) -> Optional[tuple]:
    """Stop the process group of ``pid``, time the reference loop and
    continue the group: the loop then runs on the CPU the program was
    using, while no process of the program runs.

    Returns ``None``, or ``(status, rusage)`` when ``pid`` turned out to
    have exited (it is then reaped).
    """
    os.killpg(pid, signal.SIGSTOP)
    _, status, usage = os.wait4(pid, os.WUNTRACED)
    if not os.WIFSTOPPED(status):
        _signal_group(pid, signal.SIGCONT)
        return status, usage
    loop_times.append(speed.sample())
    os.killpg(pid, signal.SIGCONT)
    return None


def _wait_sampling(process, speed: Speed, loop_times: List[float]):
    """Wait for ``process`` to exit, sampling the speed every
    ``SPEED_INTERVAL_S``: ``(status, rusage, paused seconds)``."""
    paused = 0.0
    pidfd = os.pidfd_open(process.pid)
    try:
        while not select.select([pidfd], [], [], SPEED_INTERVAL_S)[0]:
            stop = time.perf_counter()
            exited = pause_and_sample(process.pid, speed, loop_times)
            if exited:
                return (*exited, paused)
            paused += time.perf_counter() - stop
        _, status, usage = os.wait4(process.pid, 0)
        return status, usage, paused
    finally:
        os.close(pidfd)


def run_program(argv: Sequence[str], env: dict, speed: Speed,
                timeout: float = 170.0) -> Invocation:
    """Run ``python -m repro ARGV`` from spawn to exit.

    The program runs in a process group of its own, so the speed
    samples taken while it runs pause everything it started (see
    :func:`pause_and_sample`); the speed is also sampled just before
    the spawn and just after the exit.  The child is reaped with ``wait4``
    so its own peak RSS is read, not the benchmark's.
    """
    out_path = os.path.join(WORK, "tmp", f"stdout-{os.getpid()}.txt")
    loop_times = [speed.sample()]
    with open(out_path, "w+b") as out:
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], stdout=out,
            stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            timeout, _signal_group, (process.pid, signal.SIGKILL))
        watchdog.start()
        try:
            status, usage, paused = _wait_sampling(process, speed,
                                                   loop_times)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start - paused
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    loop_times.append(speed.sample())
    return Invocation(list(argv), elapsed, elapsed * Speed.scale(loop_times),
                      process.returncode, usage.ru_maxrss / 1024.0, stdout)


# -- statistics -------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    index = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[index]


def tail(values: Sequence[float]):
    """``(value, percentile)``: the highest nearest-rank percentile with
    at least ten samples beyond it, never below the median.

    With fewer than 21 samples no percentile above the median has ten
    samples beyond it, and the tail reads as the upper median.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], round(100.0 * (index + 1) / n, 1)


def keep_going(started: float, seconds: float, lap_times) -> bool:
    """Start another fixed lap of work?  At least one lap always runs;
    after that, only while the lap would end closer to ``seconds`` than
    stopping now would."""
    if not lap_times:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + sum(lap_times) / len(lap_times) / 2 < seconds


class Result:
    """The run's outcome: metrics plus attempted/failed accounting."""

    def __init__(self):
        self.metrics = {}
        #: Printed with the metrics but not in the result line: numbers
        #: too noisy on a shared host to gate a change on.
        self.ungated = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def metric(self, name: str, value: float, unit: str,
               note: Optional[str] = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if note:
            self.notes.append(f"{name}: {note}")

    def report(self, name: str, value: float, unit: str,
               note: Optional[str] = None) -> None:
        """Like :meth:`metric`, but printed only (not gated)."""
        self.ungated[name] = {"value": value, "unit": unit}
        if note:
            self.notes.append(f"{name}: {note}")

    def check(self, failures: Sequence[str]) -> None:
        """Book one attempted operation and its failures, if any."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)
