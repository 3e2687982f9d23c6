"""The ``serve_mixed`` workload: ``repro serve`` and one client.

The client is this process, holding two connections, each driven by
its own threads; client and server share the one CPU the benchmark is
pinned to (see :class:`common.Speed`).  A run starts several fresh
servers one after another (see :func:`run`) and has four phases:

1. **Streams (closed loop).**  One connection runs streams one at a
   time: a stream's ``open``, its ``push`` requests of 64-tick chunks
   and its ``close`` go out in one write, and the next stream starts
   when the ``close`` reply is in.  The server works flat out, so the
   round's wall time and each stream's verdict time move with what one
   pushed chunk costs the server (request decoding, the session queue,
   the streaming check).
2. **Corpus ops (closed loop).**  ``corpus`` requests over a 256-lane
   ``.rtrc`` per monitor, one outstanding at a time: the only user
   entry point that hands the planner wide batches.  Phases 1 and 2
   are interleaved, a stream round then a corpus op, so that each
   samples the whole span they share; the stream round and corpus op
   times and the stream verdict times are the gated figures.
3. **Fixed-rate streams (open loop).**  The same streams, but every
   push is sent on a fixed schedule whether or not earlier ones were
   acknowledged, and every ack is timed from the push's due time, so a
   stall shows in the latency of every push that waited behind it.
   How late the generator itself ran is recorded separately.
4. **Rate search.**  The open-loop traffic at a series of offered
   rates, the fixed-rate phase counting as the first: doubling while
   the p99 ack stays within the limit and no backlog builds, then
   bisecting between the best pass and the lowest failure.

The schedule fixes most of what phase 3 would show as throughput or
verdict time, and an ack is sent once a chunk is queued, before it is
checked; so phases 3 and 4 give only the ack latencies and the
sustainable rate, which are printed but not gated.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import List, Optional

import dataset
import oracle
from common import (ROOT, SPEED_INTERVAL_S, WORK, Speed, fresh_dir,
                    keep_going, median, pause_and_sample, percentile,
                    program_env, tail)

SERVE_CHARTS = ["ocp_simple_read", "ahb_transaction"]
CONNECTIONS = 2
#: Ticks per push: a typical bus-monitor flush, small enough that the
#: per-request path (JSON decode, session queue) dominates the kernel.
CHUNK_TICKS = 64
#: Ticks per stream: 32 pushes, so a verdict waits on many acks.
STREAM_TICKS = 2048
STREAMS_PER_CHART = 12
#: Offered rate of phase 3, ticks/s over both connections: a fraction
#: of what the server sustains at this chunk size (the rate search
#: result), so phase 3 reads latency at moderate load, not saturation.
FIXED_RATE = 50_000
#: p99 ack limit of the rate search.  Below capacity the p99 ack stays
#: at a few ms, but a shared two-vCPU host injects stall episodes of
#: up to ~25 ms; past capacity a backlog builds and acks reach
#: hundreds of ms.  50 ms sits between the two, so the search finds
#: the load knee rather than a passing stall.
ACK_LIMIT_MS = 50.0
#: Probes of the rate search after the fixed-rate phase, each with an
#: equal share of its time: two doublings and four bisections resolve
#: the knee to about 5%.
SEARCH_PROBES = 6
CORPUS_LANES = 256
CORPUS_TICKS = 4200
#: Shares of ``--seconds`` given to the closed-loop streams and corpus
#: ops (interleaved), the fixed-rate phase and the rate search, in the
#: order they run.
PHASE_SHARES = (0.7, 0.1, 0.2)
#: Fresh servers per run; ``setup_s`` is the median of their starts.
SERVERS = 5
#: Closed-loop cycles (a stream round and a corpus op per corpus) of a
#: traced run.
TRACED_CYCLES = 2


# -- the server process -----------------------------------------------------
class Server:
    """A running ``repro serve`` child, reaped with ``wait4`` on stop."""

    def __init__(self, argv: List[str], env: dict, speed: Speed):
        """Start the server; ``startup_s`` is the time until its banner
        line, at reference speed (sampled as :func:`common.run_program`
        does, the server in a process group of its own)."""
        loop_times = [speed.sample()]
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            start_new_session=True,
        )
        paused = 0.0
        while not select.select([self.process.stdout], [], [],
                                SPEED_INTERVAL_S)[0]:
            if time.perf_counter() - start > 120.0:
                break
            stop = time.perf_counter()
            if pause_and_sample(self.process.pid, speed, loop_times):
                raise RuntimeError("serve exited before listening")
            paused += time.perf_counter() - stop
        banner = self._read_line(timeout=0.0)
        self.startup_s = ((time.perf_counter() - start - paused)
                          * Speed.scale(loop_times + [speed.sample()]))
        # "serving N monitor(s) on HOST:PORT (...)"
        try:
            address = banner.split(" on ", 1)[1].split()[0]
            host, port = address.rsplit(":", 1)
            self.host, self.port = host, int(port)
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"serve did not start: {banner!r}")

    def _read_line(self, timeout: float) -> str:
        stream = self.process.stdout
        ready, _, _ = select.select([stream], [], [], timeout)
        if not ready:
            return ""
        return stream.readline().decode("utf-8", "replace").strip()

    def stop(self):
        """SIGINT (the server's clean shutdown); ``(rss_mb, cpu_s)``."""
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGINT)
        watchdog = threading.Timer(60.0, self.process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.process.pid, 0)
        finally:
            watchdog.cancel()
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.process.stdout.close()
        return usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def serve_argv(spec: str, launcher: Optional[List[str]] = None):
    command = ["serve", spec, *SERVE_CHARTS, "--port", "0"]
    if launcher is None:
        return ["-m", "repro", *command]
    return [*launcher, *command]


# -- the client ---------------------------------------------------------------
class StreamPlan:
    """Pre-encoded request lines of one stream on one connection."""

    __slots__ = ("stream", "open_line", "push_lines", "close_line",
                 "whole")

    def __init__(self, stream, stream_id: str):
        self.stream = stream
        self.open_line = _line({"op": "open", "stream": stream_id,
                                "monitor": stream.monitor})
        self.push_lines = [
            _line({"op": "push", "stream": stream_id,
                   "ticks": stream.ticks[i:i + CHUNK_TICKS]})
            for i in range(0, len(stream.ticks), CHUNK_TICKS)
        ]
        self.close_line = _line({"op": "close", "stream": stream_id})
        self.whole = b"".join([self.open_line, *self.push_lines,
                               self.close_line])


def _line(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


class PhaseStats:
    """What one stream phase measured (or one connection of it)."""

    def __init__(self, start: float):
        self.timed_acks: List[tuple] = []  # (due time, ack latency)
        self.verdicts: List[float] = []
        self.lags: List[float] = []
        self.ticks = 0
        self.start = start
        self.end = start
        self.ops = []  # failure lists, one per request answered

    @classmethod
    def merge(cls, parts, start: float) -> "PhaseStats":
        """One phase from its per-connection parts (each written by its
        own two threads only, so no counter is shared between threads)."""
        merged = cls(start)
        for part in parts:
            merged.timed_acks += part.timed_acks
            merged.verdicts += part.verdicts
            merged.lags += part.lags
            merged.ticks += part.ticks
            merged.end = max(merged.end, part.end)
            merged.ops += part.ops
        merged.timed_acks.sort()
        return merged

    @property
    def acks(self) -> List[float]:
        """Ack latencies in due-time order."""
        return [latency for _, latency in self.timed_acks]

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def delivered(self) -> float:
        return self.ticks / self.wall

    def passes(self) -> bool:
        """p99 ack within the limit, no backlog left at the end, and
        every request answered without error."""
        acks = self.acks
        if not acks or any(self.ops):
            return False
        limit = ACK_LIMIT_MS / 1000.0
        recent = acks[-max(1, len(acks) // 10):]
        return percentile(acks, 99) <= limit and median(recent) <= limit


class Connection:
    """One blocking client connection (newline-delimited JSON)."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.lines = self.sock.makefile("rb")

    def request(self, line: bytes) -> dict:
        """Closed loop: send one request, wait for its reply."""
        self.sock.sendall(line)
        return json.loads(self.lines.readline())

    def close(self) -> None:
        self.lines.close()
        self.sock.close()


def _produce(conn, plans, pending, t0, interval, duration, stats):
    """Send one connection's streams on schedule (a thread).

    ``time.sleep`` wakes within tens of microseconds of the due time,
    where an event loop's millisecond timer granularity would add its
    own lateness to every ack.
    """
    k = 0
    for i in range(10 ** 9):
        plan = plans[i % len(plans)]
        first_due = t0 + k * interval
        if first_due - t0 >= duration:
            break
        pending.append(("open", first_due, plan))
        _send_at(conn, plan.open_line, first_due)
        for j, line in enumerate(plan.push_lines):
            due = t0 + (k + j) * interval
            pending.append(("push", due, plan))
            stats.lags.append(_send_at(conn, line, due))
        pending.append(("close", first_due, plan))
        conn.sock.sendall(plan.close_line)
        k += len(plan.push_lines)
    pending.append(("end", 0.0, None))
    conn.sock.sendall(_line({"op": "ping"}))


def _send_at(conn, line: bytes, due: float) -> float:
    """Send ``line`` once ``due``; returns how late it went out."""
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    late = time.perf_counter() - due
    conn.sock.sendall(line)
    return late


def _consume(conn, pending, stats):
    """Time and check every reply of one connection (a thread)."""
    while True:
        line = conn.lines.readline()
        now = time.perf_counter()
        if not line:
            stats.ops.append(["connection closed by the server"])
            return
        kind, due, plan = pending.popleft()
        if kind == "end":
            return
        reply = json.loads(line)
        stats.end = now
        if kind == "push":
            stats.timed_acks.append((due, now - due))
            if reply.get("ok"):
                stats.ticks += reply["accepted"]
                stats.ops.append([])
            else:
                stats.ops.append([f"push refused: {reply}"])
        elif kind == "open":
            stats.ops.append([] if reply.get("ok") else
                             [f"open failed: {reply}"])
        else:
            stats.verdicts.append(now - due)
            stats.ops.append(oracle.check_stream(plan.stream, reply))


def _run_threads(threads) -> None:
    """Start and join the client threads of one phase."""
    # A thread woken by a reply must not wait out the default 5 ms
    # interpreter-lock switch interval behind another client thread.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
            if thread.is_alive():
                raise RuntimeError("serve phase did not finish")
    finally:
        sys.setswitchinterval(switch_interval)


def _run_streams(conn, plans, stats) -> None:
    """One connection's closed-loop streams, one at a time (a thread)."""
    for plan in plans:
        begin = time.perf_counter()
        conn.sock.sendall(plan.whole)
        replies = [conn.lines.readline()
                   for _ in range(len(plan.push_lines) + 2)]
        stats.end = time.perf_counter()
        if not replies[-1]:
            stats.ops.append(["connection closed by the server"])
            return
        opened, *pushed, closed = [json.loads(line) for line in replies]
        stats.ops.append([] if opened.get("ok") else
                         [f"open failed: {opened}"])
        for reply in pushed:
            if reply.get("ok"):
                stats.ticks += reply["accepted"]
                stats.ops.append([])
            else:
                stats.ops.append([f"push refused: {reply}"])
        stats.verdicts.append(stats.end - begin)
        stats.ops.append(oracle.check_stream(plan.stream, closed))


def stream_round(conn, plans) -> tuple:
    """Every stream plan once over ``conn``, one stream at a time:
    ``(PhaseStats, wall seconds)``.

    One connection only: with two, each stream's verdict time measured
    how its pushes interleaved with the other connection's on the
    server, which moved by 0.09-0.16 (interquartile range over median)
    from run to run against 0.04 with one.
    """
    begin = time.perf_counter()
    stats = PhaseStats(begin)
    _run_streams(conn, plans, stats)
    return stats, time.perf_counter() - begin


def closed_loop(conns, plans_by_conn, corpora, seconds: float,
                cycles: Optional[int] = None,
                speed: Optional[Speed] = None) -> dict:
    """Phases 1 and 2, interleaved so that each samples the whole span
    of ``seconds``.

    Segments run in the cyclic order stream round, ``corpus`` op on
    corpus 0, stream round, ``corpus`` op on corpus 1, ...; they repeat
    for ``seconds`` (at least one cycle) or for exactly ``cycles``
    cycles.  The speed is sampled after each segment, while the server
    is idle, and each segment is scaled to reference speed by the
    samples on either side of it (:class:`common.Speed`).

    Returns ``segments`` (per kind, ``"round"`` or a corpus index, the
    ``(raw, scaled)`` seconds of each segment), the scaled verdict time
    of every stream, the ticks acked and the failures of every op.
    """
    speed = speed or Speed()
    order = [kind for index in range(len(corpora))
             for kind in ("round", index)]
    segments = {kind: [] for kind in order}
    verdicts, checks, walls, ticks = [], [], [], 0
    started = time.perf_counter()
    samples = [speed.sample()]
    while (len(walls) < cycles * len(order) if cycles is not None
           else len(walls) < len(order)
           or keep_going(started, seconds, walls)):
        kind = order[len(walls) % len(order)]
        begin = time.perf_counter()
        if kind == "round":
            stats, elapsed = stream_round(conns[0], plans_by_conn[0])
        else:
            elapsed, failures = corpus_op(conns[kind % len(conns)],
                                          corpora[kind])
        walls.append(time.perf_counter() - begin)
        samples.append(speed.sample())
        scale = Speed.scale(samples[-2:])
        segments[kind].append((elapsed, elapsed * scale))
        if kind == "round":
            verdicts += [v * scale for v in stats.verdicts]
            checks += stats.ops
            ticks += stats.ticks
        else:
            checks.append(failures)
    return {"segments": segments, "verdicts": verdicts, "ticks": ticks,
            "checks": checks}


def stream_phase(conns, plans_by_conn, rate: float,
                 duration: float) -> PhaseStats:
    """Open-loop streaming at ``rate`` ticks/s over all connections.

    Streams start while their first push falls inside ``duration``;
    started streams run to their ``close``.  Each connection has a
    sending and a receiving thread, so a push never waits for an
    earlier ack.
    """
    interval = CHUNK_TICKS * len(conns) / rate
    t0 = time.perf_counter() + 0.01
    parts = [PhaseStats(t0) for _ in conns]
    threads = []
    for conn, plans, part in zip(conns, plans_by_conn, parts):
        pending = deque()
        threads.append(threading.Thread(target=_produce, args=(
            conn, plans, pending, t0, interval, duration, part)))
        threads.append(threading.Thread(target=_consume, args=(
            conn, pending, part)))
    _run_threads(threads)
    return PhaseStats.merge(parts, t0)


def rate_search(conns, plans_by_conn, budget: float, fixed: PhaseStats):
    """``(best passing phase or None, probes)`` of the rate search.

    The fixed-rate phase is the first probe.  The search doubles from
    there while probes pass, then bisects (geometrically) between the
    best pass and the lowest failure.
    """
    probe_s = budget / SEARCH_PROBES
    low = high = None  # best passing / lowest failing rate
    best = None
    if fixed.passes():
        low, best = float(FIXED_RATE), fixed
    else:
        high = float(FIXED_RATE)
    probes = []
    for _ in range(SEARCH_PROBES):
        if high is None:
            rate = 2 * low
        else:
            rate = math.sqrt((low or FIXED_RATE / 4) * high)
        stats = stream_phase(conns, plans_by_conn, rate, probe_s)
        probes.append((rate, stats))
        if stats.passes():
            low, best = rate, stats
        else:
            high = rate
    return best, probes


def corpus_op(conn, corpus) -> tuple:
    """One ``corpus`` request: ``(seconds, failures)``."""
    begin = time.perf_counter()
    reply = conn.request(_line({"op": "corpus", "path": corpus.path,
                                "monitor": corpus.monitor}))
    return time.perf_counter() - begin, oracle.check_corpus(corpus, reply)


def http_metrics(host: str, port: int) -> dict:
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return json.loads(b"".join(chunks).split(b"\r\n\r\n", 1)[1])


# -- the run ------------------------------------------------------------------
class ServeSession:
    """Inputs plus a set-up server, shared by traced and plain runs."""

    def __init__(self, seed: int):
        inputs = (SERVE_CHARTS, STREAMS_PER_CHART, STREAM_TICKS,
                  CORPUS_LANES, CORPUS_TICKS)
        dataset.prepare(seed, [dataset.SPEC_JOB,
                               dataset.serve_job(*inputs)])
        self.spec = dataset.spec(seed)
        self.streams, self.corpora = dataset.serve_inputs(seed, *inputs)
        self.native_dir = os.path.join(WORK, "native", "serve_mixed")
        # Each connection alternates the two monitors, starting from a
        # different one.
        by_monitor = [[s for s in self.streams if s.monitor == chart]
                      for chart in SERVE_CHARTS]
        interleaved = [s for group in zip(*by_monitor) for s in group]
        self.plans_by_conn = [
            [StreamPlan(stream, f"c{c}-s{i}") for i, stream in
             enumerate(interleaved[c:] + interleaved[:c])]
            for c in range(CONNECTIONS)
        ]

    def start(self, speed: Speed, launcher=None) -> tuple:
        """A fresh server (empty native cache), warmed: one ``corpus``
        op on every corpus, so that timed ops find the files loaded and
        the tables built.  ``(server, failures of the warm-up ops)``."""
        fresh_dir(self.native_dir)
        server = Server(serve_argv(self.spec, launcher),
                        program_env(self.native_dir), speed)
        conn = Connection(server.host, server.port)
        try:
            checks = [corpus_op(conn, corpus)[1] for corpus in self.corpora]
        finally:
            conn.close()
        return server, checks


def drive(session: ServeSession, server: Server, closed_s: float,
          fixed_s: float = 0.0, search_s: float = 0.0,
          cycles: Optional[int] = None, speed: Optional[Speed] = None):
    """The closed-loop phases against ``server`` (see
    :func:`closed_loop`), then the fixed-rate phase and the rate search
    when given time; a dict of what was measured."""
    conns = [Connection(server.host, server.port)
             for _ in range(CONNECTIONS)]
    fixed, best, probes = None, None, []
    try:
        closed = closed_loop(conns, session.plans_by_conn,
                             session.corpora, closed_s, cycles, speed)
        if fixed_s:
            fixed = stream_phase(conns, session.plans_by_conn,
                                 FIXED_RATE, fixed_s)
        if search_s:
            # Last: its overloaded probes leave the server's memory and
            # queues in a state no other phase should start from.
            best, probes = rate_search(conns, session.plans_by_conn,
                                       search_s, fixed)
        scraped = http_metrics(server.host, server.port)
    finally:
        for conn in conns:
            conn.close()
    checks = list(closed["checks"])
    for stats in ([fixed] if fixed else []) + [s for _, s in probes]:
        checks += stats.ops
    return {"closed": closed, "fixed": fixed, "best": best,
            "probes": probes, "checks": checks, "metrics": scraped}


def run(seed: int, seconds: float, result) -> None:
    """``SERVERS`` fresh servers one after another, each timed from
    start until it listens and then given an equal share of the
    closed-loop phases; the last also runs the fixed-rate phase and
    the rate search.  A server process fares a few percent better or
    worse than the next for the whole of its life (where its memory
    lands), so spreading the closed-loop samples over several servers
    keeps that out of the run's medians."""
    session = ServeSession(seed)
    speed = Speed()
    closed_s, fixed_s, search_s = (seconds * share
                                   for share in PHASE_SHARES)
    setup_times, closed, rss_mb = [], [], 0.0
    for index in range(SERVERS):
        server, warm_checks = session.start(speed)
        setup_times.append(server.startup_s)
        last = index == SERVERS - 1
        try:
            measured = drive(session, server, closed_s / SERVERS,
                             fixed_s if last else 0.0,
                             search_s if last else 0.0, speed=speed)
        finally:
            rss_mb = max(rss_mb, server.stop()[0])
        closed.append(measured["closed"])
        for failures in warm_checks + measured["checks"]:
            result.check(failures)

    segments = {kind: [pair for c in closed for pair in c["segments"][kind]]
                for kind in closed[0]["segments"]}
    verdicts = [v for c in closed for v in c["verdicts"]]
    ticks = sum(c["ticks"] for c in closed)
    fixed, best = measured["fixed"], measured["best"]
    verdict_tail, q = tail(verdicts)
    acks = fixed.acks
    rounds = len(segments["round"])
    corpus_rates = [corpus.total_ticks / scaled
                    for index, corpus in enumerate(session.corpora)
                    for _, scaled in segments[index]]
    result.metric("setup_s", median(setup_times), "s",
                  f"median of {len(setup_times)} server starts until "
                  f"listening {[round(t, 3) for t in setup_times]}")
    result.metric("wall_s", sum(median([scaled for _, scaled in pairs])
                                for pairs in segments.values()), "s",
                  f"one stream round ({len(session.plans_by_conn[0])} "
                  f"streams of {STREAM_TICKS} ticks, one at a time) and "
                  f"one corpus op per .rtrc, each at its median over "
                  f"{SERVERS} servers ({rounds} rounds); raw "
                  + "{:.3f} s".format(sum(median([raw for raw, _ in pairs])
                                          for pairs in segments.values())))
    result.metric("verdict_p50_s", median(verdicts), "s",
                  f"n={len(verdicts)} closed-loop streams, open sent to "
                  "close reply")
    result.metric("peak_rss_mb", rss_mb, "MB", "largest server process")
    result.report("verdict_tail_s", verdict_tail, "s",
                  f"p{q:g} of n={len(verdicts)}")
    result.report("ticks_per_s", ticks / sum(verdicts), "ticks/s",
                  f"{ticks} ticks acked in closed-loop streams, one at a "
                  "time")
    result.report("corpus_ticks_per_s", median(corpus_rates), "ticks/s",
                  f"median of {len(corpus_rates)} warm corpus ops of "
                  f"{CORPUS_LANES} lanes x {CORPUS_TICKS} ticks")
    result.report("ack_p50_ms", 1000 * median(acks), "ms",
                  f"n={len(acks)} pushes at {FIXED_RATE} ticks/s offered, "
                  "timed from due time")
    result.report("ack_p90_ms", 1000 * percentile(acks, 90), "ms")
    result.report("ack_p99_ms", 1000 * percentile(acks, 99), "ms",
                  f"{sum(1 for a in acks if a > percentile(acks, 99))} "
                  f"beyond; max {1000 * max(acks):.3f} ms")
    if best is None:
        # No probe met the limit: report the lowest rate tried.
        result.notes.append("rate search: no offered rate met the "
                            f"{ACK_LIMIT_MS:g} ms p99 ack limit")
        best = min(measured["probes"], key=lambda p: p[0])[1]
    probes = [(FIXED_RATE, fixed)] + measured["probes"]
    result.report("max_rate_ticks_per_s", best.delivered, "ticks/s",
                  "probes " + ", ".join(
                      f"{rate / 1000:.0f}k:{'ok' if s.passes() else 'x'}"
                      f"(p99 {1000 * percentile(s.acks, 99):.1f} ms)"
                      for rate, s in probes))
    result.notes.append(
        "generator lag: " + (f"p50 {1000 * median(fixed.lags):.3f} ms, "
                             f"max {1000 * max(fixed.lags):.3f} ms"))
