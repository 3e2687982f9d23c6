"""Shared differential-test harness.

Every codegen backend — the generated standalone Python checkers and
the native C table-stepper — is pinned to the same contract: verdict
and detection-tick identity against the interpreted reference on the
AMBA/OCP/random fixtures.  The fixture charts, the mixed trace
generator and the identity assertion live here once, exposed through
the ``diff_harness`` fixture, so the Python-codegen suite
(``tests/codegen``) and the native-backend suite (``tests/runtime``)
cannot drift apart in what they prove.

The ``vector_kernel`` fixture is the one switch every dual-mode suite
(vector, engine matrix, columnar) pins the vector kernel's NumPy or
pure-Python leg with.
"""

import importlib.util
import os
import random

import pytest

from repro.cesc.builder import ev, scesc
from repro.cesc.charts import ScescChart
from repro.monitor.engine import run_monitor
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.semantics.generator import TraceGenerator
from repro.semantics.run import Trace


def _random_chart(seed: int):
    rng = random.Random(seed)
    n_ticks = rng.randint(2, 4)
    builder = scesc(f"diff_fuzz_{seed}").instances("A", "B")
    events_by_tick = []
    for tick in range(n_ticks):
        names = [f"e{tick}_{i}" for i in range(rng.randint(1, 2))]
        events_by_tick.append(names)
        builder = builder.tick(*[ev(name) for name in names])
    for arrow in range(rng.randint(0, 2)):
        cause_tick = rng.randrange(n_ticks - 1)
        effect_tick = rng.randrange(cause_tick + 1, n_ticks)
        builder = builder.arrow(
            f"arr{arrow}",
            cause=rng.choice(events_by_tick[cause_tick]),
            effect=rng.choice(events_by_tick[effect_tick]),
        )
    return builder.build()


class DiffHarness:
    """The reference side of every codegen differential suite."""

    CHARTS = {
        "ocp_simple": ocp_simple_read_chart,
        "ocp_burst": ocp_burst_read_chart,
        "amba_ahb": ahb_transaction_chart,
        "random_a": lambda: _random_chart(11),
        "random_b": lambda: _random_chart(57),
        "random_c": lambda: _random_chart(301),
    }

    @staticmethod
    def chart(which):
        return DiffHarness.CHARTS[which]()

    @staticmethod
    def traces(chart, count, seed, include_empty=True):
        """The standard mix: satisfying, random noise, violating."""
        generator = TraceGenerator(ScescChart(chart), seed=seed)
        traces = []
        for index in range(count):
            kind = index % 3
            if kind == 0:
                traces.append(generator.satisfying_trace(
                    prefix=index % 3, suffix=(index // 3) % 3
                ))
            elif kind == 1:
                traces.append(generator.random_trace(4 + index % 20))
            else:
                traces.append(generator.violating_window())
        if include_empty:
            traces.append(Trace([], chart.alphabet()))
        return traces

    @staticmethod
    def reference(monitor, traces):
        """Interpreted-engine results: the semantics every backend
        must reproduce exactly."""
        return [run_monitor(monitor, trace) for trace in traces]

    @staticmethod
    def assert_identity(reference, results, states=True):
        """Verdict + detection-tick (+ state-history) identity."""
        assert len(reference) == len(results)
        for ref, got in zip(reference, results):
            assert got.detections == ref.detections
            assert got.ticks == ref.ticks
            assert got.accepted == ref.accepted
            if states:
                assert got.states == ref.states


@pytest.fixture(scope="session")
def diff_harness():
    return DiffHarness


class KernelMode(str):
    """A vector-kernel leg (``"numpy"``/``"fallback"``) and its spies.

    Compares equal to its name; ``runs`` counts the batches each leg
    of :func:`repro.runtime.vector.run_many_vector_encoded` ran.
    """

    def __new__(cls, name):
        mode = super().__new__(cls, name)
        mode.runs = {"numpy": 0, "fallback": 0}
        return mode


@pytest.fixture
def vector_kernel(monkeypatch):
    """Factory pinning the vector kernel to one leg for a test.

    ``"fallback"`` sets ``vector._np = None``; ``"numpy"`` loads NumPy
    through the kernel's own loader, and skips only when NumPy is not
    installed or ``REPRO_NO_NUMPY`` masks it.  Both legs are wrapped in
    counting spies, and at teardown the other leg must not have run: a
    loader that routed "NumPy" batches to the pure-Python kernel fails
    here instead of passing silently.
    """
    from repro.runtime import vector

    modes = []

    def pin(name):
        if name == "fallback":
            monkeypatch.setattr(vector, "_np", None)
        elif (os.environ.get("REPRO_NO_NUMPY")
              or importlib.util.find_spec("numpy") is None):
            pytest.skip("NumPy not installed; only the fallback mode runs")
        else:
            assert vector._numpy() is not None, "NumPy installed but not loaded"
        mode = KernelMode(name)
        for leg, attr in (("numpy", "_run_numpy"),
                          ("fallback", "_run_fallback")):
            def spy(*args, _leg=leg, _run=getattr(vector, attr), **kwargs):
                mode.runs[_leg] += 1
                return _run(*args, **kwargs)

            monkeypatch.setattr(vector, attr, spy)
        modes.append(mode)
        return mode

    yield pin
    for mode in modes:
        other = "fallback" if mode == "numpy" else "numpy"
        assert mode.runs[other] == 0, (
            f"{mode} mode ran {mode.runs[other]} {other} batch(es)"
        )
