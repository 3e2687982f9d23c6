"""Clocked (GALS) simulation substrate hosting protocol models + monitors.

The paper's monitors run inside a simulation environment (Figure 4).
This package is that substrate: a cycle-based, multi-clock discrete
"event" kernel with two-phase signal semantics, VCD waveform output,
and a testbench harness that samples signals into the valuation traces
monitors consume.

* :mod:`repro.sim.signal` — signals with staged writes and one-tick
  pulses (events);
* :mod:`repro.sim.kernel` — the simulator: clocks, leveled processes
  (sequential then combinational), global-time ordering of GALS ticks;
* :mod:`repro.sim.vcd` — VCD waveform writer;
* :mod:`repro.sim.testbench` — trace recording, online monitor/checker
  attachment, network hookup for multi-clock designs.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.sim.kernel": ("Simulator",),
    "repro.sim.signal": ("Signal",),
    "repro.sim.testbench": ("Testbench", "TraceRecorder"),
    "repro.sim.vcd": ("VcdWriter",),
})

__all__ = ["Signal", "Simulator", "Testbench", "TraceRecorder", "VcdWriter"]
