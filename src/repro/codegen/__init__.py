"""Code generation: rendering synthesized monitors to target languages.

* :mod:`repro.codegen.verilog` — synthesizable Verilog FSM with
  scoreboard counters (co-simulated against the Python engine by the
  :mod:`repro.hdl` substrate);
* :mod:`repro.codegen.sva` — SystemVerilog Assertions (sequence +
  cover/assert property) from charts;
* :mod:`repro.codegen.psl` — PSL (the paper's PSL/Sugar reference
  point);
* :mod:`repro.codegen.python_gen` — a dependency-free standalone
  Python checker module.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.codegen.psl": ("chart_to_psl",),
    "repro.codegen.python_gen": ("monitor_to_python",),
    "repro.codegen.sva": ("chart_to_sva",),
    "repro.codegen.verilog": ("VerilogMonitor", "monitor_to_verilog"),
})

__all__ = [
    "VerilogMonitor",
    "chart_to_psl",
    "chart_to_sva",
    "monitor_to_python",
    "monitor_to_verilog",
]
