"""Comparison baselines for the monitor-synthesis evaluation.

The paper positions CESC synthesis against two alternatives:

* *temporal-logic monitor generation* ([17] Geilen, [18] FoCs): we
  provide an LTL engine with finite-trace (LTLf) semantics, a
  CESC-to-LTL translator, and a formula-progression monitor
  construction (:mod:`repro.baselines.ltl`, :mod:`.ltl_monitor`,
  :mod:`.cesc_to_ltl`);
* *manual monitor development*: hand-written checkers for the OCP and
  AMBA scenarios, including a deliberately buggy variant standing in
  for the error-prone manual flow the paper motivates
  (:mod:`repro.baselines.manual`).

:mod:`repro.baselines.naive` is the ablation baseline: window matching
without the KMP-style transition function.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.baselines.cesc_to_ltl": ("scesc_to_ltl",),
    "repro.baselines.ltl": (
        "Always", "Atom", "Eventually", "LtlAnd", "LtlFormula", "LtlNot",
        "LtlOr", "Next", "Until", "parse_ltl",
    ),
    "repro.baselines.ltl_monitor": ("LtlProgressionMonitor",),
    "repro.baselines.naive": ("NaiveWindowMonitor",),
})

__all__ = [
    "Always",
    "Atom",
    "Eventually",
    "LtlAnd",
    "LtlFormula",
    "LtlNot",
    "LtlOr",
    "LtlProgressionMonitor",
    "NaiveWindowMonitor",
    "Next",
    "Until",
    "parse_ltl",
    "scesc_to_ltl",
]
