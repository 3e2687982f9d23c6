"""Formal semantics of CESC: states, runs, and chart denotations.

The paper defines a *state* as a truth assignment over ``PROP`` and
``EVENTS`` and a *run* as a map from clock ticks to states.  A chart
denotes the set of runs containing a finite window in which events
occur as the chart specifies — see Figure 3's semantic mapping.

* :mod:`repro.semantics.state` — states and their valuation view;
* :mod:`repro.semantics.run` — finite traces, single- and multi-clock
  runs, global-run construction (union of component clock ticks);
* :mod:`repro.semantics.denotation` — window-matching and the run
  satisfaction relation ``r |= C`` for all chart constructs;
* :mod:`repro.semantics.generator` — random/satisfying/violating trace
  generation for tests and benchmarks.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.semantics.denotation": (
        "chart_window_lengths", "matches_window", "run_satisfies",
        "satisfying_windows",
    ),
    "repro.semantics.generator": ("TraceGenerator",),
    "repro.semantics.run": ("GlobalRun", "GlobalTick", "Trace"),
    "repro.semantics.state": ("State",),
})

__all__ = [
    "GlobalRun",
    "GlobalTick",
    "State",
    "Trace",
    "TraceGenerator",
    "chart_window_lengths",
    "matches_window",
    "run_satisfies",
    "satisfying_windows",
]
