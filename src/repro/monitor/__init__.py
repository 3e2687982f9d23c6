"""Monitor automata: the synthesized assertion monitors and their runtime.

The paper defines a monitor as a 5-tuple ``<Q, Sigma, delta, s0, sf>``
whose transitions carry a guard expression and a scoreboard action, and
whose runs from initial to final state accept exactly the windows in
which the specified scenario occurs.

* :mod:`repro.monitor.scoreboard` — the dynamic scoreboard (a multiset
  of recorded event occurrences) with ``Add_evt``/``Del_evt``/``Chk_evt``;
* :mod:`repro.monitor.automaton` — monitors, transitions and actions;
* :mod:`repro.monitor.engine` — stepping a monitor over a trace,
  recording detections (visits to the final state);
* :mod:`repro.monitor.checker` — assertion-checker semantics
  (pass/fail verdicts for implication charts, overlapping obligations);
* :mod:`repro.monitor.network` — multi-clock monitor networks sharing
  one scoreboard (the paper's local-monitor composition);
* :mod:`repro.monitor.minimize` — DFA minimisation for action-free
  monitors;
* :mod:`repro.monitor.dot` / :mod:`repro.monitor.stats` — export and
  size metrics.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.monitor.automaton": (
        "AddEvt", "DelEvt", "Monitor", "NULL_ACTION", "NullAction",
        "Transition",
    ),
    "repro.monitor.checker": ("AssertionChecker", "Obligation", "Verdict"),
    "repro.monitor.engine": ("MonitorEngine", "MonitorResult", "run_monitor"),
    "repro.monitor.network": ("MonitorNetwork", "NetworkResult"),
    "repro.monitor.scoreboard": ("Scoreboard",),
})

__all__ = [
    "AddEvt",
    "AssertionChecker",
    "DelEvt",
    "Monitor",
    "MonitorEngine",
    "MonitorNetwork",
    "MonitorResult",
    "NULL_ACTION",
    "NetworkResult",
    "NullAction",
    "Obligation",
    "Scoreboard",
    "Transition",
    "Verdict",
    "run_monitor",
]
