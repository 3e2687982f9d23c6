"""CESC — Clocked Event Sequence Charts.

The paper's visual specification language.  An :class:`~repro.cesc.ast.SCESC`
(Single Clocked Event Sequence Chart) is the atomic chart: instances,
clock grid lines (ticks), guarded events and causality arrows.
Composite charts (:mod:`repro.cesc.charts`) add the paper's structural
constructs — sequential/parallel composition, alternative, loop,
implication, and asynchronous (multi-clock) parallel composition.

Charts can be built three ways:

* the fluent builder API (:mod:`repro.cesc.builder`);
* the textual DSL (:mod:`repro.cesc.parser`);
* direct AST construction (:mod:`repro.cesc.ast`).

:mod:`repro.cesc.validate` checks well-formedness before synthesis.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.cesc.ast": (
        "ENV", "CausalityArrow", "Clock", "EventOccurrence", "Instance",
        "SCESC", "Tick",
    ),
    "repro.cesc.builder": ("ev", "scesc"),
    "repro.cesc.charts": (
        "Alt", "AsyncPar", "Chart", "CrossArrow", "Implication", "Loop", "Par",
        "ScescChart", "Seq",
    ),
    "repro.cesc.parser": ("parse_cesc",),
    "repro.cesc.validate": ("validate_chart", "validate_scesc"),
})

__all__ = [
    "Alt",
    "AsyncPar",
    "CausalityArrow",
    "Chart",
    "Clock",
    "CrossArrow",
    "ENV",
    "EventOccurrence",
    "Implication",
    "Instance",
    "Loop",
    "Par",
    "SCESC",
    "ScescChart",
    "Seq",
    "Tick",
    "ev",
    "parse_cesc",
    "scesc",
    "validate_chart",
    "validate_scesc",
]
