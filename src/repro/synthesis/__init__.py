"""Monitor synthesis: the paper's ``Tr`` algorithm and its variants.

* :mod:`repro.synthesis.pattern` — ``extract_pattern`` and the
  flattening of composite charts into pattern alternatives;
* :mod:`repro.synthesis.transition` — ``compute_transition_func``, the
  KMP-style transition table over Boolean-expression patterns;
* :mod:`repro.synthesis.causality` — ``add_causality_check``: the
  scoreboard ``Add_evt``/``Chk_evt``/``Del_evt`` discipline;
* :mod:`repro.synthesis.tr` — the main paper-faithful construction
  producing a :class:`~repro.monitor.automaton.Monitor`;
* :mod:`repro.synthesis.symbolic` — guard grouping + Quine–McCluskey
  minimisation, recovering the figure-style symbolic monitors;
* :mod:`repro.synthesis.subset` — the exact ``Sigma* . L`` detector via
  subset construction (reference oracle);
* :mod:`repro.synthesis.compose` — synthesis for composite charts
  (Seq/Par/Alt/Loop/Implication) via pattern algebra and monitor banks;
* :mod:`repro.synthesis.multiclock` — local-monitor networks for
  asynchronous (multi-clock) compositions.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.synthesis.compose": ("MonitorBank", "synthesize_chart"),
    "repro.synthesis.multiclock": ("synthesize_network",),
    "repro.synthesis.pattern": (
        "FlatArrow", "FlatPattern", "extract_pattern", "flatten_chart",
    ),
    "repro.synthesis.subset": ("SubsetMonitor",),
    "repro.synthesis.symbolic": ("symbolic_monitor",),
    "repro.synthesis.tr": ("synthesize_monitor",),
})

# ``tr`` names both a submodule and the function it exports.  The first
# import of the submodule binds the package attribute to the module,
# which would hide a lazy export, so the function is bound eagerly.
from repro.synthesis.tr import tr  # noqa: E402

__all__ = [
    "FlatArrow",
    "FlatPattern",
    "MonitorBank",
    "SubsetMonitor",
    "extract_pattern",
    "flatten_chart",
    "symbolic_monitor",
    "synthesize_chart",
    "synthesize_monitor",
    "synthesize_network",
    "tr",
]
