"""Formal analyses: spec consistency, the correctness theorem, coverage.

* :mod:`repro.analysis.consistency` — semantic lint of charts
  (unsatisfiable/tautological grid lines, degenerate arrows, ...);
* :mod:`repro.analysis.equivalence` — machinery for checking the
  paper's result ``[[C]] = Sigma* . L(M) . Sigma^w``: exhaustive
  small-alphabet language comparison, product-automaton equivalence of
  the ``Tr`` monitor against the exact subset detector, and sampled
  agreement on larger alphabets;
* :mod:`repro.analysis.coverage` — monitor state/transition coverage
  accumulated from simulation runs.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.analysis.consistency": ("Finding", "check_consistency"),
    "repro.analysis.coverage": ("CoverageCollector",),
    "repro.analysis.equivalence": (
        "detectors_equivalent", "exhaustive_theorem_check",
        "sampled_theorem_check",
    ),
})

__all__ = [
    "CoverageCollector",
    "Finding",
    "check_consistency",
    "detectors_equivalent",
    "exhaustive_theorem_check",
    "sampled_theorem_check",
]
