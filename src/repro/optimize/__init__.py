"""Monitor optimization: shrink automata before the compiled runtime.

The pipeline (:func:`optimize_monitor` / :func:`optimize_compiled`)
composes three behaviour-preserving passes attacking the paper's
``O((n+1) * 2^|Sigma|)`` table bound from every side:

* **scoreboard-aware minimisation** — the ``n + 1`` state factor
  (:func:`~repro.monitor.minimize.minimize_monitor`, Mealy-extended);
* **alphabet pruning** — the ``2^|Sigma|`` width factor
  (:mod:`repro.optimize.prune`);
* **table compaction** — the constant factor
  (:mod:`repro.optimize.compact`, sparse default-cell rows), applied
  only when it shrinks the serialized payload;
* **ladder hardening** — first-match dispatch and floor collapse for
  check ladders proven deterministic (:mod:`repro.optimize.ladders`).

``MonitorBank``/``MonitorNetwork``/``AssertionChecker`` expose the
pipeline via their ``optimize=`` knob, the CLI via ``--optimize``.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.optimize.compact": (
        "compact_monitor", "compact_row", "compaction_stats",
    ),
    "repro.optimize.ladders": ("harden_ladders", "prove_first_match"),
    "repro.optimize.pipeline": (
        "OptimizationResult", "as_optimized", "optimize_compiled",
        "optimize_monitor",
    ),
    "repro.optimize.prune": (
        "prune_compiled", "prune_monitor", "used_symbols",
        "used_symbols_compiled",
    ),
})

__all__ = [
    "OptimizationResult",
    "as_optimized",
    "compact_monitor",
    "compact_row",
    "compaction_stats",
    "harden_ladders",
    "optimize_compiled",
    "optimize_monitor",
    "prove_first_match",
    "prune_compiled",
    "prune_monitor",
    "used_symbols",
    "used_symbols_compiled",
]
