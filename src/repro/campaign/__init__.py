"""Coverage-directed test campaigns over synthesized monitors.

The campaign engine turns a monitor from a passive observer into a
test *oracle that writes its own tests*:

* :mod:`repro.campaign.directed` — graph search over the automaton
  synthesizing shortest accepting / violating / edge-targeting traces,
  each with exact predicted detection ticks;
* :mod:`repro.campaign.closure` — the coverage-closure loop: random
  seeds, then directed traces at every never-taken edge until
  state/transition coverage hits target or a budget expires;
* :mod:`repro.campaign.faults` — fault-mutation campaigns: one
  predicted violation per tick of the scenario spine, plus random
  single-fault mutants, executed in batches and checked against their
  predictions.

Exposed on the CLI as ``repro campaign``.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.campaign.closure": (
        "CampaignReport", "CorpusEntry", "CoverageCampaign",
    ),
    "repro.campaign.directed": ("DirectedTrace", "StimulusSynthesizer"),
    "repro.campaign.faults": (
        "FaultMutationCampaign", "FaultReport", "FaultTrial",
    ),
})

__all__ = [
    "CampaignReport",
    "CorpusEntry",
    "CoverageCampaign",
    "DirectedTrace",
    "FaultMutationCampaign",
    "FaultReport",
    "FaultTrial",
    "StimulusSynthesizer",
]
