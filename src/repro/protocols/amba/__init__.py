"""AMBA AHB Cycle-Level-Interface (CLI) models and chart (Figure 8).

The paper's third case study: the master/bus transaction sequence of
AHB CLI specification p.23, ten interface events grouped on three grid
lines with causality arrows on the transaction-start and data-phase
events.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.protocols.amba.charts": ("AHB_EVENTS", "ahb_transaction_chart"),
    "repro.protocols.amba.models": ("AhbBus", "AhbMaster", "AhbSignals"),
})

__all__ = [
    "AHB_EVENTS",
    "AhbBus",
    "AhbMaster",
    "AhbSignals",
    "ahb_transaction_chart",
]
