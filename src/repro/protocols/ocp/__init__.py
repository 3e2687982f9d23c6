"""Open Core Protocol (OCP) models and charts.

Covers the two OCP scenarios the paper synthesizes monitors for:

* the simple read (OCP specification v1.0 p.44 — Figure 6): a request
  grid line ``MCmd_rd & Addr & SCmd_accept`` followed by a response
  grid line ``SResp & SData``;
* the pipelined burst-of-4 read (p.49 — Figure 7): four back-to-back
  read commands with decreasing burst counts, responses streaming in
  while later commands issue, tracked on the scoreboard as a multiset.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.protocols.ocp.charts": (
        "OCP_EVENTS", "ocp_burst_read_chart", "ocp_simple_read_chart",
    ),
    "repro.protocols.ocp.master": ("OcpMaster",),
    "repro.protocols.ocp.signals": ("OcpSignals",),
    "repro.protocols.ocp.slave": ("OcpSlave",),
})

__all__ = [
    "OCP_EVENTS",
    "OcpMaster",
    "OcpSignals",
    "OcpSlave",
    "ocp_burst_read_chart",
    "ocp_simple_read_chart",
]
