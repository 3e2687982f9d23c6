"""Hand-written monitors: the manual-development baseline of Figure 4.

The paper motivates automated synthesis by the cost and error-proneness
of writing monitors by hand.  These checkers are written the way a
verification engineer would write them in a native language — explicit
state variables, if/else ladders — and come in a *correct* and a
*buggy* variant each.  The buggy variants contain realistic slips
(an off-by-one phase check, a forgotten re-arm) that the flow benchmark
exposes by differencing against the synthesized monitor.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.baselines.manual.amba_manual": (
        "ManualAhbMonitor", "ManualAhbMonitorBuggy",
    ),
    "repro.baselines.manual.ocp_manual": (
        "ManualOcpBurstMonitor", "ManualOcpReadMonitor",
        "ManualOcpReadMonitorBuggy",
    ),
})

__all__ = [
    "ManualAhbMonitor",
    "ManualAhbMonitorBuggy",
    "ManualOcpBurstMonitor",
    "ManualOcpReadMonitor",
    "ManualOcpReadMonitorBuggy",
]
