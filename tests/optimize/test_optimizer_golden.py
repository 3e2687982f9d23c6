"""Golden pin of the optimizer's output on the protocol fixtures.

The optimizer's stages tabulate guards bit-parallel and merge prime
implicants by partner lookup; any change there must leave what they
*produce* untouched.  Each digest is the sha256 of the newline-joined
transition reprs of a stage's monitor (or of ``repr`` of the compiled
dense table) for one fixture chart.  Reprs, not pickle bytes: pickles
embed frozenset iteration order, which varies with ``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro.monitor.minimize import minimize_monitor
from repro.optimize import optimize_monitor
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.synthesis.symbolic import symbolic_monitor
from repro.synthesis.tr import tr

_CHARTS = {
    "ocp_simple_read": ocp_simple_read_chart,
    "ahb_transaction": ahb_transaction_chart,
    "ocp_burst_read": ocp_burst_read_chart,
}

_GOLDEN = {
    "ocp_simple_read": {
        "minimize": "c33084f18f4181ff196102cbfa4d7001"
                    "da24ae41b170bf089d61a180a88165fd",
        "symbolic": "0407c38022ddea955c2fa0033fca289d"
                    "b951467f4913108f17a8f3c30f505fb7",
        "optimize": "ea03202ca716454ed7b26a0e0a3f991b"
                    "fae4fee02e45511a0d589cdadd23f7dc",
        "table": "3b7fb3855bd2ee4f44a17a07f7b77ae5"
                 "4f00550e8931c68c00376752c7915baa",
    },
    "ahb_transaction": {
        "minimize": "da1dda7ed9d988e8abc4b05e8c916c56"
                    "200753303a2646ba27e0a85eaa722458",
        "symbolic": "d767a98961648139a4dca96046d37eeb"
                    "8d8a8e54f24f008c5a68573726215535",
        "optimize": "a1ae94f378566905c9ab47fcd177f20f"
                    "8c462541dd52b22f6cc3b0b07c05d27a",
        "table": "9fff43889186cc21a6063a20a74f5609"
                 "7b2e0ef761a889a0afd1ed376beb4856",
    },
    "ocp_burst_read": {
        "minimize": "ec32097deaa44d4c46110e11e5690eaf"
                    "65f0fdc8db1a988f70a0b9023091da46",
        "symbolic": "38224b58babded033ca51b516e8b01be"
                    "4ed22e6346285f1e937d289b00901463",
        "optimize": "49c44564e60b270a6484bbe9fd073fb9"
                    "6d931fe38421cb740fdf089c28607a84",
        "table": "9e3b01ca5bc3a9d9be1fd63e0b256b72"
                 "bc1f9836ff6279e877a4b58529f9c382",
    },
}


def _transitions_digest(monitor) -> str:
    text = "\n".join(repr(t) for t in monitor.transitions)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_CHARTS))
def test_optimizer_output_is_pinned(name):
    monitor = tr(_CHARTS[name]())
    optimized = optimize_monitor(monitor)
    digests = {
        "minimize": _transitions_digest(minimize_monitor(monitor)),
        "symbolic": _transitions_digest(symbolic_monitor(monitor)),
        "optimize": _transitions_digest(optimized.monitor),
        "table": hashlib.sha256(
            repr(optimized.compiled.table).encode()
        ).hexdigest(),
    }
    assert digests == _GOLDEN[name]
