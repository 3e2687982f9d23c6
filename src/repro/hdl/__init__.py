"""Verilog-subset front end and cycle simulator.

The co-simulation substrate: parses the synthesizable Verilog the
codegen emits (module / port declarations / reg / wire / assign /
``always @(posedge ...)`` with if-else, case, non-blocking assignments,
sized literals and the usual operators) and simulates it cycle by
cycle, so generated RTL monitors can be checked for bit-exact
equivalence against the Python engine without an external simulator.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.hdl.ast": (
        "AlwaysBlock", "Assign", "BinaryOp", "CaseItem", "CaseStmt", "Concat",
        "Conditional", "Identifier", "IfStmt", "Module", "NetDecl",
        "NonBlockingAssign", "Number", "Port", "UnaryOp",
    ),
    "repro.hdl.parser": ("parse_verilog",),
    "repro.hdl.sim": ("VerilogSim",),
})

__all__ = [
    "AlwaysBlock",
    "Assign",
    "BinaryOp",
    "CaseItem",
    "CaseStmt",
    "Concat",
    "Conditional",
    "Identifier",
    "IfStmt",
    "Module",
    "NetDecl",
    "NonBlockingAssign",
    "Number",
    "Port",
    "UnaryOp",
    "VerilogSim",
    "parse_verilog",
]
