"""repro — Automated synthesis of assertion monitors from visual specs.

A full reimplementation of Gadkari & Ramesh, *Automated Synthesis of
Assertion Monitors using Visual Specifications* (DATE 2005): the CESC
visual specification language, its formal semantics, the ``Tr`` monitor
synthesis algorithm with its scoreboard-based causality discipline,
multi-clock (GALS) monitor networks, and the surrounding verification
flow — protocol models, a clocked simulation substrate, HDL code
generation with a Verilog-subset co-simulator, and temporal-logic /
manual baselines.

Quickstart::

    from repro import ev, scesc, tr, run_monitor, Trace

    chart = (
        scesc("handshake").instances("M", "S")
        .tick(ev("req", src="M", dst="S"))
        .tick(ev("ack", src="S", dst="M"))
        .arrow("done", cause="req", effect="ack")
        .build()
    )
    monitor = tr(chart)                      # the paper's algorithm
    trace = Trace.from_sets([{"req"}, {"ack"}], alphabet={"req", "ack"})
    print(run_monitor(monitor, trace).detections)   # -> [1]

See README.md for the architecture tour and DESIGN.md for the paper
mapping.
"""

import importlib
import sys


def _lazy_exports(package: str, modules: dict) -> None:
    """Make ``package`` re-export names on first access (PEP 562).

    ``modules`` maps each defining module to the names the package
    re-exports from it.  The package gains ``_EXPORTS``, the flat
    ``name -> (module, attr)`` table, plus a module ``__getattr__``
    that imports the defining module when one of its names is first
    read (and caches the value in the package namespace) and a
    ``__dir__`` that lists the table.  A process therefore loads only
    the modules whose names it uses: ``import repro`` loads no
    submodule at all.
    """
    namespace = sys.modules[package].__dict__
    table = {name: (module, name)
             for module, names in modules.items() for name in names}

    def __getattr__(name):
        try:
            module, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), attr)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(table))

    namespace.update(_EXPORTS=table, __getattr__=__getattr__,
                     __dir__=__dir__)


_lazy_exports(__name__, {
    "repro.campaign.closure": ("CoverageCampaign",),
    "repro.campaign.directed": ("DirectedTrace", "StimulusSynthesizer"),
    "repro.campaign.faults": ("FaultMutationCampaign",),
    "repro.cesc.ast": (
        "SCESC", "CausalityArrow", "Clock", "EventOccurrence", "Tick",
    ),
    "repro.cesc.builder": ("ev", "scesc"),
    "repro.cesc.charts": (
        "Alt", "AsyncPar", "Chart", "CrossArrow", "Implication", "Loop",
        "Par", "ScescChart", "Seq",
    ),
    "repro.cesc.parser": ("parse_cesc",),
    "repro.cesc.validate": ("validate_chart", "validate_scesc"),
    "repro.logic.codec": ("AlphabetCodec",),
    "repro.logic.expr": (
        "And", "EventRef", "Expr", "Not", "Or", "PropRef", "ScoreboardCheck",
    ),
    "repro.logic.parser": ("parse_expr",),
    "repro.logic.valuation": ("Valuation",),
    "repro.monitor.automaton": ("AddEvt", "DelEvt", "Monitor", "Transition"),
    "repro.monitor.checker": ("AssertionChecker", "Verdict"),
    "repro.monitor.engine": ("MonitorEngine", "MonitorResult", "run_monitor"),
    "repro.monitor.network": ("MonitorNetwork",),
    "repro.monitor.scoreboard": ("Scoreboard",),
    "repro.optimize.pipeline": (
        "OptimizationResult", "optimize_compiled", "optimize_monitor",
    ),
    "repro.runtime.compiled": (
        "CompiledEngine", "CompiledMonitor", "compile_monitor",
        "run_compiled", "run_many",
    ),
    "repro.runtime.vector": ("VectorEngine", "run_many_vector"),
    "repro.semantics.generator": ("TraceGenerator",),
    "repro.semantics.run": ("GlobalRun", "Trace"),
    "repro.synthesis.compose": ("MonitorBank", "synthesize_chart"),
    "repro.synthesis.multiclock": ("synthesize_network",),
    "repro.synthesis.subset": ("SubsetMonitor",),
    "repro.synthesis.symbolic": ("symbolic_monitor",),
    "repro.synthesis.tr": (
        "synthesize_compiled", "synthesize_monitor", "tr", "tr_compiled",
    ),
    "repro.trace.bridge": ("trace_to_vcd",),
    "repro.trace.shard": ("run_bank_sharded", "run_sharded"),
    "repro.trace.streaming": ("StreamReport", "StreamingChecker"),
    "repro.trace.vcd_reader": ("SignalBinding", "VcdReader"),
})

__version__ = "1.0.0"

__all__ = [
    "AddEvt",
    "AlphabetCodec",
    "Alt",
    "And",
    "AssertionChecker",
    "AsyncPar",
    "CausalityArrow",
    "Chart",
    "Clock",
    "CompiledEngine",
    "CompiledMonitor",
    "CoverageCampaign",
    "CrossArrow",
    "DelEvt",
    "DirectedTrace",
    "FaultMutationCampaign",
    "EventOccurrence",
    "EventRef",
    "Expr",
    "GlobalRun",
    "Implication",
    "Loop",
    "Monitor",
    "MonitorBank",
    "MonitorEngine",
    "MonitorNetwork",
    "MonitorResult",
    "Not",
    "OptimizationResult",
    "Or",
    "Par",
    "PropRef",
    "SCESC",
    "ScescChart",
    "Scoreboard",
    "ScoreboardCheck",
    "Seq",
    "SignalBinding",
    "StimulusSynthesizer",
    "StreamReport",
    "StreamingChecker",
    "VectorEngine",
    "SubsetMonitor",
    "Tick",
    "Trace",
    "TraceGenerator",
    "Transition",
    "Valuation",
    "VcdReader",
    "Verdict",
    "compile_monitor",
    "ev",
    "optimize_compiled",
    "optimize_monitor",
    "parse_cesc",
    "parse_expr",
    "run_bank_sharded",
    "run_compiled",
    "run_many",
    "run_many_vector",
    "run_monitor",
    "run_sharded",
    "scesc",
    "symbolic_monitor",
    "synthesize_chart",
    "synthesize_compiled",
    "synthesize_monitor",
    "synthesize_network",
    "tr",
    "tr_compiled",
    "trace_to_vcd",
    "validate_chart",
    "validate_scesc",
]
