"""Visual front ends: rendering charts and traces, WaveDrom bridge.

CESC is a *visual* language; these modules provide the drawing layer:

* :mod:`repro.visual.ascii_chart` — terminal rendering of SCESCs
  (instances as vertical lines, grid lines, message arrows, guards);
* :mod:`repro.visual.timing` — traces as ASCII waveforms;
* :mod:`repro.visual.wavedrom` — import/export of WaveDrom timing
  diagram JSON, the de-facto interchange format for timing diagrams
  (and the closest modern analogue of the paper's figures).
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.visual.ascii_chart": ("render_scesc",),
    "repro.visual.timing": ("render_trace",),
    "repro.visual.wavedrom": ("trace_to_wavedrom", "wavedrom_to_scesc"),
})

__all__ = [
    "render_scesc",
    "render_trace",
    "trace_to_wavedrom",
    "wavedrom_to_scesc",
]
