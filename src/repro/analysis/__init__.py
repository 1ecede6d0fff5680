"""Prerequisite compiler analyses (Section 4.2.1 of the paper).

These are the facts the idempotency labeling algorithm consumes:

* :mod:`repro.analysis.cfg` -- segment control-flow graphs and
  reachability / ancestor queries.
* :mod:`repro.analysis.readonly` -- read-only variable recognition.
* :mod:`repro.analysis.access` -- per-segment access summaries:
  exposed reads, must-defines, address determinism, coverage of array
  reads by earlier writes (the node marks of Algorithm 1).
* :mod:`repro.analysis.liveness` -- region live-out sets.
* :mod:`repro.analysis.privatization` -- segment-private variables.
* :mod:`repro.analysis.control_dependence` -- cross-segment control
  dependences.
* :mod:`repro.analysis.dependence` -- reference-by-reference data
  dependence analysis (may-dependences) with classic subscript tests.
"""

from repro.analysis.cfg import SegmentGraph
from repro.analysis.readonly import read_only_variables, written_variables
from repro.analysis.access import AccessSummary, summarize_segment
from repro.analysis.liveness import region_live_out, live_out_map
from repro.analysis.privatization import private_variables
from repro.analysis.control_dependence import has_cross_segment_control_dependence
from repro.analysis.dependence import (
    Dependence,
    DependenceGraph,
    DependenceAnalyzer,
    analyze_dependences,
)

__all__ = [
    "AccessSummary",
    "Dependence",
    "DependenceAnalyzer",
    "DependenceGraph",
    "SegmentGraph",
    "analyze_dependences",
    "has_cross_segment_control_dependence",
    "live_out_map",
    "private_variables",
    "read_only_variables",
    "region_live_out",
    "summarize_segment",
    "written_variables",
]
