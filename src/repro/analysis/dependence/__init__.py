"""Reference-by-reference data dependence analysis.

The paper assumes (Section 4.2.1) that "a state-of-the-art compiler has
analyzed ... the data dependences of every reference in each region",
where dependences are *may*-dependences between references to the same
variable.  This subpackage provides that substrate:

* :mod:`repro.analysis.dependence.subscript` -- affine subscript
  extraction relative to the region loop index, inner loop indices and
  region-invariant symbols;
* :mod:`repro.analysis.dependence.subscript_tests` -- classic ZIV / SIV / GCD /
  Banerjee-style range tests that decide whether two references may
  touch the same location in the same or in different segments, and in
  which execution order;
* :mod:`repro.analysis.dependence.graph` -- the dependence record and
  the queryable dependence graph;
* :mod:`repro.analysis.dependence.analyzer` -- the driver that builds
  the graph for loop and explicit regions: element-precise
  may-dependences, oriented by execution order.
"""

from repro.analysis.dependence.analyzer import (
    DependenceAnalyzer,
    analyze_dependences,
)
from repro.analysis.dependence.graph import Dependence, DependenceGraph
from repro.analysis.dependence.signature import (
    ReferenceSignature,
    SignatureIndex,
    signature_of,
)
from repro.analysis.dependence.subscript import AffineSubscript, extract_affine
from repro.analysis.dependence.subscript_tests import (
    AliasRelation,
    RelationSet,
    relation_of_reference_pair,
)

__all__ = [
    "AffineSubscript",
    "AliasRelation",
    "Dependence",
    "DependenceAnalyzer",
    "DependenceGraph",
    "ReferenceSignature",
    "RelationSet",
    "SignatureIndex",
    "analyze_dependences",
    "extract_affine",
    "signature_of",
    "relation_of_reference_pair",
]
