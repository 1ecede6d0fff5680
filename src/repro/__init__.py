"""repro -- reproduction of *Reference Idempotency Analysis* (PPoPP 2001).

The package is organised in layers, bottom up:

``repro.ir``
    A small imperative intermediate representation with the region /
    segment structure of the paper (Definition 1): expressions, memory
    references, statements, segments, regions and programs, plus a
    Fortran-flavoured text front end (:mod:`repro.ir.dsl`).

``repro.analysis``
    The prerequisite compiler analyses of Section 4.2.1: control-flow
    utilities, liveness, exposed reads / must-defines, read-only and
    private variable recognition, and a reference-by-reference data
    dependence analyser with classic subscript tests.

``repro.idempotency``
    The paper's primary contribution: re-occurring-first-write analysis
    (Algorithm 1), the idempotency labeling algorithm (Algorithm 2), the
    labeling conditions LC1-LC3, and per-region reports by idempotency
    category.

``repro.runtime`` / ``repro.simulator``
    Executable models of the paper's execution substrates: a sequential
    reference interpreter, the hardware-only speculative execution engine
    (HOSE, Definition 2) and the compiler-assisted engine (CASE,
    Definition 4) with per-segment speculative storage over a flat
    conventional memory.

``repro.timing``
    The one timing model: a cost model prices the engines' operation
    streams and a P-processor schedule turns them into makespans and
    speedups.

``repro.compiler``
    The end-to-end "Multiplex compiler" analogue: parse, analyse,
    classify regions, label references, and report.

``repro.workloads`` / ``repro.experiments``
    The 13 synthetic benchmark programs and the named loops used in the
    paper's evaluation, plus one experiment driver per figure.
"""

from repro._version import __version__

__all__ = ["__version__"]
