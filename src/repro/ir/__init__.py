"""Intermediate representation: expressions, statements, segments, regions, programs.

Most users only need the re-exports below plus the text front end
(:mod:`repro.ir.dsl`); :mod:`repro.ir.builder` reads the daemon's JSON
IR.
"""

from repro.ir.expr import (
    BinOp,
    Call,
    Const,
    Expr,
    Index,
    UnaryOp,
    Var,
    as_expr,
)
from repro.ir.program import Program, ProgramError
from repro.ir.reference import MemoryReference, extract_references
from repro.ir.region import (
    EXIT_NODE,
    LOOP_BODY_SEGMENT,
    ExplicitRegion,
    LoopRegion,
    Region,
    RegionError,
)
from repro.ir.segment import Segment, SegmentError
from repro.ir.stmt import Assign, Do, If, Statement, StatementError
from repro.ir.symbols import Symbol, SymbolError, SymbolTable
from repro.ir.types import (
    AccessType,
    DependenceKind,
    DependenceScope,
    IdempotencyCategory,
    NodeColor,
    NodeMark,
    RefLabel,
    RegionKind,
    VarKind,
)

__all__ = [
    "AccessType",
    "Assign",
    "BinOp",
    "Call",
    "Const",
    "DependenceKind",
    "DependenceScope",
    "Do",
    "EXIT_NODE",
    "ExplicitRegion",
    "Expr",
    "IdempotencyCategory",
    "If",
    "Index",
    "LOOP_BODY_SEGMENT",
    "LoopRegion",
    "MemoryReference",
    "NodeColor",
    "NodeMark",
    "Program",
    "ProgramError",
    "RefLabel",
    "Region",
    "RegionError",
    "RegionKind",
    "Segment",
    "SegmentError",
    "Statement",
    "StatementError",
    "Symbol",
    "SymbolError",
    "SymbolTable",
    "UnaryOp",
    "Var",
    "VarKind",
    "as_expr",
    "extract_references",
]
