"""Statement-level control-flow graph of one segment body.

The production analyses (:mod:`repro.analysis.access`) never build a
CFG -- they reason over the flat reference list with pairwise rectangle
coverage.  The checker instead builds the real graph:

* ``IF`` becomes a branch node with then/else chains meeting at a join
  node;
* ``DO`` becomes a header node (bound evaluation), the body chain, a
  *back-edge* node (where location descriptors depending on the loop
  index are invalidated -- the next iteration writes different
  elements) and a *loop-exit* node (where, for a fully-executed
  constant-bound unit-stride loop, index-dependent descriptors are
  widened to the loop's whole iteration range);
* a guarded assignment is a single node whose store is a may-write.

Loops whose constant trip count is >= 1 have no skip edge from header
to exit: their body lies on every path, which is what lets a must
analysis keep descriptors written inside them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.stmt import Assign, Do, If, Statement

#: Node kinds.
ENTRY = "entry"
EXIT = "exit"
ASSIGN = "assign"
BRANCH = "branch"
JOIN = "join"
LOOP_HEAD = "loop-head"
LOOP_BACK = "loop-back"
LOOP_EXIT = "loop-exit"


@dataclass
class CFGNode:
    """One node of the statement CFG."""

    nid: int
    kind: str
    stmt: Optional[Statement] = None
    #: Enclosing ``Do`` statements at this node, outermost first.
    loops: Tuple[Do, ...] = ()

    def __hash__(self) -> int:
        return self.nid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = self.stmt.sid if self.stmt is not None and self.stmt.sid else ""
        return f"<CFG#{self.nid} {self.kind} {tag}>".replace(" >", ">")


@dataclass
class StmtCFG:
    """Statement-level CFG with a unique entry and exit node."""

    nodes: List[CFGNode] = field(default_factory=list)
    succs: Dict[int, List[int]] = field(default_factory=dict)
    preds: Dict[int, List[int]] = field(default_factory=dict)
    entry: Optional[CFGNode] = None
    exit: Optional[CFGNode] = None

    # ------------------------------------------------------------------
    def new_node(
        self,
        kind: str,
        stmt: Optional[Statement] = None,
        loops: Tuple[Do, ...] = (),
    ) -> CFGNode:
        node = CFGNode(nid=len(self.nodes), kind=kind, stmt=stmt, loops=loops)
        self.nodes.append(node)
        self.succs[node.nid] = []
        self.preds[node.nid] = []
        return node

    def add_edge(self, src: CFGNode, dst: CFGNode) -> None:
        if dst.nid not in self.succs[src.nid]:
            self.succs[src.nid].append(dst.nid)
            self.preds[dst.nid].append(src.nid)

    # -- graph callables for the dataflow solver -----------------------
    def successors(self, node: CFGNode) -> List[CFGNode]:
        return [self.nodes[i] for i in self.succs[node.nid]]

    def predecessors(self, node: CFGNode) -> List[CFGNode]:
        return [self.nodes[i] for i in self.preds[node.nid]]


# ----------------------------------------------------------------------
def build_segment_cfg(body: Sequence[Statement]) -> StmtCFG:
    """Build the CFG of one segment body."""
    cfg = StmtCFG()
    cfg.entry = cfg.new_node(ENTRY)
    tail = _build_body(cfg, body, cfg.entry, loops=())
    cfg.exit = cfg.new_node(EXIT)
    cfg.add_edge(tail, cfg.exit)
    return cfg


def _build_body(
    cfg: StmtCFG,
    body: Sequence[Statement],
    pred: CFGNode,
    loops: Tuple[Do, ...],
) -> CFGNode:
    """Chain ``body`` after ``pred``; returns the last node of the chain."""
    current = pred
    for stmt in body:
        if isinstance(stmt, Assign):
            node = cfg.new_node(ASSIGN, stmt=stmt, loops=loops)
            cfg.add_edge(current, node)
            current = node
        elif isinstance(stmt, If):
            current = _build_if(cfg, stmt, current, loops)
        elif isinstance(stmt, Do):
            current = _build_do(cfg, stmt, current, loops)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown statement type {type(stmt).__name__}")
    return current


def _build_if(
    cfg: StmtCFG, stmt: If, pred: CFGNode, loops: Tuple[Do, ...]
) -> CFGNode:
    cond = cfg.new_node(BRANCH, stmt=stmt, loops=loops)
    cfg.add_edge(pred, cond)
    join = cfg.new_node(JOIN, stmt=stmt, loops=loops)
    then_tail = _build_body(cfg, stmt.then_body, cond, loops)
    cfg.add_edge(then_tail, join)
    if stmt.else_body:
        else_tail = _build_body(cfg, stmt.else_body, cond, loops)
        cfg.add_edge(else_tail, join)
    else:
        cfg.add_edge(cond, join)
    return join


def _build_do(
    cfg: StmtCFG, stmt: Do, pred: CFGNode, loops: Tuple[Do, ...]
) -> CFGNode:
    head = cfg.new_node(LOOP_HEAD, stmt=stmt, loops=loops)
    cfg.add_edge(pred, head)
    inner = loops + (stmt,)
    body_tail = _build_body(cfg, stmt.body, head, inner)
    back = cfg.new_node(LOOP_BACK, stmt=stmt, loops=inner)
    cfg.add_edge(body_tail, back)
    cfg.add_edge(back, head)
    loop_exit = cfg.new_node(LOOP_EXIT, stmt=stmt, loops=loops)
    cfg.add_edge(body_tail, loop_exit)
    trip = stmt.constant_trip_count()
    if trip is None or trip < 1:
        # The body may be skipped entirely.
        cfg.add_edge(head, loop_exit)
    return loop_exit
