"""The JSON IR front end: the :mod:`repro.serve` wire format.

The DSL front end (:mod:`repro.ir.dsl`) is the primary way to write
programs; :func:`program_from_json` builds the same IR from the JSON
objects the daemon accepts, with expressions written as number
literals or DSL expression strings.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence

from repro.ir.expr import Const
from repro.ir.program import Program
from repro.ir.region import ExplicitRegion, LoopRegion, Region
from repro.ir.segment import Segment
from repro.ir.stmt import Assign, Do, If, Statement
from repro.ir.symbols import SymbolTable


#: Statement/region discriminator key.
_KIND = "kind"

#: The keys each JSON IR object may carry; any other key is an error, so
#: a misspelt field cannot silently drop part of a program.
_PROGRAM_KEYS = frozenset({"name", "symbols", "init", "regions", "finale"})
_SYMBOLS_KEYS = frozenset({"scalars", "arrays"})
_SCALAR_KEYS = frozenset({"name", "initial"})
_ARRAY_KEYS = frozenset({"name", "shape", "initial"})
_STMT_KEYS = {
    "assign": frozenset({_KIND, "target", "subscripts", "rhs", "guard"}),
    "do": frozenset({_KIND, "index", "lower", "upper", "step", "body"}),
    "if": frozenset({_KIND, "cond", "then", "else"}),
}
_REGION_KEYS = {
    "loop": frozenset({
        _KIND, "name", "index", "lower", "upper", "step", "body",
        "live_out", "speculative",
    }),
    "explicit": frozenset({
        _KIND, "name", "segments", "edges", "entry", "live_out", "speculative",
    }),
}
_SEGMENT_KEYS = frozenset({"name", "body", "branch"})


class JsonIRError(ValueError):
    """Raised on any malformed JSON IR payload (message names the path)."""


def _known_keys(node: Mapping, allowed: frozenset, path: str) -> None:
    """Reject any key of ``node`` outside ``allowed``."""
    unknown = sorted(str(key) for key in node if key not in allowed)
    if unknown:
        raise JsonIRError(
            f"{path}: unknown keys {unknown} (expected some of {sorted(allowed)})"
        )


def _json_expr(node: Any, path: str):
    """One expression: a number literal or a DSL expression string."""
    from repro.ir.dsl import DSLSyntaxError, parse_expression

    if isinstance(node, bool):
        raise JsonIRError(f"{path}: booleans are not IR expressions")
    if isinstance(node, (int, float)):
        return Const(node)
    if isinstance(node, str):
        try:
            return parse_expression(node)
        except DSLSyntaxError as exc:
            raise JsonIRError(f"{path}: {exc}") from exc
    raise JsonIRError(
        f"{path}: expected a number or DSL expression string, "
        f"got {type(node).__name__}"
    )


def _json_stmt(node: Any, path: str) -> Statement:
    if not isinstance(node, Mapping):
        raise JsonIRError(f"{path}: statement must be an object")
    kind = node.get(_KIND, "assign" if "target" in node else None)
    if kind in _STMT_KEYS:
        _known_keys(node, _STMT_KEYS[kind], path)
    if kind == "assign":
        target = node.get("target")
        if not isinstance(target, str) or not target:
            raise JsonIRError(f"{path}: assign needs a 'target' name")
        if "rhs" not in node:
            raise JsonIRError(f"{path}: assign needs an 'rhs' expression")
        subs = node.get("subscripts", [])
        if not isinstance(subs, Sequence) or isinstance(subs, str):
            raise JsonIRError(f"{path}: 'subscripts' must be a list")
        guard = node.get("guard")
        return Assign(
            target,
            _json_expr(node["rhs"], f"{path}.rhs"),
            subscripts=[
                _json_expr(s, f"{path}.subscripts[{i}]")
                for i, s in enumerate(subs)
            ],
            guard=(
                _json_expr(guard, f"{path}.guard") if guard is not None else None
            ),
        )
    if kind == "do":
        for field in ("index", "lower", "upper", "body"):
            if field not in node:
                raise JsonIRError(f"{path}: do needs {field!r}")
        return Do(
            node["index"],
            _json_expr(node["lower"], f"{path}.lower"),
            _json_expr(node["upper"], f"{path}.upper"),
            _json_body(node["body"], f"{path}.body"),
            step=_json_expr(node.get("step", 1), f"{path}.step"),
        )
    if kind == "if":
        if "cond" not in node:
            raise JsonIRError(f"{path}: if needs 'cond'")
        return If(
            _json_expr(node["cond"], f"{path}.cond"),
            _json_body(node.get("then", []), f"{path}.then"),
            _json_body(node.get("else", []), f"{path}.else"),
        )
    raise JsonIRError(
        f"{path}: unknown statement kind {kind!r} "
        f"(expected assign / do / if)"
    )


def _json_body(node: Any, path: str) -> List[Statement]:
    if not isinstance(node, Sequence) or isinstance(node, str):
        raise JsonIRError(f"{path}: statement list expected")
    return [_json_stmt(item, f"{path}[{i}]") for i, item in enumerate(node)]


def _json_names(node: Any, path: str) -> Optional[List[str]]:
    if node is None:
        return None
    if not isinstance(node, Sequence) or isinstance(node, str):
        raise JsonIRError(f"{path}: list of names expected")
    for item in node:
        if not isinstance(item, str):
            raise JsonIRError(f"{path}: list of names expected")
    return list(node)


def program_from_json(payload: Mapping) -> Program:
    """Build a :class:`Program` from the serve wire format's JSON IR.

    Schema (expressions anywhere are number literals or DSL expression
    strings, parsed with :func:`repro.ir.dsl.parse_expression`)::

        {"name": "demo",
         "symbols": {"scalars": [{"name": "s", "initial": 0.0}],
                     "arrays":  [{"name": "x", "shape": [64],
                                  "initial": 0.0}]},
         "init":    [<stmt>...],
         "regions": [{"kind": "loop", "name": "L", "index": "i",
                      "lower": 1, "upper": 64, "step": 1,
                      "body": [<stmt>...], "live_out": ["x"],
                      "speculative": true},
                     {"kind": "explicit", "name": "R",
                      "segments": [{"name": "R0", "body": [<stmt>...],
                                    "branch": "a > 0"}],
                      "edges": {"R0": ["R1"]}, "live_out": ["c"]}],
         "finale":  [<stmt>...]}

    Statements: ``{"kind": "assign", "target", "subscripts", "rhs",
    "guard"}`` (``kind`` may be omitted when ``target`` is present),
    ``{"kind": "do", "index", "lower", "upper", "step", "body"}``, and
    ``{"kind": "if", "cond", "then", "else"}``.

    Raises :class:`JsonIRError` (a ``ValueError``) naming the offending
    path on any malformed payload, including a key the schema does not
    name at any object it reads.
    """
    if not isinstance(payload, Mapping):
        raise JsonIRError("program payload must be an object")
    _known_keys(payload, _PROGRAM_KEYS, "program")
    program_name = str(payload.get("name", "program"))
    table = SymbolTable()
    symbols = payload.get("symbols", {})
    if not isinstance(symbols, Mapping):
        raise JsonIRError("symbols: object expected")
    _known_keys(symbols, _SYMBOLS_KEYS, "symbols")
    for i, decl in enumerate(symbols.get("scalars", [])):
        if not isinstance(decl, Mapping) or "name" not in decl:
            raise JsonIRError(f"symbols.scalars[{i}]: needs a 'name'")
        _known_keys(decl, _SCALAR_KEYS, f"symbols.scalars[{i}]")
        table.scalar(decl["name"], initial=float(decl.get("initial", 0.0)))
    for i, decl in enumerate(symbols.get("arrays", [])):
        if not isinstance(decl, Mapping) or "name" not in decl:
            raise JsonIRError(f"symbols.arrays[{i}]: needs a 'name'")
        _known_keys(decl, _ARRAY_KEYS, f"symbols.arrays[{i}]")
        shape = decl.get("shape")
        if not isinstance(shape, Sequence) or isinstance(shape, str) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d > 0
            for d in shape
        ):
            raise JsonIRError(
                f"symbols.arrays[{i}].shape: list of positive ints expected"
            )
        table.array(
            decl["name"], list(shape), initial=float(decl.get("initial", 0.0))
        )
    init = _json_body(payload.get("init", []), "init")
    finale = _json_body(payload.get("finale", []), "finale")
    regions = payload.get("regions", [])
    if not isinstance(regions, Sequence) or isinstance(regions, str):
        raise JsonIRError("regions: list expected")
    built: List[Region] = []
    for i, region in enumerate(regions):
        path = f"regions[{i}]"
        if not isinstance(region, Mapping):
            raise JsonIRError(f"{path}: object expected")
        name = region.get("name")
        if not isinstance(name, str) or not name:
            raise JsonIRError(f"{path}: needs a 'name'")
        kind = region.get(_KIND, "loop")
        if kind in _REGION_KEYS:
            _known_keys(region, _REGION_KEYS[kind], path)
        speculative = region.get("speculative")
        if speculative is not None and not isinstance(speculative, bool):
            raise JsonIRError(f"{path}.speculative: true/false/null expected")
        live_out = _json_names(region.get("live_out"), f"{path}.live_out")
        if kind == "loop":
            for field in ("index", "lower", "upper", "body"):
                if field not in region:
                    raise JsonIRError(f"{path}: loop region needs {field!r}")
            built.append(LoopRegion(
                name,
                region["index"],
                _json_expr(region["lower"], f"{path}.lower"),
                _json_expr(region["upper"], f"{path}.upper"),
                _json_body(region["body"], f"{path}.body"),
                step=_json_expr(region.get("step", 1), f"{path}.step"),
                live_out=live_out,
                speculative=speculative,
            ))
        elif kind == "explicit":
            segments: List[Segment] = []
            for j, seg in enumerate(region.get("segments", [])):
                seg_path = f"{path}.segments[{j}]"
                if not isinstance(seg, Mapping) or "name" not in seg:
                    raise JsonIRError(f"{seg_path}: needs a 'name'")
                _known_keys(seg, _SEGMENT_KEYS, seg_path)
                branch = seg.get("branch")
                segments.append(
                    Segment(
                        seg["name"],
                        _json_body(seg.get("body", []), f"{seg_path}.body"),
                        branch=(
                            _json_expr(branch, f"{seg_path}.branch")
                            if branch is not None
                            else None
                        ),
                    )
                )
            if not segments:
                raise JsonIRError(f"{path}: explicit region needs segments")
            edges = region.get("edges")
            if edges is not None:
                if not isinstance(edges, Mapping):
                    raise JsonIRError(f"{path}.edges: object expected")
                edges = {
                    src: _json_names(dsts, f"{path}.edges[{src!r}]")
                    for src, dsts in edges.items()
                }
            built.append(ExplicitRegion(
                name,
                segments,
                edges=edges,
                entry=region.get("entry"),
                live_out=live_out,
                speculative=speculative,
            ))
        else:
            raise JsonIRError(
                f"{path}: unknown region kind {kind!r} "
                f"(expected loop / explicit)"
            )
    return Program(program_name, symbols=table, init=init, regions=built, finale=finale)
