"""Line-delimited JSON-RPC 2.0 framing of the serve daemon.

One request or response per line, UTF-8, ``\\n``-terminated, no
embedded newlines (``json.dumps`` never emits raw newlines).  The
envelope follows JSON-RPC 2.0: requests carry ``jsonrpc``/``method``/
``params``/``id``; a request without an ``id`` is a notification and
gets no response.  Responses carry either ``result`` or ``error``
(``{"code", "message", "data"?}``), never both.

Error codes are the standard JSON-RPC set plus one extension:

========================  =======  =====================================
name                      code     meaning
========================  =======  =====================================
``PARSE_ERROR``           -32700   line is not valid JSON
``INVALID_REQUEST``       -32600   JSON but not a JSON-RPC 2.0 request,
                                   or a line over the session's limit
                                   (``data.max_line_bytes``)
``METHOD_NOT_FOUND``      -32601   unknown method
``INVALID_PARAMS``        -32602   bad program payload / parameters
``INTERNAL_ERROR``        -32603   handler raised unexpectedly
``OVERLOADED``            -32029   worker pool saturated (429 analogue;
                                   ``data.max_inflight`` tells the
                                   client the pool bound -- back off
                                   and retry)
========================  =======  =====================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
#: Backpressure rejection -- the JSON-RPC analogue of HTTP 429.
OVERLOADED = -32029

JSONRPC_VERSION = "2.0"


class ProtocolError(Exception):
    """A request-level failure that maps to one JSON-RPC error envelope."""

    def __init__(self, code: int, message: str, data: Any = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.data = data


@dataclass
class Request:
    """One parsed JSON-RPC request line."""

    method: str
    params: Dict[str, Any] = field(default_factory=dict)
    id: Optional[Any] = None

    @property
    def notification(self) -> bool:
        """True for id-less requests (fire-and-forget, no response)."""
        return self.id is None


def parse_request(line: str) -> Request:
    """Parse one wire line into a :class:`Request`.

    Raises :class:`ProtocolError` with ``PARSE_ERROR`` on malformed
    JSON and ``INVALID_REQUEST`` on a well-formed line that is not a
    JSON-RPC 2.0 request object.
    """
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(PARSE_ERROR, f"parse error: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            INVALID_REQUEST, "request must be a JSON object"
        )
    if payload.get("jsonrpc") != JSONRPC_VERSION:
        raise ProtocolError(
            INVALID_REQUEST,
            'request needs "jsonrpc": "2.0"',
            data={"got": payload.get("jsonrpc")},
        )
    method = payload.get("method")
    if not isinstance(method, str) or not method:
        raise ProtocolError(INVALID_REQUEST, "request needs a string 'method'")
    params = payload.get("params", {})
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ProtocolError(
            INVALID_REQUEST, "'params' must be an object when present"
        )
    req_id = payload.get("id")
    if req_id is not None and not isinstance(req_id, (str, int, float)):
        raise ProtocolError(INVALID_REQUEST, "'id' must be a string or number")
    return Request(method=method, params=params, id=req_id)


def ok_response(request_id: Any, result: Any) -> Dict[str, Any]:
    """A success envelope."""
    return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "result": result}


def error_response(
    request_id: Any, code: int, message: str, data: Any = None
) -> Dict[str, Any]:
    """An error envelope (``id`` is ``None`` when the request had none)."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if data is not None:
        error["data"] = data
    return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "error": error}


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One response as a compact UTF-8 wire line (newline-terminated)."""
    return (
        json.dumps(payload, separators=(",", ":"), sort_keys=False) + "\n"
    ).encode("utf-8")
