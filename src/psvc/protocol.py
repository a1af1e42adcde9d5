"""Wire protocol for personal-service redirections.

Four redirection status codes extend HTTP between a service provider
(SP) and a redirection-aware client:

    310  yellow pages   list services matching one attribute
    311  white pages    resolve a unique service to an opaque handle
    312  service call   invoke the service behind a handle
    313  broker result  carries a broker reply; honored only from the
                        configured broker endpoint

Directives ride on a small header family:

    PSvc-Service     query object, handle, broker result, or endpoint
    PSvc-Method      HTTP method for the service call (default GET)
    PSvc-Parameters  path plus query appended to the service endpoint
    PSvc-Callback    SP URL that receives broker results via POST
    PSvc-Version     protocol versions accepted/spoken ("1")
    PSvc-Error       one of: parameters, ambiguous, handle, service

Broker results are single-line JSON envelopes in a PSvc-Service header:

    {"operation": "Yellow Pages",
     "request": {"Purpose": "authentication"},
     "response": [{...name...}, {...name...}]}

    {"operation": "White Pages",
     "request": {"Purpose": "authentication", "Device": "Portuguese eID"},
     "response": {"service": {...name...}, "handle": "<32 hex digits>"}}

A service name is one JSON object of presentation attributes.  Yellow
queries carry exactly one attribute and match it case-insensitively;
white queries carry one or more and match them case-sensitively as a
subset of the name.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

# A spawned service needs these, and loads psvc.kit without this module.
from .kit import (
    BROKER_RESULT,
    H_ERROR,
    H_INVOCATION,
    REASON_PHRASES,
    SERVICE_CALL,
    WHITE_PAGES,
    YELLOW_PAGES,
)
from .kit import TOKEN  # the rule a request line's method follows
from .registry import MAX_QUERY_DEPTH, YellowQuery, _nested_deeper

H_SERVICE = "PSvc-Service"
H_METHOD = "PSvc-Method"
H_PARAMETERS = "PSvc-Parameters"
H_CALLBACK = "PSvc-Callback"
H_VERSION = "PSvc-Version"

PROTOCOL_VERSION = "1"

ERR_PARAMETERS = "parameters"  # request malformed or incomplete
ERR_AMBIGUOUS = "ambiguous"    # white query matched more than one service
ERR_HANDLE = "handle"          # handle invalid, expired, or not yours
ERR_SERVICE = "service"        # no such service or it cannot be reached

ERROR_CODES = frozenset({ERR_PARAMETERS, ERR_AMBIGUOUS, ERR_HANDLE, ERR_SERVICE})

OP_YELLOW = "Yellow Pages"
OP_WHITE = "White Pages"

# Directive headers are consumed by the client machinery; everything else
# in a 31x response is carried verbatim to the personal service.
_DIRECTIVE_HEADERS = frozenset(
    h.lower() for h in (H_SERVICE, H_METHOD, H_PARAMETERS, H_CALLBACK)
)


class MalformedDirective(ValueError):
    """A 310/311/312 response whose PSvc headers cannot be used."""


class PsvcDirective(NamedTuple):
    """Parsed 310/311/312 response, ready for the proxy to act on."""

    kind: int
    yellow: YellowQuery | None = None
    white: dict[str, Any] | None = None
    handle: str | None = None
    method: str = "GET"
    parameters: str | None = None
    callback: str | None = None
    carried_headers: tuple[tuple[str, str], ...] = ()
    carried_body: bytes = b""


class BrokerResult(NamedTuple):
    """Envelope a broker returns for a yellow- or white-pages call."""

    operation: str
    request: dict[str, Any]
    # Yellow: list of service names (possibly empty).  White: an object
    # with "service" and "handle", or None when nothing was resolved.
    response: list[dict[str, Any]] | dict[str, Any] | None


def _load_json_object(text: str, what: str, max_depth: int | None = None) -> dict[str, Any]:
    """Parse a JSON object, rejecting duplicate keys and, given max_depth, deeper nesting."""

    def no_dupes(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj: dict[str, Any] = {}
        for key, value in pairs:
            if key in obj:
                raise MalformedDirective(f"{what}: duplicate attribute {key!r}")
            obj[key] = value
        return obj

    try:
        parsed = json.loads(text, object_pairs_hook=no_dupes)
    except MalformedDirective:
        raise
    except (ValueError, RecursionError) as exc:  # a number over 4,300 digits is a ValueError
        raise MalformedDirective(f"{what}: invalid JSON: {exc}") from None
    if not isinstance(parsed, dict):
        raise MalformedDirective(f"{what}: expected a JSON object")
    if max_depth is not None and _nested_deeper(parsed, max_depth):
        raise MalformedDirective(f"{what}: nested deeper than {max_depth} levels")
    return parsed


def decode_yellow_query(text: str) -> YellowQuery:
    """Parse a yellow query: a JSON object with exactly one attribute."""
    obj = _load_json_object(text, "yellow query", MAX_QUERY_DEPTH)
    if len(obj) != 1:
        raise MalformedDirective("yellow query must hold exactly one attribute")
    attribute, value = next(iter(obj.items()))
    return YellowQuery(attribute, value)


def decode_white_query(text: str) -> dict[str, Any]:
    """Parse a white query: a non-empty JSON object of attributes."""
    obj = _load_json_object(text, "white query", MAX_QUERY_DEPTH)
    if not obj:
        raise MalformedDirective("white query must not be empty")
    return obj


def decode_handle_payload(text: str) -> str:
    """Parse the PSvc-Service value of a 312: a handle as a JSON string
    or an object {"handle": ...}."""
    try:
        parsed = json.loads(text)
    except (ValueError, RecursionError):
        raise MalformedDirective("service call: handle payload is not JSON") from None
    if isinstance(parsed, dict):
        parsed = parsed.get("handle")
    if not isinstance(parsed, str) or not parsed:
        raise MalformedDirective("service call: no usable handle")
    return parsed


def encode_envelope(operation: str, request: dict[str, Any], response: str) -> str:
    """An envelope whose response is JSON text already, as json.dumps would write it whole."""
    return (
        f'{{"operation": {json.dumps(operation, ensure_ascii=True)}, '
        f'"request": {json.dumps(request, ensure_ascii=True)}, "response": {response}}}'
    )


def encode_broker_result(result: BrokerResult) -> str:
    """Serialize an envelope to one ASCII line, safe for a header value."""
    response = json.dumps(result.response, ensure_ascii=True)
    return encode_envelope(result.operation, result.request, response)


def decode_broker_result(text: str) -> BrokerResult:
    """Parse an envelope; raises MalformedDirective when unusable."""
    obj = _load_json_object(text, "broker result")
    operation = obj.get("operation")
    request = obj.get("request")
    if operation not in (OP_YELLOW, OP_WHITE):
        raise MalformedDirective(f"broker result: unknown operation {operation!r}")
    if not isinstance(request, dict):
        raise MalformedDirective("broker result: request must be an object")
    response = obj.get("response")
    if operation == OP_YELLOW:
        if response is None:
            response = []
        if not isinstance(response, list) or not all(isinstance(n, dict) for n in response):
            raise MalformedDirective("broker result: yellow response must be a list of names")
    else:
        if response is not None:
            if not isinstance(response, dict) or not isinstance(response.get("handle"), str):
                raise MalformedDirective("broker result: white response needs a handle")
    return BrokerResult(operation, request, response)


def parse_directive(
    status: int,
    headers: list[tuple[str, str]],
    body: bytes,
) -> PsvcDirective:
    """Turn a 310/311/312 response into a directive.

    The four PSvc directive headers are consumed; every other header and
    the body are carried verbatim, in order, for the service call.
    """
    if status not in (YELLOW_PAGES, WHITE_PAGES, SERVICE_CALL):
        raise ValueError(f"not a directive status: {status}")

    psvc: dict[str, str] = {}
    carried: list[tuple[str, str]] = []
    for name, value in headers:
        low = name.lower()
        if low in _DIRECTIVE_HEADERS:
            psvc.setdefault(low, value)
        else:
            carried.append((name, value))

    service = psvc.get(H_SERVICE.lower())
    if service is None:
        raise MalformedDirective("missing PSvc-Service header")

    callback = psvc.get(H_CALLBACK.lower())
    if status in (YELLOW_PAGES, WHITE_PAGES) and not callback:
        raise MalformedDirective("listing directive without a callback")

    method = psvc.get(H_METHOD.lower(), "GET").strip()
    if not TOKEN.fullmatch(method.encode("ascii", "replace")):
        raise MalformedDirective(f"unusable method {method!r}")

    parameters = psvc.get(H_PARAMETERS.lower())
    if parameters is not None:
        parameters = parameters.strip()
        if parameters and not parameters.startswith("/"):
            parameters = "/" + parameters

    yellow = white = handle = None
    if status == YELLOW_PAGES:
        yellow = decode_yellow_query(service)
    elif status == WHITE_PAGES:
        white = decode_white_query(service)
    else:
        handle = decode_handle_payload(service)

    return PsvcDirective(
        kind=status,
        yellow=yellow,
        white=white,
        handle=handle,
        method=method,
        parameters=parameters,
        callback=callback,
        carried_headers=tuple(carried),
        carried_body=bytes(body),
    )
