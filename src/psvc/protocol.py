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
     "response": {"service": {...name...}, "handle": "b64text"}}

A service name is one JSON object of presentation attributes.  Yellow
queries carry exactly one attribute and match it case-insensitively;
white queries carry one or more and match them case-sensitively as a
subset of the name.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Any

YELLOW_PAGES = 310
WHITE_PAGES = 311
SERVICE_CALL = 312
BROKER_RESULT = 313

PSVC_STATUSES = frozenset({YELLOW_PAGES, WHITE_PAGES, SERVICE_CALL, BROKER_RESULT})

REASON_PHRASES = {
    YELLOW_PAGES: "Yellow Pages Call",
    WHITE_PAGES: "White Pages Call",
    SERVICE_CALL: "Personal Service Call",
    BROKER_RESULT: "Broker Result",
}

H_SERVICE = "PSvc-Service"
H_METHOD = "PSvc-Method"
H_PARAMETERS = "PSvc-Parameters"
H_CALLBACK = "PSvc-Callback"
H_VERSION = "PSvc-Version"
H_ERROR = "PSvc-Error"
# Marker added to the request a proxy builds when invoking a service.
H_INVOCATION = "PSvc-Invocation"

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

    code = ERR_PARAMETERS


@dataclass(frozen=True)
class YellowQuery:
    """Single presentation attribute queried case-insensitively."""

    attribute: str
    value: Any

    def as_object(self) -> dict[str, Any]:
        return {self.attribute: self.value}


@dataclass(frozen=True)
class PsvcDirective:
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


@dataclass(frozen=True)
class BrokerResult:
    """Envelope a broker returns for a yellow- or white-pages call."""

    operation: str
    request: dict[str, Any]
    # Yellow: list of service names (possibly empty).  White: an object
    # with "service" and "handle", or None when nothing was resolved.
    response: list[dict[str, Any]] | dict[str, Any] | None


def _load_json_object(text: str, what: str) -> dict[str, Any]:
    """Parse a JSON object, rejecting duplicate keys."""

    def no_dupes(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj: dict[str, Any] = {}
        for key, value in pairs:
            if key in obj:
                raise MalformedDirective(f"{what}: duplicate attribute {key!r}")
            obj[key] = value
        return obj

    try:
        parsed = json.loads(text, object_pairs_hook=no_dupes)
    except json.JSONDecodeError as exc:
        raise MalformedDirective(f"{what}: invalid JSON: {exc}") from None
    if not isinstance(parsed, dict):
        raise MalformedDirective(f"{what}: expected a JSON object")
    return parsed


def json_equal(a: Any, b: Any) -> bool:
    """Structural equality with JSON typing (bool never equals a number)."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    return type(a) is type(b) and a == b


def yellow_match(query: YellowQuery, name: dict[str, Any]) -> bool:
    """True when the name has the queried attribute with the queried value.

    The attribute name always compares case-insensitively; so does the
    value when both sides are strings.  Any other value type must be
    structurally equal.
    """
    wanted = query.attribute.casefold()
    for attr, value in name.items():
        if attr.casefold() != wanted:
            continue
        if isinstance(query.value, str) and isinstance(value, str):
            if query.value.casefold() == value.casefold():
                return True
        elif json_equal(query.value, value):
            return True
    return False


def white_match(query: dict[str, Any], name: dict[str, Any]) -> bool:
    """True when every query attribute appears in the name with an equal value.

    Comparison is case-sensitive; the query must not be empty.
    """
    if not query:
        raise ValueError("white query must not be empty")
    return all(attr in name and json_equal(value, name[attr]) for attr, value in query.items())


def encode_yellow_query(query: YellowQuery) -> str:
    return json.dumps(query.as_object())


def decode_yellow_query(text: str) -> YellowQuery:
    """Parse a yellow query: a JSON object with exactly one attribute."""
    obj = _load_json_object(text, "yellow query")
    if len(obj) != 1:
        raise MalformedDirective("yellow query must hold exactly one attribute")
    attribute, value = next(iter(obj.items()))
    return YellowQuery(attribute, value)


def encode_white_query(query: dict[str, Any]) -> str:
    return json.dumps(query)


def decode_white_query(text: str) -> dict[str, Any]:
    """Parse a white query: a non-empty JSON object of attributes."""
    obj = _load_json_object(text, "white query")
    if not obj:
        raise MalformedDirective("white query must not be empty")
    return obj


def decode_handle_payload(text: str) -> str:
    """Parse the PSvc-Service value of a 312: a handle as a JSON string
    or an object {"handle": ...}."""
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        raise MalformedDirective("service call: handle payload is not JSON") from None
    if isinstance(parsed, dict):
        parsed = parsed.get("handle")
    if not isinstance(parsed, str) or not parsed:
        raise MalformedDirective("service call: no usable handle")
    return parsed


def encode_broker_result(result: BrokerResult) -> str:
    """Serialize an envelope to one ASCII line, safe for a header value."""
    payload = {
        "operation": result.operation,
        "request": result.request,
        "response": result.response,
    }
    return json.dumps(payload, ensure_ascii=True)


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


def handle_to_text(opaque: bytes) -> str:
    """Encode opaque handle bytes as URL-safe text for a header."""
    return base64.urlsafe_b64encode(opaque).decode("ascii")


def handle_from_text(text: str) -> bytes:
    """Decode handle text back to opaque bytes; ValueError when not ours."""
    try:
        raw = base64.urlsafe_b64decode(text.encode("ascii"))
    except Exception:
        raise ValueError("handle text is not URL-safe base64") from None
    # Base64 decoders ignore trailing don't-care bits, so two spellings
    # can alias one byte string.  Only the canonical spelling is ours.
    if base64.urlsafe_b64encode(raw).decode("ascii") != text:
        raise ValueError("handle text is not canonical base64")
    return raw


def _method_token_ok(method: str) -> bool:
    return bool(method) and all(c.isalnum() or c in "-_" for c in method)


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
    if not _method_token_ok(method):
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


def speaks_version(header_value: str | None, version: str = PROTOCOL_VERSION) -> bool:
    """True when a PSvc-Version value lists the given version token."""
    if not header_value:
        return False
    return version in (tok.strip() for tok in header_value.split(","))
