"""HTTP surface of the broker.

Callers send HEAD; queries, handles, and results travel in
headers, never bodies:

    HEAD /yellow            PSvc-Service: {"Purpose": "authentication"}
                            PSvc-Callback: http://sp:8080/cb
                            Referer: sp:8080
    HEAD /white             same fields, multi-attribute query
    HEAD /resolve?ref=XYZ   PSvc-Service: <handle text>
                            Referer: sp:8080

Every reply is a 313 whose Location is the callback (listings) or
``:<ref>`` (resolution), with PSvc-Service carrying the envelope or
endpoint and PSvc-Error naming any failure.  Any other method gets a
405.  Each run serves the catalog it read at start.
"""

from __future__ import annotations

from pathlib import Path

from ..kit import KitRequest, KitResponse, ServiceServer, header_value
from ..kit import ENDPOINT_FILE, write_port_file  # broker.ept, written by start()
from ..protocol import (
    ERR_PARAMETERS,
    H_CALLBACK,
    H_SERVICE,
    MalformedDirective,
    decode_white_query,
    decode_yellow_query,
)
from ..transcript import SPAWN
from .core import Broker, broker_reply
from .runtime import ServiceLauncher


class BrokerServer(ServiceServer):
    """Runs a Broker behind a loopback HTTP endpoint; ``start()`` publishes it in broker.ept."""

    def __init__(self, ps_dir: Path | str):
        self.broker = Broker(ps_dir, launcher=ServiceLauncher(on_spawn=self._on_spawn))
        self.endpoint_file = Path(ps_dir) / ENDPOINT_FILE
        super().__init__(("127.0.0.1", 0), self._handle, "Broker")

    def start(self) -> None:
        super().start()  # listening by now, so a reader of broker.ept can connect
        write_port_file(self.endpoint_file, self.port)

    def _on_spawn(self, descriptor_id: str, port: int, pid: int, count: int) -> None:
        self.transcript.emit(SPAWN, "spawn", descriptor_id, port=port, pid=pid, n=count)

    def _handle(self, request: KitRequest) -> KitResponse:
        if request.method != "HEAD":
            return KitResponse.text("use HEAD for broker calls\n", 405)

        service = header_value(request.headers, H_SERVICE)
        callback = header_value(request.headers, H_CALLBACK)
        sp_host = header_value(request.headers, "Referer")
        if request.path == "/resolve":
            ref = request.query.get("ref", "")
            if not (ref.isascii() and ref.isprintable()):
                ref = ""  # Location echoes it, and a header line cannot carry it
            if not service or not sp_host or not ref:
                return broker_reply(f":{ref}", error=ERR_PARAMETERS)
            return self.broker.resolve_handle(service, sp_host, ref)

        if request.path not in ("/yellow", "/white"):
            return KitResponse.text("unknown path\n", 404)
        if not service or not callback or not sp_host:
            return broker_reply(callback or ":", error=ERR_PARAMETERS)
        try:
            if request.path == "/yellow":
                return self.broker.serve_yellow(decode_yellow_query(service), sp_host, callback)
            return self.broker.serve_white(decode_white_query(service), sp_host, callback)
        except MalformedDirective:
            return broker_reply(callback, error=ERR_PARAMETERS)

    def shutdown(self) -> None:
        super().shutdown()
        self.broker.shutdown()
