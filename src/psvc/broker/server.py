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
endpoint and PSvc-Error naming any failure.  POST /reload swaps in a
fresh catalog snapshot.
"""

from __future__ import annotations

from pathlib import Path

from ..kit import KitRequest, KitResponse, ServiceServer, header_value
from ..protocol import (
    BROKER_RESULT,
    ERR_PARAMETERS,
    H_CALLBACK,
    H_ERROR,
    H_SERVICE,
    MalformedDirective,
    decode_white_query,
    decode_yellow_query,
)
from ..transcript import SPAWN
from .core import Broker, BrokerReply, write_endpoint_file
from .runtime import ServiceLauncher


class BrokerServer(ServiceServer):
    """Runs a Broker behind a loopback HTTP endpoint and publishes it."""

    def __init__(self, ps_dir: Path | str):
        self.ps_dir = Path(ps_dir)
        self.broker = Broker(self.ps_dir, launcher=ServiceLauncher(on_spawn=self._on_spawn))
        # Bound and listening by now, so a reader of broker.ept can connect.
        super().__init__(("127.0.0.1", 0), self._handle, "Broker")
        write_endpoint_file(self.ps_dir, self.port)

    def _on_spawn(self, descriptor_id: str, port: int, pid: int, count: int) -> None:
        self.transcript.emit(SPAWN, "spawn", descriptor_id, port=port, pid=pid, n=count)

    @staticmethod
    def _reply(reply: BrokerReply, svc_tag: str | None) -> KitResponse:
        headers = [("Location", reply.location)]
        if reply.service is not None:
            headers.append((H_SERVICE, reply.service))
        if reply.error is not None:
            headers.append((H_ERROR, reply.error))
        svc = svc_tag if reply.error is None else None
        note = {"loc": reply.location, "svc": svc, "err": reply.error}
        return KitResponse(BROKER_RESULT, tuple(headers), note=note)

    def _handle(self, request: KitRequest) -> KitResponse:
        if request.method == "POST":
            if request.path != "/reload":
                return KitResponse.text("unknown path\n", 404)
            catalog = self.broker.reload_catalog()
            return KitResponse.text(f"catalog reloaded: {len(catalog)} services\n")
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
                reply = BrokerReply(location=f":{ref}", error=ERR_PARAMETERS)
                return self._reply(reply, None)
            reply = self.broker.resolve_handle(service, sp_host, ref)
            return self._reply(reply, "endpoint")

        if request.path not in ("/yellow", "/white"):
            return KitResponse.text("unknown path\n", 404)
        if not service or not callback or not sp_host:
            reply = BrokerReply(location=callback or ":", error=ERR_PARAMETERS)
            return self._reply(reply, None)
        try:
            if request.path == "/yellow":
                reply = self.broker.serve_yellow(decode_yellow_query(service), sp_host, callback)
                return self._reply(reply, f"names[{reply.names}]")
            reply = self.broker.serve_white(decode_white_query(service), sp_host, callback)
            return self._reply(reply, "handle")
        except MalformedDirective:
            reply = BrokerReply(location=callback, error=ERR_PARAMETERS)
            return self._reply(reply, None)

    def shutdown(self) -> None:
        super().shutdown()
        self.broker.shutdown()
